"""Property-based tests: template tags, anchor weights, the rewrite cache,
the blended field's rows, config resolution and hostile config content."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogflow import config as config_module, invariants
from cogflow.blend import MODES, AnchorFields, BlendedField, BlendSpec
from cogflow.cli import main
from cogflow.cogspace import ScoreVector, enumerate_anchors, weight_vector
from cogflow.config import DEFAULT_CONFIG, apply_overrides, resolve_config
from cogflow.errors import ConfigError
from cogflow.flow import SOLVERS, IntegrationConfig, integrate
from cogflow.polarize import PolarizationCache, format_template_prompt, parse_template_tags
from cogflow.semantics import GaussianTargetField

from conftest import DelegatingField, make_space, seed_cache, stub_digest

# no example database: runs leave nothing in the checkout
PROPERTY = settings(max_examples=200, deadline=None, database=None)

no_markup = st.characters(blacklist_characters="«»")
tag_names = st.text(st.characters(blacklist_characters="«»:"), min_size=1, max_size=8)
tag_lists = st.lists(st.tuples(tag_names, st.sampled_from([0, 1])), max_size=6)


@PROPERTY
@given(base=st.text(no_markup, max_size=20), tags=tag_lists)
def test_template_tags_round_trip(base, tags):
    prompt = format_template_prompt(base, tags)
    # with tags present the separating spaces before them are not base text
    want_base = base.rstrip(" ") if tags else base
    assert parse_template_tags(prompt) == (want_base, tags)
    # formatting what was parsed gives a prompt that parses the same way
    assert parse_template_tags(format_template_prompt(want_base, tags)) == (want_base, tags)


@PROPERTY
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
))
def test_weight_vector_is_a_partition_of_unity(score):
    weights = weight_vector(ScoreVector(tuple(score)))
    assert weights.shape == (1 << len(score),)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 1e-12


@PROPERTY
@given(
    outputs=st.lists(st.text(st.characters(), max_size=12), min_size=1, max_size=5),
    data=st.data(),
)
def test_cache_cut_at_any_byte_reloads_the_records_before_the_cut(outputs, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.ndjson"
        seed_cache(PolarizationCache(path), {f"p{i}": out for i, out in enumerate(outputs)})
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        path.write_bytes(whole[:cut])
        # a record survives when its text, up to its newline, is before the cut
        ends = np.cumsum([len(line) + 1 for line in whole.split(b"\n")[:-1]]) - 1
        kept = {stub_digest(f"p{i}"): out for i, out in enumerate(outputs) if ends[i] <= cut}
        reloaded = PolarizationCache(path)
        assert {d: reloaded.get(d) for d in kept} == kept and len(reloaded) == len(kept)
        # the file now holds exactly the surviving records, newline-terminated
        lines = path.read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["digest"] for line in lines] == list(kept)
        assert all(line.endswith(b"\n") for line in lines)


# --- the blended field's rows -----------------------------------------------------

@PROPERTY
@given(
    n=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    generic=st.booleans(),
    solver=st.sampled_from(sorted(SOLVERS)),
    seeds=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=6),
    data=st.data(),
)
def test_a_one_row_batch_equals_its_row_of_any_batch(n, mode, generic, solver, seeds, data):
    """Integrated from that row's start, a 1-row batch with seed s gives the
    bits of the row with seed s in a random batch, at any score (vertex and
    face coordinates included), in both modes and on both paths."""
    wrap = DelegatingField if generic else (lambda f: f)
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32), label="fields"))

    def field():
        return wrap(GaussianTargetField(rng.normal(size=3), rng.uniform(0.2, 2.0)))

    coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    score = data.draw(st.lists(coordinate, min_size=n, max_size=n), label="score")
    spec = BlendSpec(
        base_field=field(),
        anchor_sets=tuple(
            AnchorFields(a, tuple(field() for _ in range(n)))
            for a in enumerate_anchors(make_space(n))
        ),
        score=ScoreVector(tuple(score)),
        mode=mode,
    )
    seeds = np.array(seeds, dtype=np.uint64)
    x0 = rng.normal(size=(len(seeds), 3))
    r = data.draw(st.integers(0, len(seeds) - 1), label="row")
    row = slice(r, r + 1)
    config = IntegrationConfig(solver, 3)
    batch = BlendedField(spec, seeds)
    assert (batch._bank is None) == generic
    endpoints = integrate(batch, x0, config).endpoint
    alone = integrate(BlendedField(spec, seeds[row]), x0[row], config).endpoint
    assert alone.tobytes() == endpoints[row].tobytes()


# --- config resolution ------------------------------------------------------------

# The JSON kinds each config leaf accepts, written out here as the oracle.
# "number" takes ints and floats; an empty list is every kind of list.
LEAF_KINDS = {
    "semantics.latent_dim": {"int", "null"},
    "semantics.base_mean": {"number", "number_list"},
    "semantics.effect_magnitudes": {"number", "number_list"},
    "semantics.position_bias": {"number"},
    "semantics.default_variance": {"number"},
    "semantics.dimension_directions": {"number_matrix", "null"},
    "polarize.backend": {"str"},
    "polarize.cache_path": {"str", "null"},
    "polarize.llm.endpoint": {"str"},
    "polarize.llm.model": {"str"},
    "polarize.llm.timeout_s": {"number"},
    "polarize.llm.retries": {"int"},
    "blend.mode": {"str"},
    "blend.lambda": {"number"},
    "blend.draw_scope": {"str"},
    "flow.solver": {"str"},
    "flow.steps": {"int"},
    "flow.sample_count": {"int"},
    "flow.seed": {"int"},
    "flow.decoder.kind": {"str"},
    "flow.decoder.matrix": {"number_matrix", "null"},
    "flow.decoder.offset": {"number_list", "null"},
    "experiment.kind": {"str"},
    "experiment.base_prompt": {"str"},
    "experiment.score": {"number_list", "null"},
    "experiment.path_start": {"number_list", "null"},
    "experiment.path_stop": {"number_list", "null"},
    "experiment.grid_points": {"int"},
    "experiment.equivalence_seeds": {"int"},
    "experiment.oracle_steps": {"int"},
    "experiment.output_dir": {"str"},
}
# leaves whose records have a schema of their own
UNTYPED = {"semantics.explicit_bindings", "space.dimensions"}


def leaf_paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and path not in UNTYPED:
            yield from leaf_paths(value, path + ".")
        else:
            yield path


def leaf_default(path: str):
    node = DEFAULT_CONFIG
    for key in path.split("."):
        node = node[key]
    return node


def test_leaf_kinds_cover_every_leaf():
    assert set(leaf_paths(DEFAULT_CONFIG)) == set(LEAF_KINDS) | UNTYPED


def test_every_leaf_resolves_to_a_kind_that_takes_its_default(monkeypatch):
    # a leaf that _KINDS does not list takes its default's kind, which a
    # null default does not name: such a leaf must fail here, not on input
    for path in leaf_paths(DEFAULT_CONFIG):
        default = leaf_default(path)
        assert config_module._checked(path, default, default) is default
    monkeypatch.delitem(config_module._KINDS, "polarize.cache_path")
    with pytest.raises(KeyError):
        config_module._checked("polarize.cache_path", None, None)


def kinds_of(value) -> set[str]:
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if value is None:
        return {"null"}
    if isinstance(value, bool):
        return {"bool"}
    if isinstance(value, int):
        return {"int", "number"}
    if number(value):
        return {"number"}
    if isinstance(value, str):
        return {"str"}
    if isinstance(value, list):
        kinds = set()
        if all(map(number, value)):
            kinds.add("number_list")
        rows = all(isinstance(row, list) and all(map(number, row)) for row in value)
        if rows and len({len(row) for row in value}) <= 1:  # ragged is mistyped
            kinds.add("number_matrix")
        return kinds
    return set()


floats = st.floats(-1e6, 1e6, allow_nan=False)
VALID = {
    # 2..50 meets every lower bound on an int leaf
    "int": st.integers(2, 50),
    "number": st.one_of(floats, st.integers(-50, 50)),
    "number_list": st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=3),
    "number_matrix": st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(floats, min_size=width, max_size=width), max_size=3)
    ),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "null": st.none(),
}
# leaves that accept fewer values than VALID draws for their kinds: a
# number with a lower bound, or a single accepted value
path_text = st.text(st.characters(blacklist_characters="\0"), max_size=8)
VALID_LEAF = {
    "polarize.llm.timeout_s": st.floats(1e-3, 1e3),
    "blend.draw_scope": st.just("per_eval"),
    # a path names no NUL
    "polarize.cache_path": st.one_of(path_text, st.none()),
    "experiment.output_dir": path_text,
}
valid_leaves = st.sampled_from(sorted(LEAF_KINDS)).flatmap(
    lambda path: st.tuples(
        st.just(path),
        VALID_LEAF[path] if path in VALID_LEAF
        else st.sampled_from(sorted(LEAF_KINDS[path])).flatmap(VALID.get),
    )
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-99, 99), floats, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=6,
)


def with_leaf(document: dict, path: str, value) -> dict:
    out = json.loads(json.dumps(document))
    *sections, last = path.split(".")
    node = out
    for key in sections:
        node = node.setdefault(key, {})
    node[last] = value
    return out


@PROPERTY
@given(
    document=st.lists(valid_leaves, max_size=6),
    overrides=st.lists(valid_leaves, min_size=1, max_size=6),
)
def test_overrides_after_resolution_equal_resolving_the_overridden_document(
    document, overrides
):
    doc = {}
    for path, value in document:
        doc = with_leaf(doc, path, value)
    overridden = doc
    for path, value in overrides:
        overridden = with_leaf(overridden, path, value)
    items = [f"{path}={json.dumps(value)}" for path, value in overrides]
    assert apply_overrides(resolve_config(doc), items) == resolve_config(overridden)


@PROPERTY
@given(data=st.data())
def test_every_mistyped_leaf_exits_2(data):
    path = data.draw(st.sampled_from(sorted(LEAF_KINDS)), label="path")
    value = data.draw(
        json_values.filter(lambda v: not kinds_of(v) & LEAF_KINDS[path]), label="value"
    )
    document = with_leaf({}, path, value)
    try:
        resolve_config(document)
    except ConfigError as exc:
        assert path in str(exc)
    else:
        raise AssertionError(f"{path}={value!r} resolved")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"polarize": {"cache_path": f"{tmp}/cache.ndjson"}}))
        assert main(["generate", "--config", str(config), "--set",
                     f"{path}={json.dumps(value)}"]) == 2
        if path != "polarize.cache_path":
            document = with_leaf(document, "polarize.cache_path", f"{tmp}/c")
        config.write_text(json.dumps(document))
        assert main(["generate", "--config", str(config)]) == 2
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]


# --- hostile content ----------------------------------------------------------------

# values of the right kind but hostile content: lone surrogates, NUL, the
# template's tag marks, empty text and text of about 10 000 characters;
# no "/", so a path leaf stays in its example's directory
hostile_text = st.one_of(
    st.text(st.sampled_from(["a", " ", ":", "«", "»", "\0", "\ud800", "\udcff"]), max_size=6),
    st.builds(
        lambda char, count: char * count,
        st.sampled_from(["a", "«", "\0", "\ud800"]), st.integers(9_990, 10_010),
    ),
)
# --set text: json reads 1e400 as inf
HOSTILE_NUMBERS = ["-0.0", "1e308", "-1e308", "1e400", "-1e400"]
# the path leaves' hostile text goes after "cache" and "out" in the
# example's directory, and every example draws it
PATH_LEAVES = {"polarize.cache_path", "experiment.output_dir"}
TEXT_LEAVES = sorted(
    path for path, kinds in LEAF_KINDS.items() if "str" in kinds and path not in PATH_LEAVES
)
POLE_TEXTS = [
    f"space.dimensions.{i}.{key}" for i in range(2)
    for key in ("name", "low_pole_text", "high_pole_text")
]
FLOAT_LEAVES = sorted(p for p in LEAF_KINDS if isinstance(leaf_default(p), float))


@PROPERTY
@given(
    paths=st.tuples(hostile_text, hostile_text),
    texts=st.dictionaries(st.sampled_from(TEXT_LEAVES + POLE_TEXTS), hostile_text, max_size=2),
    numbers=st.dictionaries(st.sampled_from(FLOAT_LEAVES), st.sampled_from(HOSTILE_NUMBERS),
                            max_size=2),
)
def test_hostile_content_ends_in_a_documented_exit_code(paths, texts, numbers):
    """Every count stays small (n = 2, 8 samples, 2 steps, 2 oracle steps),
    so each run is quick; a run may pass, fail or be refused, but it never
    raises, and a refused run writes nothing."""
    overrides = [arg for path, raw in numbers.items() for arg in ("--set", f"{path}={raw}")]
    for command in ("polarize", "generate", "experiment"):
        with tempfile.TemporaryDirectory() as tmp:
            cache, out = (f"{tmp}/{prefix}{text}" for prefix, text in zip(("cache", "out"), paths))
            document = {
                "space": {"dimensions": copy.deepcopy(DEFAULT_CONFIG["space"]["dimensions"])},
                "flow": {"steps": 2, "sample_count": 8},
                "polarize": {"cache_path": cache},
                "experiment": {"oracle_steps": 2, "output_dir": out},
            }
            for path, text in texts.items():
                if path.startswith("space."):
                    _, _, i, key = path.split(".")
                    document["space"]["dimensions"][int(i)][key] = text
                else:
                    document = with_leaf(document, path, text)
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(document))
            code = main([command, "--config", str(config), *overrides])
            assert code in (0, 1, 2, 3)
            if code == 2:
                assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]


def test_validate_reads_no_config(monkeypatch):
    # validate runs the invariant suite and reads no config, so hostile
    # content cannot reach it: one plain run covers it, not the property
    # above. The two slow invariants are stubbed.
    slow = {"weight_partition_of_unity", "gaussian_field_monte_carlo_oracle"}
    checks = [(name, (lambda: None) if name in slow else check)
              for name, check in invariants.INVARIANTS]
    monkeypatch.setattr(invariants, "INVARIANTS", checks)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"polarize": {"cache_path": f"{tmp}/a\0b"}}))
        argv = ["validate", "--config", str(config), "--out", f"{tmp}/out",
                "--set", "experiment.base_prompt=a \ud800 valley"]
        assert main(argv) == 0
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]
