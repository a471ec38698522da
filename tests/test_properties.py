"""Property-based tests: template tags, anchor weights, the rewrite cache,
the blended field's rows and config resolution."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

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
# leaves that take any value, or whose records have a schema of their own
UNTYPED = {"polarize.cache_path", "semantics.explicit_bindings", "space.dimensions"}


def leaf_paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and path not in UNTYPED:
            yield from leaf_paths(value, path + ".")
        else:
            yield path


def test_leaf_kinds_cover_every_leaf():
    assert set(leaf_paths(DEFAULT_CONFIG)) == set(LEAF_KINDS) | UNTYPED


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
VALID_LEAF = {
    "polarize.llm.timeout_s": st.floats(1e-3, 1e3),
    "blend.draw_scope": st.just("per_eval"),
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
        config.write_text(json.dumps(with_leaf(document, "polarize.cache_path", f"{tmp}/c")))
        assert main(["generate", "--config", str(config)]) == 2
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]
