import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cogflow import invariants
from cogflow.cli import build_parser, main
from cogflow.config import config_digest, resolve_config
from cogflow.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, **sections):
    cfg = {
        "semantics": {"effect_magnitudes": 1.5, "position_bias": 0.5, "default_variance": 0.6},
        "blend": {"mode": "full_average"},
        "flow": {"sample_count": 32, "steps": 8, "seed": 3},
        "experiment": {"base_prompt": "a valley", "output_dir": str(tmp_path / "out")},
        "polarize": {"cache_path": str(tmp_path / "cache.ndjson")},
    }
    for key, value in sections.items():
        cfg.setdefault(key, {}).update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# --- orders ------------------------------------------------------------------

def test_orders_output(capsys):
    assert run_cli("orders", "3") == 0
    assert capsys.readouterr().out.strip() == "(1,2,3),(2,3,1),(3,1,2)"


def test_orders_rejects_bad_n(capsys):
    assert run_cli("orders", "7") == 2


# --- validate ------------------------------------------------------------------

# acceptance criteria 01 and 05 run these two checks, which take most of
# the suite's time, so the CLI tests stub them rather than run them twice
SLOW_INVARIANTS = {"weight_partition_of_unity", "gaussian_field_monte_carlo_oracle"}


def test_validate_passes_with_one_line_per_invariant(capsys, monkeypatch):
    checks = [
        (name, (lambda: "stub") if name in SLOW_INVARIANTS else check)
        for name, check in invariants.INVARIANTS
    ]
    assert SLOW_INVARIANTS <= {name for name, _ in checks}
    monkeypatch.setattr(invariants, "INVARIANTS", checks)
    assert run_cli("validate") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == len(checks)
    assert all(line.startswith("PASS") for line in lines)


def test_validate_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(invariants, "INVARIANTS", [("fine", lambda: None), ("broken", broken)])
    assert run_cli("validate") == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS fine",
        "FAIL broken: deliberately broken",
    ]


# --- polarize --------------------------------------------------------------------

def test_polarize_exports_prompt_sets(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli("polarize", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "out" / "polarized_prompts.json").read_text())
    assert doc["base_prompt"] == "a valley"
    assert len(doc["sets"]) == 4
    assert len(doc["sets"][0]["chains"]) == 2


def test_polarize_writes_pinned_bytes(tmp_path):
    # golden sha256 of what `cogflow polarize` itself writes at n = 3, the
    # export and the cache file, for a base prompt whose quote, backslash,
    # tab and non-ASCII letter each need escaping
    cfg = write_config(
        tmp_path,
        space={"dimensions": [{"name": f"d{i}"} for i in (1, 2, 3)]},
        experiment={"base_prompt": 'a "still" valley \\ trübe\tdusk'},
    )
    assert run_cli("polarize", "--config", str(cfg), "--quiet") == 0
    export = (tmp_path / "out" / "polarized_prompts.json").read_bytes()
    cache = (tmp_path / "cache.ndjson").read_bytes()
    assert hashlib.sha256(export).hexdigest() == (
        "89e7e26bd9dd9276a23b9e1d97cb9e6feb057cf3ddcc25d15f4bdca9e2661428"
    )
    assert hashlib.sha256(cache).hexdigest() == (
        "0e6d1a6b6506ec6577d3810ca1feb43ff2d8b96c4fe841c0118850e1c0cc74d2"
    )


def test_polarize_without_config_uses_defaults(tmp_path):
    assert (
        run_cli(
            "polarize", "--out", str(tmp_path / "o"),
            "--set", f"polarize.cache_path={tmp_path / 'c.ndjson'}",
        )
        == 0
    )
    doc = json.loads((tmp_path / "o" / "polarized_prompts.json").read_text())
    assert [d["name"] for d in doc["space"]] == ["valence", "arousal"]


def test_polarize_exit_codes_for_torn_and_corrupt_cache(tmp_path):
    cfg = write_config(tmp_path)
    cache = tmp_path / "cache.ndjson"
    export = tmp_path / "out" / "polarized_prompts.json"
    assert run_cli("polarize", "--config", str(cfg), "--quiet") == 0
    data, warm = cache.read_bytes(), export.read_bytes()
    cache.write_bytes(data[:-20])
    assert run_cli("polarize", "--config", str(cfg), "--quiet") == 0
    assert cache.read_bytes() == data and export.read_bytes() == warm
    first, rest = data.split(b"\n", 1)
    cache.write_bytes(first + b"\n{\n" + rest)
    assert run_cli("polarize", "--config", str(cfg), "--quiet") == 3


def test_cache_path_env_fallback(tmp_path, monkeypatch):
    env_cache = tmp_path / "env_cache.ndjson"
    monkeypatch.setenv("COGFLOW_CACHE_PATH", str(env_cache))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"output_dir": str(tmp_path / "o")}}))
    assert run_cli("polarize", "--config", str(cfg)) == 0
    assert env_cache.exists()


# --- generate ---------------------------------------------------------------------

def test_generate_writes_batch_files(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg)) == 0
    out = tmp_path / "out"
    assert (out / "endpoints.csv").exists()
    assert (out / "decoded.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["sample_count"] == 32
    assert "config_digest" in meta


def test_generate_requires_config():
    assert run_cli("generate") == 2


def test_generate_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
    assert run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "b")) == 0
    a = (tmp_path / "a" / "endpoints.csv").read_bytes()
    b = (tmp_path / "b" / "endpoints.csv").read_bytes()
    assert a == b


def test_generate_seed_flag_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1")
    run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2")
    a = (tmp_path / "a" / "endpoints.csv").read_bytes()
    b = (tmp_path / "b" / "endpoints.csv").read_bytes()
    assert a != b


def test_set_override_is_effective(tmp_path):
    cfg = write_config(tmp_path)
    assert (
        run_cli("generate", "--config", str(cfg), "--set", "blend.lambda=0.25") == 0
    )
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["config"]["base_mix"] == 0.25


# --- config errors -----------------------------------------------------------------

def test_missing_config_file(tmp_path):
    assert run_cli("generate", "--config", str(tmp_path / "nope.json")) == 2


def test_invalid_json_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("generate", "--config", str(path)) == 2


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"blend": {"lamda": 0.5}}))
    assert run_cli("generate", "--config", str(path)) == 2


def test_unknown_override_rejected(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg), "--set", "blend.nope=1") == 2


def test_record_trajectory_is_not_a_config_key(tmp_path):
    # the batch files never held trajectories, so the key was dropped
    cfg = write_config(tmp_path, flow={"record_trajectory": True})
    assert run_cli("generate", "--config", str(cfg)) == 2
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg), "--set", "flow.record_trajectory=true") == 2


def test_out_of_range_config_value(tmp_path):
    cfg = write_config(tmp_path, experiment={"score": [0.5, 1.5]})
    assert run_cli("generate", "--config", str(cfg)) == 2


@pytest.mark.parametrize("override", [
    "flow.steps=abc", 'semantics.latent_dim="x"', "flow.seed=1.5",
    "flow.sample_count=2.5", "experiment.grid_points=1.5",
])
def test_mistyped_value_is_config_error(tmp_path, override):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg), "--set", override) == 2


def test_out_of_range_lambda_fails_before_any_backend_call(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", str(cfg), "--set", "blend.lambda=2") == 2
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("command", ["generate", "experiment"])
@pytest.mark.parametrize("flag", [
    ("--set", "flow.seed=18446744073709551616"), ("--set", "flow.seed=-1"),
    ("--seed", "18446744073709551616"), ("--seed", "-1"),
], ids=["set-2**64", "set-minus-1", "flag-2**64", "flag-minus-1"])
def test_out_of_range_seed_fails_before_any_backend_call(tmp_path, caplog, command, flag):
    # seeds fold modulo 2**64, so these would alias 0 and 2**64 - 1
    cfg = write_config(tmp_path)
    assert run_cli(command, "--config", str(cfg), *flag) == 2
    assert "seed must be an integer in [0, 2**64)" in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("override", [
    "flow.steps=0", "flow.sample_count=0", "experiment.oracle_steps=0",
    "experiment.grid_points=-1", "experiment.equivalence_seeds=1",
])
def test_out_of_range_value_fails_before_any_backend_call(tmp_path, caplog, override):
    cfg = write_config(tmp_path, experiment={"kind": "continuity_sweep"})
    code = run_cli("experiment", "--config", str(cfg), "--set", override)
    assert code == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("override", [
    'semantics.base_mean=["x"]',
    'semantics.effect_magnitudes=[1.0, "x"]', 'experiment.score=["a", 0.5]',
    "experiment.path_start=[0.1, true]", 'experiment.path_stop="0.9"',
])
def test_list_leaf_elements_are_type_checked(tmp_path, caplog, override):
    cfg = write_config(tmp_path, experiment={"kind": "continuity_sweep"})
    code = run_cli("experiment", "--config", str(cfg), "--set", override)
    assert code == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("override", [
    'semantics.dimension_directions=[["x", 0], [0, 1]]',
    'flow.decoder.matrix=[["a", 0], [0, 1]]',
    "flow.decoder.matrix=[[1, 0], 5]",
    'flow.decoder.offset=[0, "y"]',
])
def test_nested_numeric_leaves_are_type_checked(tmp_path, caplog, override):
    decoder = {"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": [0, 0]}
    cfg = write_config(tmp_path, flow={"decoder": decoder})
    code = run_cli("generate", "--config", str(cfg), "--set", override)
    assert code == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("command", ["generate", "experiment"])
@pytest.mark.parametrize("override", [
    'space.dimensions=[{"name": ["a"]}, {"name": "b"}]',
    'semantics.explicit_bindings={"a valley": [{"weight": 1, "variance": 0.6}]}',
    'semantics.explicit_bindings={"a valley": "x"}',
    "semantics.dimension_directions=[[1, 0], [0]]",
    "flow.decoder.matrix=[[1, 0], [0]]",
    "flow.decoder.matrix=[[1, 0, 0], [0, 1, 0]]",
], ids=["list-name", "binding-without-mean", "binding-string", "ragged-directions",
        "ragged-decoder", "decoder-width"])
def test_malformed_records_and_shapes_fail_before_any_backend_call(
    tmp_path, caplog, command, override
):
    # each of these used to end in a TypeError, KeyError or numpy ValueError
    # traceback; the decoder width only after the whole integration
    decoder = {"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": [0, 0]}
    cfg = write_config(tmp_path, flow={"decoder": decoder})
    assert run_cli(command, "--config", str(cfg), "--set", override) == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()
    assert not (tmp_path / "out").exists()


def test_score_of_another_length_fails_before_any_backend_call(tmp_path, caplog):
    # generate used to polarize the 12 prompts of the 2-D space, append
    # them to the cache, and only then fail on the blend's anchor count
    out = tmp_path / "generated"
    cfg = write_config(tmp_path)
    argv = ["generate", "--config", str(cfg), "--out", str(out)]
    assert run_cli(*argv, "--set", "experiment.score=[0.5]") == 2
    assert "score has 1 entries, but the space has 2 dimensions" in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("flow.decoder.matrix=[[1e999, 0], [0, 1]]",
     "flow.decoder.matrix must be a list of equal-length number lists or null, "
     "got [[inf, 0], [0, 1]]"),
    ("flow.decoder.offset=[1e999, 0]",
     "flow.decoder.offset must be a list of numbers or null, got [inf, 0]"),
], ids=["matrix", "offset"])
def test_non_finite_affine_decoder_is_config_error(tmp_path, caplog, override, message):
    # json reads 1e999 as inf, which decoded.csv carried into every row;
    # config resolution refuses it before AffineDecoder's own check can
    decoder = {"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": [0, 0]}
    cfg = write_config(tmp_path, flow={"decoder": decoder})
    out = tmp_path / "generated"
    assert run_cli("generate", "--config", str(cfg), "--out", str(out), "--set", override) == 2
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("kind", ["vertex_recovery", "continuity_sweep"])
def test_mixture_binding_in_an_exact_map_experiment_is_config_error(tmp_path, caplog, kind):
    # the moment oracle refuses the sampled blend after the leg's generate,
    # before any report is written
    mixture = [
        {"weight": 0.3, "mean": [1.0, -1.0], "variance": 0.5},
        {"weight": 0.7, "mean": [-0.5, 2.0], "variance": 0.8},
    ]
    cfg = write_config(
        tmp_path, experiment={"kind": kind},
        semantics={"explicit_bindings": {"a valley": mixture}},
    )
    assert run_cli("experiment", "--config", str(cfg)) == 2
    assert "not a Gaussian target field" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["vertex_recovery", "continuity_sweep"])
def test_sampled_experiment_on_one_sample_fails_before_any_backend_call(
    tmp_path, caplog, kind
):
    # one sample has no variance: vertex_recovery divided by zero, and
    # continuity_sweep passed monotone_response at -inf on a NaN SE
    cfg = write_config(tmp_path, experiment={"kind": kind})
    code = run_cli("experiment", "--config", str(cfg), "--set", "flow.sample_count=1")
    assert code == 2
    assert f"{kind} needs sample_count >= 2, got 1" in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()
    assert not (tmp_path / "out").exists()


def test_llm_backend_without_endpoint_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("polarize", "--config", str(cfg), "--backend", "llm") == 2


@pytest.mark.parametrize("override", [
    "polarize.llm.retries=-1", "polarize.llm.timeout_s=-1", "polarize.llm.timeout_s=0",
])
def test_bad_llm_retries_or_timeout_is_config_error(tmp_path, caplog, monkeypatch, override):
    # retries=-1 made no attempt and ended in an AssertionError traceback;
    # timeout_s=-1 ran every retry and its backoff, then exited 3
    class NoRequests:
        def post(self, *args, **kwargs):
            raise AssertionError("no request may be sent")

    monkeypatch.setattr("requests.Session", NoRequests)
    cfg = write_config(tmp_path, polarize={"llm": {"endpoint": "http://127.0.0.1:9"}})
    code = run_cli("generate", "--config", str(cfg), "--backend", "llm", "--set", override)
    assert code == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()
    assert not (tmp_path / "out").exists()


LONE_SURROGATE = "a \ud800 valley"


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("command", ["polarize", "generate", "experiment"])
def test_text_that_utf8_cannot_encode_is_config_error(tmp_path, caplog, command, source):
    # a lone surrogate, which a JSON string can carry, ended in a
    # UnicodeEncodeError traceback from the rewrite cache's digest
    if source == "file":
        cfg = write_config(tmp_path, experiment={"base_prompt": LONE_SURROGATE})
        argv = []
    else:
        cfg = write_config(tmp_path)
        argv = ["--set", f"experiment.base_prompt={LONE_SURROGATE}"]
    assert run_cli(command, "--config", str(cfg), *argv) == 2
    assert "experiment.base_prompt" in caplog.text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("override", [
    "polarize.cache_path=[1]", "polarize.cache_path=5", "polarize.cache_path=true",
    'polarize.cache_path="a\\u0000b"', 'experiment.output_dir="o\\u0000x"',
    "polarize.llm.timeout_s=1e400",
], ids=["cache-list", "cache-number", "cache-bool", "cache-nul", "output-nul", "timeout-inf"])
@pytest.mark.parametrize("command", ["polarize", "generate", "experiment"])
def test_unusable_path_or_infinite_number_is_config_error(tmp_path, caplog, command, override):
    # a cache path that was no string ended in a TypeError traceback, a NUL
    # in a path in "ValueError: embedded null byte" (for output_dir after
    # the whole run), and json reads 1e400 as inf, which passed timeout_s > 0
    assert run_cli(command, "--config", str(write_config(tmp_path)), "--set", override) == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("overrides", [
    ["semantics.default_variance=1e308"],
    ["semantics.base_mean=1e308", "semantics.effect_magnitudes=1e308"],
], ids=["variance", "means"])
@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_model_past_float_range_fails_before_any_backend_call(
    tmp_path, caplog, command, overrides
):
    # a variance of 1e308 sized the moment oracle's grid past numpy's
    # largest array (a ValueError traceback), and tagged means of
    # 1e308 + 1e308 were refused only when bound, after the cache was written
    argv = [arg for override in overrides for arg in ("--set", override)]
    assert run_cli(command, "--config", str(write_config(tmp_path)), *argv) == 2
    assert "config error" in caplog.text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


COUNT_BOUNDS = {
    "semantics.latent_dim": 1024,
    "flow.steps": 100_000,
    "flow.sample_count": 1 << 20,
    "experiment.oracle_steps": 100_000,
    "experiment.grid_points": 1000,
    "experiment.equivalence_seeds": 1 << 20,
}


@pytest.mark.parametrize("leaf", sorted(COUNT_BOUNDS))
@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_count_past_its_bound_fails_before_any_backend_call(
    tmp_path, caplog, monkeypatch, command, leaf
):
    # flow.sample_count=1e20 was polarized, cached, and then ended in a
    # ValueError traceback from numpy, exit 1
    def no_backend_call(self, *args, **kwargs):
        raise AssertionError("the backend was called")

    monkeypatch.setattr("cogflow.polarize.TemplateBackend.polarize", no_backend_call)
    cfg = write_config(tmp_path)
    for value in (COUNT_BOUNDS[leaf] + 1, 10**20):
        assert run_cli(command, "--config", str(cfg), "--set", f"{leaf}={value}") == 2
        assert f"{leaf} must be <= {COUNT_BOUNDS[leaf]}, got {value}" in caplog.text
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("leaf", sorted(COUNT_BOUNDS))
def test_count_at_its_bound_resolves(leaf):
    document = {}
    section, key = leaf.split(".")
    document[section] = {key: COUNT_BOUNDS[leaf]}
    assert resolve_config(document)[section][key] == COUNT_BOUNDS[leaf]


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_counts_whose_state_is_over_the_element_budget_fail_before_any_backend_call(
    tmp_path, caplog, monkeypatch, command
):
    # each count at its own bound, together an 8 GiB (B, D) state, which
    # numpy refused in a MemoryError traceback
    def no_backend_call(self, *args, **kwargs):
        raise AssertionError("the backend was called")

    monkeypatch.setattr("cogflow.polarize.TemplateBackend.polarize", no_backend_call)
    cfg = write_config(tmp_path)
    sets = ["--set", "flow.sample_count=1048576", "--set", "semantics.latent_dim=1024"]
    assert run_cli(command, "--config", str(cfg), *sets) == 2
    assert "sample_count 1048576 x latent dim 1024 is 1073741824 elements" in caplog.text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


def test_state_of_exactly_the_element_budget_resolves():
    """sample_count x D may reach flow.ELEMENT_BUDGET, 2**24, and not pass
    it; D defaults to max(2, n) for a space of n dimensions."""
    budget = 1 << 24
    assert resolve_config({"flow": {"sample_count": budget // 1024},
                           "semantics": {"latent_dim": 1024}})
    with pytest.raises(ConfigError, match="more than the budget of 16777216"):
        resolve_config({"flow": {"sample_count": budget // 1024 + 1},
                        "semantics": {"latent_dim": 1024}})
    for n, fits in ((16, True), (17, False)):
        document = {"space": {"dimensions": [{"name": f"d{i}"} for i in range(n)]},
                    "flow": {"sample_count": 1 << 20}}
        if fits:
            assert resolve_config(document)["flow"]["sample_count"] == 1 << 20
        else:
            with pytest.raises(ConfigError, match="latent dim 17"):
                resolve_config(document)


def test_key_that_utf8_cannot_encode_is_config_error(tmp_path, caplog):
    # an argument byte that is not UTF-8 reaches Python as a lone surrogate
    cfg = write_config(tmp_path)
    key = "semantics.explicit_bindings.a \udcff valley"
    assert run_cli("polarize", "--config", str(cfg), "--set", f"{key}=[]") == 2
    assert "is not UTF-8 encodable" in caplog.text
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


def test_llm_reply_that_utf8_cannot_encode_exits_3(tmp_path, monkeypatch):
    class SurrogateReply:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"content": LONE_SURROGATE}}]}

    class SurrogateSession:
        def post(self, *args, **kwargs):
            return SurrogateReply()

    monkeypatch.setattr("requests.Session", SurrogateSession)
    cfg = write_config(tmp_path, polarize={"llm": {"endpoint": "http://127.0.0.1:9"}})
    argv = ["--backend", "llm", "--set", "polarize.llm.retries=0"]
    assert run_cli("polarize", "--config", str(cfg), *argv) == 3
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache.ndjson").exists()


NON_FINITE = [
    "semantics.default_variance=NaN", "semantics.position_bias=Infinity",
    "semantics.effect_magnitudes=[1.5, NaN]", "semantics.base_mean=-Infinity",
    "semantics.dimension_directions=[[NaN, 0], [0, 1]]",
]


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("override", NON_FINITE)
def test_non_finite_number_is_config_error(tmp_path, caplog, override, source):
    # json reads NaN and Infinity, and a NaN passes every bound, since every
    # comparison with it is false: these ran and exited 1 with a
    # DivergenceError at step 0
    key, raw = override.split("=", 1)
    if source == "set":
        cfg = write_config(tmp_path)
        argv = ["--set", override]
    else:  # json.dumps writes NaN and Infinity as such
        cfg = write_config(tmp_path, semantics={key.split(".")[1]: json.loads(raw)})
        argv = []
    out = tmp_path / "generated"
    assert run_cli("generate", "--config", str(cfg), "--out", str(out), *argv) == 2
    assert (key if source == "set" else "is not a finite number") in caplog.text
    assert not out.exists()


def test_experiment_deltas_is_an_unknown_key(tmp_path, caplog):
    # continuity_sweep probes no scores near its points any more
    out = tmp_path / "report"
    cfg = write_config(tmp_path, experiment={"kind": "continuity_sweep"})
    argv = ["experiment", "--config", str(cfg), "--out", str(out)]
    assert run_cli(*argv, "--set", "experiment.deltas=[0.01]") == 2
    assert "unknown config key(s): experiment.deltas" in caplog.text
    write_config(tmp_path, experiment={"kind": "continuity_sweep", "deltas": [0.01]})
    assert run_cli(*argv) == 2
    assert "unknown config key(s): experiment.deltas" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("latent_dim", [-1, 1])
def test_latent_dim_below_two_is_config_error(tmp_path, caplog, latent_dim):
    # a negative dim used to reach np.eye and end in a numpy traceback
    cfg = write_config(tmp_path)
    code = run_cli("generate", "--config", str(cfg), "--set", f"semantics.latent_dim={latent_dim}")
    assert code == 2
    assert "latent_dim must be >= 2" in caplog.text
    assert not (tmp_path / "out").exists()


def test_draw_scope_accepts_per_eval_only(tmp_path, caplog):
    cfg = write_config(tmp_path, blend={"mode": "stochastic", "draw_scope": "per_eval"})
    for scope in ("per_step", "sometimes"):
        code = run_cli("generate", "--config", str(cfg), "--set", f"blend.draw_scope={scope}")
        assert code == 2
        assert f"blend.draw_scope must be 'per_eval', got {scope!r}" in caplog.text
        assert not (tmp_path / "out").exists()
    assert run_cli("generate", "--config", str(cfg)) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    resolved = resolve_config(json.loads(cfg.read_text()))
    assert meta["config_digest"] == config_digest(resolved)
    assert "draw_scope" not in meta["config"]


def test_default_config_digest_is_unchanged():
    # the digest of the defaults, re-recorded when experiment.deltas left
    # them; blend.draw_scope and its one value stay in the digest
    want = "a4a7661f3272d55b6501fa75a9d507bc1eda1fc9f974fc16afa7d7bf6b6460a0"
    assert config_digest(resolve_config({})) == want
    assert config_digest(resolve_config({"blend": {"draw_scope": "per_eval"}})) == want


# --- experiment --------------------------------------------------------------------

def test_experiment_cost_accounting(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "cost_accounting"},
        flow={"sample_count": 2, "steps": 3, "seed": 3},
    )
    assert run_cli("experiment", "--config", str(cfg)) == 0
    out = tmp_path / "out"
    report = json.loads((out / "metrics.json").read_text())
    assert report["experiment"] == "cost_accounting"
    assert all(c["pass"] for c in report["summary"]["criteria"])
    printed = capsys.readouterr().out
    assert "PASS" in printed


def test_generate_and_experiment_stamp_the_same_digest(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "cost_accounting"},
        flow={"sample_count": 2, "steps": 3, "seed": 3},
    )
    assert run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "g")) == 0
    assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "e")) == 0
    meta = json.loads((tmp_path / "g" / "metadata.json").read_text())
    report = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert len(meta["config_digest"]) == 64
    assert report["config_digest"] == meta["config_digest"]


def test_threaded_experiment_writes_the_sequential_records(tmp_path):
    # stochastic_equivalence runs a stochastic and a full_average generate,
    # on two worker threads at --threads 2; each field owns its hash buffer
    cfg = write_config(
        tmp_path,
        semantics={"latent_dim": 4},
        space={"dimensions": [{"name": f"d{i}"} for i in range(4)]},
        blend={"mode": "stochastic"},
        experiment={"kind": "stochastic_equivalence", "equivalence_seeds": 64},
    )
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert run_cli("experiment", "--config", str(cfg), "--threads", threads,
                       "--out", str(out)) == 0
        report = json.loads((out / "metrics.json").read_text())
        for record in report["records"]:
            record.pop("wall_ms")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["records"][0]["label"] == "mode_stochastic"


def test_experiment_unwritable_out_dir(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment={"kind": "cost_accounting"},
        flow={"sample_count": 2, "steps": 3, "seed": 3},
    )
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    code = run_cli("experiment", "--config", str(cfg), "--out", str(blocker / "sub"))
    assert code == 3
    assert blocker.read_text() == "file"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_experiment_rejects_a_non_positive_thread_count(tmp_path, caplog, threads):
    cfg = write_config(tmp_path, experiment={"kind": "cost_accounting"})
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", str(cfg), "--threads", threads,
                   "--out", str(out)) == 2
    assert f"threads must be an integer >= 1, got {threads}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["orders", "validate", "polarize", "generate"])
def test_every_subcommand_rejects_a_non_positive_thread_count(tmp_path, caplog, command, threads):
    out = tmp_path / "run"
    argv = {
        "orders": ["orders", "2"],
        "validate": ["validate"],
        "polarize": ["polarize", "--config", str(write_config(tmp_path)), "--out", str(out)],
        "generate": ["generate", "--config", str(write_config(tmp_path)), "--out", str(out)],
    }[command]
    assert run_cli(*argv, "--threads", threads) == 2
    assert f"threads must be an integer >= 1, got {threads}" in caplog.text
    assert not out.exists()


def test_verbose_logs_each_blended_fields_path(tmp_path):
    # a fresh process, so that --verbose configures logging as a user's
    # run does; the generate builds one full_average field of 32 rows
    cfg = write_config(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "cogflow.cli", "generate", "--config", str(cfg), "--verbose"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if "cogflow.blend" in line]
    # 9 fields (the base and 4 anchors of 2 chains), a (2, 32) mean and shift each
    assert lines == [
        "DEBUG cogflow.blend: blended field: bank path, full_average, width 32, "
        "9216 bytes of constants"
    ]


def test_experiment_unknown_kind(tmp_path):
    cfg = write_config(tmp_path, experiment={"kind": "nope"})
    assert run_cli("experiment", "--config", str(cfg)) == 2


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["generate", "--help"])
    text = capsys.readouterr().out
    for flag in ("--config", "--out", "--set", "--threads", "--seed", "--backend",
                 "--quiet", "--verbose"):
        assert flag in text
