import json

import pytest

from cogflow import invariants
from cogflow.cli import build_parser, main


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
    "experiment.deltas=[0.01, 0]",
])
def test_out_of_range_value_fails_before_any_backend_call(tmp_path, caplog, override):
    cfg = write_config(tmp_path, experiment={"kind": "continuity_sweep"})
    code = run_cli("experiment", "--config", str(cfg), "--set", override)
    assert code == 2
    assert override.split("=")[0] in caplog.text
    assert not (tmp_path / "cache.ndjson").exists()


@pytest.mark.parametrize("override", [
    'experiment.deltas=["a"]', 'semantics.base_mean=["x"]',
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


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
def test_threaded_experiment_writes_the_sequential_records(tmp_path, draw_scope):
    # stochastic_equivalence runs a stochastic and a full_average generate,
    # on two worker threads at --threads 2; each field owns its hash buffer
    cfg = write_config(
        tmp_path,
        semantics={"latent_dim": 4},
        space={"dimensions": [{"name": f"d{i}"} for i in range(4)]},
        blend={"mode": "stochastic", "draw_scope": draw_scope},
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
