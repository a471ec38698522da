import copy
import dataclasses
import functools
import json
import sys

import numpy as np
import pytest

from cogflow import flow, harness
from cogflow.blend import BlendedField, BlendSpec
from cogflow.cogspace import ScoreVector, weight_vector
from cogflow.errors import ContractViolation
from cogflow.flow import GenerationRequest, IntegrationConfig
from cogflow.harness import (
    Criterion,
    ExperimentConfig,
    MetricsReport,
    RECORD_FIELDS,
    _generate,
    _map_ordered,
    continuity_sweep,
    cost_accounting,
    emit_report,
    make_record,
    order_bias_experiment,
    run_experiment,
    stochastic_equivalence,
    vertex_recovery,
)
from cogflow.polarize import build_all_sets
from cogflow.semantics import SemanticModel, TargetDistribution, bind

from conftest import make_space


def make_config(n=2, kind="vertex_recovery", **kwargs):
    space = make_space(n)
    model_kwargs = kwargs.pop("model_kwargs", {})
    model_kwargs.setdefault("effect_magnitudes", 1.5)
    model_kwargs.setdefault("position_bias", 0.5)
    model_kwargs.setdefault("default_variance", 0.6)
    model = SemanticModel.for_space(space, **model_kwargs)
    request = dict(
        base_prompt="a valley",
        score=ScoreVector((0.5,) * n),
        blend_mode="full_average",
        integration=IntegrationConfig("rk4", 40),
        sample_count=1500,
        seed=11,
    )
    request_fields = {f.name for f in dataclasses.fields(GenerationRequest)}
    request.update({k: kwargs.pop(k) for k in set(kwargs) & request_fields})
    kwargs.setdefault("oracle_steps", 800)
    return ExperimentConfig(
        kind=kind, space=space, model=model, request=GenerationRequest(**request), **kwargs
    )


# --- vertex recovery --------------------------------------------------------

# the perfbench settings: 2048 samples, rk4 with 100 steps
PERFBENCH = dict(sample_count=2048, integration=IntegrationConfig("rk4", 100))


# settings at which the exact-map checks of a correct program must pass
MAP_SETTINGS = pytest.mark.parametrize("overrides", [
    {},
    # seeds at which the former 3-SE statistics failed a correct program
    dict(PERFBENCH, seed=23),
    dict(PERFBENCH, seed=32),
    dict(integration=IntegrationConfig("midpoint", 100)),
    dict(integration=IntegrationConfig("euler", 100)),
    dict(integration=IntegrationConfig("rk4", 10)),
    # the field varies faster as the target variance leaves 1, either way
    dict(PERFBENCH, model_kwargs={"default_variance": 0.01}),
    dict(model_kwargs={"default_variance": 10.0}),
], ids=["rk4-40", "perfbench-seed-23", "perfbench-seed-32", "midpoint-100", "euler-100",
        "rk4-10", "perfbench-variance-0.01", "variance-10"])


@MAP_SETTINGS
def test_vertex_recovery_passes(overrides):
    report = vertex_recovery(make_config(**overrides))
    assert report.experiment == "vertex_recovery"
    assert len(report.records) == 2 * 4  # two legs per vertex
    assert {c.name for c in report.criteria} == {
        "anchor_target_mean",
        "anchor_target_variance",
        "half_base_oracle_mean",
        "half_base_oracle_cov",
    }
    assert report.passed, [c for c in report.criteria if not c.passed]


def _shift_velocity(monkeypatch, offset):
    evaluate = BlendedField.eval
    monkeypatch.setattr(BlendedField, "eval", lambda self, x, t: evaluate(self, x, t) + offset)


def _inflate_generate_x0(monkeypatch, factor):
    # the harness draws its own x0 through the name it imported, so only
    # generate() sees the inflated states
    draw = flow.initial_states
    monkeypatch.setattr(flow, "initial_states", lambda *args: factor * draw(*args))


# sampler faults that every exact-map check must catch, at perfbench settings
PERTURBATIONS = pytest.mark.parametrize("mutate", [
    # about 10 tol at rk4/100, and far inside the former 3-SE band of ~0.06
    functools.partial(_shift_velocity, offset=2e-7),
    # a 5% variance inflation of the starting states
    functools.partial(_inflate_generate_x0, factor=np.sqrt(1.05)),
], ids=["velocity-offset", "x0-inflation"])


@pytest.mark.parametrize("seed", [0, 23, 32])
@PERTURBATIONS
def test_vertex_recovery_fails_a_perturbed_sampler(monkeypatch, mutate, seed):
    mutate(monkeypatch)
    report = vertex_recovery(make_config(**PERFBENCH, seed=seed))
    assert not report.passed
    assert all(record["discrepancy"] > 1.0 for record in report.records)


def test_vertex_recovery_identity_collapse_binding():
    # every chain prompt and the base bound to one distribution: endpoints
    # must match that target regardless of the score
    cfg = make_config(sample_count=1200)
    sets = build_all_sets(cfg.backend, cfg.request.base_prompt, cfg.space, None)
    shared = TargetDistribution.single(np.array([1.0, -1.0]), 0.6)
    bindings = {cfg.request.base_prompt: shared}
    for prompt_set in sets:
        for result in prompt_set.results:
            bindings[result] = shared
    model = SemanticModel.for_space(
        cfg.space, effect_magnitudes=1.5, position_bias=0.5,
        default_variance=0.6, explicit_bindings=bindings,
    )
    cfg_shared = make_config(sample_count=1200)
    cfg_shared.model = model
    report = vertex_recovery(cfg_shared)
    assert report.passed
    for record in report.records:
        assert np.allclose(record["oracle_mean"], [1.0, -1.0], atol=1e-6)


def test_vertex_recovery_threads_match_sequential():
    sequential = vertex_recovery(make_config(sample_count=300, oracle_steps=200))
    threaded = vertex_recovery(
        make_config(sample_count=300, oracle_steps=200, threads=4)
    )
    a = copy.deepcopy(sequential.to_json_dict())
    b = copy.deepcopy(threaded.to_json_dict())
    for doc in (a, b):
        for rec in doc["records"]:
            rec["wall_ms"] = None
    assert a == b


def test_concurrent_stochastic_generates_equal_sequential_ones():
    # every BlendedField owns its draw key and hash buffer, so generates on
    # more threads than cores give the bits they give one at a time
    cfg = make_config(n=4, blend_mode="stochastic", sample_count=128)
    requests = [dataclasses.replace(cfg.request, seed=seed) for seed in (1, 2, 3, 4)]
    sequential = [_generate(cfg, request).endpoints for request in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _map_ordered(
            lambda request: _generate(cfg, request).endpoints, requests, threads=4
        )
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(sequential, threaded))


# --- continuity -------------------------------------------------------------

# fewer points than the default sweep, to keep the suite fast; three is
# the fewest at which an axis path gets multilinear_response
SHORT_SWEEP = dict(kind="continuity_sweep", grid_points=3)
# an interior path that moves both score coordinates, with the fewest
# points at which it gets multilinear_response
DIAGONAL_SWEEP = dict(
    kind="continuity_sweep", grid_points=4,
    path_start=ScoreVector((0.2, 0.3)), path_stop=ScoreVector((0.9, 0.6)),
)
CRITERIA = {"displacement_ratio_window", "monotone_response", "multilinear_response"}


@MAP_SETTINGS
def test_continuity_sweep_passes(overrides):
    report = continuity_sweep(make_config(**SHORT_SWEEP, **overrides))
    assert {c.name for c in report.criteria} == CRITERIA
    assert report.passed, report.criteria
    assert len(report.records) == 3
    for record in report.records:
        assert record["discrepancy"] <= 1.0
        assert len(record["oracle_mean"]) == 2
        assert set(record["extra"]) == {"projection"}


@MAP_SETTINGS
def test_continuity_sweep_passes_on_a_diagonal_path(overrides):
    report = continuity_sweep(make_config(**DIAGONAL_SWEEP, **overrides))
    assert {c.name for c in report.criteria} == CRITERIA - {"monotone_response"}
    assert report.passed, report.criteria


@pytest.mark.parametrize("seed", [0, 23, 32])
@PERTURBATIONS
def test_continuity_sweep_fails_a_perturbed_sampler(monkeypatch, mutate, seed):
    mutate(monkeypatch)
    cfg = make_config(**PERFBENCH, seed=seed, kind="continuity_sweep", grid_points=2)
    report = continuity_sweep(cfg)
    window = next(c for c in report.criteria if c.name == "displacement_ratio_window")
    assert not window.passed and not report.passed
    assert all(record["discrepancy"] > 1.0 for record in report.records)


def _smoothstep_weights(monkeypatch):
    # weights that keep the partition of unity and the vertex delta, but
    # are cubic in each score: the sampler and the oracle both use them
    def weights(spec):
        s = np.asarray(spec.score.values)
        return weight_vector(ScoreVector(tuple(s * s * (3.0 - 2.0 * s))))

    monkeypatch.setattr(BlendSpec, "weights", weights)


def _score_dependent_base_mix(monkeypatch):
    # a base share that grows with the first score, in the sampler only;
    # the template chains' weighted mean is affine in the score, so a base
    # share affine in it would give a quadratic response, which a path
    # that moves two scores allows
    init = BlendedField.__init__

    def score_mix(self, spec, seed):
        mix = 0.25 + 0.5 * spec.score.values[0] ** 2
        init(self, dataclasses.replace(spec, base_mix=mix), seed)

    monkeypatch.setattr(BlendedField, "__init__", score_mix)


# smoothstep fixes 0, 1/2 and 1, the points of a 3-point axis sweep, so
# it runs on the diagonal path; the base share runs on the default path
@pytest.mark.parametrize("mutate,path", [
    (_smoothstep_weights, DIAGONAL_SWEEP), (_score_dependent_base_mix, SHORT_SWEEP),
], ids=["smoothstep-weights", "score-dependent-base-mix"])
def test_multilinear_response_fails_a_response_that_is_not_multilinear(monkeypatch, mutate, path):
    mutate(monkeypatch)
    for seed in range(50):
        cfg = make_config(**path, seed=seed, sample_count=8, oracle_steps=1,
                          integration=IntegrationConfig("rk4", 4))
        criteria = {c.name: c for c in continuity_sweep(cfg).criteria}
        assert not criteria["multilinear_response"].passed, seed
        if mutate is _smoothstep_weights:
            # the oracle shares the weights, so the map check cannot see them
            assert criteria["displacement_ratio_window"].passed, seed


def _unequal_variances(cfg):
    # the chains of the first anchor bound to a variance of their own: the
    # blend's slope then depends on the score, and so does the response
    first = build_all_sets(cfg.backend, cfg.request.base_prompt, cfg.space, None)[0]
    cfg.model = dataclasses.replace(cfg.model, explicit_bindings={
        result: TargetDistribution.single(bind(cfg.model, result).mean(), 0.3)
        for result in first.results
    })
    return cfg


@pytest.mark.parametrize("path", [SHORT_SWEEP, DIAGONAL_SWEEP], ids=["axis", "diagonal"])
def test_multilinear_response_holds_with_a_base_of_its_own_variance(path):
    # the base bound to a variance of its own: the blend's slope is still
    # the same at every score, so the response is still multilinear
    for seed in range(50):
        cfg = make_config(**path, seed=seed, sample_count=64, oracle_steps=200)
        prompt = cfg.request.base_prompt
        cfg.model = dataclasses.replace(cfg.model, explicit_bindings={
            prompt: TargetDistribution.single(bind(cfg.model, prompt).mean(), 0.3)
        })
        criteria = {c.name: c for c in continuity_sweep(cfg).criteria}
        assert criteria["multilinear_response"].passed, (seed, criteria)


@pytest.mark.parametrize("cfg", [
    lambda: _unequal_variances(make_config(**SHORT_SWEEP, sample_count=64)),
    lambda: make_config(**dict(SHORT_SWEEP, grid_points=2), sample_count=64),
    lambda: make_config(**dict(DIAGONAL_SWEEP, grid_points=3), sample_count=64),
], ids=["unequal-variances", "axis-with-2-points", "diagonal-with-3-points"])
def test_multilinear_response_is_omitted_where_it_does_not_apply(cfg):
    report = continuity_sweep(cfg())
    assert "multilinear_response" not in {c.name for c in report.criteria}
    assert report.passed, report.criteria


def test_continuity_sweep_generates_and_consults_the_oracle_once_per_point(monkeypatch):
    calls = {"generate": 0, "moment_reference": 0}

    def counted(name):
        wrapped = getattr(harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    continuity_sweep(make_config(kind="continuity_sweep", grid_points=4, sample_count=64))
    assert calls == {"generate": 4, "moment_reference": 4}


def test_experiments_build_one_blend_per_generate(monkeypatch):
    # the harness checks each batch against the spec that generate built,
    # and builds none of its own
    calls = []
    build = flow.build_blend_spec

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    for module in (flow, harness):
        monkeypatch.setattr(module, "build_blend_spec", counted)
    vertex_recovery(make_config(sample_count=64))
    assert len(calls) == 8  # two legs at each of 4 vertices
    calls.clear()
    continuity_sweep(make_config(kind="continuity_sweep", grid_points=4, sample_count=64))
    assert len(calls) == 4


@pytest.mark.parametrize("kind,bound", [
    ("vertex_recovery", "base"), ("continuity_sweep", "base"),
    ("vertex_recovery", "chain"), ("continuity_sweep", "chain"),
], ids=["vertex_recovery", "continuity_sweep", "vertex_recovery-chain", "continuity_sweep-chain"])
def test_exact_map_experiments_reject_a_mixture_binding(kind, bound):
    # the moment oracle has no map for a mixture with a share in the blend
    cfg = make_config(kind=kind, sample_count=64)
    mixture = TargetDistribution(
        components=((0.3, np.array([1.0, -1.0]), 0.5), (0.7, np.array([-0.5, 2.0]), 0.8))
    )
    prompt = cfg.request.base_prompt
    if bound == "chain":  # a chain of the first anchor, which every path reaches
        prompt = build_all_sets(cfg.backend, prompt, cfg.space, None)[0].results[0]
    cfg.model = dataclasses.replace(cfg.model, explicit_bindings={prompt: mixture})
    with pytest.raises(ContractViolation, match="not a Gaussian target field"):
        run_experiment(cfg)


def test_continuity_sweep_identical_fields_zero_displacement():
    cfg = make_config(kind="continuity_sweep", sample_count=64, grid_points=3)
    sets = build_all_sets(cfg.backend, cfg.request.base_prompt, cfg.space, None)
    shared = TargetDistribution.single(np.array([0.5, 0.5]), 0.6)
    bindings = {cfg.request.base_prompt: shared}
    for prompt_set in sets:
        for result in prompt_set.results:
            bindings[result] = shared
    cfg.model = SemanticModel.for_space(
        cfg.space, default_variance=0.6, explicit_bindings=bindings
    )
    report = continuity_sweep(cfg)
    criteria = {c.name: c for c in report.criteria}
    assert criteria["displacement_ratio_window"].passed
    assert np.isfinite(criteria["displacement_ratio_window"].value)
    # identity collapse: every point's endpoints have the same bits
    assert criteria["multilinear_response"].value == 0.0
    means = [record["empirical_mean"] for record in report.records]
    assert all(mean == means[0] for mean in means)


def test_continuity_sweep_rejects_fewer_than_two_points():
    with pytest.raises(ContractViolation, match="grid_points"):
        continuity_sweep(make_config(kind="continuity_sweep", grid_points=1))


def test_continuity_sweep_rejects_stochastic_mode():
    cfg = make_config(kind="continuity_sweep", blend_mode="stochastic")
    with pytest.raises(ContractViolation, match="its map checks need the exact affine map"):
        continuity_sweep(cfg)


def test_continuity_sweep_diagonal_path_has_no_monotone_criterion():
    cfg = make_config(
        kind="continuity_sweep", sample_count=64, grid_points=2,
        path_start=ScoreVector((0.2, 0.2)), path_stop=ScoreVector((0.8, 0.8)),
    )
    report = continuity_sweep(cfg)
    assert {c.name for c in report.criteria} == {"displacement_ratio_window"}


# --- order bias --------------------------------------------------------------

def test_order_bias_two_dimensions():
    report = order_bias_experiment(make_config(kind="order_bias"))
    by_name = {c.name: c for c in report.criteria}
    assert by_name["averaged_weights_unbiased"].value <= 1e-12
    # worst single chain deviation is beta*(n-1)/(2n) = 0.5/4
    worst = max(r["extra"]["worst_chain_deviation"] for r in report.records)
    assert abs(worst - 0.125) <= 1e-12
    assert report.passed


def test_order_bias_three_dimensions():
    report = order_bias_experiment(
        make_config(n=3, kind="order_bias", model_kwargs={"position_bias": 0.3})
    )
    by_name = {c.name: c for c in report.criteria}
    assert by_name["averaged_weights_unbiased"].value <= 1e-12
    expected = 0.3 * (3 - 1) / (2 * 3)
    assert by_name["worst_chain_deviation_matches"].value <= 1e-12
    worst = max(r["extra"]["worst_chain_deviation"] for r in report.records)
    assert abs(worst - expected) <= 1e-12


def test_order_bias_zero_bias_warns_and_reports_zero():
    cfg = make_config(kind="order_bias", model_kwargs={"position_bias": 0.0})
    with pytest.warns(UserWarning):
        report = order_bias_experiment(cfg)
    worst = max(r["extra"]["worst_chain_deviation"] for r in report.records)
    assert worst <= 1e-12
    assert report.passed


def test_order_bias_requires_template_backend():
    cfg = make_config(kind="order_bias")

    class OtherBackend:
        backend_id = "other"

        def polarize(self, prompt, dimension, pole):
            return prompt

    cfg.backend = OtherBackend()
    with pytest.raises(ContractViolation):
        order_bias_experiment(cfg)


# --- cost accounting ----------------------------------------------------------

@pytest.mark.parametrize(
    "n,expected_ratio",
    [(1, 1.0), (2, 5 / 9), (3, 9 / 25), (4, 17 / 65)],
)
def test_cost_accounting_ratios(n, expected_ratio):
    cfg = make_config(
        n=n, kind="cost_accounting", sample_count=2,
        integration=IntegrationConfig("rk4", 3),
    )
    report = cost_accounting(cfg)
    assert report.passed
    counts = {r["label"]: r["eval_count"] for r in report.records}
    assert counts["mode_stochastic"] / counts["mode_full_average"] == pytest.approx(
        expected_ratio, abs=0
    )


def test_cost_accounting_exact_counts():
    cfg = make_config(
        kind="cost_accounting", sample_count=4, integration=IntegrationConfig("euler", 5)
    )
    report = cost_accounting(cfg)
    counts = {r["label"]: r["eval_count"] for r in report.records}
    assert counts["mode_stochastic"] == 4 * 5 * 1 * 5
    assert counts["mode_full_average"] == 4 * 5 * 1 * 9


# --- stochastic equivalence -----------------------------------------------------

def test_stochastic_equivalence_passes():
    cfg = make_config(
        kind="stochastic_equivalence", equivalence_seeds=200,
        integration=IntegrationConfig("rk4", 30),
    )
    report = stochastic_equivalence(cfg)
    criterion = report.criteria[0]
    assert criterion.name == "stochastic_matches_full"
    assert criterion.passed
    assert criterion.value <= 1.0


def test_stochastic_equivalence_rejects_a_single_seed():
    # one seed has no standard error, as for its sibling experiments
    cfg = make_config(kind="stochastic_equivalence", equivalence_seeds=1)
    with pytest.raises(ContractViolation, match="equivalence_seeds >= 2, got 1"):
        stochastic_equivalence(cfg)


# --- reports ---------------------------------------------------------------------

def test_emit_report_files_and_round_trip(tmp_path):
    cfg = make_config(
        kind="cost_accounting", sample_count=2, integration=IntegrationConfig("euler", 2)
    )
    report = cost_accounting(cfg)
    assert report.config_digest == ""  # only the CLI stamps a digest
    report.config_digest = "feed"
    paths = emit_report(report, tmp_path / "out")
    names = [p.name for p in paths]
    assert names == ["metrics.json", "metrics.csv", "series.csv"]
    payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert payload["config_digest"] == "feed"
    assert set(payload["summary"]) == {"criteria"}
    assert all(
        set(c) == {"name", "value", "threshold", "pass"}
        for c in payload["summary"]["criteria"]
    )
    assert payload == report.to_json_dict()
    for name in ("metrics.csv", "series.csv"):
        first = (tmp_path / "out" / name).read_text().splitlines()[0]
        assert first == "# config_digest=feed"
    header = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1]
    assert header == ",".join(RECORD_FIELDS)


def test_emit_report_empty_records(tmp_path):
    report = MetricsReport("cost_accounting", "deadbeef", [], [])
    paths = emit_report(report, tmp_path)
    payload = json.loads(paths[0].read_text())
    assert payload["records"] == []
    assert (tmp_path / "metrics.csv").read_text().count("\n") == 2


def test_emit_report_unwritable_directory_leaves_no_partials(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    report = MetricsReport("cost_accounting", "d", [], [])
    with pytest.raises(OSError):
        emit_report(report, blocker / "sub")
    assert blocker.read_text() == "a file, not a directory"
    assert list(tmp_path.iterdir()) == [blocker]


def test_experiment_rerun_reproducible_modulo_wall_time():
    cfg_a = make_config(sample_count=400, oracle_steps=200)
    cfg_b = make_config(sample_count=400, oracle_steps=200)
    doc_a = vertex_recovery(cfg_a).to_json_dict()
    doc_b = vertex_recovery(cfg_b).to_json_dict()
    for doc in (doc_a, doc_b):
        for rec in doc["records"]:
            rec["wall_ms"] = None
    assert doc_a == doc_b


def test_run_experiment_dispatch_and_unknown_kind():
    cfg = make_config(
        kind="cost_accounting", sample_count=2, integration=IntegrationConfig("euler", 2)
    )
    assert run_experiment(cfg).experiment == "cost_accounting"
    cfg.kind = "nonsense"
    with pytest.raises(ContractViolation):
        run_experiment(cfg)


def test_make_record_envelope():
    record = make_record("r", score=[0.5], discrepancy=0.1)
    assert tuple(record.keys()) == RECORD_FIELDS
    with pytest.raises(ContractViolation):
        make_record("r", surprise=1)


def test_criterion_json_shape():
    crit = Criterion("c", 0.5, 1.0)
    assert crit.to_json_dict() == {
        "name": "c",
        "value": 0.5,
        "threshold": 1.0,
        "pass": True,
    }


@pytest.mark.parametrize("value,passed", [(0.5, True), (1.0, True), (1.5, False)])
def test_criterion_passes_iff_value_at_most_threshold(value, passed):
    assert Criterion("c", value, 1.0).passed is passed
    assert MetricsReport("x", "", [], [Criterion("c", value, 1.0)]).passed is passed


def test_experiment_config_rejects_a_non_positive_thread_count():
    for threads in (0, -3, 1.0, True):
        with pytest.raises(ContractViolation, match="threads must be an integer >= 1"):
            make_config(threads=threads)
