"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are pinned here, except those of criteria 01,
02, 03 and 05, which run the checks of cogflow.invariants (the suite
`cogflow validate` runs). Where the flow is affine (criteria 06, 11 and
12), every endpoint is checked against the exact map of its flow within
the solver's error bound (harness.map_discrepancy), and criterion 11
checks that the endpoints along its path respond to the score as a
multilinear function does, within a rounding bound; the one statistical
check, criterion 07, uses |empirical - reference| <= 3 * SE (+1e-9
floor). All use fixed seeds, so every run is deterministic.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np

from cogflow import invariants
from cogflow.cli import main as cli_main
from cogflow.cogspace import ScoreVector
from cogflow.flow import (
    GenerationRequest,
    IntegrationConfig,
    build_blend_spec,
    generate,
    initial_states,
    integrate,
    moment_reference,
    sample_seeds,
)
from cogflow.harness import (
    ExperimentConfig,
    continuity_sweep,
    map_discrepancy,
    order_bias_experiment,
    stochastic_equivalence,
)
from cogflow.semantics import GaussianTargetField, SemanticModel

from conftest import make_space
from test_flow import solver_order_slope


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d} {name}{suffix}")
    assert passed, f"criterion {number} {name}{suffix}"


def check(number: int, name: str, invariant):
    """Report an invariant of cogflow.invariants as one criterion."""
    try:
        detail = invariant()
    except AssertionError as exc:
        report(number, name, False, str(exc))
    else:
        report(number, name, True, detail)


def biased_setup(n=2):
    space = make_space(n)
    model = SemanticModel.for_space(
        space, effect_magnitudes=1.5, position_bias=0.5, default_variance=0.6
    )
    return space, model


def test_criterion_01_weight_partition_of_unity():
    check(1, "weight partition of unity", invariants.weight_partition_of_unity)


def test_criterion_02_vertex_delta_exact():
    check(2, "vertex weights exactly one-hot", invariants.weight_vertex_delta)


def test_criterion_03_latin_square_property():
    check(3, "cyclic chain orders form a Latin square", invariants.latin_square_orders)


def test_criterion_04_gaussian_push_forward():
    mean = np.array([3.0, -2.0])
    variance = 0.25
    started = time.perf_counter()
    x0 = initial_states(sample_seeds(404, 20_000), dim=2)
    endpoints = integrate(
        GaussianTargetField(mean, variance), x0, IntegrationConfig("rk4", 200)
    ).endpoint
    elapsed = time.perf_counter() - started
    mean_gap = np.max(np.abs(endpoints.mean(axis=0) - mean))
    var_gap = np.max(np.abs(endpoints.var(axis=0, ddof=1) - variance))
    report(
        4,
        "gaussian field push-forward",
        mean_gap <= 0.05 and var_gap <= 0.05 and elapsed < 10.0,
        f"mean gap {mean_gap:.4f}, var gap {var_gap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_closed_form_vs_monte_carlo():
    check(
        5,
        "closed form matches Monte-Carlo oracle",
        invariants.gaussian_field_monte_carlo_oracle,
    )


def test_criterion_06_blend_oracle_agreement():
    # a full_average blend of Gaussian fields has an affine flow, which the
    # oracle's (m, c) give exactly: every endpoint is m + sqrt(c) * x0, up to
    # the solver's error bound
    space, model = biased_setup(2)
    worst = largest_tol = 0.0
    for base_mix in (0.0, 0.5):
        for score_values in ((0.0, 0.0), (0.5, 0.5), (0.3, 0.8)):
            request = GenerationRequest(
                base_prompt="a valley",
                score=ScoreVector(score_values),
                seed=606,
                sample_count=20_000,
                blend_mode="full_average",
                base_mix=base_mix,
                integration=IntegrationConfig("rk4", 100),
            )
            batch = generate(request, space, model)
            spec = build_blend_spec(request, space, model)
            oracle = moment_reference(spec, IntegrationConfig("rk4", 2000))
            d_mean, d_spread, tol = map_discrepancy(
                batch.endpoints, oracle.endpoint_mean, oracle.variances[-1], spec, request
            )
            worst = max(worst, d_mean, d_spread)
            largest_tol = max(largest_tol, tol)
    report(
        6,
        "blend endpoints match moment oracle",
        worst <= 1.0,
        f"worst map discrepancy {worst:.3g}, tolerances up to {largest_tol:.2g}",
    )


def test_criterion_07_stochastic_unbiasedness():
    space, model = biased_setup(2)
    cfg = ExperimentConfig(
        kind="stochastic_equivalence",
        space=space,
        model=model,
        request=GenerationRequest(
            base_prompt="a valley",
            score=ScoreVector((0.5, 0.5)),
            integration=IntegrationConfig("rk4", 100),
            seed=707,
        ),
        equivalence_seeds=200,
    )
    criterion = stochastic_equivalence(cfg).criteria[0]
    report(
        7,
        "stochastic mode unbiased vs full average",
        criterion.passed,
        f"max |diff|/(3 combined se)={criterion.value:.3f} over 200 seeds",
    )


def test_criterion_08_eval_count_accounting():
    ok = True
    details = []
    for n in range(1, 5):
        space, model = biased_setup(n)
        counts = {}
        for mode, per_call in (
            ("stochastic", (1 << n) + 1),
            ("full_average", n * (1 << n) + 1),
        ):
            request = GenerationRequest(
                base_prompt="a valley",
                score=ScoreVector((0.5,) * n),
                seed=808,
                sample_count=3,
                blend_mode=mode,
                integration=IntegrationConfig("rk4", 4),
            )
            batch = generate(request, space, model)
            expected = 3 * 4 * 4 * per_call
            ok = ok and batch.metadata["eval_count"] == expected
            counts[mode] = batch.metadata["eval_count"]
        measured = counts["stochastic"] / counts["full_average"]
        expected_ratio = ((1 << n) + 1) / (n * (1 << n) + 1)
        ok = ok and measured == expected_ratio
        details.append(f"n={n} ratio {measured:.3f}")
    report(8, "evaluation counts exact", ok, "; ".join(details))


def test_criterion_09_solver_convergence_orders():
    expected = {"euler": (1.0, 0.15), "midpoint": (2.0, 0.3), "rk4": (4.0, 0.5)}
    slopes = {solver: solver_order_slope(solver) for solver in expected}
    ok = all(
        abs(slopes[solver] - order) <= tol for solver, (order, tol) in expected.items()
    )
    detail = ", ".join(f"{s}={v:.2f}" for s, v in slopes.items())
    report(9, "solver convergence orders", ok, detail)


def test_criterion_10_order_bias_cancellation():
    ok = True
    details = []
    for n in (2, 3):
        space = make_space(n)
        model = SemanticModel.for_space(
            space, effect_magnitudes=1.5, position_bias=0.5, default_variance=0.6
        )
        request = GenerationRequest("a mountain lake", ScoreVector((0.5,) * n))
        cfg = ExperimentConfig(kind="order_bias", space=space, model=model, request=request)
        outcome = order_bias_experiment(cfg)
        by_name = {c.name: c for c in outcome.criteria}
        averaged = by_name["averaged_weights_unbiased"].value
        worst = max(r["extra"]["worst_chain_deviation"] for r in outcome.records)
        expected_worst = 0.5 * (n - 1) / (2 * n)
        ok = ok and averaged <= 1e-12 and abs(worst - expected_worst) <= 1e-12
        details.append(f"n={n}: averaged {averaged:.1e}, worst {worst:.6f}")
    report(10, "Latin-square order bias cancellation", ok, "; ".join(details))


def sweep(sample_count, seed, **path):
    """Continuity sweep over 5 grid points, full_average, rk4 with 60 steps."""
    space, model = biased_setup(2)
    request = GenerationRequest(
        base_prompt="a valley",
        score=ScoreVector((0.5, 0.5)),
        blend_mode="full_average",
        integration=IntegrationConfig("rk4", 60),
        sample_count=sample_count,
        seed=seed,
    )
    return continuity_sweep(ExperimentConfig(
        "continuity_sweep", space, model, request, grid_points=5, **path
    ))


def test_criterion_11_continuity_displacement_scaling():
    # every path point against its own exact map, and the response along
    # the path against a polynomial of the degree the path allows
    outcome = sweep(sample_count=256, seed=1111)
    criteria = {c.name: c for c in outcome.criteria}
    window, multilinear = criteria["displacement_ratio_window"], criteria["multilinear_response"]
    report(
        11,
        "endpoints along the path follow the exact map and a multilinear response",
        window.passed and multilinear.passed,
        f"worst map discrepancy {window.value:.3g} over {len(outcome.records)} points; "
        f"multilinear residual {multilinear.value:.3g} of its rounding tolerance",
    )


def test_criterion_12_monotone_response():
    outcome = sweep(
        sample_count=2048,
        seed=1212,
        path_start=ScoreVector((0.0, 0.5)),
        path_stop=ScoreVector((1.0, 0.5)),
    )
    monotone = next(c for c in outcome.criteria if c.name == "monotone_response")
    projections = [rec["extra"]["projection"] for rec in outcome.records]
    report(
        12,
        "projected response monotone in the swept score",
        monotone.passed,
        f"worst fall beyond the map tolerances {monotone.value:.3g}; projections "
        + ", ".join(f"{p:.3f}" for p in projections),
    )


def test_criterion_13_generate_determinism(tmp_path):
    config = {
        "semantics": {
            "effect_magnitudes": 1.5,
            "position_bias": 0.5,
            "default_variance": 0.6,
        },
        "blend": {"mode": "full_average"},
        "flow": {"sample_count": 2048, "steps": 100, "seed": 1313},
        "experiment": {"base_prompt": "a valley"},
        "polarize": {"cache_path": str(tmp_path / "cache.ndjson")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for out in ("run_a", "run_b"):
        code = cli_main(
            ["generate", "--config", str(path), "--out", str(tmp_path / out)]
        )
        assert code == 0
    bytes_a = (tmp_path / "run_a" / "endpoints.csv").read_bytes()
    bytes_b = (tmp_path / "run_b" / "endpoints.csv").read_bytes()
    decoded_a = (tmp_path / "run_a" / "decoded.csv").read_bytes()
    decoded_b = (tmp_path / "run_b" / "decoded.csv").read_bytes()
    report(
        13,
        "generate is byte-identical across runs",
        bytes_a == bytes_b and decoded_a == decoded_b,
        f"{len(bytes_a)} bytes compared",
    )
