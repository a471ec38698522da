"""Named experiments verifying the blending mechanism, with reports.

Each experiment compares endpoints against an independent reference
(bound target distributions, the moment oracle, or exact counting) and
emits a MetricsReport; a criterion passes when its value is at most its
threshold. vertex_recovery and continuity_sweep divide each endpoint's
distance from the exact affine map of its flow by the solver's error
bound, _MAP_TOLERANCE[p] * (h / T)**p per unit of map size, with p the
solver's order and T flow.time_scale (see map_discrepancy). The one
sampled comparison, stochastic_equivalence, reports max |diff| /
(3 * SE + 1e-9) per scalar.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from ._fsio import atomic_write_text
from .cogspace import CognitiveSpace, ScoreVector
from .errors import ContractViolation
from .flow import (
    SOLVERS,
    GenerationRequest,
    IntegrationConfig,
    SampleBatch,
    _check_count,
    _check_decoder,
    build_blend_spec,
    generate,
    initial_states,
    moment_reference,
    sample_seeds,
    time_scale,
)
from .polarize import (
    PolarizationCache,
    PolarizerBackend,
    TemplateBackend,
    build_all_sets,
)
from .semantics import SemanticModel, bind

TOLERANCE_FLOOR = 1e-9

RECORD_FIELDS = (
    "label",
    "score",
    "empirical_mean",
    "empirical_cov",
    "oracle_mean",
    "oracle_cov",
    "discrepancy",
    "eval_count",
    "wall_ms",
    "extra",
)


@dataclass(frozen=True)
class Criterion:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.threshold)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass
class MetricsReport:
    experiment: str
    config_digest: str  # stamped by the CLI; empty for a library-built report
    records: list[dict]
    criteria: list[Criterion]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "experiment": self.experiment,
            "records": self.records,
            "summary": {"criteria": [c.to_json_dict() for c in self.criteria]},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MetricsReport":
        return cls(
            experiment=payload["experiment"],
            config_digest=payload["config_digest"],
            records=payload["records"],
            criteria=[
                Criterion(name=c["name"], value=c["value"], threshold=c["threshold"])
                for c in payload["summary"]["criteria"]
            ],
        )


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs.

    request is the template every generation starts from: experiments
    replace its score (and, per leg, its mode, mix or sample count).
    Its score is the one cost_accounting and stochastic_equivalence use.
    """

    kind: str
    space: CognitiveSpace
    model: SemanticModel
    request: GenerationRequest
    path_start: ScoreVector | None = None
    path_stop: ScoreVector | None = None
    grid_points: int = 5
    deltas: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    equivalence_seeds: int = 200
    oracle_steps: int = 2000
    threads: int = 1
    backend: PolarizerBackend = dc_field(default_factory=TemplateBackend)
    cache: PolarizationCache | None = None

    def __post_init__(self):
        for point in (self.request.score, self.path_start, self.path_stop):
            if point is not None and len(point) != self.space.n:
                raise ContractViolation("score or path point does not match the space")
        _check_decoder(self.request, self.model.latent_dim)
        _check_count("threads", self.threads)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None  # strict JSON has no NaN/Inf
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def make_record(label: str, **fields) -> dict:
    unknown = set(fields) - set(RECORD_FIELDS)
    if unknown:
        raise ContractViolation(f"unknown record fields: {sorted(unknown)}")
    record = {key: None for key in RECORD_FIELDS}
    record["label"] = label
    for key, value in fields.items():
        record[key] = _jsonable(value)
    return record


def _map_ordered(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _generate(cfg: ExperimentConfig, request: GenerationRequest, model=None) -> SampleBatch:
    return generate(
        request, cfg.space, model if model is not None else cfg.model, cfg.backend, cfg.cache
    )


def _empirical(endpoints: np.ndarray):
    """Mean, covariance (ddof=1), and the standard error of the mean, of
    two or more endpoints (see _require_two_samples)."""
    mean = endpoints.mean(axis=0)
    cov = np.atleast_2d(np.cov(endpoints, rowvar=False, ddof=1))
    se_mean = np.sqrt(np.diag(cov) / endpoints.shape[0])
    return mean, cov, se_mean


def normalized_discrepancy(diff, se) -> float:
    """max |diff| / (3 * SE + floor); <= 1 means within tolerance."""
    diff = np.abs(np.asarray(diff, dtype=float))
    denom = 3.0 * np.asarray(se, dtype=float) + TOLERANCE_FLOOR
    return float(np.max(diff / denom))


def _require_two_samples(kind: str, name: str, count: int) -> None:
    """Sampled variances, standard errors and spreads need two samples;
    with one, a criterion would divide by zero, see NaN or hold vacuously."""
    if count < 2:
        raise ContractViolation(f"{kind} needs {name} >= 2, got {count}")


# Tolerance of the exact-map check per unit of (h / T)**p and of map size,
# keyed by the solver's order p, with T flow.time_scale; each is at least
# 10 times the worst residual measured (README, "Library example").
_MAP_TOLERANCE = {1: 6.0, 2: 0.15, 4: 0.03}


def map_discrepancy(endpoints, mean, variance, spec, request) -> tuple[float, float, float]:
    """Endpoints of request's blend, spec, against the exact map of its flow.

    A full_average blend of isotropic Gaussian fields has an affine flow:
    it takes x0 to mean + sqrt(variance) * x0, with (mean, variance) the
    target of a one-field blend or moment_reference's endpoint, and x0 the
    starts that generate() draws for request's seed and sample count.
    Returns (d_mean, d_spread, tol): with r each endpoint's residual from
    that map, d_mean is max |mean(r)| / tol and d_spread max |r - mean(r)|
    / tol, and tol = (C_p (h / T)**p + steps eps) * size: C_p (h / T)**p
    bounds the solver's error, one rounding error per step outgrows it for
    rk4 near 900 steps, and size bounds every |map(x0)|. The check is
    deterministic: it has no sampling error.
    """
    x0 = initial_states(sample_seeds(request.seed, request.sample_count), endpoints.shape[1])
    scale = np.sqrt(variance)
    residual = endpoints - (mean + scale * x0)
    order, steps = SOLVERS[request.integration.solver], request.integration.steps
    unit_tol = _MAP_TOLERANCE[order] / (steps * time_scale(spec)) ** order
    unit_tol += steps * np.finfo(float).eps
    tol = unit_tol * (np.max(np.abs(mean)) + scale * np.max(np.abs(x0)))
    location = residual.mean(axis=0)
    d_mean = float(np.max(np.abs(location)) / tol)
    d_spread = float(np.max(np.abs(residual - location)) / tol)
    return d_mean, d_spread, float(tol)


def _oracle_leg(cfg: ExperimentConfig, request: GenerationRequest):
    """(batch, oracle, map_discrepancy) of request's endpoints against the
    map that the moment oracle gives at cfg.oracle_steps. A field with a
    share that is not a GaussianTargetField raises ContractViolation before
    anything is generated."""
    spec = build_blend_spec(request, cfg.space, cfg.model, cfg.backend, cfg.cache)
    oracle = moment_reference(spec, IntegrationConfig(solver="rk4", steps=cfg.oracle_steps))
    batch = _generate(cfg, request)
    check = map_discrepancy(
        batch.endpoints, oracle.endpoint_mean, oracle.variances[-1], spec, request
    )
    return batch, oracle, check


def _map_record(label, score, batch, oracle_mean, oracle_cov, discrepancy, extra) -> dict:
    """The record of a batch checked against the exact map of its flow."""
    mean, cov, _ = _empirical(batch.endpoints)
    return make_record(
        label,
        score=list(score.values),
        empirical_mean=mean,
        empirical_cov=cov,
        oracle_mean=oracle_mean,
        oracle_cov=oracle_cov,
        discrepancy=discrepancy,
        eval_count=batch.metadata["eval_count"],
        wall_ms=batch.metadata["wall_ms"],
        extra=extra,
    )


def vertex_recovery(cfg: ExperimentConfig) -> MetricsReport:
    """Endpoints at vertex scores against the exact map of their flow.

    Both legs integrate full_average blends, checked by map_discrepancy.
    Leg A (anchor target): base_mix=0, position bias zeroed; the blend
    reduces to the anchor's own field, and the map is the anchor's bound
    target. Leg B (half-base): base_mix=0.5 with the configured model; the
    map comes from the closed-form moment oracle.
    """
    _require_two_samples("vertex_recovery", "sample_count", cfg.request.sample_count)
    flat_model = replace(cfg.model, position_bias=0.0)
    sets = build_all_sets(cfg.backend, cfg.request.base_prompt, cfg.space, cfg.cache)

    def run_vertex(prompt_set):
        bits = prompt_set.anchor.bits
        score = ScoreVector(tuple(float(b) for b in bits))
        label = "vertex_" + "".join(str(b) for b in bits)
        # leg A: pure-anchor blend vs the bound target
        request = replace(cfg.request, score=score, blend_mode="full_average", base_mix=0.0)
        spec = build_blend_spec(request, cfg.space, flat_model, cfg.backend, cfg.cache)
        target = bind(flat_model, prompt_set.chains[0].result)
        batch = _generate(cfg, request, model=flat_model)
        mean, variance = target.mean(), target.components[0][2]
        a_mean, a_spread, _ = map_discrepancy(batch.endpoints, mean, variance, spec, request)
        record_a = _map_record(
            f"{label}_anchor_target", score, batch, mean, variance * np.eye(len(mean)),
            max(a_mean, a_spread), {"mean_discrepancy": a_mean, "variance_discrepancy": a_spread},
        )
        # leg B: half-base blend vs the moment oracle
        batch, oracle, (b_mean, b_spread, _) = _oracle_leg(cfg, replace(request, base_mix=0.5))
        record_b = _map_record(
            f"{label}_half_base", score, batch, oracle.endpoint_mean, oracle.endpoint_cov,
            max(b_mean, b_spread), {"mean_discrepancy": b_mean, "cov_discrepancy": b_spread},
        )
        return (record_a, a_mean, a_spread), (record_b, b_mean, b_spread)

    results = _map_ordered(run_vertex, sets, cfg.threads)
    records = [leg[0] for result in results for leg in result]
    criteria = [
        Criterion("anchor_target_mean", max(a[1] for a, _ in results), 1.0),
        Criterion("anchor_target_variance", max(a[2] for a, _ in results), 1.0),
        Criterion("half_base_oracle_mean", max(b[1] for _, b in results), 1.0),
        Criterion("half_base_oracle_cov", max(b[2] for _, b in results), 1.0),
    ]
    return MetricsReport("vertex_recovery", "", records, criteria)


def _axis_direction(cfg: ExperimentConfig, start: ScoreVector, stop: ScoreVector):
    """Latent direction of the swept dimension, if the path is axis-aligned."""
    delta = np.asarray(stop.values) - np.asarray(start.values)
    moving = np.nonzero(np.abs(delta) > 0)[0]
    if len(moving) != 1:
        return None
    return cfg.model.dimension_directions[int(moving[0])] * np.sign(delta[moving[0]])


def continuity_sweep(cfg: ExperimentConfig) -> MetricsReport:
    """Endpoints along a score path, and near each point, against the
    exact map of their flow.

    At each grid point, and at each probe a distance delta from it along
    the path, the endpoints of the full_average blend are checked by
    map_discrepancy against the moment oracle's map at that same score.
    Checking each score's own map, not the displacement between two
    scores, keeps solver errors at nearby scores from cancelling.
    displacement_ratio_window is the worst discrepancy over all points and
    probes. An axis-aligned path also gets monotone_response: the worst
    fall of the sampled mean's projection between successive points, less
    the two points' map tolerances. The points share x0, so those bound
    how far each sampled mean sits from its exact map.
    """
    _require_two_samples("continuity_sweep", "sample_count", cfg.request.sample_count)
    if cfg.request.blend_mode != "full_average":
        raise ContractViolation(
            "continuity_sweep needs full_average mode (stochastic draws break pairing)"
        )
    default_start, default_stop = _default_path(cfg)
    start = cfg.path_start if cfg.path_start is not None else default_start
    stop = cfg.path_stop if cfg.path_stop is not None else default_stop
    start_arr = np.asarray(start.values)
    step = np.asarray(stop.values) - start_arr
    if not np.any(step != 0.0):
        raise ContractViolation("path_start and path_stop coincide")
    unit = step / np.linalg.norm(step)
    points = cfg.grid_points
    if points < 2:
        raise ContractViolation(f"grid_points must be >= 2, got {points}")
    proj_direction = _axis_direction(cfg, start, stop)

    def run_point(j):
        frac = j / (points - 1)
        score_values = start_arr + frac * step
        score = ScoreVector(tuple(score_values))
        batch, oracle, check = _oracle_leg(cfg, replace(cfg.request, score=score))
        worst, tol = max(check[:2]), check[2]
        displacements = {}
        for delta in cfg.deltas:
            probe_values = score_values + delta * unit
            if np.any((probe_values < 0.0) | (probe_values > 1.0)):
                probe_values = score_values - delta * unit
            probe = ScoreVector(tuple(probe_values))
            probe_batch, _, probe_check = _oracle_leg(cfg, replace(cfg.request, score=probe))
            worst = max(worst, *probe_check[:2])
            diff = probe_batch.endpoints - batch.endpoints
            displacements[f"{delta:g}"] = float(np.linalg.norm(diff, axis=1).mean())
        projection = None
        if proj_direction is not None:
            projection = float(batch.endpoints.mean(axis=0) @ proj_direction)
        record = _map_record(
            f"path_point_{j}", score, batch, oracle.endpoint_mean, oracle.endpoint_cov, worst,
            {"displacements": displacements, "projection": projection},
        )
        return record, worst, projection, tol

    results = _map_ordered(run_point, range(points), cfg.threads)
    records = [r[0] for r in results]
    criteria = [Criterion("displacement_ratio_window", max(r[1] for r in results), 1.0)]
    if proj_direction is not None:
        worst = max(
            -(p1 - p0) - (tol0 + tol1)
            for (_, _, p0, tol0), (_, _, p1, tol1) in zip(results, results[1:])
        )
        criteria.append(Criterion("monotone_response", worst, 0.0))
    return MetricsReport("continuity_sweep", "", records, criteria)


def _default_path(cfg: ExperimentConfig) -> tuple[ScoreVector, ScoreVector]:
    center = [0.5] * cfg.space.n
    start, stop = list(center), list(center)
    start[0], stop[0] = 0.0, 1.0
    return ScoreVector(tuple(start)), ScoreVector(tuple(stop))


def order_bias_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Per-chain rewrite-order bias versus its Latin-square average.

    Recovers each chain's per-dimension effective weights from the bound
    target means; single chains overweight late positions, and averaging
    the n cyclic chains cancels the bias exactly.
    """
    if getattr(cfg.backend, "backend_id", "") != "template":
        raise ContractViolation("order_bias_experiment needs the template backend")
    beta = cfg.model.position_bias
    if beta == 0.0:
        warnings.warn("position_bias is 0; order-bias experiment is vacuous")
    model = cfg.model
    sets = build_all_sets(cfg.backend, cfg.request.base_prompt, cfg.space, cfg.cache)
    n = cfg.space.n
    basis = model.dimension_directions.T  # (D, n)
    records = []
    worst_chain = 0.0
    worst_average = 0.0
    for prompt_set in sets:
        signs = np.array([1.0 if b else -1.0 for b in prompt_set.anchor.bits])
        chain_weights = []
        for chain in prompt_set.chains:
            mean = bind(model, chain.result).mean()
            coeff, *_ = np.linalg.lstsq(basis, mean - model.base_mean, rcond=None)
            effective = coeff / (signs * model.effect_magnitudes)
            chain_weights.append(effective)
        chain_weights = np.array(chain_weights)  # (n_chains, n)
        averaged = chain_weights.mean(axis=0)
        chain_dev = float(np.max(np.abs(chain_weights - 1.0)))
        avg_dev = float(np.max(np.abs(averaged - 1.0)))
        worst_chain = max(worst_chain, chain_dev)
        worst_average = max(worst_average, avg_dev)
        label = "".join(str(b) for b in prompt_set.anchor.bits)
        records.append(
            make_record(
                f"anchor_{label}",
                score=[float(b) for b in prompt_set.anchor.bits],
                discrepancy=avg_dev,
                extra={
                    "chain_effective_weights": chain_weights,
                    "averaged_effective_weights": averaged,
                    "worst_chain_deviation": chain_dev,
                },
            )
        )
    bias_gap = abs(worst_chain - beta * (n - 1) / (2.0 * n))
    criteria = [
        Criterion("averaged_weights_unbiased", worst_average, 1e-12),
        Criterion("worst_chain_deviation_matches", bias_gap, 1e-12),
    ]
    return MetricsReport("order_bias", "", records, criteria)


def cost_accounting(cfg: ExperimentConfig) -> MetricsReport:
    """Exact inner-evaluation counts for both modes and their ratio."""
    score = cfg.request.score
    n = cfg.space.n
    per_call = {"stochastic": (1 << n) + 1, "full_average": n * (1 << n) + 1}
    integration = cfg.request.integration
    calls = cfg.request.sample_count * integration.steps * integration.stages_per_step
    records = []
    actual, expected = {}, {}
    modes = ("stochastic", "full_average")

    def run(mode):
        return _generate(cfg, replace(cfg.request, blend_mode=mode))

    for mode, batch in zip(modes, _map_ordered(run, modes, cfg.threads)):
        expected[mode] = calls * per_call[mode]
        actual[mode] = batch.metadata["eval_count"]
        records.append(
            make_record(
                f"mode_{mode}",
                score=list(score.values),
                eval_count=batch.metadata["eval_count"],
                wall_ms=batch.metadata["wall_ms"],
                extra={
                    "expected_eval_count": expected[mode],
                    "per_call_evals": per_call[mode],
                },
            )
        )
    expected_ratio = per_call["stochastic"] / per_call["full_average"]
    measured_ratio = actual["stochastic"] / actual["full_average"]
    gap = {mode: abs(actual[mode] - expected[mode]) for mode in actual}
    criteria = [
        Criterion("stochastic_count_exact", gap["stochastic"], 0.0),
        Criterion("full_count_exact", gap["full_average"], 0.0),
        Criterion("eval_ratio_exact", abs(measured_ratio - expected_ratio), 0.0),
    ]
    return MetricsReport("cost_accounting", "", records, criteria)


def stochastic_equivalence(cfg: ExperimentConfig) -> MetricsReport:
    """Stochastic-mode endpoint mean against the full-average reference."""
    seeds = cfg.equivalence_seeds
    _require_two_samples("stochastic_equivalence", "equivalence_seeds", seeds)
    if cfg.model.position_bias == 0.0:
        warnings.warn("position_bias is 0; chains are identical and modes agree exactly")
    score = cfg.request.score
    modes = ("stochastic", "full_average")

    def run(mode):
        return _generate(cfg, replace(cfg.request, blend_mode=mode, sample_count=seeds))

    batches = dict(zip(modes, _map_ordered(run, modes, cfg.threads)))
    stats = {mode: _empirical(b.endpoints) for mode, b in batches.items()}
    records = [
        make_record(
            f"mode_{mode}",
            score=list(score.values),
            empirical_mean=stats[mode][0],
            empirical_cov=stats[mode][1],
            eval_count=batches[mode].metadata["eval_count"],
            wall_ms=batches[mode].metadata["wall_ms"],
            extra={"seeds": seeds},
        )
        for mode in batches
    ]
    diff = stats["stochastic"][0] - stats["full_average"][0]
    combined_se = np.hypot(stats["stochastic"][2], stats["full_average"][2])
    value = normalized_discrepancy(diff, combined_se)
    criteria = [Criterion("stochastic_matches_full", value, 1.0)]
    records.append(
        make_record(
            "mode_difference",
            score=list(score.values),
            discrepancy=value,
            extra={"mean_difference": diff, "combined_se": combined_se},
        )
    )
    return MetricsReport("stochastic_equivalence", "", records, criteria)


EXPERIMENTS = {
    "vertex_recovery": vertex_recovery,
    "continuity_sweep": continuity_sweep,
    "order_bias": order_bias_experiment,
    "cost_accounting": cost_accounting,
    "stochastic_equivalence": stochastic_equivalence,
}


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    runner = EXPERIMENTS.get(cfg.kind)
    if runner is None:
        raise ContractViolation(
            f"unknown experiment kind {cfg.kind!r}; expected one of {sorted(EXPERIMENTS)}"
        )
    return runner(cfg)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True).replace(",", ";")
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(report: MetricsReport, directory) -> list[Path]:
    """Write metrics.json, metrics.csv, and series.csv atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest_line = f"# config_digest={report.config_digest}"
    written = []

    json_path = directory / "metrics.json"
    atomic_write_text(json_path, json.dumps(report.to_json_dict(), indent=2) + "\n")
    written.append(json_path)

    csv_lines = [digest_line, ",".join(RECORD_FIELDS)]
    for record in report.records:
        csv_lines.append(",".join(_csv_cell(record[field]) for field in RECORD_FIELDS))
    csv_path = directory / "metrics.csv"
    atomic_write_text(csv_path, "\n".join(csv_lines) + "\n")
    written.append(csv_path)

    # plot-ready series: score components vs projection / discrepancy
    n = max((len(r["score"]) for r in report.records if r.get("score")), default=0)
    series_header = ["index", *(f"s{i + 1}" for i in range(n)), "projection", "discrepancy"]
    series_lines = [digest_line, ",".join(series_header)]
    for idx, record in enumerate(report.records):
        score = record.get("score") or [None] * n
        extra = record.get("extra") or {}
        row = (
            [str(idx)]
            + [_csv_cell(s) for s in score]
            + [_csv_cell(extra.get("projection")), _csv_cell(record.get("discrepancy"))]
        )
        series_lines.append(",".join(row))
    series_path = directory / "series.csv"
    atomic_write_text(series_path, "\n".join(series_lines) + "\n")
    written.append(series_path)
    return written
