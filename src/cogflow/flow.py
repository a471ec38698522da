"""Probability-flow ODE integration and the end-to-end generation pipeline.

Time runs from t = 0 (standard-normal noise) to t = 1 (data); the state
follows dx/dt = v(x, t) on the uniform grid t_i = i / N with fixed-step
explicit solvers. Endpoints of affine blends can be cross-checked against
a moment ODE that evolves the exact Gaussian mean and covariance, which
is the module's independent oracle.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import streams
from .blend import AnchorFields, BlendedField, BlendSpec, DRAW_SCOPES, MODES
from .cogspace import CognitiveSpace, ScoreVector
from .errors import ContractViolation, DivergenceError
from .polarize import PolarizationCache, PolarizerBackend, TemplateBackend, build_all_sets
from .semantics import (
    GaussianTargetField,
    SemanticModel,
    VelocityField,
    bind,
    field_for_prompt,
    flow_kappa,
)
from ._fsio import atomic_write_text

SOLVERS = ("euler", "midpoint", "rk4")
_STAGES = {"euler": 1, "midpoint": 2, "rk4": 4}


@dataclass(frozen=True)
class IntegrationConfig:
    solver: str = "rk4"
    steps: int = 100
    record_trajectory: bool = False

    def __post_init__(self):
        solver = str(self.solver).lower()
        if solver not in SOLVERS:
            raise ContractViolation(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        object.__setattr__(self, "solver", solver)
        if self.steps < 1:
            raise ContractViolation(f"steps must be >= 1, got {self.steps}")

    @property
    def stages_per_step(self) -> int:
        return _STAGES[self.solver]


class IntegrationResult(NamedTuple):
    endpoint: np.ndarray
    trajectory: np.ndarray | None  # (N+1, ...) with row 0 = x0


def _check_finite(x: np.ndarray, step: int, last: np.ndarray, last_time: float):
    """Raise DivergenceError if x is not finite; last is the state at the
    start of the step, at time last_time."""
    finite = np.isfinite(x)
    if finite.all():
        return
    bad = None
    if x.ndim > 1:
        bad = int(np.argmin(finite.all(axis=-1)))
        last = last[bad]
    raise DivergenceError(
        step, sample_index=bad, last_max_abs=float(np.max(np.abs(last))),
        last_time=last_time,
    )


def stage_times(config: IntegrationConfig):
    """Per step, the times at which integrate() evaluates the field.

    integrate() takes its times from here, so a table keyed by these
    floats (the moment oracle's) matches its lookups exactly.
    """
    n_steps = config.steps
    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i / n_steps
        if config.solver == "euler":
            yield (t,)
        elif config.solver == "midpoint":
            yield t, t + 0.5 * h
        else:  # rk4; its two mid-stages share one time
            yield t, t + 0.5 * h, (i + 1) / n_steps


def _axpy(a: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x + a * y, in a new array: (a * y) + x has the same bits."""
    out = a * y
    out += x
    return out


def integrate(
    field: VelocityField, x0, config: IntegrationConfig
) -> IntegrationResult:
    """Integrate dx/dt = field(x, t) from t=0 to t=1.

    x0 may be one state (D,) or a batch (B, D); batches advance in
    lockstep, which matches per-sample integration exactly because the
    draw streams are keyed per row.

    A batch under a field that computes feature-major (a Gaussian-bank
    blend) is carried as one C-contiguous (D, B) block from x0 to the
    endpoint: x0, the endpoint and the trajectory are each transposed
    once, and no evaluation copies the state in or out.

    The solver's combinations run in place, but only in arrays a step
    allocated itself: a field may return its input or an array it keeps,
    so neither a stage input nor anything a field returned is written
    into. IEEE + and * commute, so the bits are those of the textbook
    expressions, e.g. x + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) summed left
    to right.
    """
    x = np.array(x0, dtype=float)
    feature_major = x.ndim == 2 and isinstance(field, BlendedField) and field.feature_major
    evaluate = field.eval
    if feature_major:
        x = np.ascontiguousarray(x.T)
        evaluate = functools.partial(field.eval, feature_major=True)
    n_steps = config.steps
    h = 1.0 / n_steps
    trajectory = None
    if config.record_trajectory:
        trajectory = np.empty((n_steps + 1,) + x.shape)
        trajectory[0] = x
    begin_step = getattr(field, "begin_step", None)
    for i, times in enumerate(stage_times(config)):
        if begin_step is not None:
            begin_step(i)
        start = x
        if config.solver == "euler":
            x = _axpy(h, evaluate(x, times[0]), x)
        elif config.solver == "midpoint":
            t, t_mid = times
            k1 = evaluate(x, t)
            x = _axpy(h, evaluate(_axpy(0.5 * h, k1, x), t_mid), x)
        else:  # rk4
            t, t_mid, t_next = times
            k1 = evaluate(x, t)
            k2 = evaluate(_axpy(0.5 * h, k1, x), t_mid)
            k3 = evaluate(_axpy(0.5 * h, k2, x), t_mid)
            k4 = evaluate(_axpy(h, k3, x), t_next)
            s = 2.0 * k2
            s += k1
            s += 2.0 * k3
            s += k4
            s *= h / 6.0
            s += x
            x = s
        if feature_major:
            _check_finite(x.T, i, start.T, times[0])
        else:
            _check_finite(x, i, start, times[0])
        if trajectory is not None:
            trajectory[i + 1] = x
    if feature_major:
        x = np.ascontiguousarray(x.T)
        if trajectory is not None:
            trajectory = np.ascontiguousarray(trajectory.transpose(0, 2, 1))
    return IntegrationResult(endpoint=x, trajectory=trajectory)


@dataclass(frozen=True)
class IdentityDecoder:
    kind: str = "identity"

    def apply(self, latents: np.ndarray) -> np.ndarray:
        return np.array(latents, copy=True)


@dataclass(frozen=True)
class AffineDecoder:
    matrix: np.ndarray  # (out_dim, latent_dim)
    offset: np.ndarray  # (out_dim,)
    kind: str = "affine"

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        if matrix.ndim != 2 or offset.shape != (matrix.shape[0],):
            raise ContractViolation("affine decoder needs matrix (M, D) and offset (M,)")
        matrix.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)

    def apply(self, latents: np.ndarray) -> np.ndarray:
        return latents @ self.matrix.T + self.offset


@dataclass(frozen=True)
class GenerationRequest:
    base_prompt: str
    score: ScoreVector
    seed: int = 0
    sample_count: int = 2048
    blend_mode: str = "stochastic"
    base_mix: float = 0.5
    draw_scope: str = "per_eval"
    integration: IntegrationConfig = dc_field(default_factory=IntegrationConfig)
    decoder: IdentityDecoder | AffineDecoder = dc_field(default_factory=IdentityDecoder)

    def __post_init__(self):
        if self.sample_count < 1:
            raise ContractViolation(f"sample_count must be >= 1, got {self.sample_count}")
        if self.blend_mode not in MODES:
            raise ContractViolation(f"blend_mode must be one of {MODES}")
        if self.draw_scope not in DRAW_SCOPES:
            raise ContractViolation(f"draw_scope must be one of {DRAW_SCOPES}")
        if not 0.0 <= self.base_mix <= 1.0:
            raise ContractViolation(f"base_mix must be in [0, 1], got {self.base_mix}")

    def to_config(self) -> dict:
        decoder: dict = {"kind": self.decoder.kind}
        if isinstance(self.decoder, AffineDecoder):
            decoder["matrix"] = self.decoder.matrix.tolist()
            decoder["offset"] = self.decoder.offset.tolist()
        return {
            "base_prompt": self.base_prompt,
            "score": list(self.score.values),
            "seed": self.seed,
            "sample_count": self.sample_count,
            "blend_mode": self.blend_mode,
            "base_mix": self.base_mix,
            "draw_scope": self.draw_scope,
            "solver": self.integration.solver,
            "steps": self.integration.steps,
            "record_trajectory": self.integration.record_trajectory,
            "decoder": decoder,
        }


@dataclass
class SampleBatch:
    endpoints: np.ndarray  # (B, D)
    decoded: np.ndarray  # (B, out_dim)
    trajectories: np.ndarray | None  # (B, N+1, D)
    metadata: dict


def initial_states(seed: int, sample_count: int, dim: int) -> np.ndarray:
    """Per-sample standard-normal starts; sample i is a pure function of
    (seed, i), so adding samples never perturbs existing ones."""
    row_seeds = sample_seeds(seed, sample_count)
    return streams.standard_normal(
        row_seeds[:, None], streams.STREAM_INIT_STATE, np.arange(dim)[None, :]
    )


def sample_seeds(seed: int, sample_count: int) -> np.ndarray:
    return streams.counter_hash(
        seed, streams.STREAM_SAMPLE_SEED, np.arange(sample_count)
    )


def build_blend_spec(
    request: GenerationRequest,
    space: CognitiveSpace,
    model: SemanticModel,
    backend: PolarizerBackend | None = None,
    cache: PolarizationCache | None = None,
) -> BlendSpec:
    """Polarize, bind, and assemble the blended-field description."""
    backend = backend if backend is not None else TemplateBackend()
    sets = build_all_sets(backend, request.base_prompt, space, cache)
    base_field = field_for_prompt(model, request.base_prompt)
    anchor_sets = tuple(
        AnchorFields(
            anchor=ps.anchor,
            chain_fields=tuple(field_for_prompt(model, r) for r in ps.results),
        )
        for ps in sets
    )
    return BlendSpec(
        base_field=base_field,
        anchor_sets=anchor_sets,
        score=request.score,
        mode=request.blend_mode,
        base_mix=request.base_mix,
        draw_scope=request.draw_scope,
    )


def generate(
    request: GenerationRequest,
    space: CognitiveSpace,
    model: SemanticModel,
    backend: PolarizerBackend | None = None,
    cache: PolarizationCache | None = None,
) -> SampleBatch:
    """Run the full pipeline: polarize, bind, integrate, decode."""
    started = time.perf_counter()
    spec = build_blend_spec(request, space, model, backend, cache)
    x0 = initial_states(request.seed, request.sample_count, model.latent_dim)
    field = BlendedField(spec, seed=sample_seeds(request.seed, request.sample_count))
    result = integrate(field, x0, request.integration)
    decoded = request.decoder.apply(result.endpoint)
    trajectories = None
    if result.trajectory is not None:
        trajectories = np.swapaxes(result.trajectory, 0, 1)
    wall_ms = (time.perf_counter() - started) * 1e3
    metadata = {
        "seed": request.seed,
        "sample_count": request.sample_count,
        "eval_count": field.eval_counter,
        "wall_ms": wall_ms,
        "config": request.to_config(),
    }
    return SampleBatch(
        endpoints=result.endpoint,
        decoded=decoded,
        trajectories=trajectories,
        metadata=metadata,
    )


class MomentPaths(NamedTuple):
    times: np.ndarray  # (N+1,)
    means: np.ndarray  # (N+1, D)
    covariances: np.ndarray  # (N+1, D, D)

    @property
    def endpoint_mean(self) -> np.ndarray:
        return self.means[-1]

    @property
    def endpoint_cov(self) -> np.ndarray:
        return self.covariances[-1]


class _StageTable(NamedTuple):
    """The distinct stage times of a solver run, each with its table row."""

    rows: dict  # time -> row, in row order
    times: np.ndarray  # (T,)
    decay: np.ndarray  # (T,) (1 - t)**2 by Python's float power; see flow_kappa

    @classmethod
    def of(cls, config: IntegrationConfig) -> "_StageTable":
        rows = {}
        for step in stage_times(config):
            for t in step:
                rows.setdefault(t, len(rows))
        times = np.fromiter(rows, dtype=float, count=len(rows))
        return cls(rows, times, np.array([(1.0 - t) ** 2 for t in rows]))


def _tabulate(field: VelocityField, table: _StageTable, slopes, offsets, what: str):
    """Write field's slope and offset at every stage time into slopes (T,)
    and offsets (T, D).

    A plain GaussianTargetField is tabulated in one pass over the times,
    with affine_coefficients' expressions; any other field makes one
    affine_coefficients call per time."""
    if type(field) is GaussianTargetField:
        t = table.times
        slope = flow_kappa(t, field.variance, decay=table.decay)
        slopes[:] = slope
        offsets[:] = (1.0 - t * slope)[:, None] * field.mean
        return
    coeffs = getattr(field, "affine_coefficients", None)
    if coeffs is None:
        raise ContractViolation(f"{what} is not affine; no moment oracle")
    for t, row in table.rows.items():
        slopes[row], offsets[row] = coeffs(t)


class _IsotropicMomentField(VelocityField):
    """Moment ODE of N(m, c * I) as one state z = (m, c) of size D + 1.

    The blend's slope a(t) and offset b(t) are looked up by exact time;
    dm = a * m + b and dc = a * c + c * a, which is the matrix form
    a * C + C * a restricted to C = c * I, bit for bit. Both are one
    multiply-add, scale[row] * z + shift[row], with scale = (a, ..., a, 2a)
    and shift = (b, 0): doubling is exact, so 2a * c equals a * c + c * a.
    """

    def __init__(self, rows: dict, slopes: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.scale = np.repeat(slopes[:, None], offsets.shape[1] + 1, axis=1)
        self.scale[:, -1] *= 2.0
        self.shift = np.zeros_like(self.scale)
        self.shift[:, :-1] = offsets

    def eval(self, z, t):
        row = self.rows.get(t)
        if row is None:
            raise ContractViolation(f"no blend coefficients tabulated at t={t!r}")
        return self.scale[row] * z + self.shift[row]


def moment_reference(spec: BlendSpec, config: IntegrationConfig) -> MomentPaths:
    """Exact mean/covariance evolution of the transported Gaussian.

    Valid only for full_average blends of affine (single-Gaussian) inner
    fields; serves as the distribution-level oracle for generate(). The
    blend's slope and offset are tabulated once per distinct stage time
    (2N + 1 of them for rk4): a plain Gaussian field in one pass over the
    times, any other field queried once per time. The sums run base
    first, then anchor by anchor, each chain mean over its n fields, as a
    per-time evaluation would.
    """
    if spec.mode != "full_average":
        raise ContractViolation("moment oracle requires full_average mode")
    dims = spec.latent_dims()
    if len(dims) != 1:
        raise ContractViolation("cannot infer a unique latent dimension")
    dim = dims.pop()
    table = _StageTable.of(config)
    count = len(table.rows)
    slopes, offsets = np.empty(count), np.empty((count, dim))
    _tabulate(spec.base_field, table, slopes, offsets, "base field")
    slopes *= spec.base_mix
    offsets *= spec.base_mix
    anchor_share = 1.0 - spec.base_mix
    for entry, weight in zip(spec.anchor_sets, spec.weights()):
        n = len(entry.chain_fields)
        chain_slopes, chain_offsets = np.empty((count, n)), np.empty((n, count, dim))
        what = f"chain field of anchor {entry.anchor.bits}"
        for j, f in enumerate(entry.chain_fields):
            _tabulate(f, table, chain_slopes[:, j], chain_offsets[j], what)
        slopes += anchor_share * weight * np.mean(chain_slopes, axis=-1)
        offsets += anchor_share * weight * np.mean(chain_offsets, axis=0)
    z0 = np.concatenate([np.zeros(dim), [1.0]])
    cfg = replace(config, record_trajectory=True)
    result = integrate(_IsotropicMomentField(table.rows, slopes, offsets), z0, cfg)
    times = np.arange(cfg.steps + 1) / cfg.steps
    means = result.trajectory[:, :dim]
    covariances = result.trajectory[:, dim, None, None] * np.eye(dim)
    return MomentPaths(times=times, means=means, covariances=covariances)


def _csv_lines(header: list[str], rows: np.ndarray) -> str:
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_sample_batch(batch: SampleBatch, directory) -> list[Path]:
    """Write endpoints.csv, decoded.csv, and metadata.json atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    latent_names = [f"z{i}" for i in range(batch.endpoints.shape[1])]
    decoded_names = [f"y{i}" for i in range(batch.decoded.shape[1])]
    written = []
    for name, text in (
        ("endpoints.csv", _csv_lines(latent_names, batch.endpoints)),
        ("decoded.csv", _csv_lines(decoded_names, batch.decoded)),
        ("metadata.json", json.dumps(batch.metadata, indent=2) + "\n"),
    ):
        path = directory / name
        atomic_write_text(path, text)
        written.append(path)
    return written
