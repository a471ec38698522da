"""Probability-flow ODE integration and the end-to-end generation pipeline.

Time runs from t = 0 (standard-normal noise) to t = 1 (data); the state
follows dx/dt = v(x, t) on the uniform grid t_i = i / N with fixed-step
explicit solvers. Endpoints of full_average blends whose fields with a
nonzero share are all GaussianTargetFields can be cross-checked against
the exact Gaussian mean and covariance, which moment_reference computes
in closed form without the solver: that is the module's independent
oracle. It refuses any other field with a share in the blend.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import streams
from .blend import AnchorFields, BlendedField, BlendSpec, MODES, _check_base_mix
from .cogspace import CognitiveSpace, ScoreVector
from .errors import ContractViolation, DivergenceError, SpaceMismatchError
from .polarize import PolarizationCache, PolarizerBackend, TemplateBackend, build_all_sets
from .semantics import (
    GaussianTargetField,
    SemanticModel,
    VelocityField,
    field_for_prompt,
)
from ._fsio import atomic_write_text

# each explicit solver and its order p: its global error falls as h**p
SOLVERS = {"euler": 1, "midpoint": 2, "rk4": 4}
_STAGES = {"euler": 1, "midpoint": 2, "rk4": 4}


# float64 elements a generate may hold in its (B, D) state, and in its
# (steps + 1, B, D) trajectory when it records one: 128 MiB
ELEMENT_BUDGET = 1 << 24


def check_element_budget(sample_count: int, dim: int, recorded_steps: int | None = None) -> None:
    """Raise ContractViolation unless sample_count x dim elements, times
    recorded_steps + 1 for a recorded trajectory of that many steps, fit
    ELEMENT_BUDGET: each count has its own bound, but their product could
    otherwise ask numpy for more memory than the machine has."""
    elements = sample_count * dim
    what = f"sample_count {sample_count} x latent dim {dim}"
    if recorded_steps is not None:
        elements *= recorded_steps + 1
        what = f"{what} x {recorded_steps + 1} recorded times"
    if elements > ELEMENT_BUDGET:
        raise ContractViolation(
            f"{what} is {elements} elements, more than the budget of {ELEMENT_BUDGET}"
        )


def _check_count(name: str, value) -> None:
    """Raise ContractViolation unless value is an int >= 1 (a bool, a
    float or a numpy scalar would be recorded as given yet used as some
    other count, or fail later)."""
    if type(value) is not int or value < 1:
        raise ContractViolation(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class IntegrationConfig:
    solver: str = "rk4"
    steps: int = 100
    record_trajectory: bool = False

    def __post_init__(self):
        solver = str(self.solver).lower()
        if solver not in SOLVERS:
            raise ContractViolation(f"solver must be one of {(*SOLVERS,)}, got {self.solver!r}")
        object.__setattr__(self, "solver", solver)
        _check_count("steps", self.steps)

    @property
    def stages_per_step(self) -> int:
        return _STAGES[self.solver]


class IntegrationResult(NamedTuple):
    endpoint: np.ndarray
    trajectory: np.ndarray | None  # (N+1, ...) with row 0 = x0


def _check_finite(
    x: np.ndarray, step: int, last: np.ndarray, last_time: float, velocity: np.ndarray
):
    """Raise DivergenceError if x is not finite; last is the state at the
    start of the step, at time last_time, and velocity the field there."""
    finite = np.isfinite(x)
    if finite.all():
        return
    bad = None
    if x.ndim > 1:
        bad = int(np.argmin(finite.all(axis=-1)))
        last, velocity = last[bad], velocity[bad]
    raise DivergenceError(
        step, sample_index=bad, last_max_abs=float(np.max(np.abs(last))),
        last_time=last_time, last_max_velocity=float(np.max(np.abs(velocity))),
    )


def _axpy(a: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x + a * y, in a new array: (a * y) + x has the same bits."""
    out = a * y
    out += x
    return out


def integrate(
    field: VelocityField, x0, config: IntegrationConfig
) -> IntegrationResult:
    """Integrate dx/dt = field(x, t) from t=0 to t=1.

    x0 may be one state (D,) or a batch (B, D), as the field takes it (a
    BlendedField takes batches only). A batch advances in lockstep; under
    a BlendedField each row matches the 1-row batch with its seed exactly,
    because the draw streams are keyed per row. Step i, from t = i / N,
    evaluates the field at t, at t + h / 2 (midpoint, and rk4's two
    mid-stages) and at (i + 1) / N (rk4's last stage). The solver only
    calls field.eval, in that order: a stochastic field keys its draws by its own count of
    evaluations, and the solver knows nothing of them.

    The memory layout of the state is the field's choice: the solver
    keeps whatever layout eval returns, so a field may hand back a view
    of the block it computes in and read it back without a copy. The
    endpoint is made C-contiguous once, at the end.

    The solver's combinations run in place, but only in arrays a step
    allocated itself: a field may return its input or an array it keeps,
    so neither a stage input nor anything a field returned is written
    into. IEEE + and * commute, so the bits are those of the textbook
    expressions, e.g. x + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) summed left
    to right.
    """
    x = np.array(x0, dtype=float)
    evaluate = field.eval
    n_steps = config.steps
    h = 1.0 / n_steps
    trajectory = None
    if config.record_trajectory:
        trajectory = np.empty((n_steps + 1,) + x.shape)
        trajectory[0] = x
    for i in range(n_steps):
        start = x
        t = i / n_steps
        k1 = evaluate(x, t)  # every solver's first stage
        if config.solver == "euler":
            x = _axpy(h, k1, x)
        elif config.solver == "midpoint":
            x = _axpy(h, evaluate(_axpy(0.5 * h, k1, x), t + 0.5 * h), x)
        else:  # rk4; its two mid-stages share one time
            t_mid = t + 0.5 * h
            k2 = evaluate(_axpy(0.5 * h, k1, x), t_mid)
            k3 = evaluate(_axpy(0.5 * h, k2, x), t_mid)
            k4 = evaluate(_axpy(h, k3, x), (i + 1) / n_steps)
            s = 2.0 * k2
            s += k1
            s += 2.0 * k3
            s += k4
            s *= h / 6.0
            s += x
            x = s
        _check_finite(x, i, start, t, k1)
        if trajectory is not None:
            trajectory[i + 1] = x
    return IntegrationResult(endpoint=np.ascontiguousarray(x), trajectory=trajectory)


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
        for name, values in (("matrix", matrix), ("offset", offset)):
            if not np.isfinite(values).all():
                raise ContractViolation(f"affine decoder {name} has a non-finite entry")
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
    integration: IntegrationConfig = dc_field(default_factory=IntegrationConfig)
    decoder: IdentityDecoder | AffineDecoder = dc_field(default_factory=IdentityDecoder)

    def __post_init__(self):
        _check_count("sample_count", self.sample_count)
        if self.blend_mode not in MODES:
            raise ContractViolation(f"blend_mode must be one of {MODES}")
        _check_base_mix(self.base_mix)
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            # the streams take seeds as uint64, so any other seed would
            # alias an integer one in range
            raise ContractViolation(
                f"seed must be an integer in [0, 2**64), got {self.seed!r}"
            )

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
            "solver": self.integration.solver,
            "steps": self.integration.steps,
            "record_trajectory": self.integration.record_trajectory,
            "decoder": decoder,
        }


def _check_decoder(request: GenerationRequest, latent_dim: int) -> None:
    """Raise ContractViolation unless request's decoder reads latent_dim coordinates."""
    matrix = getattr(request.decoder, "matrix", None)
    if matrix is not None and matrix.shape[1] != latent_dim:
        raise ContractViolation(
            f"flow.decoder.matrix has {matrix.shape[1]} columns, but latent_dim is {latent_dim}"
        )


@dataclass
class SampleBatch:
    endpoints: np.ndarray  # (B, D)
    decoded: np.ndarray  # (B, out_dim)
    trajectories: np.ndarray | None  # (B, N+1, D)
    metadata: dict
    spec: BlendSpec  # the blend the batch was sampled from


def initial_states(row_seeds: np.ndarray, dim: int) -> np.ndarray:
    """Per-sample standard-normal starts from the row seeds of
    sample_seeds; sample i is a pure function of (seed, i), so adding
    samples never perturbs existing ones."""
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
    if len(request.score) != space.n:
        raise SpaceMismatchError(
            f"score has {len(request.score)} entries, but the space has {space.n} dimensions"
        )
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
    _check_decoder(request, model.latent_dim)
    integration = request.integration
    check_element_budget(
        request.sample_count,
        model.latent_dim,
        integration.steps if integration.record_trajectory else None,
    )
    spec = build_blend_spec(request, space, model, backend, cache)
    row_seeds = sample_seeds(request.seed, request.sample_count)
    x0 = initial_states(row_seeds, model.latent_dim)
    field = BlendedField(spec, seed=row_seeds)
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
        spec=spec,
    )


class MomentPaths(NamedTuple):
    times: np.ndarray  # (N+1,)
    means: np.ndarray  # (N+1, D)
    variances: np.ndarray  # (N+1,): the covariance at times[i] is variances[i] * I

    @property
    def endpoint_mean(self) -> np.ndarray:
        return self.means[-1]

    @property
    def endpoint_cov(self) -> np.ndarray:
        return self.variances[-1] * np.eye(self.means.shape[1])


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (-1, 1) and weights of the count-point Gauss-Legendre rule.

    Newton's method on the Legendre polynomial P_count, from the usual
    cosine guesses, with P and P' by the three-term recurrence. Unlike
    Golub-Welsch it makes no LAPACK call, whose first use pages in
    about 0.6 MB. Read-only, since the cache hands them to every caller.
    """

    def legendre(x):  # P_count(x) and its derivative
        p, p_prev = x, np.ones_like(x)
        for k in range(2, count + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        return p, count * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(count) + 0.75) / (count + 0.5))
    for _ in range(100):
        p, slope = legendre(x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, slope = legendre(x)
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def _field_shares(spec: BlendSpec) -> list[tuple[float, np.ndarray, float]]:
    """(c_i, mean, variance) of each field with a share c_i != 0 (see
    moment_reference), in blend order. A field whose share is 0 is skipped
    whatever its type, as the sampler skips an inactive anchor; any other
    field must be a GaussianTargetField, or the spec has no moment oracle."""
    shares = [(spec.base_mix, spec.base_field, "base field")]
    anchor_share = 1.0 - spec.base_mix
    for entry, weight in zip(spec.anchor_sets, spec.weights()):
        what = f"chain field of anchor {entry.anchor.bits}"
        n = len(entry.chain_fields)
        shares += [(anchor_share * weight / n, f, what) for f in entry.chain_fields]
    gaussians = []
    for share, field, what in shares:
        if share == 0.0:
            continue
        if not isinstance(field, GaussianTargetField):
            raise ContractViolation(f"{what} is not a Gaussian target field; no moment oracle")
        gaussians.append((share, field.mean, field.variance))
    return gaussians


def time_scale(spec: BlendSpec) -> float:
    """The time over which the velocity of spec's blend changes: D_i has
    zeros at t = 1 / (1 +- i sqrt(v_i)), sqrt(v_i) / (1 + v_i) off the real
    axis, and the nearest bounds every derivative in t. The weights sum to
    1, so some field has a share and the minimum is over at least one."""
    return _time_scale_of(_field_shares(spec))


def _time_scale_of(gaussians) -> float:
    """time_scale from the (share, mean, variance) list of _field_shares."""
    return min(np.sqrt(v) / (1.0 + v) for _, _, v in gaussians)


def moment_reference(spec: BlendSpec, config: IntegrationConfig) -> MomentPaths:
    """Exact mean and covariance of the transported Gaussian, in closed form.

    Valid for full_average blends in which every field with a nonzero
    share is a GaussianTargetField, the field that field_for_distribution
    gives a one-component target. Any other such field, a one-component
    MixtureTargetField included, raises ContractViolation; a field whose
    share is 0 is skipped whatever its type. It is the distribution-level
    oracle for generate(), and it shares no code with the solver. The
    path is reported on the grid t_i = i / config.steps; the solver
    setting is ignored.

    The blend gives field i the share c_i: base_mix for the base field
    and (1 - base_mix) * w_k / n for each chain field of anchor k. A
    Gaussian field toward N(mu_i, v_i I) has slope kappa_i = D_i' / (2 D_i)
    with D_i(t) = (1 - t)**2 + t**2 v_i, and offset (1 - t) / D_i * mu_i.
    The blend is a(t) x + b(t) with a scalar slope, so starting from
    N(0, I) the state stays N(m(t), c(t) I) with

        c(t) = prod_i D_i(t)**c_i = Phi(t)**2,
        m(t) = Phi(t) * integral_0^t b(s) / Phi(s) ds.

    The integral is taken by Gauss-Legendre quadrature on panels that
    split each grid interval. A panel is at most a quarter as wide as
    the distance from the real axis to the nearest zero of a D_i, and
    has as many nodes (3 to 8) as bring the rule's error to about 1e-18
    of the integrand's scale. The few (steps, nodes) arrays are allocated
    once and reused for every field.
    """
    if spec.mode != "full_average":
        raise ContractViolation("moment oracle requires full_average mode")
    dims = spec.latent_dims()
    if len(dims) != 1:
        raise ContractViolation("cannot infer a unique latent dimension")
    dim = dims.pop()
    gaussians = _field_shares(spec)

    steps = config.steps
    times = np.arange(steps + 1) / steps
    reach = _time_scale_of(gaussians)
    panels = max(1, math.ceil(4.0 / (steps * reach)))
    width = 1.0 / (steps * panels)
    # the rule's error falls as rho**(-2 * count), rho the largest Bernstein
    # ellipse of a panel that holds no zero: at least 16 at this width
    ratio = 2.0 * reach / width
    count = max(3, math.ceil(9.0 / math.log10(ratio + math.hypot(ratio, 1.0))))
    x, w = _gauss_legendre(count)
    nodes = ((np.arange(steps * panels)[:, None] + 0.5 * (x + 1.0)) * width).reshape(steps, -1)
    weights = np.tile(0.5 * width * w, panels)

    decay, square = (1.0 - nodes) ** 2, nodes * nodes
    log_cov = np.zeros(steps + 1)  # ln c(t) on the grid
    scaled = np.zeros_like(nodes)  # ln Phi(s), then quadrature weight / Phi(s)
    d = np.empty_like(nodes)
    for share, _, v in gaussians:
        log_cov += share * np.log((1.0 - times) ** 2 + times * times * v)
        np.multiply(square, v, out=d)
        d += decay
        np.log(d, out=d)
        d *= 0.5 * share
        scaled += d
    np.negative(scaled, out=scaled)
    np.exp(scaled, out=scaled)
    scaled *= weights
    falling = 1.0 - nodes
    falling *= scaled
    integral = np.zeros((steps + 1, dim))  # of b / Phi from 0 to each grid time
    for share, mean, v in gaussians:
        np.multiply(square, v, out=d)
        d += decay
        np.divide(falling, d, out=d)
        integral[1:] += np.outer(np.cumsum(d.sum(axis=1)), share * mean)
    variances = np.exp(log_cov)
    means = np.sqrt(variances)[:, None] * integral
    return MomentPaths(times=times, means=means, variances=variances)


# rows formatted by one %: at D = 4 a block's floats as Python objects
# take about 40 KB, where the whole batch's raised a generate's peak RSS
# by about 0.45 MB
_CSV_BLOCK = 256


def _csv_lines(header: list[str], rows: np.ndarray) -> str:
    """The header and one line per row, each value as f"{v:.17g}" would
    print it. A block of rows is %-formatted at once from its Python
    floats, which gives the same bytes without formatting each numpy
    scalar on its own; one % per block took about half the time of one
    per row (2048 x 4 rows)."""
    rows = np.atleast_2d(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    block = line * _CSV_BLOCK
    parts = [",".join(header) + "\n"]
    for start in range(0, len(rows), _CSV_BLOCK):
        chunk = rows[start : start + _CSV_BLOCK]
        form = block if len(chunk) == _CSV_BLOCK else line * len(chunk)
        parts.append(form % tuple(chunk.ravel().tolist()))
    return "".join(parts)


def _batch_files(batch: SampleBatch):
    """(name, text) of each file of a batch, each text made as its file is
    written. When the decoded rows have the endpoints' bytes (the identity
    decoder), the endpoints' lines are formatted once, for both files."""
    endpoints, decoded = batch.endpoints, batch.decoded
    text = _csv_lines([f"z{i}" for i in range(endpoints.shape[1])], endpoints)
    yield "endpoints.csv", text
    header = [f"y{i}" for i in range(decoded.shape[1])]
    if decoded.shape == endpoints.shape and decoded.tobytes() == endpoints.tobytes():
        text = ",".join(header) + text[text.index("\n") :]
    else:
        text = _csv_lines(header, decoded)
    yield "decoded.csv", text
    yield "metadata.json", json.dumps(batch.metadata, indent=2) + "\n"


def write_sample_batch(batch: SampleBatch, directory) -> list[Path]:
    """Write endpoints.csv, decoded.csv, and metadata.json atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in _batch_files(batch):
        path = directory / name
        atomic_write_text(path, text)
        written.append(path)
    return written
