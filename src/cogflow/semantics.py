"""Desk-scale stand-in for a pretrained velocity predictor.

Prompts are bound to isotropic Gaussian (mixture) targets, and each
binding exposes the exact marginal velocity field of the linear
(rectified-flow) interpolation path

    x_t = (1 - t) * x0 + t * x1,   x0 ~ N(0, I),   x1 ~ target.

For a single Gaussian target N(mu, var * I) the conditional expectation
E[x1 - x0 | x_t = x] has the closed form

    v(x, t) = mu + kappa(t) * (x - t * mu)
    kappa(t) = (t * var - (1 - t)) / ((1 - t)**2 + t**2 * var)

which follows from joint Gaussianity of (x0, x1, x_t). Mixture targets
combine per-component fields with posterior responsibilities under each
component's x_t marginal. A kernel-weighted Monte-Carlo estimator of the
same conditional expectation is provided as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cogspace import CognitiveSpace
from .errors import BindingError, ContractViolation
from .polarize import parse_template_tags

MIN_VARIANCE = 1e-4  # guards kappa(t) conditioning as t -> 1


def _check_time(t: float) -> float:
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ContractViolation(f"time must lie in [0, 1], got {t}")
    return t


def _check_variance(variance: float) -> float:
    variance = float(variance)
    if not MIN_VARIANCE <= variance < np.inf:  # false for a NaN too
        raise ContractViolation(
            f"variance must be finite and >= {MIN_VARIANCE}, got {variance}"
        )
    return variance


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ContractViolation(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TargetDistribution:
    """Isotropic Gaussian mixture over the latent space.

    components: tuple of (weight, mean, variance) with weights summing
    to 1 and every variance above the MIN_VARIANCE floor.
    """

    components: tuple[tuple[float, np.ndarray, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ContractViolation("mixture needs at least one component")
        frozen = []
        dim = None
        for w, mean, var in self.components:
            w = float(w)
            if not 0.0 < w < np.inf:
                raise ContractViolation(f"component weight must be finite and > 0, got {w}")
            mean = np.asarray(mean, dtype=float)
            _check_finite("component mean", mean)
            if mean.ndim != 1:
                raise ContractViolation("component mean must be a vector")
            if dim is None:
                dim = mean.shape[0]
            elif mean.shape[0] != dim:
                raise ContractViolation("component means must share one dimension")
            mean.flags.writeable = False
            frozen.append((w, mean, _check_variance(var)))
        total = sum(w for w, _, _ in frozen)
        if abs(total - 1.0) > 1e-12:
            raise ContractViolation(f"component weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.components[0][1].shape[0]

    @classmethod
    def single(cls, mean, variance: float) -> "TargetDistribution":
        return cls(components=((1.0, np.asarray(mean, dtype=float), variance),))

    def mean(self) -> np.ndarray:
        return sum(w * m for w, m, _ in self.components)

    @classmethod
    def from_records(cls, records: list[dict]) -> "TargetDistribution":
        return cls(
            components=tuple(
                (rec["weight"], np.asarray(rec["mean"], dtype=float), rec["variance"])
                for rec in records
            )
        )

    def to_records(self) -> list[dict]:
        return [
            {"weight": w, "mean": list(map(float, m)), "variance": v}
            for w, m, v in self.components
        ]


def flow_kappa(t: float, variance: float) -> float:
    """Slope of the marginal field: kappa(t) for target variance var."""
    return (t * variance - (1.0 - t)) / ((1.0 - t) ** 2 + t * t * variance)


def gaussian_field(mean, variance: float, x, t: float) -> np.ndarray:
    """Exact marginal velocity toward N(mean, variance * I) at (x, t).

    Accepts a single state of shape (D,) or a batch of shape (B, D).
    """
    t = _check_time(t)
    variance = _check_variance(variance)
    mean = np.asarray(mean, dtype=float)
    x = np.asarray(x, dtype=float)
    return gaussian_velocity(mean, flow_kappa(t, variance), x, t)


def gaussian_velocity(mean, kappa, x, t: float) -> np.ndarray:
    """The closed form mean + kappa * (x - t * mean) for a given kappa(t).

    Unchecked and broadcasting: mean (D,) or per-row (B, D), kappa a
    scalar or per-row (B, 1), and kappa must not widen x - t * mean.
    Every Gaussian velocity in the package goes through this one
    expression, so batched and per-field evaluations agree bit for bit.
    """
    return shifted_velocity(mean, t * mean, kappa, x)


def shifted_velocity(mean, shift, kappa, x, out=None) -> np.ndarray:
    """gaussian_velocity with t * mean given as shift, for a caller that
    evaluates one field at one t many times. The product and the sum run
    in place in the array x - shift, new unless out is given (out may be
    shift itself); IEEE + and * commute, so the bits are those of the
    formula.
    """
    v = np.subtract(x, shift, out=out)
    v *= kappa
    v += mean
    return v


class VelocityField:
    """Behavioral interface: eval(x, t) -> velocity, batched over rows."""

    def eval(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


class GaussianTargetField(VelocityField):
    """Marginal field of a single isotropic Gaussian target."""

    def __init__(self, mean, variance: float):
        self.mean = np.asarray(mean, dtype=float)
        self.variance = _check_variance(variance)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def eval(self, x, t):
        return gaussian_field(self.mean, self.variance, x, t)


class MixtureTargetField(VelocityField):
    """Marginal field of a Gaussian mixture target."""

    def __init__(self, dist: TargetDistribution):
        self.dist = dist

    @property
    def dim(self) -> int:
        return self.dist.dim

    def responsibilities(self, x, t: float) -> np.ndarray:
        """Posterior component probabilities given x_t = x; rows sum to 1."""
        t = _check_time(t)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        logits = []
        for w, mean, var in self.dist.components:
            marginal_var = (1.0 - t) ** 2 + t * t * var
            sq = np.sum((x - t * mean) ** 2, axis=-1)
            logits.append(
                np.log(w)
                - 0.5 * x.shape[-1] * np.log(2.0 * np.pi * marginal_var)
                - 0.5 * sq / marginal_var
            )
        logits = np.stack(logits, axis=-1)
        logits -= logits.max(axis=-1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=-1, keepdims=True)
        return resp

    def eval(self, x, t):
        x = np.asarray(x, dtype=float)
        squeezed = x.ndim == 1
        xb = np.atleast_2d(x)
        resp = self.responsibilities(xb, t)
        out = np.zeros_like(xb)
        for m, (w, mean, var) in enumerate(self.dist.components):
            out += resp[:, m : m + 1] * gaussian_field(mean, var, xb, t)
        return out[0] if squeezed else out


def field_for_distribution(dist: TargetDistribution) -> VelocityField:
    if len(dist.components) == 1:
        _, mean, var = dist.components[0]
        return GaussianTargetField(mean, var)
    return MixtureTargetField(dist)


def position_weight(pos: int, n: int, bias: float) -> float:
    """Effect multiplier for the tag applied at 1-based position pos.

    Later positions dominate when bias > 0; the multipliers over one full
    cyclic rotation average to exactly 1 per dimension.
    """
    return 1.0 + bias * (pos - (n + 1) / 2.0) / n


@dataclass(frozen=True)
class SemanticModel:
    """Maps prompt strings to target distributions.

    Template-tagged prompts bind to a single Gaussian whose mean is the
    base mean shifted along per-dimension directions; the shift of the
    tag at position pos is scaled by position_weight(pos, n, position_bias),
    modeling rewriters that overweight the most recent edit. Exact-string
    bindings override the parser; free-form prompts without tags bind to
    the base distribution.
    """

    dimension_names: tuple[str, ...]
    latent_dim: int
    base_mean: np.ndarray
    dimension_directions: np.ndarray  # (n, D), unit rows
    effect_magnitudes: np.ndarray  # (n,), > 0
    position_bias: float = 0.0
    default_variance: float = 1.0
    explicit_bindings: dict[str, TargetDistribution] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.dimension_names)
        if self.latent_dim < 2:
            raise ContractViolation(f"latent_dim must be >= 2, got {self.latent_dim}")
        base_mean = np.asarray(self.base_mean, dtype=float)
        if base_mean.shape != (self.latent_dim,):
            raise ContractViolation("base_mean shape must match latent_dim")
        dirs = np.asarray(self.dimension_directions, dtype=float)
        if dirs.shape != (n, self.latent_dim):
            raise ContractViolation("need one latent direction per dimension")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ContractViolation("dimension directions must be unit vectors")
        mags = np.asarray(self.effect_magnitudes, dtype=float)
        if mags.shape != (n,) or np.any(mags <= 0.0):
            raise ContractViolation("effect magnitudes must be n positive reals")
        for name, value in (
            ("base_mean", base_mean), ("dimension_directions", dirs),
            ("effect_magnitudes", mags), ("position_bias", self.position_bias),
        ):
            _check_finite(name, value)
        if self.position_bias < 0.0:
            raise ContractViolation("position_bias must be >= 0")
        _check_variance(self.default_variance)
        base_mean.flags.writeable = False
        dirs.flags.writeable = False
        mags.flags.writeable = False
        object.__setattr__(self, "base_mean", base_mean)
        object.__setattr__(self, "dimension_directions", dirs)
        object.__setattr__(self, "effect_magnitudes", mags)

    @property
    def n(self) -> int:
        return len(self.dimension_names)

    @classmethod
    def for_space(
        cls,
        space: CognitiveSpace,
        latent_dim: int | None = None,
        base_mean=None,
        dimension_directions=None,
        effect_magnitudes=1.0,
        position_bias: float = 0.0,
        default_variance: float = 1.0,
        explicit_bindings: dict[str, TargetDistribution] | None = None,
    ) -> "SemanticModel":
        """Axis-aligned default model: direction i is coordinate axis i."""
        n = space.n
        dim = max(2, n) if latent_dim is None else int(latent_dim)
        if dim < 2:  # before np.eye(dim), which refuses a negative dim
            raise ContractViolation(f"latent_dim must be >= 2, got {dim}")
        if dimension_directions is None:
            dimension_directions = np.eye(dim)[:n]
        if base_mean is None:
            base_mean = np.zeros(dim)
        elif np.isscalar(base_mean):
            base_mean = np.full(dim, float(base_mean))
        mags = np.asarray(effect_magnitudes, dtype=float)
        if mags.ndim == 0:
            mags = np.full(n, float(mags))
        return cls(
            dimension_names=tuple(d.name for d in space.dimensions),
            latent_dim=dim,
            base_mean=np.asarray(base_mean, dtype=float),
            dimension_directions=np.asarray(dimension_directions, dtype=float),
            effect_magnitudes=mags,
            position_bias=position_bias,
            default_variance=default_variance,
            explicit_bindings=dict(explicit_bindings or {}),
        )


def bind(model: SemanticModel, prompt: str) -> TargetDistribution:
    """Resolve a prompt to its target distribution.

    Exact-string bindings win; otherwise the prompt is parsed as base
    text plus ordered template tags.
    """
    explicit = model.explicit_bindings.get(prompt)
    if explicit is not None:
        return explicit
    _, tags = parse_template_tags(prompt)
    name_to_row = {name: i for i, name in enumerate(model.dimension_names)}
    seen: set[str] = set()
    mean = model.base_mean.copy()
    for pos, (name, pole) in enumerate(tags, start=1):
        row = name_to_row.get(name)
        if row is None:
            raise BindingError(prompt, f"unknown dimension tag {name!r}")
        if name in seen:
            raise BindingError(prompt, f"duplicate tag for dimension {name!r}")
        seen.add(name)
        sign = 1.0 if pole else -1.0
        omega = position_weight(pos, model.n, model.position_bias)
        mean += sign * model.effect_magnitudes[row] * omega * model.dimension_directions[row]
    return TargetDistribution.single(mean, model.default_variance)


def field_for_prompt(model: SemanticModel, prompt: str) -> VelocityField:
    return field_for_distribution(bind(model, prompt))


def monte_carlo_velocity(
    mean,
    variance: float,
    x,
    t: float,
    draws: int = 200_000,
    bandwidth: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted Monte-Carlo estimate of E[x1 - x0 | x_t near x].

    Independent oracle for gaussian_field: draws (x0, x1) pairs, forms
    x_t, and fits a kernel-weighted local-linear regression of the
    displacements around x; the intercept estimates the conditional
    expectation at x without the O(bandwidth**2) density-gradient bias
    of a plain weighted mean. Returns (estimate, per-coordinate standard
    error of the intercept).
    """
    t = _check_time(t)
    mean = np.asarray(mean, dtype=float)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    dim = mean.shape[0]
    x0 = rng.standard_normal((draws, dim))
    x1 = mean + np.sqrt(variance) * rng.standard_normal((draws, dim))
    xt = (1.0 - t) * x0 + t * x1
    sq = np.sum((xt - x) ** 2, axis=1)
    kernel = np.exp(-0.5 * sq / bandwidth**2)
    if kernel.sum() <= 0.0:
        raise ContractViolation("no Monte-Carlo mass near the query point")
    # Feature-major: the design's D + 1 rows are [1, xt - x]. Each product
    # over the draws is a weighted sum by np.einsum, which without
    # optimize= runs in numpy's own loops: a BLAS product would run on
    # every BLAS thread, whatever --threads says.
    displacement = np.ascontiguousarray((x1 - x0).T)
    design = np.concatenate([np.ones((1, draws)), (xt - x).T])
    weighted = kernel * design
    gram = np.einsum("ir,jr->ij", design, weighted)
    coeff = np.linalg.solve(gram, np.einsum("ir,dr->id", weighted, displacement))
    estimate = coeff[0]
    # sandwich standard error of the intercept's influence weights
    influence = np.einsum("i,ir->r", np.linalg.inv(gram)[0], design) * kernel
    resid = displacement - np.einsum("id,ir->dr", coeff, design)
    se = np.sqrt((influence**2 * resid**2).sum(axis=1))
    return estimate, se
