"""The invariant suite: exact checks of the machinery's defining properties.

Each check raises AssertionError with a detail message when its
invariant is broken; some return a detail line when it holds.
`cogflow validate` runs INVARIANTS in order, and the acceptance tests
call the same functions, so seeds, sizes and thresholds live here and
nowhere else. The whole suite runs in seconds on one core; the
Monte-Carlo oracle takes most of that time.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .blend import AnchorFields, BlendedField, BlendSpec
from .cogspace import CognitiveSpace, ScoreVector, enumerate_anchors, weight_vector
from .flow import IntegrationConfig, integrate
from .polarize import PolarizationCache, TemplateBackend, build_all_sets, build_chain_orders
from .semantics import (
    GaussianTargetField,
    MixtureTargetField,
    TargetDistribution,
    gaussian_field,
    monte_carlo_velocity,
)


def _require(condition, message: str = ""):
    # an explicit raise, unlike assert, still checks under python -O
    if not condition:
        raise AssertionError(message)


def _space(n: int) -> CognitiveSpace:
    return CognitiveSpace.from_names(*[f"d{i + 1}" for i in range(n)])


def weight_partition_of_unity() -> str | None:
    """Anchor weights of 10 000 random scores per n = 1..4 are >= 0 and
    sum to 1 within 1e-12."""
    rng = np.random.default_rng(2024)
    worst_gap, worst_min = 0.0, np.inf
    for n in range(1, 5):
        space = _space(n)
        for _ in range(10_000):
            weights = weight_vector(ScoreVector(tuple(rng.uniform(0, 1, n))), space)
            worst_gap = max(worst_gap, abs(weights.sum() - 1.0))
            worst_min = min(worst_min, weights.min())
    detail = f"max |sum-1|={worst_gap:.2e}, min weight={worst_min:.2e}"
    _require(worst_gap <= 1e-12 and worst_min >= 0.0, detail)
    return detail


def weight_vertex_delta() -> str | None:
    """At each vertex score the weights are exactly one-hot, n = 1..4."""
    for n in range(1, 5):
        space = _space(n)
        for anchor in enumerate_anchors(space):
            weights = weight_vector(ScoreVector(anchor.bits), space)
            one_hot = np.zeros(1 << n)
            one_hot[anchor.index - 1] = 1.0
            _require(np.array_equal(weights, one_hot), f"vertex {anchor.bits} not one-hot")


def latin_square_orders() -> str | None:
    """The n cyclic chain orders form a Latin square, n = 1..6."""
    for n in range(1, 7):
        orders = build_chain_orders(n)
        full = set(range(1, n + 1))
        _require(all(set(order) == full for order in orders), f"row not a permutation at n={n}")
        _require(
            all({order[pos] for order in orders} == full for pos in range(n)),
            f"column not a permutation at n={n}",
        )


def gaussian_field_identities() -> str | None:
    mean = np.array([2.0, 0.0])
    for x in (np.zeros(2), np.array([1.5, -3.0])):
        _require(np.allclose(gaussian_field(mean, 0.5, x, 0.0), mean - x))
        _require(np.allclose(gaussian_field(mean, 0.5, x, 1.0), x))
        _require(np.allclose(gaussian_field(np.zeros(2), 1.0, x, 0.5), 0.0))


def gaussian_field_monte_carlo_oracle() -> str | None:
    """The closed form lies within 3 SE of the Monte-Carlo oracle on a
    27-point grid (3 times x 3 x 3 offsets), 400 000 draws each."""
    mean = np.array([1.0, -0.5])
    variance = 0.5
    worst = 0.0
    for ti, t in enumerate((0.1, 0.5, 0.9)):
        marginal_sd = np.sqrt((1 - t) ** 2 + t * t * variance)
        center = t * mean
        for i, dx in enumerate((-0.5, 0.0, 0.5)):
            for j, dy in enumerate((-0.5, 0.0, 0.5)):
                x = center + np.array([dx, dy]) * marginal_sd
                estimate, se = monte_carlo_velocity(
                    mean, variance, x, t,
                    draws=400_000, bandwidth=0.25 * marginal_sd,
                    seed=500 + ti * 9 + i * 3 + j,
                )
                closed = gaussian_field(mean, variance, x, t)
                worst = max(worst, float(np.max(np.abs(estimate - closed) / (3 * se))))
    detail = f"worst |gap|/(3se)={worst:.3f} over 27 grid points"
    _require(worst <= 1.0, detail)
    return detail


def mixture_responsibilities() -> str | None:
    dist = TargetDistribution(
        components=((0.25, np.array([2.0, 0.0]), 0.5), (0.75, np.array([-2.0, 1.0]), 1.0))
    )
    field = MixtureTargetField(dist)
    points = np.random.default_rng(3).normal(size=(64, 2))
    for t in (0.0, 0.4, 1.0):
        resp = field.responsibilities(points, t)
        gap = np.max(np.abs(resp.sum(axis=1) - 1.0))
        _require(gap <= 1e-12, f"rows miss 1 by {gap:.2e} at t={t}")


def blend_identity_and_counts() -> str | None:
    space = _space(2)
    shared = GaussianTargetField(np.array([0.7, -0.2]), 1.0)
    anchor_sets = tuple(
        AnchorFields(anchor=a, chain_fields=(shared, shared))
        for a in enumerate_anchors(space)
    )
    for mode, per_call in (("stochastic", 5), ("full_average", 9)):
        spec = BlendSpec(shared, anchor_sets, ScoreVector((0.3, 0.8)), mode=mode)
        field = BlendedField(spec, seed=0)
        x = np.array([0.1, 0.2])
        for _ in range(3):
            out = field.eval(x, 0.5)
            _require(np.array_equal(out, shared.eval(x, 0.5)), "identity collapse broken")
        _require(field.eval_counter == 3 * per_call, f"count wrong in {mode}")


def integrator_reference_cases() -> str | None:
    shrink = SimpleNamespace(eval=lambda x, t: -x)
    zero = SimpleNamespace(eval=lambda x, t: np.zeros_like(x))
    grow = SimpleNamespace(eval=lambda x, t: x)
    x0 = np.array([1.0])
    euler = integrate(shrink, x0, IntegrationConfig(solver="euler", steps=2))
    _require(np.allclose(euler.endpoint, 0.25), "euler on dx/dt = -x")
    still = integrate(zero, np.array([0.3, -0.7]), IntegrationConfig(steps=5))
    _require(np.array_equal(still.endpoint, np.array([0.3, -0.7])), "zero field moved")
    rk4 = integrate(grow, x0, IntegrationConfig(solver="rk4", steps=20))
    _require(abs(rk4.endpoint[0] - np.e) <= 1e-5, "rk4 on dx/dt = x")


def polarization_cache_transparency() -> str | None:
    space = _space(2)
    uncached_backend = TemplateBackend()
    uncached = build_all_sets(uncached_backend, "a valley", space, None)
    _require(uncached_backend.calls == 4 * 2 * 2, "uncached call count wrong")
    backend = TemplateBackend()
    cache = PolarizationCache.in_memory()
    first = build_all_sets(backend, "a valley", space, cache)
    calls_after_cold = backend.calls
    # shared chain prefixes collapse, so a cold cached build is cheaper
    _require(0 < calls_after_cold <= uncached_backend.calls)
    second = build_all_sets(backend, "a valley", space, cache)
    _require(backend.calls == calls_after_cold, "warm cache still hit the backend")
    _require([s.results for s in first] == [s.results for s in second])
    _require([s.results for s in first] == [s.results for s in uncached])


# (name, check) in the order `cogflow validate` runs them
INVARIANTS = [
    (check.__name__, check)
    for check in (
        weight_partition_of_unity,
        weight_vertex_delta,
        latin_square_orders,
        gaussian_field_identities,
        gaussian_field_monte_carlo_oracle,
        mixture_responsibilities,
        blend_identity_and_counts,
        integrator_reference_cases,
        polarization_cache_transparency,
    )
]
