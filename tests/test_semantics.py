import numpy as np
import pytest

from cogflow.cogspace import CognitiveAnchor, CognitiveSpace
from cogflow.errors import BindingError, ContractViolation
from cogflow.flow import IntegrationConfig, integrate
from cogflow.polarize import TemplateBackend, build_all_sets
from cogflow.semantics import (
    GaussianTargetField,
    MixtureTargetField,
    SemanticModel,
    TargetDistribution,
    bind,
    field_for_distribution,
    flow_kappa,
    gaussian_field,
    monte_carlo_velocity,
    position_weight,
)


# --- target distributions -------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ContractViolation):
        TargetDistribution(components=((0.6, np.zeros(2), 1.0),))  # weights != 1
    with pytest.raises(ContractViolation):
        TargetDistribution(components=((1.0, np.zeros(2), 1e-6),))  # variance floor
    with pytest.raises(ContractViolation):
        TargetDistribution(
            components=((0.5, np.zeros(2), 1.0), (0.5, np.zeros(3), 1.0))
        )
    with pytest.raises(ContractViolation):
        TargetDistribution(components=((-0.5, np.zeros(2), 1.0), (1.5, np.zeros(2), 1.0)))


@pytest.mark.parametrize("component", [
    (np.nan, np.zeros(2), 1.0), (1.0, np.array([np.inf, 0.0]), 1.0),
    (1.0, np.zeros(2), np.nan), (1.0, np.zeros(2), np.inf),
], ids=["nan-weight", "infinite-mean", "nan-variance", "infinite-variance"])
def test_distribution_rejects_a_non_finite_number(component):
    # a NaN passed every check, since every comparison with it is false
    with pytest.raises(ContractViolation, match="finite"):
        TargetDistribution(components=(component,))
    if not np.isfinite(component[2]):
        with pytest.raises(ContractViolation, match="finite"):
            GaussianTargetField(np.zeros(2), component[2])


def test_distribution_round_trip():
    dist = TargetDistribution(
        components=((0.25, np.array([1.0, 2.0]), 0.5), (0.75, np.array([-1.0, 0.0]), 2.0))
    )
    assert TargetDistribution.from_records(dist.to_records()).components[1][2] == 2.0
    assert np.allclose(dist.mean(), 0.25 * np.array([1.0, 2.0]) + 0.75 * np.array([-1.0, 0.0]))


# --- gaussian field -------------------------------------------------------

def test_gaussian_field_boundary_times():
    mu = np.array([2.0, 0.0])
    # t=0: the state is pure noise, so E[x1 - x0 | x0=x] = mu - x
    assert np.allclose(gaussian_field(mu, 0.25, np.zeros(2), 0.0), mu)
    x = np.array([1.0, -4.0])
    assert np.allclose(gaussian_field(mu, 0.25, x, 0.0), mu - x)
    # t=1: the state is the sample, so E[x1 - x0 | x1=x] = x
    x1 = np.array([3.0, 1.0])
    assert np.allclose(gaussian_field(mu, 0.25, x1, 1.0), x1)


def test_gaussian_field_self_transport_is_zero():
    # source equals target: kappa(0.5) = 0 by symmetry
    x = np.array([5.0, -7.0])
    assert np.allclose(gaussian_field(np.zeros(2), 1.0, x, 0.5), 0.0)
    assert flow_kappa(0.5, 1.0) == 0.0


def test_gaussian_field_batched_rows_match_single():
    mu = np.array([1.0, 2.0])
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(13, 2))
    out = gaussian_field(mu, 0.5, batch, 0.3)
    for row, x in zip(out, batch):
        assert np.array_equal(row, gaussian_field(mu, 0.5, x, 0.3))


def test_gaussian_field_contract_errors():
    mu = np.zeros(2)
    with pytest.raises(ContractViolation):
        gaussian_field(mu, 0.5, mu, 1.5)
    with pytest.raises(ContractViolation):
        gaussian_field(mu, 0.5, mu, -0.1)
    with pytest.raises(ContractViolation):
        gaussian_field(mu, 1e-6, mu, 0.5)


def test_gaussian_field_affine_in_x():
    mu = np.array([3.0, -2.0])
    rng = np.random.default_rng(5)
    for t in (0.1, 0.5, 0.9):
        a, b = rng.normal(size=(2, 2))
        mid = gaussian_field(mu, 0.25, (a + b) / 2, t)
        avg = (gaussian_field(mu, 0.25, a, t) + gaussian_field(mu, 0.25, b, t)) / 2
        assert np.allclose(mid, avg, atol=1e-12, rtol=0)


def test_gaussian_field_matches_monte_carlo_oracle_spot():
    mean = np.array([1.0, -0.5])
    variance = 0.5
    t = 0.4
    x = t * mean + np.array([0.3, -0.2])
    estimate, se = monte_carlo_velocity(
        mean, variance, x, t, draws=150_000, bandwidth=0.2, seed=21
    )
    closed = gaussian_field(mean, variance, x, t)
    assert np.all(np.abs(estimate - closed) <= 3.0 * se + 1e-9)


def test_monte_carlo_regression_equals_the_matrix_form():
    # the weighted sums give the local-linear fit of the textbook matrix
    # products, up to summation order (relative 1e-10 on 20 000 draws)
    mean, variance, t, draws, bandwidth = np.array([1.0, -0.5, 0.2]), 0.7, 0.6, 20_000, 0.4
    x = np.array([0.4, -0.1, 0.3])
    estimate, se = monte_carlo_velocity(mean, variance, x, t, draws, bandwidth, seed=4)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((draws, 3))
    x1 = mean + np.sqrt(variance) * rng.standard_normal((draws, 3))
    xt = (1.0 - t) * x0 + t * x1
    kernel = np.exp(-0.5 * np.sum((xt - x) ** 2, axis=1) / bandwidth**2)
    design = np.concatenate([np.ones((draws, 1)), xt - x], axis=1)
    gram = design.T @ (kernel[:, None] * design)
    coeff = np.linalg.solve(gram, (kernel[:, None] * design).T @ (x1 - x0))
    influence = (np.linalg.inv(gram)[0] @ design.T) * kernel
    resid = (x1 - x0) - design @ coeff
    want_se = np.sqrt(((influence**2)[:, None] * resid**2).sum(axis=0))
    assert np.allclose(estimate, coeff[0], rtol=1e-10, atol=0)
    assert np.allclose(se, want_se, rtol=1e-10, atol=0)


def test_gaussian_field_push_forward():
    # integrating the exact marginal field transports N(0, I) onto the target
    mean = np.array([1.5, -1.0])
    variance = 0.5
    field = GaussianTargetField(mean, variance)
    rng = np.random.default_rng(77)
    x0 = rng.standard_normal((4000, 2))
    result = integrate(field, x0, IntegrationConfig(solver="rk4", steps=100))
    end = result.endpoint
    se_mean = end.std(axis=0, ddof=1) / np.sqrt(len(end))
    assert np.all(np.abs(end.mean(axis=0) - mean) <= 3 * se_mean + 1e-9)
    var = end.var(axis=0, ddof=1)
    se_var = var * np.sqrt(2.0 / (len(end) - 1))
    assert np.all(np.abs(var - variance) <= 3 * se_var + 1e-9)


# --- mixtures -------------------------------------------------------------

def test_single_component_mixture_equals_gaussian_field():
    dist = TargetDistribution.single(np.array([2.0, 1.0]), 0.5)
    rng = np.random.default_rng(1)
    for t in (0.0, 0.5, 1.0):
        x = rng.normal(size=2)
        assert np.allclose(
            MixtureTargetField(dist).eval(x, t),
            gaussian_field(np.array([2.0, 1.0]), 0.5, x, t),
        )


def test_symmetric_mixture_velocity_vanishes_along_axis():
    mu = np.array([2.0, 0.0])
    dist = TargetDistribution(
        components=((0.5, mu, 1.0), (0.5, -mu, 1.0))
    )
    v = MixtureTargetField(dist).eval(np.zeros(2), 0.5)
    assert abs(v @ (mu / np.linalg.norm(mu))) <= 1e-12


def test_mixture_responsibility_saturation():
    # deep inside component 1's basin the other component has no influence
    mu1, mu2 = np.array([4.0, 0.0]), np.array([-4.0, 0.0])
    dist = TargetDistribution(components=((0.5, mu1, 0.25), (0.5, mu2, 0.25)))
    t = 0.8
    x = t * mu1
    blended = MixtureTargetField(dist).eval(x, t)
    pure = gaussian_field(mu1, 0.25, x, t)
    assert np.all(np.abs(blended - pure) <= 1e-6)

    # verify against responsibilities computed by independent density evaluation
    field = MixtureTargetField(dist)
    resp = field.responsibilities(x, t)[0]
    marginal_var = (1 - t) ** 2 + t * t * 0.25
    dens = [
        w * np.exp(-np.sum((x - t * m) ** 2) / (2 * marginal_var)) / (2 * np.pi * marginal_var)
        for w, m in ((0.5, mu1), (0.5, mu2))
    ]
    expected = np.array(dens) / sum(dens)
    assert np.allclose(resp, expected, atol=1e-12)


def test_mixture_responsibilities_sum_to_one():
    dist = TargetDistribution(
        components=((0.2, np.array([3.0, 1.0]), 0.5), (0.8, np.array([-2.0, 2.0]), 1.5))
    )
    field = MixtureTargetField(dist)
    rng = np.random.default_rng(8)
    points = rng.normal(scale=3.0, size=(50, 2))
    for t in (0.0, 0.3, 0.7, 1.0):
        resp = field.responsibilities(points, t)
        assert np.all(np.abs(resp.sum(axis=1) - 1.0) <= 1e-12)


def test_field_for_distribution_picks_the_field_by_component_count():
    dist = TargetDistribution(
        components=((0.5, np.zeros(2), 1.0), (0.5, np.ones(2), 1.0))
    )
    assert type(field_for_distribution(dist)) is MixtureTargetField
    single = field_for_distribution(TargetDistribution.single(np.ones(2), 1.0))
    assert isinstance(single, GaussianTargetField)


# --- semantic model and binding -------------------------------------------

def test_model_defaults(space2):
    model = SemanticModel.for_space(space2)
    assert model.latent_dim == 2
    assert np.array_equal(model.dimension_directions, np.eye(2))
    space3 = CognitiveSpace.from_names("a", "b", "c")
    assert SemanticModel.for_space(space3).latent_dim == 3


def test_model_validation(space2):
    with pytest.raises(ContractViolation):
        SemanticModel.for_space(space2, dimension_directions=[[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        SemanticModel.for_space(space2, effect_magnitudes=[1.0, -1.0])
    with pytest.raises(ContractViolation):
        SemanticModel.for_space(space2, position_bias=-0.1)


@pytest.mark.parametrize("kwargs", [
    {"default_variance": np.nan}, {"position_bias": np.inf},
    {"effect_magnitudes": [1.5, np.nan]}, {"base_mean": -np.inf},
    {"dimension_directions": [[np.nan, 0.0], [0.0, 1.0]]},
], ids=["default_variance", "position_bias", "effect_magnitudes", "base_mean",
        "dimension_directions"])
def test_model_rejects_a_non_finite_number(space2, kwargs):
    # a NaN passed every check, since every comparison with it is false
    with pytest.raises(ContractViolation, match="finite"):
        SemanticModel.for_space(space2, **kwargs)


def test_bind_without_bias_ignores_tag_order(space2):
    model = SemanticModel.for_space(space2, effect_magnitudes=2.0)
    a = bind(model, "p «valence:+»«arousal:-»")
    b = bind(model, "p «arousal:-»«valence:+»")
    assert np.array_equal(a.mean(), b.mean())
    assert np.allclose(a.mean(), [2.0, -2.0])


def test_bind_position_weights(space2):
    # beta=0.5, n=2: multipliers 0.875 (first tag) and 1.125 (second tag)
    assert position_weight(1, 2, 0.5) == 0.875
    assert position_weight(2, 2, 0.5) == 1.125
    model = SemanticModel.for_space(space2, effect_magnitudes=1.0, position_bias=0.5)
    dist = bind(model, "p «valence:+»«arousal:-»")
    assert np.allclose(dist.mean(), [0.875, -1.125])
    flipped = bind(model, "p «arousal:-»«valence:+»")
    assert np.allclose(flipped.mean(), [1.125, -0.875])


def test_bind_explicit_binding_wins(space2):
    registered = TargetDistribution.single(np.array([9.0, 9.0]), 2.0)
    model = SemanticModel.for_space(
        space2, explicit_bindings={"a special prompt": registered}
    )
    assert bind(model, "a special prompt") is registered


def test_bind_untagged_prompt_is_base(space2):
    model = SemanticModel.for_space(space2, base_mean=np.array([1.0, 1.0]))
    dist = bind(model, "any free-form text")
    assert np.array_equal(dist.mean(), [1.0, 1.0])
    assert dist.components[0][2] == model.default_variance


def test_bind_errors_name_the_prompt(space2):
    model = SemanticModel.for_space(space2)
    with pytest.raises(BindingError) as err:
        bind(model, "p «mystery:+»")
    assert "mystery" in str(err.value)
    assert err.value.prompt == "p «mystery:+»"
    with pytest.raises(BindingError):
        bind(model, "p «valence:+»«valence:-»")


def test_cyclic_chain_average_cancels_position_bias(space2):
    # averaging bound means over a full rotation equals the unbiased mean
    backend = TemplateBackend()
    anchor = CognitiveAnchor((1, 0))
    prompt_set = build_all_sets(backend, "a valley", space2)[anchor.index - 1]
    biased = SemanticModel.for_space(space2, effect_magnitudes=1.5, position_bias=0.7)
    flat = SemanticModel.for_space(space2, effect_magnitudes=1.5, position_bias=0.0)
    means = [bind(biased, chain.result).mean() for chain in prompt_set.chains]
    averaged = np.mean(means, axis=0)
    expected = bind(flat, prompt_set.chains[0].result).mean()
    assert np.all(np.abs(averaged - expected) <= 1e-12)
