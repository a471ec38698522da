import functools
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from cogflow import flow
from cogflow.blend import AnchorFields, BlendedField, BlendSpec
from cogflow.cogspace import CognitiveSpace, ScoreVector, enumerate_anchors, weight_vector
from cogflow.errors import ContractViolation, DivergenceError, SpaceMismatchError
from cogflow.flow import (
    AffineDecoder,
    GenerationRequest,
    IntegrationConfig,
    build_blend_spec,
    generate,
    initial_states,
    integrate,
    moment_reference,
    sample_seeds,
    write_sample_batch,
)
from cogflow.polarize import TemplateBackend, build_all_sets
from cogflow.semantics import (
    GaussianTargetField,
    MixtureTargetField,
    SemanticModel,
    TargetDistribution,
    VelocityField,
    bind,
)

from conftest import ConstantField, DelegatingField, StoredField, StubBackend, make_space


class FuncField:
    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, t):
        return self.fn(np.asarray(x, dtype=float), t)


# --- integrate --------------------------------------------------------------

def test_euler_two_hand_steps():
    # dx/dt = -x from 1 with h=0.5: 1 -> 0.5 -> 0.25
    result = integrate(
        FuncField(lambda x, t: -x), np.array([1.0]), IntegrationConfig("euler", 2)
    )
    assert np.allclose(result.endpoint, [0.25], atol=0, rtol=0)


def test_rk4_exponential_growth():
    result = integrate(
        FuncField(lambda x, t: x), np.array([1.0]), IntegrationConfig("rk4", 20)
    )
    assert abs(result.endpoint[0] - np.e) <= 1e-5


def test_zero_field_identity_for_all_solvers():
    x0 = np.array([0.4, -1.7])
    for solver in ("euler", "midpoint", "rk4"):
        result = integrate(
            ConstantField(np.zeros(2)), x0, IntegrationConfig(solver, 13)
        )
        assert np.array_equal(result.endpoint, x0)


def test_trajectory_bookkeeping():
    cfg = IntegrationConfig("rk4", 7, record_trajectory=True)
    x0 = np.array([1.0, 2.0])
    result = integrate(FuncField(lambda x, t: -x), x0, cfg)
    assert result.trajectory.shape == (8, 2)
    assert np.array_equal(result.trajectory[0], x0)
    assert np.array_equal(result.trajectory[-1], result.endpoint)


def test_divergence_error_reports_step():
    def explode(x, t):
        with np.errstate(over="ignore"):
            return x * 1e200

    with pytest.raises(DivergenceError) as err:
        integrate(FuncField(explode), np.array([1.0]), IntegrationConfig("euler", 10))
    assert 0 <= err.value.step_index < 10
    # x goes 1 -> 1e199 -> inf: the last finite state is 1e199 at t = 0.1
    assert err.value.step_index == 1
    assert err.value.last_max_abs == 1.0 + 0.1 * 1e200
    assert err.value.last_time == 0.1
    assert "t=0.1" in str(err.value) and f"{1.0 + 0.1 * 1e200!r}" in str(err.value)


def test_divergence_error_reports_sample_in_batches():
    def selective(x, t):
        out = np.zeros_like(x)
        if x.ndim == 2:
            out[2] = np.inf
        return out

    with pytest.raises(DivergenceError) as err:
        integrate(FuncField(selective), np.zeros((5, 2)), IntegrationConfig("euler", 3))
    assert err.value.sample_index == 2
    assert err.value.step_index == 0
    assert err.value.last_max_abs == 0.0 and err.value.last_time == 0.0
    assert "(sample 2); last finite state at t=0.0 had max |x| = 0.0" in str(err.value)


def test_divergence_error_reports_the_failing_samples_last_state():
    def grow_row_one(x, t):
        out = np.zeros_like(x)
        out[1] = np.where(t < 0.5, -4.0, np.inf)
        return out

    x0 = np.array([[3.0, 3.0], [0.5, 0.5], [-3.0, 2.0]])
    with pytest.raises(DivergenceError) as err:
        integrate(FuncField(grow_row_one), x0, IntegrationConfig("euler", 4))
    # row 1 moves 0.5 -> -0.5 -> -1.5, then diverges in the step from t = 0.5
    assert (err.value.sample_index, err.value.step_index) == (1, 2)
    assert (err.value.last_max_abs, err.value.last_time) == (1.5, 0.5)


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
def test_divergence_error_reports_the_failing_samples_last_velocity(solver):
    def surge_row_one(x, t):
        out = np.zeros_like(x)
        out[1, 1] = -1.0 if t < 0.5 else -1e308
        return out

    x0 = np.array([[3.0, 3.0], [0.5, -1.7e308], [-3.0, 2.0]])
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        integrate(FuncField(surge_row_one), x0, IntegrationConfig(solver, 4))
    # every solver's first stage in the step from t = 0.5 reads -1e308 in row 1
    assert (err.value.sample_index, err.value.step_index, err.value.last_time) == (1, 2, 0.5)
    assert err.value.last_max_velocity == 1e308
    assert f"and max |v| = {1e308!r}" in str(err.value)


class ReturnsInput(VelocityField):
    def eval(self, x, t):
        return x


def reference_endpoint(field, x0, solver, n_steps):
    """The solver loop written with out-of-place expressions."""
    x = np.array(x0, dtype=float)
    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i / n_steps
        t_mid, t_next = t + 0.5 * h, (i + 1) / n_steps
        if solver == "euler":
            x = x + h * field.eval(x, t)
        elif solver == "midpoint":
            k1 = field.eval(x, t)
            x = x + h * field.eval(x + 0.5 * h * k1, t_mid)
        else:
            k1 = field.eval(x, t)
            k2 = field.eval(x + 0.5 * h * k1, t_mid)
            k3 = field.eval(x + 0.5 * h * k2, t_mid)
            k4 = field.eval(x + h * k3, t_next)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
def test_in_place_solver_keeps_the_bits_and_writes_no_field_array(solver):
    x0 = np.random.default_rng(3).normal(size=(6, 3))
    stored = np.random.default_rng(4).normal(size=(6, 3))
    kept = stored.copy()
    x0_kept = x0.copy()
    for field in (ReturnsInput(), StoredField(stored)):
        got = integrate(field, x0, IntegrationConfig(solver, 9)).endpoint
        assert got.tobytes() == reference_endpoint(field, x0, solver, 9).tobytes()
    assert np.array_equal(stored, kept) and np.array_equal(x0, x0_kept)


class RecordingField(VelocityField):
    """Logs every time at which it is evaluated."""

    def __init__(self):
        self.times = []

    def eval(self, x, t):
        self.times.append(t)
        return np.zeros_like(x)


@pytest.mark.parametrize("solver, distinct", [("euler", 40), ("midpoint", 80), ("rk4", 81)])
def test_integrate_evaluates_at_the_documented_stage_times(solver, distinct):
    n_steps, h = 40, 1.0 / 40
    want = []
    for i in range(n_steps):
        t = i / n_steps
        want += {
            "euler": [t],
            "midpoint": [t, t + 0.5 * h],
            "rk4": [t, t + 0.5 * h, t + 0.5 * h, (i + 1) / n_steps],
        }[solver]
    field = RecordingField()
    integrate(field, np.zeros(2), IntegrationConfig(solver, n_steps))
    assert field.times == want
    # rk4's two mid-stages share one time
    assert len(set(field.times)) == distinct


def test_integration_config_validation():
    with pytest.raises(ContractViolation):
        IntegrationConfig(solver="leapfrog")
    # steps=True would be recorded as True, steps=2.5 fail in range()
    for steps in (0, -1, True, 2.5, np.int64(4), "4"):
        with pytest.raises(ContractViolation):
            IntegrationConfig(steps=steps)
    assert IntegrationConfig(solver="RK4").solver == "rk4"


class GenericAffineField:
    """Time-dependent affine field with no special symmetry; the exact
    marginal Gaussian field shows superconvergence for midpoint, so order
    measurements need a generic right-hand side."""

    def eval(self, x, t):
        a = 1.2 * np.sin(3.0 * t) - 0.4
        b = np.array([np.cos(2.0 * t), np.exp(-t) - 0.5])
        return a * np.asarray(x, dtype=float) + b


def solver_order_slope(solver: str, field=None) -> float:
    # reference at N=5120 with the same solver; slope of log error vs log N
    field = field if field is not None else GenericAffineField()
    x0 = np.array([0.3, 1.1])
    grid = np.array([10, 20, 40, 80])
    reference = integrate(field, x0, IntegrationConfig(solver, 5120)).endpoint
    errors = [
        np.linalg.norm(
            integrate(field, x0, IntegrationConfig(solver, int(n))).endpoint
            - reference
        )
        for n in grid
    ]
    return float(-np.polyfit(np.log(grid), np.log(errors), 1)[0])


def test_convergence_orders():
    expected = {"euler": (1.0, 0.15), "midpoint": (2.0, 0.3), "rk4": (4.0, 0.5)}
    for solver, (order, tol) in expected.items():
        slope = solver_order_slope(solver)
        assert abs(slope - order) <= tol, f"{solver}: slope {slope}"


# --- generation ---------------------------------------------------------------

def test_generate_identity_decoder_and_metadata(space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley",
        score=ScoreVector((0.3, 0.8)),
        seed=5,
        sample_count=64,
        blend_mode="full_average",
        integration=IntegrationConfig("rk4", 10),
    )
    batch = generate(request, space2, biased_model)
    assert batch.endpoints.shape == (64, 2)
    assert np.array_equal(batch.decoded, batch.endpoints)
    assert batch.metadata["eval_count"] == 64 * 10 * 4 * (2 * 4 + 1)
    assert batch.metadata["config"]["base_prompt"] == "a valley"
    assert batch.trajectories is None


def test_generate_records_trajectories(space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley",
        score=ScoreVector((0.5, 0.5)),
        sample_count=3,
        blend_mode="full_average",
        integration=IntegrationConfig("euler", 6, record_trajectory=True),
    )
    batch = generate(request, space2, biased_model)
    assert batch.trajectories.shape == (3, 7, 2)
    assert np.array_equal(batch.trajectories[:, -1], batch.endpoints)
    x0 = initial_states(sample_seeds(request.seed, 3), 2)
    assert np.array_equal(batch.trajectories[:, 0], x0)


def test_generate_deterministic_and_seed_sensitive(space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
        seed=9, sample_count=8, blend_mode="stochastic",
        integration=IntegrationConfig("rk4", 12),
    )
    a = generate(request, space2, biased_model)
    b = generate(request, space2, biased_model)
    assert np.array_equal(a.endpoints, b.endpoints)
    import dataclasses

    other = generate(
        dataclasses.replace(request, seed=10), space2, biased_model
    )
    assert not np.array_equal(a.endpoints, other.endpoints)


def test_sample_streams_are_prefix_stable(space2, biased_model):
    # sample i depends only on (seed, i), never on sample_count
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
        seed=4, sample_count=5, blend_mode="stochastic",
        integration=IntegrationConfig("euler", 8),
    )
    import dataclasses

    big = generate(request, space2, biased_model)
    small = generate(dataclasses.replace(request, sample_count=3), space2, biased_model)
    assert np.array_equal(big.endpoints[:3], small.endpoints)


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_feature_major_generate_matches_generic_path(solver, mode, monkeypatch):
    space = make_space(3)
    model = SemanticModel.for_space(space, effect_magnitudes=1.5, position_bias=0.5)
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8, 0.6)), seed=2,
        sample_count=11, blend_mode=mode,
        integration=IntegrationConfig(solver, 6, record_trajectory=True),
    )
    # the layout the bank computes in: the full average's (D, B) block,
    # which a (B, D) state is a view of when it is F-contiguous, and the
    # draws' C-contiguous (B, D) rows
    layout = "f_contiguous" if mode == "full_average" else "c_contiguous"
    calls = []  # (bank-backed, state in that layout) per evaluation
    blended_eval = BlendedField.eval

    def spy(self, x, t):
        calls.append((self._bank is not None, getattr(x.flags, layout)))
        return blended_eval(self, x, t)

    monkeypatch.setattr(BlendedField, "eval", spy)
    bank = generate(request, space, model)
    # the solver keeps the layout eval returns, so no evaluation copies the
    # state: in full_average only the first evaluation gets the C-ordered
    # x0, and every later one a state the bank reads as its (D, B) block;
    # in stochastic mode every evaluation gets C-ordered rows
    assert len(calls) > 1
    if mode == "full_average":
        assert calls[0] == (True, False)
        assert all(c == (True, True) for c in calls[1:])
    else:
        assert all(c == (True, True) for c in calls)
    calls.clear()
    bind_field = flow.field_for_prompt
    monkeypatch.setattr(flow, "field_for_prompt", lambda m, p: DelegatingField(bind_field(m, p)))
    generic = generate(request, space, model)
    assert calls and not any(banked for banked, _ in calls)
    assert bank.trajectories.shape == generic.trajectories.shape == (11, 7, 3)
    for got, want in (
        (bank.endpoints, generic.endpoints),
        (bank.trajectories, generic.trajectories),
        (bank.decoded, generic.decoded),
    ):
        assert got.tobytes() == want.tobytes()
    assert bank.endpoints.flags.c_contiguous
    assert bank.metadata["eval_count"] == generic.metadata["eval_count"]


@pytest.mark.parametrize(
    "wrap, banked", [(lambda f: f, True), (DelegatingField, False)], ids=["bank", "generic"]
)
def test_non_finite_row_reports_its_index_on_both_paths(wrap, banked):
    rng = np.random.default_rng(6)
    anchors = enumerate_anchors(make_space(2))

    def field():
        return wrap(GaussianTargetField(rng.normal(size=3), 0.7))

    spec = BlendSpec(
        base_field=field(),
        anchor_sets=tuple(AnchorFields(a, (field(), field())) for a in anchors),
        score=ScoreVector((0.3, 0.8)),
    )
    x0 = rng.normal(size=(8, 3))
    x0[5, 1] = np.nan
    blended = BlendedField(spec, np.arange(8, dtype=np.uint64))
    assert (blended._bank is not None) == banked
    with pytest.raises(DivergenceError) as err:
        integrate(blended, x0, IntegrationConfig("rk4", 4))
    assert (err.value.sample_index, err.value.step_index) == (5, 0)


def test_generate_pure_base_matches_target_push_forward(space2):
    # base_mix=1 ignores anchors entirely; endpoints follow the base target
    model = SemanticModel.for_space(
        space2, base_mean=np.array([2.0, -1.0]), default_variance=0.5
    )
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.9, 0.1)),
        seed=3, sample_count=4000, blend_mode="full_average", base_mix=1.0,
        integration=IntegrationConfig("rk4", 50),
    )
    batch = generate(request, space2, model)
    end = batch.endpoints
    se_mean = end.std(axis=0, ddof=1) / np.sqrt(len(end))
    assert np.all(np.abs(end.mean(axis=0) - [2.0, -1.0]) <= 3 * se_mean + 1e-9)
    var = end.var(axis=0, ddof=1)
    se_var = var * np.sqrt(2.0 / (len(end) - 1))
    assert np.all(np.abs(var - 0.5) <= 3 * se_var + 1e-9)


def test_affine_decoder(space2, biased_model):
    decoder = AffineDecoder(matrix=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], offset=[0.0, 0.0, 10.0])
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.5, 0.5)),
        sample_count=4, blend_mode="full_average",
        integration=IntegrationConfig("euler", 4), decoder=decoder,
    )
    batch = generate(request, space2, biased_model)
    assert batch.decoded.shape == (4, 3)
    assert np.allclose(batch.decoded[:, 2], batch.endpoints.sum(axis=1) + 10.0)
    with pytest.raises(ContractViolation):
        AffineDecoder(matrix=[[1.0, 0.0]], offset=[0.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_affine_decoder_rejects_a_non_finite_entry(bad):
    # it would write its inf or NaN into every decoded row
    with pytest.raises(ContractViolation, match="matrix has a non-finite entry"):
        AffineDecoder(matrix=[[1.0, bad], [0.0, 1.0]], offset=[0.0, 0.0])
    with pytest.raises(ContractViolation, match="offset has a non-finite entry"):
        AffineDecoder(matrix=[[1.0, 0.0], [0.0, 1.0]], offset=[bad, 0.0])


def test_build_blend_spec_rejects_a_score_of_another_length(space2, biased_model):
    # checked before anything is polarized: the stub knows no prompt
    request = GenerationRequest(base_prompt="a valley", score=ScoreVector((0.5,)))
    with pytest.raises(SpaceMismatchError, match="score has 1 entries, but the space has 2"):
        build_blend_spec(request, space2, biased_model, StubBackend({}))


def test_request_validation():
    score = ScoreVector((0.5, 0.5))
    # sample_count=2.5 would write 3 samples and record 2.5
    for count in (0, -1, True, 2.5, np.int64(4), "4"):
        with pytest.raises(ContractViolation):
            GenerationRequest(base_prompt="p", score=score, sample_count=count)
    with pytest.raises(ContractViolation):
        GenerationRequest(base_prompt="p", score=score, blend_mode="sometimes")
    # the streams take seeds as uint64: any other seed would alias one
    for seed in (-1, 1 << 64, 1.5, True):
        with pytest.raises(ContractViolation):
            GenerationRequest(base_prompt="p", score=score, seed=seed)
    GenerationRequest(base_prompt="p", score=score, seed=(1 << 64) - 1)
    # base_mix=True would be recorded as true; "0.5" failed with a TypeError
    for mix in (True, False, "0.5", None, float("nan"), -0.5, 1.5):
        with pytest.raises(ContractViolation):
            GenerationRequest(base_prompt="p", score=score, base_mix=mix)
    for mix in (0, 1, 0.25, np.float64(0.75)):
        assert GenerationRequest(base_prompt="p", score=score, base_mix=mix).base_mix == mix


# --- moment oracle ------------------------------------------------------------

def vertex_pair_spec(low, high, base, score, base_mix=0.5):
    space = CognitiveSpace.from_names("d1")
    anchors = enumerate_anchors(space)
    return BlendSpec(
        base_field=GaussianTargetField(np.asarray(base, dtype=float), 0.5),
        anchor_sets=(
            AnchorFields(anchors[0], (GaussianTargetField(np.asarray(low, float), 0.5),)),
            AnchorFields(anchors[1], (GaussianTargetField(np.asarray(high, float), 0.5),)),
        ),
        score=ScoreVector(score),
        mode="full_average",
        base_mix=base_mix,
    )


def test_moment_reference_zero_mean_blend_returns_to_the_prior():
    # every field toward N(0, I): the offsets vanish, so the mean stays 0,
    # and D(1) = 1 brings the covariance back to I
    prior = GaussianTargetField(np.zeros(2), 1.0)
    spec = vertex_pair_spec([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], (0.5,))
    spec = replace(spec, base_field=prior, anchor_sets=tuple(
        replace(entry, chain_fields=(prior,)) for entry in spec.anchor_sets
    ))
    paths = moment_reference(spec, IntegrationConfig("rk4", 50))
    assert paths.means.shape == (51, 2)
    assert np.all(paths.means == 0.0)
    assert np.allclose(paths.endpoint_cov, np.eye(2), atol=1e-14)


def test_moment_reference_pure_base_push_forward():
    spec = vertex_pair_spec([5.0, 5.0], [-5.0, -5.0], [2.0, -1.0], (0.5,), base_mix=1.0)
    paths = moment_reference(spec, IntegrationConfig("rk4", 2000))
    assert np.allclose(paths.endpoint_mean, [2.0, -1.0], atol=1e-8)
    assert np.allclose(paths.endpoint_cov, 0.5 * np.eye(2), atol=1e-8)


def test_moment_reference_center_blend_matches_sampler():
    # equal-weight average of two opposing anchors, no base (base_mix=0)
    low, high = np.array([2.0, 0.0]), np.array([-2.0, 0.0])
    spec = vertex_pair_spec(low, high, [0.0, 0.0], (0.5,), base_mix=0.0)
    oracle = moment_reference(spec, IntegrationConfig("rk4", 1000))

    space = CognitiveSpace.from_names("d1")
    model = SemanticModel.for_space(
        space, latent_dim=2,
        dimension_directions=[[1.0, 0.0]], effect_magnitudes=[2.0],
        default_variance=0.5,
    )
    request = GenerationRequest(
        base_prompt="p", score=ScoreVector((0.5,)),
        seed=12, sample_count=6000, blend_mode="full_average", base_mix=0.0,
        integration=IntegrationConfig("rk4", 100),
    )
    batch = generate(request, space, model)
    end = batch.endpoints
    se = end.std(axis=0, ddof=1) / np.sqrt(len(end))
    assert np.all(np.abs(end.mean(axis=0) - oracle.endpoint_mean) <= 3 * se + 1e-9)


def test_moment_reference_contract_errors():
    spec = vertex_pair_spec([1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], (0.5,))
    import dataclasses

    with pytest.raises(ContractViolation):
        moment_reference(
            dataclasses.replace(spec, mode="stochastic"), IntegrationConfig("rk4", 10)
        )


def two_component_mixture():
    return MixtureTargetField(
        TargetDistribution(components=((0.5, np.zeros(2), 1.0), (0.5, np.ones(2), 1.0)))
    )


NON_GAUSSIAN_FIELDS = {
    "one-component-mixture": lambda: MixtureTargetField(TargetDistribution.single([2.0, -1.0], 0.5)),
    "delegating-gaussian": lambda: DelegatingField(GaussianTargetField(np.zeros(2), 1.0)),
    "constant": lambda: ConstantField([0.3, -1.1]),
    "two-component-mixture": two_component_mixture,
}


@pytest.mark.parametrize("kind", NON_GAUSSIAN_FIELDS)
def test_moment_reference_refuses_a_non_gaussian_field_with_a_share(kind):
    # the closed form knows only GaussianTargetField; anything else with a
    # share, even a field that evaluates as one Gaussian, has no oracle
    make = NON_GAUSSIAN_FIELDS[kind]
    spec = vertex_pair_spec([1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], (0.5,))
    chain = replace(spec.anchor_sets[1], chain_fields=(make(),))
    for bad, what in (
        (replace(spec, base_field=make()), "base field"),
        (replace(spec, anchor_sets=(spec.anchor_sets[0], chain)), "chain field of anchor (1,)"),
    ):
        with pytest.raises(ContractViolation, match=re.escape(what)):
            moment_reference(bad, IntegrationConfig("rk4", 10))


def test_moment_reference_skips_a_zero_share_field_of_any_type():
    # a vertex score gives the other anchor weight 0, and base_mix=0 gives
    # the base share 0: a mixture there leaves the oracle's bits unchanged
    config = IntegrationConfig("rk4", 50)
    spec = vertex_pair_spec([1.0, 0.0], [-1.0, 0.5], [0.3, 0.2], (1.0,), base_mix=0.0)
    want = moment_reference(spec, config)
    low = replace(spec.anchor_sets[0], chain_fields=(two_component_mixture(),))
    for other in (
        replace(spec, anchor_sets=(low, spec.anchor_sets[1])),
        replace(spec, base_field=two_component_mixture()),
    ):
        got = moment_reference(other, config)
        assert got.means.tobytes() == want.means.tobytes()
        assert got.variances.tobytes() == want.variances.tobytes()


# The coefficient loop and matrix state of the moment ODE, integrated by
# the solver: the reference that the closed form is held to.

def gaussian_coefficients(field: GaussianTargetField, t: float) -> tuple[float, np.ndarray]:
    """Slope and offset of the exact field toward N(mu, v I), from the joint
    Gaussian of (x0, x1, x_t): with D = (1 - t)**2 + t**2 v, the slope is
    D' / (2 D) and the offset (1 - t) mu / D."""
    d = (1.0 - t) ** 2 + t * t * field.variance
    return (t * field.variance - (1.0 - t)) / d, (1.0 - t) / d * field.mean


def test_gaussian_coefficients_reproduce_the_field():
    field = GaussianTargetField(np.array([3.0, -2.0]), 0.25)
    rng = np.random.default_rng(9)
    for t in (0.0, 0.3, 0.9, 1.0):
        slope, offset = gaussian_coefficients(field, t)
        x = rng.normal(size=2)
        assert np.allclose(field.eval(x, t), slope * x + offset, atol=1e-14)


def blended_affine_coefficients(
    spec: BlendSpec, t: float, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Scalar slope and offset of a full-average blend of Gaussian fields.

    weights is spec.weights(), computed once by the caller rather than on
    every evaluation of the moment ODE.
    """
    slope, offset = gaussian_coefficients(spec.base_field, t)
    slope *= spec.base_mix
    offset = spec.base_mix * offset
    anchor_share = 1.0 - spec.base_mix
    for k, entry in enumerate(spec.anchor_sets):
        chain = [gaussian_coefficients(f, t) for f in entry.chain_fields]
        slope += anchor_share * weights[k] * np.mean([a for a, _ in chain])
        offset = offset + anchor_share * weights[k] * np.mean([b for _, b in chain], axis=0)
    return slope, offset


class _MomentField(VelocityField):
    """Packs (mean, covariance) into one state vector for integrate()."""

    def __init__(self, spec: BlendSpec, dim: int):
        self.spec = spec
        self.state_dim = dim
        self.weights = spec.weights()
        self.coefficients = {}

    def eval(self, z, t):
        d = self.state_dim
        if t not in self.coefficients:  # rk4's two mid-stages share a time
            self.coefficients[t] = blended_affine_coefficients(self.spec, t, self.weights)
        slope, offset = self.coefficients[t]
        m = z[:d]
        cov = z[d:].reshape(d, d)
        dm = slope * m + offset
        dcov = slope * cov + cov * slope
        return np.concatenate([dm, dcov.ravel()])


def reference_moments(spec: BlendSpec, config: IntegrationConfig, dim: int):
    z0 = np.concatenate([np.zeros(dim), np.eye(dim).ravel()])
    result = integrate(_MomentField(spec, dim), z0, replace(config, record_trajectory=True))
    return result.trajectory[:, :dim], result.trajectory[:, dim:].reshape(-1, dim, dim)


REFERENCE = IntegrationConfig("rk4", 2000)
REFERENCE_TOLERANCE = 1e-12


def random_gaussian_spec(n, base_mix, seed, dim=3):
    """Every field with its own mean and variance, so slopes differ."""
    rng = np.random.default_rng(seed)

    def field():
        return GaussianTargetField(rng.normal(size=dim), rng.uniform(0.05, 3.0))

    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=field(),
        anchor_sets=tuple(AnchorFields(a, tuple(field() for _ in range(n))) for a in anchors),
        score=ScoreVector(tuple(rng.uniform(0.05, 0.95, size=n))),
        mode="full_average",
        base_mix=base_mix,
    )


@functools.lru_cache(maxsize=None)
def reference_path(*args):
    """The reference path for random_gaussian_spec(*args) on the REFERENCE
    grid, computed once."""
    spec = random_gaussian_spec(*args)
    return reference_moments(spec, REFERENCE, spec.latent_dims().pop())


def assert_matches_reference(paths, reference):
    """paths lies within REFERENCE_TOLERANCE of the reference on its grid,
    whose steps divide the reference's; its covariance at times[i] is
    variances[i] * I, one variance per time."""
    means, covariances = reference
    stride = REFERENCE.steps // (len(paths.times) - 1)
    assert np.max(np.abs(paths.means - means[::stride])) <= REFERENCE_TOLERANCE
    assert paths.variances.shape == paths.times.shape
    isotropic = paths.variances[:, None, None] * np.eye(paths.means.shape[1])
    assert np.max(np.abs(isotropic - covariances[::stride])) <= REFERENCE_TOLERANCE


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moment_reference_bit_identical_to_coefficient_loop(solver, n):
    config = IntegrationConfig(solver, 50)
    for base_mix in (0.0, 0.5, 1.0):
        paths = moment_reference(random_gaussian_spec(n, base_mix, 10 * n), config)
        assert_matches_reference(paths, reference_path(n, base_mix, 10 * n))


def test_moment_reference_bit_identical_on_template_spec(space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)), blend_mode="full_average",
    )
    spec = build_blend_spec(request, space2, biased_model)
    paths = moment_reference(spec, IntegrationConfig("rk4", 50))
    assert_matches_reference(paths, reference_moments(spec, REFERENCE, biased_model.latent_dim))


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
def test_moment_reference_evaluates_no_field(solver, monkeypatch):
    # the closed form reads each field's mean and variance, never its velocity
    def no_call(self, x, t):
        raise AssertionError("the oracle evaluated a field")

    want = [reference_path(n, 0.5, 10 * n) for n in (1, 2, 3)]
    monkeypatch.setattr(GaussianTargetField, "eval", no_call)
    for n, reference in zip((1, 2, 3), want):
        paths = moment_reference(random_gaussian_spec(n, 0.5, 10 * n), IntegrationConfig(solver, 40))
        assert_matches_reference(paths, reference)


def test_one_pass_tabulation_keeps_the_bits_of_per_time_calls():
    # one field alone transports N(0, I) along the interpolation path, to
    # N(t mu, D(t) I) with D(t) = (1 - t)**2 + t**2 v
    mean = np.array([0.3, -1.7])
    times = np.arange(2001) / 2000
    for variance in np.linspace(0.05, 3.0, 30):
        spec = vertex_pair_spec([1.0, 0.0], [-1.0, 0.0], mean, (0.5,), base_mix=1.0)
        spec = replace(spec, base_field=GaussianTargetField(mean, variance))
        paths = moment_reference(spec, REFERENCE)
        assert np.max(np.abs(paths.means - times[:, None] * mean)) <= REFERENCE_TOLERANCE
        decay = (1.0 - times) ** 2 + times * times * variance
        assert np.max(np.abs(paths.variances - decay)) <= REFERENCE_TOLERANCE


def test_moment_field_rejects_an_untabulated_time():
    # any grid works, and the endpoint does not depend on it
    spec = random_gaussian_spec(2, 0.5, 20)
    paths = moment_reference(spec, IntegrationConfig("rk4", 8))
    assert_matches_reference(paths, reference_path(2, 0.5, 20))
    for steps in (1, 7, 2000):
        other = moment_reference(spec, IntegrationConfig("euler", steps))
        assert np.max(np.abs(other.endpoint_mean - paths.endpoint_mean)) <= 1e-14
        assert np.max(np.abs(other.endpoint_cov - paths.endpoint_cov)) <= 1e-14


def test_moment_reference_makes_no_integrate_call(monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("the oracle called the solver")

    monkeypatch.setattr(flow, "integrate", no_call)
    paths = moment_reference(random_gaussian_spec(2, 0.5, 20), IntegrationConfig("rk4", 40))
    assert_matches_reference(paths, reference_path(2, 0.5, 20))


def test_endpoint_check_against_the_oracle_catches_a_perturbed_solver(monkeypatch):
    # a full_average blend maps x0 affinely, to oracle mean + sqrt(c(1)) x0
    spec = random_gaussian_spec(3, 0.5, 40)
    config = IntegrationConfig("rk4", 100)
    seeds = sample_seeds(7, 64)
    x0 = initial_states(seeds, 3)
    oracle = moment_reference(spec, config)
    exact = oracle.endpoint_mean + np.sqrt(oracle.endpoint_cov[0, 0]) * x0

    def gap():
        return np.max(np.abs(integrate(BlendedField(spec, seeds), x0, config).endpoint - exact))

    assert gap() <= 1e-7
    check_finite = flow._check_finite

    def nudged(x, *args):  # runs once per solver step, on the new state
        x += 1e-6
        check_finite(x, *args)

    monkeypatch.setattr(flow, "_check_finite", nudged)
    assert gap() > 1e-7


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moment_reference_matches_shared_variance_closed_form(n):
    # With one variance v for every bound field, the blend is the exact
    # field toward N(psi, v I), so the oracle must end at (psi, v I).
    space = make_space(n)
    variance = 0.6
    model = SemanticModel.for_space(
        space, effect_magnitudes=1.5, position_bias=0.5, default_variance=variance
    )
    score = ScoreVector(tuple(np.linspace(0.2, 0.8, n)))
    base_mix = 0.5
    request = GenerationRequest(
        base_prompt="a valley", score=score, blend_mode="full_average", base_mix=base_mix,
    )
    sets = build_all_sets(TemplateBackend(), request.base_prompt, space)
    chain_means = [np.mean([bind(model, r).mean() for r in s.results], axis=0) for s in sets]
    psi = base_mix * bind(model, request.base_prompt).mean() + (1.0 - base_mix) * sum(
        w * m for w, m in zip(weight_vector(score), chain_means)
    )
    paths = moment_reference(
        build_blend_spec(request, space, model), IntegrationConfig("rk4", 2000)
    )
    assert np.max(np.abs(paths.endpoint_mean - psi)) <= 1e-9
    assert np.max(np.abs(paths.endpoint_cov - variance * np.eye(model.latent_dim))) <= 1e-9


# --- the stochastic estimator is unbiased ---------------------------------------

# Two chains per anchor whose variances differ 60-fold, so each chain's
# slope differs along the whole path; the seeds and the bound were fixed
# before the test was first run.
UNEQUAL_VARIANCES = (0.05, 3.0)
PAIRED_ROWS, PAIRED_X0_SEED, PAIRED_Z = 20_000, 11, 4.5


def unequal_variance_spec(mode):
    anchor_sets = tuple(
        AnchorFields(
            a,
            tuple(
                GaussianTargetField(mean, variance)
                for mean, variance in zip(
                    ([1.0 + k, -0.5 * k], [-1.0, 0.5 + k]), UNEQUAL_VARIANCES
                )
            ),
        )
        for k, a in enumerate(enumerate_anchors(make_space(2)))
    )
    return BlendSpec(
        GaussianTargetField([0.0, 0.0], 1.0), anchor_sets, ScoreVector((0.7, 0.2)), mode=mode
    )


@pytest.mark.parametrize("steps", [5, 10])
def test_stochastic_endpoints_are_an_unbiased_estimate_of_the_full_average(steps):
    # Paired per row: r = stochastic - full_average from the same x0, so
    # the draw noise is all r holds, and its mean must be 0 within PAIRED_Z
    # standard errors on every coordinate.
    x0 = np.random.default_rng(PAIRED_X0_SEED).standard_normal((PAIRED_ROWS, 2))
    seeds = np.arange(PAIRED_ROWS, dtype=np.uint64)
    config = IntegrationConfig("rk4", steps)
    full, stochastic = (
        integrate(BlendedField(unequal_variance_spec(mode), seeds), x0, config).endpoint
        for mode in ("full_average", "stochastic")
    )
    r = stochastic - full
    assert np.all(r.std(axis=0) > 0)  # the draws do move the endpoints
    z = r.mean(axis=0) / (r.std(axis=0, ddof=1) / np.sqrt(PAIRED_ROWS))
    assert np.all(np.abs(z) <= PAIRED_Z), z


# --- batched equals sequential -------------------------------------------------

def test_batched_generation_equals_per_sample(space2, biased_model):
    import dataclasses

    for mode in ("full_average", "stochastic"):
        request = GenerationRequest(
            base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
            seed=21, sample_count=4, blend_mode=mode,
            integration=IntegrationConfig("rk4", 9),
        )
        batch = generate(request, space2, biased_model)
        spec = build_blend_spec(
            dataclasses.replace(request, sample_count=1), space2, biased_model
        )
        from cogflow.blend import BlendedField

        seeds = sample_seeds(request.seed, request.sample_count)
        x0 = initial_states(seeds, 2)
        for i in range(4):
            # a 1-row batch with row i's seed and start
            row = slice(i, i + 1)
            solo = integrate(BlendedField(spec, seeds[row]), x0[row], request.integration)
            assert np.array_equal(solo.endpoint, batch.endpoints[row]), f"{mode} row {i}"


def test_generate_refuses_a_state_or_trajectory_over_the_element_budget(
    space2, biased_model, monkeypatch
):
    """sample_count x D, and with a recorded trajectory (steps + 1) x
    sample_count x D, over flow.ELEMENT_BUDGET raises ContractViolation
    before any backend call or allocation."""
    def no_backend_call(self, *args, **kwargs):
        raise AssertionError("the backend was called")

    monkeypatch.setattr(TemplateBackend, "polarize", no_backend_call)
    monkeypatch.setattr(flow, "ELEMENT_BUDGET", 2 * 64 * 9 - 1)
    score = ScoreVector((0.3, 0.8))
    for count, config in (
        (flow.ELEMENT_BUDGET // 2 + 1, IntegrationConfig("euler", 8)),
        (64, IntegrationConfig("euler", 8, record_trajectory=True)),
    ):
        request = GenerationRequest(
            base_prompt="a valley", score=score, sample_count=count, integration=config
        )
        with pytest.raises(ContractViolation, match="more than the budget"):
            generate(request, space2, biased_model)
    monkeypatch.undo()
    monkeypatch.setattr(flow, "ELEMENT_BUDGET", 2 * 64 * 9)  # exactly the trajectory
    request = GenerationRequest(
        base_prompt="a valley", score=score, sample_count=64,
        integration=IntegrationConfig("euler", 8, record_trajectory=True),
    )
    assert generate(request, space2, biased_model).trajectories.shape == (64, 9, 2)


# --- batch serialization --------------------------------------------------------

def test_write_sample_batch_round_trip(tmp_path, space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
        seed=1, sample_count=5, blend_mode="full_average",
        integration=IntegrationConfig("euler", 4),
    )
    batch = generate(request, space2, biased_model)
    paths = write_sample_batch(batch, tmp_path)
    names = {p.name for p in paths}
    assert names == {"endpoints.csv", "decoded.csv", "metadata.json"}
    text = (tmp_path / "endpoints.csv").read_text().splitlines()
    assert text[0] == "z0,z1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    assert np.array_equal(parsed, batch.endpoints)  # %.17g round-trips exactly
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 1 and meta["sample_count"] == 5
    assert meta["config"]["solver"] == "euler"


def test_write_sample_batch_byte_identical_across_runs(tmp_path, space2, biased_model):
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
        seed=2, sample_count=6, blend_mode="full_average",
        integration=IntegrationConfig("rk4", 5),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_sample_batch(generate(request, space2, biased_model), out_a)
    write_sample_batch(generate(request, space2, biased_model), out_b)
    assert (out_a / "endpoints.csv").read_bytes() == (out_b / "endpoints.csv").read_bytes()
    assert (out_a / "decoded.csv").read_bytes() == (out_b / "decoded.csv").read_bytes()


def test_identity_decoded_csv_formats_the_endpoints_lines_once(tmp_path, space2, biased_model,
                                                                monkeypatch):
    """Decoded rows with the endpoints' bytes reuse the endpoints' lines;
    rows equal as values but not as bytes (-0.0) are formatted on their own."""
    request = GenerationRequest(
        base_prompt="a valley", score=ScoreVector((0.3, 0.8)),
        seed=4, sample_count=300, integration=IntegrationConfig("euler", 4),
    )
    batch = generate(request, space2, biased_model)
    formatted = []
    csv_lines = flow._csv_lines

    def counted(header, rows):
        formatted.append(header)
        return csv_lines(header, rows)

    monkeypatch.setattr(flow, "_csv_lines", counted)
    write_sample_batch(batch, tmp_path / "same")
    assert formatted == [["z0", "z1"]]
    for name, header, rows in (("endpoints", ["z0", "z1"], batch.endpoints),
                               ("decoded", ["y0", "y1"], batch.decoded)):
        assert (tmp_path / "same" / f"{name}.csv").read_text() == reference_csv(header, rows)
    batch.endpoints[7, 1] = 0.0
    batch.decoded = batch.endpoints.copy()
    batch.decoded[7, 1] = -0.0
    write_sample_batch(batch, tmp_path / "signed")
    assert formatted[1:] == [["z0", "z1"], ["y0", "y1"]]
    assert (tmp_path / "signed" / "decoded.csv").read_text() == reference_csv(
        ["y0", "y1"], batch.decoded
    )
    lines = [(tmp_path / "signed" / f"{name}.csv").read_text().splitlines()[8]
             for name in ("endpoints", "decoded")]
    assert lines[0].endswith(",0") and lines[1].endswith(",-0")


def reference_csv(header, rows):
    """Each value formatted on its own, as f"{v:.17g}"."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(rows)]
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                  1e300, -1e300, 1e-300, 3.0, -7.0, 2.0**53, 1e16, 0.1]


@pytest.mark.parametrize("columns", [1, 2, 4, 7, 64])
def test_csv_lines_match_per_value_formatting(columns):
    rng = np.random.default_rng(columns)
    special = np.resize(SPECIAL_VALUES, (len(SPECIAL_VALUES), columns))
    scales = 10.0 ** rng.integers(-30, 30, size=(9, columns))
    for rows in (special, rng.normal(size=(9, columns)) * scales, special[:1]):
        header = [f"z{i}" for i in range(columns)]
        assert flow._csv_lines(header, rows) == reference_csv(header, rows)
    vector = np.array(SPECIAL_VALUES[:columns])  # 1-D input is one row
    header = [f"y{i}" for i in range(len(vector))]
    assert flow._csv_lines(header, vector) == reference_csv(header, vector)


def test_csv_lines_match_per_value_formatting_of_decoded_rows():
    decoder = AffineDecoder(matrix=[[1.0, -0.5, 2.0], [0.1, 0.0, 3.0]], offset=[1e-3, -7.0])
    latents = np.random.default_rng(4).normal(size=(32, 3))
    decoded = decoder.apply(latents)
    assert flow._csv_lines(["y0", "y1"], decoded) == reference_csv(["y0", "y1"], decoded)
