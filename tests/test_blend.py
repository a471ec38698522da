import functools
import itertools
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogflow import streams
from cogflow.blend import (
    AnchorFields,
    BlendedField,
    BlendSpec,
    _deviation_mean,
)
from cogflow.cogspace import (
    CognitiveAnchor,
    CognitiveSpace,
    ScoreVector,
    anchor_weight,
    enumerate_anchors,
)
from cogflow.errors import ContractViolation, SpaceMismatchError
from cogflow.flow import (
    GenerationRequest,
    IntegrationConfig,
    build_blend_spec,
    generate,
    integrate,
)
from cogflow.polarize import TemplateBackend, build_all_sets
from cogflow.semantics import (
    GaussianTargetField,
    MixtureTargetField,
    SemanticModel,
    TargetDistribution,
)

from conftest import ConstantField, DelegatingField, StoredField, make_space


def spec_with_constant_chains(values_by_anchor, score, n=2, **kwargs):
    """Helper: anchor k's chains are ConstantFields over its value list."""
    space = make_space(n)
    anchors = enumerate_anchors(space)
    anchor_sets = tuple(
        AnchorFields(
            anchor=a,
            chain_fields=tuple(ConstantField(v) for v in values_by_anchor[i]),
        )
        for i, a in enumerate(anchors)
    )
    base = kwargs.pop("base_field", ConstantField(np.zeros(len(values_by_anchor[0][0]))))
    return BlendSpec(
        base_field=base,
        anchor_sets=anchor_sets,
        score=ScoreVector(score),
        **kwargs,
    )


def uniform_spec(value, score=(0.3, 0.8), n=2, **kwargs):
    values = [[value] * n for _ in range(1 << n)]
    kwargs.setdefault("base_field", ConstantField(value))
    return spec_with_constant_chains(values, score, n=n, **kwargs)


# --- identity collapse ----------------------------------------------------

@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("base_mix", [0.0, 0.3, 0.5, 1.0])
def test_identity_collapse_is_bit_exact(mode, base_mix):
    value = np.array([0.123456789, -7.654321e3])
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(5):
            score = tuple(rng.uniform(0, 1, n))
            spec = uniform_spec(value, score=score, n=n, mode=mode, base_mix=base_mix)
            field = BlendedField(spec, seed=17)
            out = field.eval(np.zeros(2), 0.5)
            assert np.array_equal(out, value)


def test_identity_collapse_via_shared_gaussian():
    shared = GaussianTargetField(np.array([0.7, -0.2]), 0.8)
    space = CognitiveSpace.from_names("a", "b")
    spec = BlendSpec(
        base_field=shared,
        anchor_sets=tuple(
            AnchorFields(anchor=a, chain_fields=(shared, shared))
            for a in enumerate_anchors(space)
        ),
        score=ScoreVector((0.3, 0.8)),
        mode="full_average",
    )
    x = np.array([0.4, 0.9])
    out = BlendedField(spec, 0).eval(x, 0.37)
    assert np.array_equal(out, shared.eval(x, 0.37))


# --- formula --------------------------------------------------------------

def test_one_dimensional_vertex_half_mix():
    # n=1 at score (0,): weight is one-hot on the low anchor, so the blend
    # is the even split of that anchor's single chain and the base
    low, high, base = np.array([2.0, 0.0]), np.array([-2.0, 0.0]), np.array([0.0, 4.0])
    spec = spec_with_constant_chains(
        [[low], [high]], (0.0,), n=1,
        base_field=ConstantField(base), mode="full_average", base_mix=0.5,
    )
    out = BlendedField(spec, 0).eval(np.zeros(2), 0.2)
    assert np.allclose(out, 0.5 * (low + base), atol=1e-15, rtol=0)


def test_vertex_weight_coupling_full_mode():
    # at a vertex score the blend collapses to that anchor's chain mean
    rng = np.random.default_rng(2)
    values = [[rng.normal(size=3) for _ in range(2)] for _ in range(4)]
    base = rng.normal(size=3)
    for anchor in enumerate_anchors(CognitiveSpace.from_names("a", "b")):
        for lam in (0.0, 0.5, 0.8):
            spec = spec_with_constant_chains(
                values, tuple(float(b) for b in anchor.bits),
                base_field=ConstantField(base), mode="full_average", base_mix=lam,
            )
            out = BlendedField(spec, 0).eval(np.zeros(3), 0.5)
            expected = (1 - lam) * np.mean(values[anchor.index - 1], axis=0) + lam * base
            assert np.allclose(out, expected, atol=1e-14, rtol=0)


def test_base_mix_extremes():
    rng = np.random.default_rng(6)
    values = [[rng.normal(size=2) for _ in range(2)] for _ in range(4)]
    base = rng.normal(size=2)
    # base_mix=1 is bit-exactly the base field (pure-base degenerate case)
    spec_base = spec_with_constant_chains(
        values, (0.3, 0.8), base_field=ConstantField(base),
        mode="full_average", base_mix=1.0,
    )
    assert np.array_equal(BlendedField(spec_base, 0).eval(np.zeros(2), 0.1), base)
    # base_mix=0 drops the base: the anchor mix alone
    spec_anchor = spec_with_constant_chains(
        values, (0.3, 0.8), base_field=ConstantField(base),
        mode="full_average", base_mix=0.0,
    )
    out = BlendedField(spec_anchor, 0).eval(np.zeros(2), 0.1)
    from cogflow.cogspace import weight_vector

    weights = weight_vector(ScoreVector((0.3, 0.8)), CognitiveSpace.from_names("a", "b"))
    expected = sum(
        w * np.mean(vals, axis=0) for w, vals in zip(weights, values)
    ) + (1 - weights.sum()) * base
    assert np.allclose(out, expected, atol=1e-12, rtol=0)


def test_linearity_in_an_inner_field_slot():
    rng = np.random.default_rng(13)
    base = rng.normal(size=2)
    others = [[rng.normal(size=2) for _ in range(2)] for _ in range(4)]

    def blend_with(first_chain_value):
        values = [list(v) for v in others]
        values[1][0] = first_chain_value
        spec = spec_with_constant_chains(
            values, (0.3, 0.8), base_field=ConstantField(base), mode="full_average"
        )
        return BlendedField(spec, 0).eval(np.zeros(2), 0.5)

    f, g = rng.normal(size=2), rng.normal(size=2)
    mixed = blend_with((f + g) / 2)
    assert np.allclose(mixed, (blend_with(f) + blend_with(g)) / 2, atol=1e-12, rtol=0)


# --- evaluation counting --------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_counts_per_call(n):
    value = np.zeros(2)
    for mode, per_call in (
        ("stochastic", (1 << n) + 1),
        ("full_average", n * (1 << n) + 1),
    ):
        spec = uniform_spec(value, score=(0.5,) * n, n=n, mode=mode)
        field = BlendedField(spec, 0)
        for calls in range(1, 4):
            field.eval(np.zeros(2), 0.5)
            assert field.eval_counter == calls * per_call


def test_eval_counts_batched_rows():
    spec = uniform_spec(np.zeros(2), mode="stochastic")
    field = BlendedField(spec, 0)
    field.eval(np.zeros((7, 2)), 0.5)
    assert field.eval_counter == 7 * 5


# --- determinism and draws -------------------------------------------------

def distinct_chain_spec(score=(0.3, 0.8), **kwargs):
    rng = np.random.default_rng(99)
    values = [[rng.normal(size=2) for _ in range(2)] for _ in range(4)]
    kwargs.setdefault("mode", "stochastic")
    return spec_with_constant_chains(
        values, score, base_field=ConstantField(rng.normal(size=2)), **kwargs
    )


def test_same_seed_reproduces_sequences():
    spec = distinct_chain_spec()
    x = np.array([0.1, 0.2])
    a = BlendedField(spec, seed=5)
    b = BlendedField(spec, seed=5)
    seq_a = [a.eval(x, 0.4) for _ in range(6)]
    seq_b = [b.eval(x, 0.4) for _ in range(6)]
    assert all(np.array_equal(u, v) for u, v in zip(seq_a, seq_b))


def test_different_seeds_differ():
    spec = distinct_chain_spec()
    x = np.array([0.1, 0.2])
    seq_a = np.stack([BlendedField(spec, 5).eval(x, 0.4) for _ in range(1)])
    outs = []
    for seed in range(20):
        outs.append(BlendedField(spec, seed).eval(x, 0.4))
    assert any(not np.array_equal(seq_a[0], o) for o in outs)


def test_full_average_ignores_seed():
    spec = distinct_chain_spec(mode="full_average")
    x = np.array([0.1, 0.2])
    a = BlendedField(spec, 1).eval(x, 0.4)
    b = BlendedField(spec, 999).eval(x, 0.4)
    assert np.array_equal(a, b)


def test_per_eval_draws_vary_within_a_run():
    spec = distinct_chain_spec()
    field = BlendedField(spec, 3)
    x = np.array([0.1, 0.2])
    outs = np.stack([field.eval(x, 0.4) for _ in range(30)])
    assert len(np.unique(outs.round(12), axis=0)) > 1


def test_per_step_scope_freezes_draws_until_next_step():
    spec = distinct_chain_spec(draw_scope="per_step")
    field = BlendedField(spec, 3)
    x = np.array([0.1, 0.2])
    field.begin_step(0)
    first = [field.eval(x, 0.4) for _ in range(4)]
    assert all(np.array_equal(first[0], o) for o in first[1:])
    outs = []
    for step in range(1, 30):
        field.begin_step(step)
        outs.append(field.eval(x, 0.4))
    assert any(not np.array_equal(first[0], o) for o in outs)


def test_row_seeds_require_batched_states():
    spec = distinct_chain_spec()
    field = BlendedField(spec, np.array([1, 2], dtype=np.uint64))
    with pytest.raises(ContractViolation):
        field.eval(np.zeros(2), 0.5)


def test_batched_rows_match_per_row_fields():
    spec = distinct_chain_spec()
    row_seeds = np.array([11, 22, 33], dtype=np.uint64)
    batched = BlendedField(spec, row_seeds)
    xs = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    for t in (0.0, 0.25, 0.75):
        batch_out = batched.eval(xs, t)
        for i, seed in enumerate(row_seeds):
            solo = BlendedField(spec, int(seed))
            # advance the solo ordinal to match the batched call count
            for _ in range(batched._eval_ordinal - 1):
                solo.eval(xs[i], t)
            assert np.array_equal(solo.eval(xs[i], t), batch_out[i])


# --- expected_field_check ---------------------------------------------------

class ExpectedFieldCheck(NamedTuple):
    stochastic_mean: np.ndarray
    full_value: np.ndarray
    std_error: float | None  # max per-coordinate standard error


def expected_field_check(spec, x, t, num_draws, seed=0) -> ExpectedFieldCheck:
    """Monte-Carlo check that stochastic draws average to the full blend:
    the stochastic blend evaluated num_draws times with fresh draws at a
    fixed (x, t), against the full_average value."""
    if spec.mode != "stochastic":
        raise ContractViolation("expected_field_check requires stochastic mode")
    if num_draws < 1:
        raise ContractViolation(f"num_draws must be >= 1, got {num_draws}")
    field = BlendedField(spec, seed)
    samples = np.stack([field.eval(x, t) for _ in range(num_draws)])
    full_value = BlendedField(replace(spec, mode="full_average"), seed).eval(x, t)
    mean = samples.mean(axis=0)
    if num_draws == 1:
        return ExpectedFieldCheck(mean, full_value, None)
    se = samples.std(axis=0, ddof=1) / np.sqrt(num_draws)
    return ExpectedFieldCheck(mean, full_value, float(np.max(se)))


def test_expected_field_check_equal_chains_is_exact():
    spec = uniform_spec(np.array([1.0, -2.0]), mode="stochastic")
    result = expected_field_check(spec, np.zeros(2), 0.5, num_draws=16)
    assert np.array_equal(result.stochastic_mean, result.full_value)
    assert result.std_error == 0.0


def test_expected_field_check_unbiased_within_four_se():
    spec = distinct_chain_spec()
    result = expected_field_check(spec, np.array([0.2, -0.1]), 0.6, num_draws=10_000)
    assert result.std_error > 0.0
    gap = np.abs(result.stochastic_mean - result.full_value)
    assert np.all(gap <= 4.0 * result.std_error)


def test_expected_field_check_single_draw():
    spec = distinct_chain_spec()
    result = expected_field_check(spec, np.zeros(2), 0.5, num_draws=1)
    assert result.std_error is None
    assert result.stochastic_mean.shape == (2,)


def test_expected_field_check_errors():
    spec = distinct_chain_spec()
    with pytest.raises(ContractViolation):
        expected_field_check(spec, np.zeros(2), 0.5, num_draws=0)
    full = distinct_chain_spec(mode="full_average")
    with pytest.raises(ContractViolation):
        expected_field_check(full, np.zeros(2), 0.5, num_draws=10)


# --- validation -------------------------------------------------------------

def test_spec_validation_errors():
    base = ConstantField(np.zeros(2))
    space = CognitiveSpace.from_names("a", "b")
    anchors = enumerate_anchors(space)
    good_sets = tuple(
        AnchorFields(anchor=a, chain_fields=(base, base)) for a in anchors
    )
    with pytest.raises(ContractViolation):
        BlendSpec(base, good_sets[:3], ScoreVector((0.5, 0.5)))
    with pytest.raises(ContractViolation):
        BlendSpec(base, good_sets, ScoreVector((0.5, 0.5)), mode="bogus")
    for mix in (1.5, float("nan"), True, "0.5", None):
        with pytest.raises(ContractViolation):
            BlendSpec(base, good_sets, ScoreVector((0.5, 0.5)), base_mix=mix)
    with pytest.raises(ContractViolation):
        BlendSpec(base, good_sets, ScoreVector((0.5, 0.5)), draw_scope="sometimes")
    shuffled = (good_sets[1], good_sets[0]) + good_sets[2:]
    with pytest.raises(ContractViolation):
        BlendSpec(base, shuffled, ScoreVector((0.5, 0.5)))
    with pytest.raises(ContractViolation):
        AnchorFields(anchor=CognitiveAnchor((0, 1)), chain_fields=(base,))


def test_spec_dimension_mismatch():
    base = ConstantField(np.zeros(2))
    odd = ConstantField(np.zeros(3))
    space = CognitiveSpace.from_names("a", "b")
    sets = tuple(
        AnchorFields(anchor=a, chain_fields=(base, odd))
        for a in enumerate_anchors(space)
    )
    with pytest.raises(SpaceMismatchError):
        BlendSpec(base, sets, ScoreVector((0.5, 0.5)))


# --- the stacked Gaussian bank ------------------------------------------------

def gaussian_spec(n, wrap=lambda f: f, seed=0, **kwargs):
    """Distinct Gaussian chains and base; wrap decides each field's type."""
    rng = np.random.default_rng(seed)
    dim = 3

    def field():
        return wrap(GaussianTargetField(rng.normal(size=dim), rng.uniform(0.2, 2.0)))

    space = make_space(n)
    return BlendSpec(
        base_field=field(),
        anchor_sets=tuple(
            AnchorFields(anchor=a, chain_fields=tuple(field() for _ in range(n)))
            for a in enumerate_anchors(space)
        ),
        score=ScoreVector(tuple(rng.uniform(0, 1, n))),
        **kwargs,
    )


def run_steps(field, x, steps=3):
    """rk4-like schedule: four evaluations per step at three times."""
    outs = []
    for step in range(steps):
        field.begin_step(step)
        for t in (0.1 * step, 0.1 * step + 0.05, 0.1 * step + 0.05, 0.1 * step + 0.1):
            outs.append(field.eval(x, t))
    return outs


def assert_bank_matches_generic_path(n, spec_seed, xs, monkeypatch, **kwargs):
    """Per-row seeds, a scalar seed and a 1-D state: the bank path, with
    inner evals patched to fail, gives the generic path's bits."""
    bank_spec = gaussian_spec(n, seed=spec_seed, **kwargs)
    generic_spec = gaussian_spec(n, wrap=DelegatingField, seed=spec_seed, **kwargs)
    seeds = [5, np.arange(100, 140, dtype=np.uint64)]
    expected = [run_steps(BlendedField(generic_spec, seed), xs) for seed in seeds]
    expected.append(run_steps(BlendedField(generic_spec, 5), xs[0]))

    def no_inner_eval(self, x, t):
        raise AssertionError("the bank path evaluated an inner field")

    monkeypatch.setattr(GaussianTargetField, "eval", no_inner_eval)
    got = [run_steps(BlendedField(bank_spec, seed), xs) for seed in seeds]
    got.append(run_steps(BlendedField(bank_spec, 5), xs[0]))
    for want_run, got_run in zip(expected, got):
        assert all(np.array_equal(w, g) for w, g in zip(want_run, got_run))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("base_mix", [0.0, 0.5, 1.0])
def test_bank_path_matches_generic_path_bit_for_bit(n, draw_scope, base_mix, monkeypatch):
    xs = np.random.default_rng(7).normal(size=(40, 3))
    assert_bank_matches_generic_path(
        n, n, xs, monkeypatch, mode="stochastic", draw_scope=draw_scope, base_mix=base_mix
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("base_mix", [0.0, 0.5, 1.0])
def test_full_average_bank_matches_generic_path_bit_for_bit(n, base_mix, monkeypatch):
    xs = np.random.default_rng(8).normal(size=(40, 3))
    assert_bank_matches_generic_path(
        n, 10 + n, xs, monkeypatch, mode="full_average", base_mix=base_mix
    )


@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_bank_path_returns_the_generic_paths_shape_dtype_and_bits(mode):
    """Whatever the input's layout or dtype, the bank path's result has its
    shape, float64 and the generic path's bits; its layout is the bank's
    own business."""
    batch = np.random.default_rng(2).normal(size=(6, 3))
    fortran = np.asfortranarray(batch)
    inputs = (batch, fortran, fortran[2], np.ones((6, 3), dtype=int))
    assert not fortran[2].flags.c_contiguous  # a strided single state
    for x in inputs:
        bank = BlendedField(gaussian_spec(3, mode=mode), 5)
        generic = BlendedField(gaussian_spec(3, wrap=DelegatingField, mode=mode), 5)
        assert bank._bank is not None and generic._bank is None
        out, want = bank.eval(x, 0.4), generic.eval(x, 0.4)
        assert out.shape == x.shape and out.dtype == np.float64
        assert out.tobytes() == want.tobytes()


def test_bank_path_keeps_eval_count_and_time_check():
    spec = gaussian_spec(3, mode="stochastic")
    field = BlendedField(spec, np.arange(5, dtype=np.uint64))
    field.eval(np.zeros((5, 3)), 0.5)
    assert field.eval_counter == 5 * spec.evals_per_call()
    with pytest.raises(ContractViolation):
        field.eval(np.zeros((5, 3)), 1.5)
    with pytest.raises(ContractViolation):
        field.eval(np.zeros(3), 0.5)


def test_deviation_mean_keeps_the_bits_of_the_zero_started_sum():
    # every combination of signed zeros and +-tiny values, one per column:
    # starting the sum at the first deviation must give the bits of the
    # sum started at zeros
    values = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)
    for count in (1, 2, 3, 4):
        columns = np.array(list(itertools.product(values, repeat=count))).T
        acc = np.zeros(columns.shape[1])
        for v in columns[1:]:
            acc = acc + (v - columns[0])
        want = columns[0] + acc / count if count > 1 else columns[0]
        got = _deviation_mean(iter(columns))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_bank_matches_generic_path_on_signed_zeros(mode, monkeypatch):
    """Means and states of +-0.0 give velocities of exactly +-0.0 at t = 0;
    the bank path keeps their signs as the generic path does."""
    zeros = itertools.cycle([0.0, -0.0, -0.0, 0.0, -0.0])

    def field(wrap):
        return wrap(GaussianTargetField([next(zeros) for _ in range(3)], 0.5))

    def spec(wrap):
        anchors = enumerate_anchors(make_space(2))
        return BlendSpec(
            base_field=field(wrap),
            anchor_sets=tuple(AnchorFields(a, (field(wrap), field(wrap))) for a in anchors),
            score=ScoreVector((0.25, 1.0)),
            mode=mode,
        )

    x = np.array([[next(zeros) for _ in range(3)] for _ in range(7)])
    seeds = np.arange(7, dtype=np.uint64)
    generic, bank = spec(DelegatingField), spec(lambda f: f)
    want = [BlendedField(generic, seeds).eval(x, t) for t in (0.0, 0.5)]
    got = [BlendedField(bank, seeds).eval(x, t) for t in (0.0, 0.5)]
    inner = np.stack([f.eval(x, 0.0) for e in bank.anchor_sets for f in e.chain_fields])
    assert not inner.any() and np.signbit(inner).any() and not np.signbit(inner).all()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_blend_never_writes_into_inner_results(mode):
    rows = 5
    fields = [StoredField(np.tile([0.5 + k, -k / 4], (rows, 1))) for k in range(9)]
    anchors = enumerate_anchors(make_space(2))
    spec = BlendSpec(
        base_field=fields[0],
        anchor_sets=tuple(
            AnchorFields(a, tuple(fields[1 + 2 * k : 3 + 2 * k])) for k, a in enumerate(anchors)
        ),
        score=ScoreVector((0.3, 0.8)),
        mode=mode,
        base_mix=0.25,
    )
    stored = [f.value.copy() for f in fields]
    field = BlendedField(spec, 3)
    for t in (0.0, 0.5, 1.0):
        out = field.eval(np.zeros((rows, 2)), t)
        assert all(out is not f.value for f in fields)
    assert all(np.array_equal(f.value, want) for f, want in zip(fields, stored))


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("seed_count", [4, 1])
def test_per_row_seed_count_must_match_the_rows(wrap, seed_count):
    spec = gaussian_spec(2, wrap=wrap, mode="stochastic")
    field = BlendedField(spec, np.arange(seed_count, dtype=np.uint64))
    message = f"{seed_count} per-row seeds for a batch of 3 rows"
    with pytest.raises(ContractViolation, match=message):
        field.eval(np.zeros((3, 3)), 0.5)
    with pytest.raises(ContractViolation, match="per-row seeds for a batch of 3 rows"):
        integrate(field, np.zeros((3, 3)), IntegrationConfig("euler", 2))
    assert field.eval(np.zeros((seed_count, 3)), 0.5).shape == (seed_count, 3)


def test_mixture_chain_takes_generic_path_with_row_equality(space2, biased_model, monkeypatch):
    sets = build_all_sets(TemplateBackend(), "a valley", space2)
    mixed_prompt = sets[2].results[1]
    mixture = TargetDistribution(
        components=((0.3, np.array([1.0, -1.0]), 0.5), (0.7, np.array([-0.5, 2.0]), 0.8))
    )
    model = replace(biased_model, explicit_bindings={mixed_prompt: mixture})
    request = GenerationRequest(base_prompt="a valley", score=ScoreVector((0.3, 0.8)))
    spec = build_blend_spec(request, space2, model)
    assert type(spec.anchor_sets[2].chain_fields[1]) is MixtureTargetField

    inner_calls = []
    gaussian_eval = GaussianTargetField.eval

    def counted(self, x, t):
        inner_calls.append(t)
        return gaussian_eval(self, x, t)

    monkeypatch.setattr(GaussianTargetField, "eval", counted)
    row_seeds = np.array([11, 22, 33, 44], dtype=np.uint64)
    xs = np.random.default_rng(3).normal(size=(4, 2))
    batched = BlendedField(spec, row_seeds)
    solos = [BlendedField(spec, int(seed)) for seed in row_seeds]
    for t in (0.0, 0.3, 0.9):
        batch_out = batched.eval(xs, t)
        for i, solo in enumerate(solos):
            assert np.array_equal(solo.eval(xs[i], t), batch_out[i])
    assert inner_calls  # the generic path calls the inner fields


@pytest.fixture
def hash_calls(monkeypatch):
    """The arguments of every streams.randbelow call the test makes."""
    calls = []
    randbelow = streams.randbelow

    def counted(*args, **kwargs):
        calls.append(args)
        return randbelow(*args, **kwargs)

    monkeypatch.setattr(streams, "randbelow", counted)
    return calls


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_draw_hash_per_evaluation(n, wrap, hash_calls):
    spec = gaussian_spec(n, wrap=wrap, mode="stochastic")
    field = BlendedField(spec, np.arange(6, dtype=np.uint64))
    for i in range(5):
        field.eval(np.zeros((6, 3)), 0.1 * i)
    # at n = 1 every anchor has one chain, so nothing is drawn
    assert len(hash_calls) == (0 if n == 1 else 5)


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_per_step_scope_hashes_once_per_step(n, wrap, hash_calls):
    spec = gaussian_spec(n, wrap=wrap, mode="stochastic", draw_scope="per_step")
    field = BlendedField(spec, np.arange(6, dtype=np.uint64))
    integrate(field, np.zeros((6, 3)), IntegrationConfig("rk4", 7))
    assert field.eval_counter == 6 * 7 * 4 * spec.evals_per_call()
    assert [args[2] for args in hash_calls] == list(range(7))  # one hash per step ordinal
    with pytest.raises(ContractViolation):  # the shape check still runs on a reused draw
        field.eval(np.zeros(3), 0.5)


# --- the folded draw key and the field's hash buffer ---------------------------

EDGE_SEEDS = np.array([(1 << 63) | 5, (1 << 64) - 1, 0, 12345, 1 << 63], dtype=np.uint64)
EDGE_ORDINALS = [0, 1, 1 << 32, (1 << 63) - 1]


def reference_draws(n, seed, ordinal):
    """The draws by the plain counter tuple, hashed from scratch."""
    if np.ndim(seed):
        return streams.randbelow(
            n, np.asarray(seed)[None, :], streams.STREAM_CHAIN_DRAW, ordinal,
            np.arange(1 << n)[:, None],
        )
    return streams.randbelow(n, seed, streams.STREAM_CHAIN_DRAW, ordinal, np.arange(1 << n))


def assert_draws_equal(got, want, n):
    # at n = 1 the field skips the hash and returns one (K,) column of zeros
    assert got.dtype == np.int64
    if n == 1:
        got = np.broadcast_to(got.reshape(-1, *(1,) * (want.ndim - 1)), want.shape)
    assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def stochastic_spec(n, draw_scope):
    return gaussian_spec(n, mode="stochastic", draw_scope=draw_scope)


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_field_draws_equal_randbelow(n, draw_scope):
    spec = stochastic_spec(n, draw_scope)
    for seed in (int(EDGE_SEEDS[0]), 7, EDGE_SEEDS):
        field = BlendedField(spec, seed)
        x = np.zeros((len(EDGE_SEEDS), 3))
        for ordinal in EDGE_ORDINALS:
            got = field._draws(x, ordinal).copy()
            assert_draws_equal(got, reference_draws(n, seed, ordinal), n)


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    seeds=st.one_of(
        st.integers(0, (1 << 64) - 1),
        st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=9),
    ),
    ordinals=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4),
    draw_scope=st.sampled_from(["per_eval", "per_step"]),
)
def test_field_draws_equal_randbelow_property(n, seeds, ordinals, draw_scope):
    seed = np.array(seeds, dtype=np.uint64) if isinstance(seeds, list) else seeds
    field = BlendedField(stochastic_spec(n, draw_scope), seed)
    x = np.zeros((np.size(seed), 3))
    for ordinal in ordinals:
        assert_draws_equal(field._draws(x, ordinal), reference_draws(n, seed, ordinal), n)


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
def test_interleaved_fields_equal_fields_run_alone(wrap, draw_scope):
    xs = np.random.default_rng(9).normal(size=(8, 3))
    specs = [
        gaussian_spec(n, wrap=wrap, seed=n, mode="stochastic", draw_scope=draw_scope)
        for n in (4, 4, 4, 3)
    ]
    rows = np.arange(8, dtype=np.uint64)
    seeds = [rows, rows + np.uint64(100), EDGE_SEEDS[0], rows]
    alone = [run_steps(BlendedField(spec, seed), xs) for spec, seed in zip(specs, seeds)]
    fields = [BlendedField(spec, seed) for spec, seed in zip(specs, seeds)]
    interleaved = [[] for _ in fields]
    for step in range(3):
        for field in fields:
            field.begin_step(step)
        for t in (0.1 * step, 0.1 * step + 0.05, 0.1 * step + 0.05, 0.1 * step + 0.1):
            for outs, field in zip(interleaved, fields):
                outs.append(field.eval(xs, t))
    for want, got in zip(alone, interleaved):
        assert all(np.array_equal(w, g) for w, g in zip(want, got))


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
def test_per_step_draws_survive_every_stage_of_a_step(wrap):
    spec = gaussian_spec(4, wrap=wrap, mode="stochastic", draw_scope="per_step")
    seeds = np.arange(8, dtype=np.uint64)
    xs = np.random.default_rng(4).normal(size=(8, 3))
    field = BlendedField(spec, seeds)
    for step in range(4):
        field.begin_step(step)
        want = reference_draws(4, seeds, step)
        for t in (0.1 * step, 0.1 * step + 0.05, 0.1 * step + 0.05, 0.1 * step + 0.1):
            out = field.eval(xs, t)
            # a fresh field at the same step draws the same chains
            fresh = BlendedField(spec, seeds)
            fresh.begin_step(step)
            assert np.array_equal(out, fresh.eval(xs, t))
            assert np.array_equal(field._drawn[1], want)


def test_one_dimension_stochastic_equals_full_average():
    space = CognitiveSpace.from_names("valence")
    model = SemanticModel.for_space(
        space, effect_magnitudes=1.5, position_bias=0.5, default_variance=0.6
    )
    batches = [
        generate(
            GenerationRequest(
                base_prompt="a valley",
                score=ScoreVector((0.3,)),
                seed=9,
                sample_count=16,
                blend_mode=mode,
                integration=IntegrationConfig(steps=10),
            ),
            space,
            model,
        )
        for mode in ("stochastic", "full_average")
    ]
    assert np.array_equal(batches[0].endpoints, batches[1].endpoints)


def product_weight(score, anchor):
    """The multilinear weight as a left-to-right product over the dimensions."""
    w = 1.0
    for s, a in zip(score.values, anchor.bits):
        w *= s if a else (1.0 - s)
    return w


def test_weights_equal_anchor_weight_bits():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for _ in range(50):
            spec = gaussian_spec(n, seed=int(rng.integers(1 << 30)), mode="stochastic")
            want = [product_weight(spec.score, e.anchor) for e in spec.anchor_sets]
            assert spec.weights().tolist() == want
            assert [anchor_weight(spec.score, e.anchor) for e in spec.anchor_sets] == want


# --- zero-weight anchors ------------------------------------------------------

class SpyField(DelegatingField):
    """Generic-path double that counts the rows it evaluates."""

    def __init__(self, inner):
        super().__init__(inner)
        self.rows = 0

    def eval(self, x, t):
        self.rows += 1 if np.ndim(x) == 1 else len(x)
        return super().eval(x, t)


class NaNField(DelegatingField):
    """Generic-path double whose velocity is NaN everywhere."""

    def eval(self, x, t):
        return np.full(np.shape(x), np.nan)


def active_anchor_ids(spec):
    """Positions of the anchors that anchor_weight gives a nonzero weight."""
    return [
        k
        for k, entry in enumerate(spec.anchor_sets)
        if anchor_weight(spec.score, entry.anchor) != 0.0
    ]


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_vertex_score_evaluates_only_the_weighted_anchor(mode, draw_scope):
    spec = gaussian_spec(3, wrap=SpyField, mode=mode, draw_scope=draw_scope)
    spec = replace(spec, score=ScoreVector((1.0, 0.0, 1.0)))
    (active,) = active_anchor_ids(spec)
    assert spec.anchor_sets[active].anchor.bits == (1, 0, 1)
    rows = 8
    field = BlendedField(spec, np.arange(rows, dtype=np.uint64))
    outs = run_steps(field, np.random.default_rng(3).normal(size=(rows, 3)))
    evaluated = len(outs) * rows
    assert spec.base_field.rows == evaluated
    for k, entry in enumerate(spec.anchor_sets):
        chain_rows = [f.rows for f in entry.chain_fields]
        if k != active:
            assert chain_rows == [0, 0, 0]
        elif mode == "stochastic":
            assert sum(chain_rows) == evaluated  # one drawn chain per row
        else:
            assert chain_rows == [evaluated] * 3
    # eval_count is the cost formula, not the evaluations made
    assert field.eval_counter == evaluated * spec.evals_per_call()


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_score_draws_are_the_active_anchors_reference_draws(n, draw_scope):
    spec = replace(
        stochastic_spec(n, draw_scope), score=ScoreVector((0.0, 0.75, 1.0, 0.375)[:n])
    )
    active = active_anchor_ids(spec)
    assert 0 < len(active) < spec.anchor_count
    for seed in (int(EDGE_SEEDS[0]), 7, EDGE_SEEDS):
        field = BlendedField(spec, seed)
        x = np.zeros((len(EDGE_SEEDS), 3))
        for ordinal in EDGE_ORDINALS:
            want = reference_draws(n, seed, ordinal)[active]
            assert np.array_equal(field._draws(x, ordinal), want)


@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_an_anchors_draws_are_the_same_at_interior_face_and_vertex_scores(n, draw_scope):
    interior = stochastic_spec(n, draw_scope)
    scores = [
        interior.score,
        ScoreVector((1.0, 0.75, 1.0, 0.375, 0.5, 0.25)[:n]),
        ScoreVector((1.0, 0.0, 1.0, 1.0, 0.0, 1.0)[:n]),
    ]
    x = np.zeros((len(EDGE_SEEDS), 3))
    for seed in (int(EDGE_SEEDS[0]), EDGE_SEEDS):
        seen = {}  # (anchor, ordinal) -> its draws under each score
        for score in scores:
            spec = replace(interior, score=score)
            field = BlendedField(spec, seed)
            for ordinal in EDGE_ORDINALS:
                draws = field._draws(x, ordinal)
                for k, row in zip(active_anchor_ids(spec), draws):
                    seen.setdefault((k, ordinal), []).append(np.array(row))
        (vertex,) = active_anchor_ids(replace(interior, score=scores[-1]))
        assert len(seen[vertex, 0]) == 3  # active under all three scores
        for rows in seen.values():
            assert all(np.array_equal(row, rows[0]) for row in rows)
        # at the vertex only the word holding the active anchor is hashed
        hashes, _ = field._draw_out
        assert hashes.shape[1:] == ((1, len(EDGE_SEEDS)) if np.ndim(seed) else (1,))


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_non_finite_velocity_of_a_zero_weight_anchor_does_not_reach_the_blend(mode, wrap):
    """Declared contract: zero-weight anchors are not evaluated, so their
    NaN no longer poisons the blend through NaN * 0, and their fields'
    types do not keep the blend off the bank."""
    face = replace(gaussian_spec(2, wrap=wrap, mode=mode), score=ScoreVector((0.0, 0.75)))
    active = active_anchor_ids(face)
    poisoned = replace(
        face,
        anchor_sets=tuple(
            entry if k in active
            else replace(entry, chain_fields=tuple(map(NaNField, entry.chain_fields)))
            for k, entry in enumerate(face.anchor_sets)
        ),
    )
    seeds = np.arange(6, dtype=np.uint64)
    xs = np.random.default_rng(8).normal(size=(6, 3))
    field = BlendedField(poisoned, seeds)
    assert (field._bank is not None) == (wrap is not DelegatingField)
    got = field.eval(xs, 0.5)
    assert np.isfinite(got).all()
    assert got.tobytes() == BlendedField(face, seeds).eval(xs, 0.5).tobytes()
    # under a nonzero weight the NaN still reaches every row
    interior = replace(poisoned, score=ScoreVector((0.25, 0.75)))
    assert np.isnan(BlendedField(interior, seeds).eval(xs, 0.5)).all()
