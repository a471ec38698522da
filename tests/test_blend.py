import functools
import itertools
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogflow import blend as blend_module, streams
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
from cogflow.errors import ContractViolation, DivergenceError, SpaceMismatchError
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
    shifted_velocity,
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


def row_seeds(*seeds):
    """Per-row seeds, one for each row of the batch a field evaluates."""
    return np.array(seeds, dtype=np.uint64)


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
            field = BlendedField(spec, seed=row_seeds(17))
            out = field.eval(np.zeros((1, 2)), 0.5)
            assert np.array_equal(out, value[None])


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
    x = np.array([[0.4, 0.9]])
    out = BlendedField(spec, row_seeds(0)).eval(x, 0.37)
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
    out = BlendedField(spec, row_seeds(0)).eval(np.zeros((1, 2)), 0.2)
    assert np.allclose(out, [0.5 * (low + base)], atol=1e-15, rtol=0)


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
            out = BlendedField(spec, row_seeds(0)).eval(np.zeros((1, 3)), 0.5)
            expected = (1 - lam) * np.mean(values[anchor.index - 1], axis=0) + lam * base
            assert np.allclose(out, [expected], atol=1e-14, rtol=0)


def test_base_mix_extremes():
    rng = np.random.default_rng(6)
    values = [[rng.normal(size=2) for _ in range(2)] for _ in range(4)]
    base = rng.normal(size=2)
    # base_mix=1 is bit-exactly the base field (pure-base degenerate case)
    spec_base = spec_with_constant_chains(
        values, (0.3, 0.8), base_field=ConstantField(base),
        mode="full_average", base_mix=1.0,
    )
    x = np.zeros((1, 2))
    assert np.array_equal(BlendedField(spec_base, row_seeds(0)).eval(x, 0.1), base[None])
    # base_mix=0 drops the base: the anchor mix alone
    spec_anchor = spec_with_constant_chains(
        values, (0.3, 0.8), base_field=ConstantField(base),
        mode="full_average", base_mix=0.0,
    )
    out = BlendedField(spec_anchor, row_seeds(0)).eval(x, 0.1)
    from cogflow.cogspace import weight_vector

    weights = weight_vector(ScoreVector((0.3, 0.8)), CognitiveSpace.from_names("a", "b"))
    expected = sum(
        w * np.mean(vals, axis=0) for w, vals in zip(weights, values)
    ) + (1 - weights.sum()) * base
    assert np.allclose(out, [expected], atol=1e-12, rtol=0)


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
        return BlendedField(spec, row_seeds(0)).eval(np.zeros((1, 2)), 0.5)

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
        field = BlendedField(spec, row_seeds(0))
        for calls in range(1, 4):
            field.eval(np.zeros((1, 2)), 0.5)
            assert field.eval_counter == calls * per_call


def test_eval_counts_batched_rows():
    spec = uniform_spec(np.zeros(2), mode="stochastic")
    field = BlendedField(spec, np.arange(7, dtype=np.uint64))
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
    x = np.array([[0.1, 0.2]])
    a = BlendedField(spec, seed=row_seeds(5))
    b = BlendedField(spec, seed=row_seeds(5))
    seq_a = [a.eval(x, 0.4) for _ in range(6)]
    seq_b = [b.eval(x, 0.4) for _ in range(6)]
    assert all(np.array_equal(u, v) for u, v in zip(seq_a, seq_b))


def test_different_seeds_differ():
    spec = distinct_chain_spec()
    x = np.array([[0.1, 0.2]])
    seq_a = np.stack([BlendedField(spec, row_seeds(5)).eval(x, 0.4) for _ in range(1)])
    outs = []
    for seed in range(20):
        outs.append(BlendedField(spec, row_seeds(seed)).eval(x, 0.4))
    assert any(not np.array_equal(seq_a[0], o) for o in outs)


def test_full_average_ignores_seed():
    spec = distinct_chain_spec(mode="full_average")
    x = np.array([[0.1, 0.2]])
    a = BlendedField(spec, row_seeds(1)).eval(x, 0.4)
    b = BlendedField(spec, row_seeds(999)).eval(x, 0.4)
    assert np.array_equal(a, b)


def test_per_eval_draws_vary_within_a_run():
    spec = distinct_chain_spec()
    field = BlendedField(spec, row_seeds(3))
    x = np.array([[0.1, 0.2]])
    outs = np.stack([field.eval(x, 0.4) for _ in range(30)])
    assert len(np.unique(outs.round(12), axis=0)) > 1


def test_batched_rows_match_per_row_fields():
    spec = distinct_chain_spec()
    seeds = row_seeds(11, 22, 33)
    batched = BlendedField(spec, seeds)
    xs = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    for t in (0.0, 0.25, 0.75):
        batch_out = batched.eval(xs, t)
        for i in range(len(seeds)):
            # a 1-row batch with row i's seed, at row i's state
            row = slice(i, i + 1)
            solo = BlendedField(spec, seeds[row])
            # advance the solo ordinal to match the batched call count
            for _ in range(batched._eval_ordinal - 1):
                solo.eval(xs[row], t)
            assert np.array_equal(solo.eval(xs[row], t), batch_out[row])


# --- expected_field_check ---------------------------------------------------

class ExpectedFieldCheck(NamedTuple):
    stochastic_mean: np.ndarray
    full_value: np.ndarray
    std_error: float | None  # max per-coordinate standard error


def expected_field_check(spec, x, t, num_draws, seed=0) -> ExpectedFieldCheck:
    """Monte-Carlo check that stochastic draws average to the full blend:
    the stochastic blend evaluated num_draws times with fresh draws at a
    fixed 1-row batch x and time t, against the full_average value."""
    if spec.mode != "stochastic":
        raise ContractViolation("expected_field_check requires stochastic mode")
    if num_draws < 1:
        raise ContractViolation(f"num_draws must be >= 1, got {num_draws}")
    field = BlendedField(spec, row_seeds(seed))
    samples = np.stack([field.eval(x, t) for _ in range(num_draws)])
    full_value = BlendedField(replace(spec, mode="full_average"), row_seeds(seed)).eval(x, t)
    mean = samples.mean(axis=0)
    if num_draws == 1:
        return ExpectedFieldCheck(mean, full_value, None)
    se = samples.std(axis=0, ddof=1) / np.sqrt(num_draws)
    return ExpectedFieldCheck(mean, full_value, float(np.max(se)))


def test_expected_field_check_equal_chains_is_exact():
    spec = uniform_spec(np.array([1.0, -2.0]), mode="stochastic")
    result = expected_field_check(spec, np.zeros((1, 2)), 0.5, num_draws=16)
    assert np.array_equal(result.stochastic_mean, result.full_value)
    assert result.std_error == 0.0


def test_expected_field_check_unbiased_within_four_se():
    spec = distinct_chain_spec()
    result = expected_field_check(spec, np.array([[0.2, -0.1]]), 0.6, num_draws=10_000)
    assert result.std_error > 0.0
    gap = np.abs(result.stochastic_mean - result.full_value)
    assert np.all(gap <= 4.0 * result.std_error)


def test_expected_field_check_single_draw():
    spec = distinct_chain_spec()
    result = expected_field_check(spec, np.zeros((1, 2)), 0.5, num_draws=1)
    assert result.std_error is None
    assert result.stochastic_mean.shape == (1, 2)


def test_expected_field_check_errors():
    spec = distinct_chain_spec()
    with pytest.raises(ContractViolation):
        expected_field_check(spec, np.zeros((1, 2)), 0.5, num_draws=0)
    full = distinct_chain_spec(mode="full_average")
    with pytest.raises(ContractViolation):
        expected_field_check(full, np.zeros((1, 2)), 0.5, num_draws=10)


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

def gaussian_spec(n, wrap=lambda f: f, seed=0, variance=None, **kwargs):
    """Distinct Gaussian chains and base; wrap decides each field's type,
    and variance, if given, replaces every field's drawn variance."""
    rng = np.random.default_rng(seed)
    dim = 3

    def field():
        mean, drawn = rng.normal(size=dim), rng.uniform(0.2, 2.0)
        return wrap(GaussianTargetField(mean, drawn if variance is None else variance))

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
        for t in (0.1 * step, 0.1 * step + 0.05, 0.1 * step + 0.05, 0.1 * step + 0.1):
            outs.append(field.eval(x, t))
    return outs


def assert_bank_matches_generic_path(n, spec_seed, xs, monkeypatch, **kwargs):
    """The whole batch xs and its first row as a 1-row batch: the bank
    path, with inner evals patched to fail, gives the generic path's bits."""
    bank_spec = gaussian_spec(n, seed=spec_seed, **kwargs)
    generic_spec = gaussian_spec(n, wrap=DelegatingField, seed=spec_seed, **kwargs)
    runs = [(np.arange(100, 100 + len(xs), dtype=np.uint64), xs), (row_seeds(5), xs[:1])]
    expected = [run_steps(BlendedField(generic_spec, seeds), x) for seeds, x in runs]

    def no_inner_eval(self, x, t):
        raise AssertionError("the bank path evaluated an inner field")

    monkeypatch.setattr(GaussianTargetField, "eval", no_inner_eval)
    got = [run_steps(BlendedField(bank_spec, seeds), x) for seeds, x in runs]
    for want_run, got_run in zip(expected, got):
        assert all(np.array_equal(w, g) for w, g in zip(want_run, got_run))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("base_mix", [0.0, 0.5, 1.0])
def test_bank_path_matches_generic_path_bit_for_bit(n, base_mix, monkeypatch):
    xs = np.random.default_rng(7).normal(size=(40, 3))
    assert_bank_matches_generic_path(
        n, n, xs, monkeypatch, mode="stochastic", base_mix=base_mix
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
    inputs = (batch, fortran, fortran[2:3], np.ones((6, 3), dtype=int))
    assert not fortran[2:3].flags.c_contiguous  # a strided 1-row batch
    for x in inputs:
        seeds = np.arange(len(x), dtype=np.uint64)
        bank = BlendedField(gaussian_spec(3, mode=mode), seeds)
        generic = BlendedField(gaussian_spec(3, wrap=DelegatingField, mode=mode), seeds)
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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("vertex", [False, True], ids=["interior", "vertex"])
@pytest.mark.parametrize("variance", [None, 0.6], ids=["unequal", "equal"])
def test_stochastic_bank_results_are_fresh_arrays(n, vertex, variance):
    """The stochastic bank computes in scratch arrays the field owns, and
    rk4 keeps k1..k4 alive at once: every result keeps its bytes through
    the later evaluations, shares no memory with another result or with
    the scratch, and has the generic path's bits."""
    def spec(wrap):
        blend = gaussian_spec(n, wrap, seed=30 + n, variance=variance, mode="stochastic")
        return replace(blend, score=ScoreVector((1.0, 0.0, 1.0, 1.0)[:n])) if vertex else blend

    seeds = np.arange(7, dtype=np.uint64)
    field = BlendedField(spec(lambda f: f), seeds)
    assert field._scratch is not None and field._vertex == vertex
    assert all(field._bank.equal_variances) == (variance is not None)
    snapshots = []

    def evaluate(x, t):
        out = field.eval(x, t)
        snapshots.append(out.tobytes())
        return out

    xs = np.random.default_rng(n).normal(size=(7, 3))
    outs = run_steps(SimpleNamespace(eval=evaluate), xs)
    assert [out.tobytes() for out in outs] == snapshots
    for i, out in enumerate(outs):
        assert not np.shares_memory(out, field._scratch)
        assert not any(np.shares_memory(out, later) for later in outs[i + 1 :])
    generic = BlendedField(spec(DelegatingField), seeds)
    assert [want.tobytes() for want in run_steps(generic, xs)] == snapshots


# --- the full average's tiles --------------------------------------------------

VERTEX = (1.0, 0.0, 1.0, 1.0)


def full_average_spec(n, vertex, wrap=lambda f: f, seed=0):
    blend = gaussian_spec(n, wrap, seed=seed, mode="full_average")
    return replace(blend, score=ScoreVector(VERTEX[:n])) if vertex else blend


def tile_bytes(field, t=0.5):
    """Bytes of a full-average bank's means and of its shifts at t."""
    bank = field._bank
    _, _, base_shift, _, shifts = bank.at(t)
    return sum(a.nbytes for a in (bank.base_mean, bank.means, base_shift, shifts))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("vertex", [False, True], ids=["interior", "vertex"])
def test_full_average_tiles_only_what_fits_the_budget(n, vertex):
    """W is the batch's rows when the means and shifts tiled to it fit
    TILE_BUDGET, and 1 otherwise: no bank stores more tiles than the
    budget, and none broadcasts what would have fit."""
    active = 1 if vertex else 2**n
    widths = set()
    for rows in (8, 40, 336, 337, 1000, 4000):
        field = BlendedField(full_average_spec(n, vertex), np.arange(rows, dtype=np.uint64))
        bank = field._bank
        tiled = 2 * (1 + active * n) * 3 * 8 * rows  # a (3, rows) mean and shift per field
        width = rows if tiled <= blend_module.TILE_BUDGET else 1
        assert bank.width == width
        assert bank.base_mean.shape == (3, width)
        assert bank.means.shape == (active, n, 3, width)
        assert bank.constant_bytes() == tile_bytes(field)
        if width > 1:
            assert tile_bytes(field) <= blend_module.TILE_BUDGET
        widths.add(width > 1)
    assert widths == ({True, False} if n > 1 and not vertex else {True})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["tiled", "broadcast"])
def test_full_average_bank_matches_generic_path_on_each_side_of_the_budget(
    n, side, monkeypatch
):
    """A budget of exactly the 40-row batch's tiles tiles them; one byte
    less broadcasts them. Either way the bank gives the generic path's
    bits."""
    xs = np.random.default_rng(9).normal(size=(40, 3))
    seeds = np.arange(len(xs), dtype=np.uint64)
    tiled = 2 * (1 + 2**n * n) * 3 * 8 * len(xs)
    monkeypatch.setattr(blend_module, "TILE_BUDGET", tiled - (side == "broadcast"))
    field = BlendedField(gaussian_spec(n, seed=20 + n, mode="full_average"), seeds)
    assert field._bank.width == (len(xs) if side == "tiled" else 1)
    assert_bank_matches_generic_path(n, 20 + n, xs, monkeypatch, mode="full_average")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("vertex", [False, True], ids=["interior", "vertex"])
def test_full_average_tiles_are_read_only_and_no_result_shares_them(n, vertex):
    """The means and shifts are constants every evaluation reads, so an
    in-place write into one raises; and every result of an rk4-like
    schedule keeps its bytes through the later evaluations and shares no
    memory with a tile or another result, with the generic path's bits."""
    seeds = np.arange(7, dtype=np.uint64)
    field = BlendedField(full_average_spec(n, vertex, seed=40 + n), seeds)
    bank = field._bank
    assert bank.width == len(seeds)
    tiles = [bank.base_mean, bank.means]
    snapshots = []

    def evaluate(x, t):
        out = field.eval(x, t)
        snapshots.append(out.tobytes())
        tiles.extend((field._at[2], field._at[4]))
        return out

    xs = np.random.default_rng(n).normal(size=(7, 3))
    outs = run_steps(SimpleNamespace(eval=evaluate), xs)
    assert [out.tobytes() for out in outs] == snapshots
    for i, out in enumerate(outs):
        assert not any(np.shares_memory(out, tile) for tile in tiles)
        assert not any(np.shares_memory(out, later) for later in outs[i + 1 :])
    for tile in tiles:
        assert not tile.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            np.add(tile, 1.0, out=tile)
    generic = BlendedField(full_average_spec(n, vertex, DelegatingField, seed=40 + n), seeds)
    assert [want.tobytes() for want in run_steps(generic, xs)] == snapshots


def test_each_blended_field_logs_its_path_width_and_bytes(caplog):
    seeds = np.arange(8, dtype=np.uint64)
    with caplog.at_level("DEBUG", logger="cogflow.blend"):
        BlendedField(gaussian_spec(2, mode="full_average"), seeds)
        BlendedField(gaussian_spec(2, DelegatingField, mode="full_average"), seeds)
        BlendedField(gaussian_spec(2, mode="stochastic"), seeds)
    # full_average: 9 fields, a (3, 8) mean and shift each; stochastic: the
    # base mean and its shift (8, 3) and the chain means (4, 2, 3)
    assert [r.getMessage() for r in caplog.records if r.name == "cogflow.blend"] == [
        "blended field: bank path, full_average, width 8, 3456 bytes of constants",
        "blended field: generic path, full_average, 8 rows",
        "blended field: bank path, stochastic, width 8, 576 bytes of constants",
    ]


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
    # one seed for every row, so each anchor draws one chain for the batch
    field = BlendedField(spec, np.full(rows, 3, dtype=np.uint64))
    for t in (0.0, 0.5, 1.0):
        out = field.eval(np.zeros((rows, 2)), t)
        assert all(out is not f.value for f in fields)
    assert all(np.array_equal(f.value, want) for f, want in zip(fields, stored))


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("seed_count", [4, 1])
def test_per_row_seed_count_must_match_the_rows(wrap, mode, seed_count):
    spec = gaussian_spec(2, wrap=wrap, mode=mode)
    field = BlendedField(spec, np.arange(seed_count, dtype=np.uint64))
    message = f"{seed_count} per-row seeds for a batch of 3 rows"
    with pytest.raises(ContractViolation, match=message):
        field.eval(np.zeros((3, 3)), 0.5)
    with pytest.raises(ContractViolation, match="per-row seeds for a batch of 3 rows"):
        integrate(field, np.zeros((3, 3)), IntegrationConfig("euler", 2))
    # a state that is not a (rows, dim) batch, even one row per seed long
    for state in (np.zeros(3), np.zeros(seed_count), np.zeros((seed_count, 1, 3))):
        with pytest.raises(ContractViolation, match=f"{seed_count} per-row seeds for a state"):
            field.eval(state, 0.5)
    assert field.eval_counter == 0
    assert field.eval(np.zeros((seed_count, 3)), 0.5).shape == (seed_count, 3)


@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize(
    "seed",
    [0, np.uint64(7), [[1, 2]], np.zeros((2, 1), dtype=np.uint64)],
    ids=["int", "uint64", "nested-list", "column"],
)
def test_seeds_must_be_one_dimensional(mode, seed):
    with pytest.raises(ContractViolation, match="1-D array of per-row seeds"):
        BlendedField(gaussian_spec(2, mode=mode), seed)


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
    seeds = row_seeds(11, 22, 33, 44)
    xs = np.random.default_rng(3).normal(size=(4, 2))
    batched = BlendedField(spec, seeds)
    solos = [BlendedField(spec, seeds[i : i + 1]) for i in range(len(seeds))]
    for t in (0.0, 0.3, 0.9):
        batch_out = batched.eval(xs, t)
        for i, solo in enumerate(solos):
            assert np.array_equal(solo.eval(xs[i : i + 1], t), batch_out[i : i + 1])
    assert inner_calls  # the generic path calls the inner fields


@pytest.fixture
def hash_calls(monkeypatch):
    """The arguments, (self, ordinal), of every streams.ChainDraws.hash
    call the test makes: the one hash of each evaluation, on every path."""
    calls = []
    chain_hash = streams.ChainDraws.hash

    def counted(*args):
        calls.append(args)
        return chain_hash(*args)

    monkeypatch.setattr(streams.ChainDraws, "hash", counted)
    return calls


# one variance for every field gives the stochastic bank draw tables at n = 2 and 4
VARIANCES = pytest.mark.parametrize("variance", [None, 0.6], ids=["own-variances", "one-variance"])


@VARIANCES
@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_draw_hash_per_evaluation(n, wrap, variance, hash_calls):
    spec = gaussian_spec(n, wrap=wrap, variance=variance, mode="stochastic")
    field = BlendedField(spec, np.arange(6, dtype=np.uint64))
    for i in range(5):
        field.eval(np.zeros((6, 3)), 0.1 * i)
    # at n = 1 every anchor has one chain, so nothing is drawn
    assert len(hash_calls) == (0 if n == 1 else 5)


@VARIANCES
@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_solver_stage_draws_at_its_own_ordinal(n, wrap, variance, hash_calls):
    spec = gaussian_spec(n, wrap=wrap, variance=variance, mode="stochastic")
    field = BlendedField(spec, np.arange(6, dtype=np.uint64))
    integrate(field, np.zeros((6, 3)), IntegrationConfig("rk4", 7))
    assert field.eval_counter == 6 * 7 * 4 * spec.evals_per_call()
    # the ordinal is the evaluation count: no stage reuses another's draws
    assert [args[1] for args in hash_calls] == list(range(7 * 4))


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
def test_a_field_plans_its_draws_once_when_built(monkeypatch, wrap):
    plans = []

    class Counted(streams.ChainDraws):
        def __init__(self, *args):
            plans.append(args)
            super().__init__(*args)

    monkeypatch.setattr(streams, "ChainDraws", Counted)
    spec = gaussian_spec(4, wrap=wrap, mode="stochastic")
    field = BlendedField(spec, np.arange(6, dtype=np.uint64))
    assert len(plans) == 1
    integrate(field, np.zeros((6, 3)), IntegrationConfig("rk4", 5))
    assert len(plans) == 1


# --- the folded draw key and the field's hash buffer ---------------------------

EDGE_SEEDS = np.array([(1 << 63) | 5, (1 << 64) - 1, 0, 12345, 1 << 63], dtype=np.uint64)
EDGE_ORDINALS = [0, 1, 1 << 32, (1 << 63) - 1]


def reference_draws(n, seeds, ordinal):
    """The (K, B) draws by the plain counter tuple, hashed from scratch."""
    return streams.randbelow(
        n, np.asarray(seeds)[None, :], streams.STREAM_CHAIN_DRAW, ordinal,
        np.arange(1 << n)[:, None],
    )


def assert_draws_equal(got, want):
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def stochastic_spec(n):
    return gaussian_spec(n, mode="stochastic")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_field_draws_equal_randbelow(n):
    spec = stochastic_spec(n)
    for seeds in (EDGE_SEEDS[:1], row_seeds(7), EDGE_SEEDS):
        field = BlendedField(spec, seeds)
        for ordinal in EDGE_ORDINALS:
            got = field._draws(ordinal).copy()
            assert_draws_equal(got, reference_draws(n, seeds, ordinal))


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(2, 6),
    seeds=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=9),
    ordinals=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4),
)
def test_field_draws_equal_randbelow_property(n, seeds, ordinals):
    seeds = np.array(seeds, dtype=np.uint64)
    field = BlendedField(stochastic_spec(n), seeds)
    for ordinal in ordinals:
        assert_draws_equal(field._draws(ordinal), reference_draws(n, seeds, ordinal))


EDGE_SCORES = {
    "face": (0.0, 0.75, 1.0, 0.375, 0.5, 0.25),
    "vertex": (1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
}


@VARIANCES
@pytest.mark.parametrize("where", ["interior", "face", "vertex"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gathered_means_are_the_means_of_the_reference_draws(n, where, variance):
    """Each active anchor's drawn means, as the bank gathers them, are
    means[randbelow(n, seed, STREAM_CHAIN_DRAW, ordinal, k)] bit for bit,
    whether gathered from draw tables (n = 2 and 4, one variance) or by
    the draws."""
    spec = gaussian_spec(n, variance=variance, mode="stochastic")
    if where in EDGE_SCORES:
        spec = replace(spec, score=ScoreVector(EDGE_SCORES[where][:n]))
    active = active_anchor_ids(spec)
    for seeds in (EDGE_SEEDS[:1], EDGE_SEEDS):
        field = BlendedField(spec, seeds)
        assert field._bank.tables == (variance is not None and n in (2, 4))
        for ordinal in EDGE_ORDINALS:
            gathered = list(field._bank.gathered(field._gather_by(ordinal)))
            assert len(gathered) == len(active)
            for k, got in zip(active, gathered):
                means = np.array([f.mean for f in spec.anchor_sets[k].chain_fields])
                draws = streams.randbelow(n, seeds, streams.STREAM_CHAIN_DRAW, ordinal, k)
                assert got.tobytes() == means[draws].tobytes()


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("side", ["tables", "draws"])
def test_stochastic_bank_builds_draw_tables_only_within_the_budget(n, side, monkeypatch):
    """A budget of exactly the A * 256 * D * 8 bytes of the draw tables
    builds them, and such a field never extracts lanes into an (A, B)
    draw buffer; one byte less keeps the chain means and the draws.
    Either way the bank gives the generic path's bits."""
    xs = np.random.default_rng(9).normal(size=(40, 3))
    seeds = np.arange(len(xs), dtype=np.uint64)
    tables = 2**n * 256 * 3 * 8
    monkeypatch.setattr(blend_module, "TILE_BUDGET", tables - (side == "draws"))
    field = BlendedField(gaussian_spec(n, seed=30 + n, variance=0.6, mode="stochastic"), seeds)
    assert field._bank.tables == (side == "tables")
    assert field._bank.means.shape == (2**n, 256 if side == "tables" else n, 3)
    run_steps(field, xs)
    assert (field._chain_draws._draws is None) == (side == "tables")
    assert_bank_matches_generic_path(
        n, 30 + n, xs, monkeypatch, mode="stochastic", variance=0.6
    )


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
def test_interleaved_fields_equal_fields_run_alone(wrap):
    xs = np.random.default_rng(9).normal(size=(8, 3))
    specs = [gaussian_spec(n, wrap=wrap, seed=n, mode="stochastic") for n in (4, 4, 4, 3)]
    rows = np.arange(8, dtype=np.uint64)
    seeds = [rows, rows + np.uint64(100), np.full(8, EDGE_SEEDS[0]), rows]
    alone = [run_steps(BlendedField(spec, seed), xs) for spec, seed in zip(specs, seeds)]
    fields = [BlendedField(spec, seed) for spec, seed in zip(specs, seeds)]
    interleaved = [[] for _ in fields]
    for step in range(3):
        for t in (0.1 * step, 0.1 * step + 0.05, 0.1 * step + 0.05, 0.1 * step + 0.1):
            for outs, field in zip(interleaved, fields):
                outs.append(field.eval(xs, t))
    for want, got in zip(alone, interleaved):
        assert all(np.array_equal(w, g) for w, g in zip(want, got))


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


@pytest.mark.parametrize("wrap", [lambda f: f, DelegatingField], ids=["bank", "generic"])
def test_one_dimension_stochastic_draws_nothing_and_is_the_full_average(wrap, hash_calls):
    """At n = 1 each anchor's one chain is its full average, so stochastic
    mode takes the full_average path: no draw hash, the same bits."""
    seeds = np.arange(6, dtype=np.uint64)
    x0 = np.random.default_rng(5).normal(size=(6, 3))
    endpoints = []
    for mode in ("stochastic", "full_average"):
        for score in ((0.3,), (1.0,)):
            spec = replace(gaussian_spec(1, wrap=wrap, mode=mode), score=ScoreVector(score))
            endpoints.append(integrate(BlendedField(spec, seeds), x0, IntegrationConfig("rk4", 5)))
    assert hash_calls == []
    stochastic, full = endpoints[:2], endpoints[2:]
    assert [r.endpoint.tobytes() for r in stochastic] == [r.endpoint.tobytes() for r in full]


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
        self.rows += len(x)
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


@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_vertex_score_evaluates_only_the_weighted_anchor(mode):
    spec = gaussian_spec(3, wrap=SpyField, mode=mode)
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_score_draws_are_the_active_anchors_reference_draws(n):
    spec = replace(stochastic_spec(n), score=ScoreVector((0.0, 0.75, 1.0, 0.375)[:n]))
    active = active_anchor_ids(spec)
    assert 0 < len(active) < spec.anchor_count
    for seeds in (EDGE_SEEDS[:1], row_seeds(7), EDGE_SEEDS):
        field = BlendedField(spec, seeds)
        for ordinal in EDGE_ORDINALS:
            want = reference_draws(n, seeds, ordinal)[active]
            assert np.array_equal(field._draws(ordinal), want)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_an_anchors_draws_are_the_same_at_interior_face_and_vertex_scores(n):
    interior = stochastic_spec(n)
    scores = [
        interior.score,
        ScoreVector((1.0, 0.75, 1.0, 0.375, 0.5, 0.25)[:n]),
        ScoreVector((1.0, 0.0, 1.0, 1.0, 0.0, 1.0)[:n]),
    ]
    for seeds in (EDGE_SEEDS[:1], EDGE_SEEDS):
        seen = {}  # (anchor, ordinal) -> its draws under each score
        for score in scores:
            spec = replace(interior, score=score)
            field = BlendedField(spec, seeds)
            for ordinal in EDGE_ORDINALS:
                draws = field._draws(ordinal)
                for k, row in zip(active_anchor_ids(spec), draws):
                    seen.setdefault((k, ordinal), []).append(np.array(row))
        (vertex,) = active_anchor_ids(replace(interior, score=scores[-1]))
        assert len(seen[vertex, 0]) == 3  # active under all three scores
        for rows in seen.values():
            assert all(np.array_equal(row, rows[0]) for row in rows)
        # at the vertex only the word holding the active anchor is hashed
        assert field._chain_draws.hash(0).shape == (1, len(seeds))


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


# --- chains that are one field, and per-time constants ------------------------

def one_field_key_spec(wrap=lambda f: f, score=(0.25, 0.75), mode="full_average"):
    """Anchor k's two chain fields are two objects that share: (0) the
    mean bytes and the variance; (1) the variance and a mean equal in
    value but not in bytes (+0.0 against -0.0); (2) the variance and a
    mean 1 ulp apart; (3) the mean bytes, with another variance."""
    mean = np.array([0.5, -1.25, 2.0])
    signed = mean.copy()
    signed[0] = 0.0
    flipped = signed.copy()
    flipped[0] = -0.0
    pairs = [
        ((mean, 0.5), (mean.copy(), 0.5)),
        ((signed, 0.5), (flipped, 0.5)),
        ((mean, 0.5), (np.nextafter(mean, 3.0), 0.5)),
        ((mean, 0.5), (mean.copy(), 0.75)),
    ]
    return BlendSpec(
        base_field=wrap(GaussianTargetField([0.25, 0.0, -0.5], 0.6)),
        anchor_sets=tuple(
            AnchorFields(a, tuple(wrap(GaussianTargetField(m, v)) for m, v in pairs[k]))
            for k, a in enumerate(enumerate_anchors(make_space(2)))
        ),
        score=ScoreVector(score),
        mode=mode,
    )


def test_chains_are_one_field_only_when_their_bytes_and_variance_are_equal(monkeypatch):
    """Two field objects with the same mean bytes and variance collapse:
    the full average evaluates their closed form once per evaluation. Means
    that are equal as values but differ in the sign of a zero, means 1 ulp
    apart and equal means with other variances stay two fields."""
    spec = one_field_key_spec()
    field = BlendedField(spec, np.arange(5, dtype=np.uint64))
    assert field._bank.distinct == (1, 2, 2, 2)
    calls = []

    def counting(mean, shift, kappa, x):
        calls.append(mean)
        return shifted_velocity(mean, shift, kappa, x)

    monkeypatch.setattr(blend_module, "shifted_velocity", counting)
    xs = np.random.default_rng(4).normal(size=(5, 3))
    got = run_steps(field, xs)
    assert len(calls) == len(got) * (1 + 1 + 2 + 2 + 2)
    seeds = np.arange(5, dtype=np.uint64)
    want = run_steps(BlendedField(one_field_key_spec(DelegatingField), seeds), xs)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    # at the vertex of the collapsed anchor: the base and one closed form
    calls.clear()
    bits = spec.anchor_sets[0].anchor.bits
    got = run_steps(BlendedField(one_field_key_spec(score=tuple(map(float, bits))), seeds), xs)
    assert len(calls) == 2 * len(got)


@pytest.mark.parametrize(
    "solver, times", [("euler", 1), ("midpoint", 2), ("rk4", 2)]
)
def test_bank_computes_its_constants_once_per_distinct_time(solver, times, monkeypatch):
    """rk4's two mid-stages share one time, and a step's first time is the
    last time of the step before, so rk4 computes 2 sets per step plus the
    first; kappa(t) and t * mean are computed nowhere else."""
    counts = {"at": 0, "kappa": 0}
    at, kappa = blend_module.GaussianBank.at, blend_module.flow_kappa

    def counting_at(self, t):
        counts["at"] += 1
        return at(self, t)

    def counting_kappa(t, variance):
        counts["kappa"] += 1
        return kappa(t, variance)

    monkeypatch.setattr(blend_module.GaussianBank, "at", counting_at)
    monkeypatch.setattr(blend_module, "flow_kappa", counting_kappa)
    steps = 8
    field = BlendedField(gaussian_spec(2, mode="full_average"), np.arange(4, dtype=np.uint64))
    integrate(field, np.zeros((4, 3)), IntegrationConfig(solver, steps))
    want = times * steps + (solver == "rk4")
    assert counts == {"at": want, "kappa": 2 * want}


@pytest.mark.parametrize(
    "solver, step, sample", [("euler", 4, 0), ("midpoint", 3, 2), ("rk4", 3, 0)]
)
def test_overflow_under_a_collapsed_anchor_diverges_where_the_generic_path_does(
    solver, step, sample
):
    """An anchor's two chains are one field whose velocity overflows. The
    step and row that diverge are those the generic path (which averages
    both chains, as the bank did before it collapsed such an anchor)
    reports. Declared change: where the generic path's average of two
    infinities reads NaN, the collapsed anchor's single closed form reads
    inf, so last_max_velocity may read inf where it read nan."""
    means = [[1.0, -0.5, 0.25], [1e308, 0.5, 0.0], [-1.0, 0.75, 2.0], [0.5, 0.5, -1.0]]
    variances = [0.5, 1e-4, 0.5, 0.5]

    def spec(wrap):
        return BlendSpec(
            base_field=wrap(GaussianTargetField([0.0, 0.25, -0.5], 0.5)),
            anchor_sets=tuple(
                AnchorFields(a, tuple(wrap(GaussianTargetField(mean, variance)) for _ in a.bits))
                for a, mean, variance in zip(enumerate_anchors(make_space(2)), means, variances)
            ),
            score=ScoreVector((0.25, 0.75)),
            mode="full_average",
        )

    x0 = np.linspace(-1, 1, 24).reshape(8, 3)
    x0[5, 0], x0[2, 0] = -1e307, -5e306
    seeds = np.arange(len(x0), dtype=np.uint64)
    errors = []
    for wrap, banked in ((lambda f: f, True), (DelegatingField, False)):
        field = BlendedField(spec(wrap), seeds)
        assert (field._bank is not None) == banked
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            integrate(field, x0, IntegrationConfig(solver, 8))
        errors.append(err.value)
    bank, generic = errors
    assert field._bank is None and BlendedField(spec(lambda f: f), seeds)._bank.distinct[1] == 1
    assert (bank.step_index, bank.sample_index) == (generic.step_index, generic.sample_index)
    assert (bank.step_index, bank.sample_index) == (step, sample)
    assert (bank.last_max_abs, bank.last_time) == (generic.last_max_abs, generic.last_time)
    if solver == "euler":
        assert bank.last_max_velocity == np.inf and np.isnan(generic.last_max_velocity)
    else:
        assert bank.last_max_velocity == generic.last_max_velocity
