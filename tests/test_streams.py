import math

import numpy as np
import pytest

from cogflow import invariants, streams


def test_counter_hash_is_deterministic_and_order_sensitive():
    assert int(streams.counter_hash(1, 2, 3)) == int(streams.counter_hash(1, 2, 3))
    assert int(streams.counter_hash(1, 2, 3)) != int(streams.counter_hash(1, 3, 2))
    assert int(streams.counter_hash(0)) != int(streams.counter_hash(0, 0))


def test_counter_hash_broadcasts():
    out = streams.counter_hash(7, np.arange(4)[:, None], np.arange(3)[None, :])
    assert out.shape == (4, 3)
    assert len(np.unique(out)) == 12


def test_negative_and_large_counters_are_accepted():
    a = streams.counter_hash(-1, 2)
    b = streams.counter_hash((1 << 64) - 1, 2)
    assert int(a) == int(b)  # masked to 64 bits


def test_uniform_range_and_moments():
    u = streams.uniform(0, 5, np.arange(100_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1.0 / 12.0) < 5e-3


def test_standard_normal_moments():
    z = streams.standard_normal(0, 9, np.arange(200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z**3).mean()) < 0.03  # skewness
    assert abs((z**4).mean() - 3.0) < 0.08  # kurtosis


def test_randbelow_uniformity_and_bounds():
    draws = streams.randbelow(6, 3, np.arange(120_000))
    counts = np.bincount(draws, minlength=6)
    assert draws.min() >= 0 and draws.max() < 6
    assert np.all(np.abs(counts / 120_000 - 1 / 6) < 0.01)
    with pytest.raises(ValueError):
        streams.randbelow(0, 1)


def test_streams_independent_of_evaluation_order():
    # counter-based: values depend only on counters, not on call history
    batch = streams.standard_normal(42, 1, np.arange(10))
    singles = np.array([float(streams.standard_normal(42, 1, i)) for i in (5, 2, 9)])
    assert np.array_equal(singles, batch[[5, 2, 9]])


# --- the key/counter split ------------------------------------------------------

_M64 = (1 << 64) - 1


def python_hash(*counters):
    """The splitmix64 fold in Python integers, independent of numpy."""

    def avalanche(h):
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _M64
        return h ^ (h >> 31)

    h = 0x8EF827D8B29AA77D
    for c in counters:
        h = avalanche(((h * 0x9E3779B97F4A7C15) & _M64) ^ (c & _M64))
    return avalanche((h * 0x9E3779B97F4A7C15) & _M64)


EDGE_COUNTERS = [0, 1, 3, (1 << 32), (1 << 63) - 1, 1 << 63, _M64, -1]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
def test_counter_hash_matches_python_reference(count):
    rng = np.random.default_rng(count)
    for _ in range(20):
        counters = [int(c) for c in rng.choice(EDGE_COUNTERS, size=count)]
        assert int(streams.counter_hash(*counters)) == python_hash(*counters)


@pytest.mark.parametrize("split", [0, 1, 2, 3])
def test_folded_key_continues_the_plain_fold(split):
    seeds = np.array([5, (1 << 63) + 9, _M64, 0], dtype=np.uint64)[:, None]
    counters = (seeds, streams.STREAM_CHAIN_DRAW, (1 << 63) - 1, np.arange(16))
    key = streams.fold_key(*counters[:split])
    want = streams.counter_hash(*counters)
    assert np.array_equal(streams.counter_hash(key, *counters[split:]), want)
    # a key folds further, and a key alone hashes as its whole prefix
    whole = streams.fold_key(key, *counters[split:])
    assert np.array_equal(streams.counter_hash(whole), want)
    assert int(want[1, 7]) == python_hash((1 << 63) + 9, 3, (1 << 63) - 1, 7)
    with pytest.raises(TypeError):  # a key is only ever the leading counter
        streams.counter_hash(3, key)


def test_counter_hash_leaves_its_key_unchanged():
    key = streams.fold_key(np.arange(6, dtype=np.uint64)[:, None], 3)
    state = key.state.copy()
    got = streams.counter_hash(key)
    assert np.array_equal(key.state, state)
    assert not np.shares_memory(got, key.state)
    assert int(got[4, 0]) == python_hash(4, 3)
    assert np.array_equal(streams.counter_hash(key), got)


# --- lane-packed draws ---------------------------------------------------------


def lane_bits(bound):
    """The lane width of the draw contract: log2(bound) for a power of
    two, else 32."""
    return bound.bit_length() - 1 if bound & (bound - 1) == 0 else 32


def lane_draw(bound, word_hash, k):
    """Draw k from the hash of its word, in Python integers: lane k mod L
    of the word, reduced to (lane * bound) >> b."""
    bits = lane_bits(bound)
    lanes = 64 // max(bits, 1)
    lane = (word_hash >> (bits * (k % lanes))) & ((1 << bits) - 1)
    return (lane * bound) >> bits


def counter_hash_draws(bound, seed, ordinal, ks):
    """The draws of randbelow(bound, seed, 3, ordinal, k) for each k, from
    counter_hash of each k's word, without calling randbelow."""
    ks = [int(k) for k in ks]
    lanes = 64 // max(lane_bits(bound), 1)
    words = streams.counter_hash(seed, 3, ordinal, np.array([k // lanes for k in ks]))
    return [lane_draw(bound, int(h), k) for h, k in zip(words, ks)]


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 8, 64])
def test_randbelow_draws_lanes_of_the_python_reference_hash(bound):
    seeds = np.array([1, (1 << 63) | 77, _M64], dtype=np.uint64)[:, None]
    ks = np.arange(70)  # more than one word at every bound
    for ordinal in (0, 1 << 32, (1 << 63) - 1):
        draws = streams.randbelow(bound, seeds, 3, ordinal, ks)
        lanes = 64 // max(lane_bits(bound), 1)
        want = [
            [lane_draw(bound, python_hash(int(s), 3, ordinal, k // lanes), k) for k in range(70)]
            for s in seeds[:, 0]
        ]
        assert draws.dtype == np.int64
        assert draws.tolist() == want
    assert isinstance(streams.randbelow(bound, 4, 2), np.int64)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 8, 16, 256])
def test_byte_columns_read_randbelow_draws_from_the_hashed_words(bound):
    """ChainDraws hashes each word that randbelow draws from once, into a
    little-endian buffer, and its lanes are randbelow's draws; where every
    lane lies within one byte (b = log2(bound) divides 8), byte_columns
    reads each draw's byte from that buffer and byte_values maps it to
    the draw. Elsewhere, 0-bit lanes included, there are no byte columns."""
    seeds = np.array([5, (1 << 63) | 9, _M64, 0, 12345], dtype=np.uint64)[None, :]
    key = streams.fold_key(seeds, 3)
    ids = np.array([0, 1, 7, 8, 31, 63, 64, 200, 511], dtype=np.uint64)
    words = np.unique(ids // (64 // max(lane_bits(bound), 1)))[:, None]
    draws = streams.ChainDraws(bound, key, ids)
    byte_values = draws.byte_values()
    assert (byte_values is None) == (bound not in (2, 4, 16, 256))
    for ordinal in (0, 1, 1 << 32, (1 << 63) - 1):
        hashed = draws.hash(ordinal)
        assert hashed.dtype == np.dtype("<u8")
        assert np.array_equal(hashed, streams.counter_hash(key, ordinal, words))
        want = streams.randbelow(bound, key, ordinal, ids[:, None])
        assert np.array_equal(draws.lanes(), want)
        if byte_values is None:
            with pytest.raises(ValueError):
                draws.byte_columns()
            continue
        columns = draws.byte_columns()
        assert len(columns) == len(byte_values) == len(ids)
        for column, values, row in zip(columns, byte_values, want):
            assert column.shape == (seeds.size,) and column.dtype == np.intp
            assert np.array_equal(values[column], row)


class LaneOffByOne(streams.ChainDraws):
    """At n = 3, each anchor reads its neighbour's 32-bit lane."""

    def __init__(self, bound, key, ids):
        super().__init__(bound, key, ids)
        if bound == 3:
            self._shifts = (self._shifts + np.uint64(32)) % np.uint64(64)


class NextByte(streams.ChainDraws):
    """At n = 4, each anchor reads the byte after its own (four 2-bit
    lanes to a byte, so anchor a + 4's column, wrapping within the word)."""

    def byte_columns(self):
        columns = super().byte_columns()
        return columns[4:] + columns[:4] if self.bound == 4 else columns


@pytest.mark.parametrize(
    "faulty, message", [(LaneOffByOne, "lanes differ at n=3"), (NextByte, "byte columns differ at n=4")]
)
def test_the_chain_draw_invariant_fails_on_a_wrong_lane_or_byte(monkeypatch, faulty, message):
    invariants.chain_draws_follow_the_stream()
    monkeypatch.setattr(streams, "ChainDraws", faulty)
    with pytest.raises(AssertionError, match=message):
        invariants.chain_draws_follow_the_stream()


LARGE_BOUNDS = [(1 << 31) + 1, (1 << 32) - 1, 1 << 32, 1 << 40, 1 << 63]


@pytest.mark.parametrize("bound", [*range(1, 65), *LARGE_BOUNDS])
def test_randbelow_equals_lanes_of_counter_hash(bound):
    seeds = np.array([5, (1 << 63) | 9, _M64, 0], dtype=np.uint64)
    ks = [0, 1, 2, 5, 31, 32, 33, 63, 64, 65, 127, 1000]
    for ordinal in (0, (1 << 63) - 1):
        per_row = streams.randbelow(bound, seeds[None, :], 3, ordinal, np.array(ks)[:, None])
        for j, seed in enumerate(seeds):
            assert per_row[:, j].tolist() == counter_hash_draws(bound, seed, ordinal, ks)
        scalar = streams.randbelow(bound, int(seeds[1]), 3, ordinal, ks)
        assert scalar.tolist() == counter_hash_draws(bound, seeds[1], ordinal, ks)
        # a last counter that varies with the seed hashes each draw's own word
        own = np.arange(len(seeds) * len(ks)).reshape(len(ks), len(seeds))
        mixed = streams.randbelow(bound, seeds[None, :], 3, ordinal, own)
        for j, seed in enumerate(seeds):
            assert mixed[:, j].tolist() == counter_hash_draws(bound, seed, ordinal, own[:, j])
        assert int(streams.randbelow(bound, 7, 3, ordinal, 33)) == counter_hash_draws(
            bound, 7, ordinal, [33]
        )[0]


@pytest.mark.parametrize("bound", [*range(1, 65), 1000, 999_999_937, *LARGE_BOUNDS])
def test_each_draw_has_floor_or_ceil_of_its_share_of_lane_values(bound):
    """(lane * bound) >> b maps the 2**b lane values onto [0, bound) in
    runs: j takes the lanes in [ceil(j 2**b / bound), ceil((j + 1) 2**b /
    bound)). Checked at both ends of each run (of the first and last 100
    at a larger bound), so the runs tile the lanes with these counts."""
    bits = lane_bits(bound)
    size = 1 << bits
    low, high = size // bound, -(-size // bound)
    for j in {*range(min(bound, 100)), *range(max(bound - 100, 0), bound)}:
        first, end = -(-j * size // bound), -(-(j + 1) * size // bound)
        assert (first * bound) >> bits == j
        assert ((end - 1) * bound) >> bits == j
        assert end - first in (low, high)
    assert (((size - 1) * bound) >> bits) == bound - 1
    if bound & (bound - 1):
        assert abs(high / size - 1 / bound) < 2**-32 and abs(low / size - 1 / bound) < 2**-32


def test_randbelow_rejects_bounds_outside_the_contract():
    for bound in (0, -3, (1 << 32) + 1, 3 << 40, 1 << 64):
        with pytest.raises(ValueError):
            streams.randbelow(bound, 1, 2)
    with pytest.raises(TypeError):  # the last counter picks the word and the lane
        streams.randbelow(4, streams.fold_key(1, 2))


def chi_square_tail(statistic, dof):
    """P(chi2_dof >= statistic), by the closed series of the regularized
    upper gamma function at an integer or half-integer shape."""
    half = statistic / 2.0
    if dof % 2 == 0:
        terms = range(dof // 2)
        return math.exp(-half) * sum(half**j / math.factorial(j) for j in terms)
    series = sum(half ** (j - 0.5) / math.gamma(j + 0.5) for j in range(1, (dof + 1) // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * series


def test_chi_square_tail_matches_known_quantiles():
    # upper 5% and 0.1% points of chi2 with 3, 8 and 15 degrees of freedom
    for statistic, dof, tail in [
        (7.814727903, 3, 0.05), (15.50731306, 8, 0.05), (24.99579014, 15, 0.05),
        (16.26623619, 3, 0.001), (26.12448156, 8, 0.001), (37.69729823, 15, 0.001),
    ]:
        assert chi_square_tail(statistic, dof) == pytest.approx(tail, rel=1e-6)


FALSE_FAIL_RATE = 1e-6  # per pair of anchors checked


@pytest.mark.parametrize(
    "n, pair", [(2, (0, 1)), (2, (2, 3)), (3, (0, 1)), (4, (0, 1)), (4, (14, 15)), (4, (0, 15))]
)
def test_anchors_sharing_a_word_draw_jointly_uniform(n, pair):
    """Two anchors whose lanes sit in one word draw independent uniform
    chains: overlapping or mis-shifted lanes would correlate them. Under
    the contract the statistic follows chi2 with n**2 - 1 degrees of
    freedom, so a correct stream fails at FALSE_FAIL_RATE."""
    rows = 40_000
    lanes = 64 // lane_bits(n)
    assert pair[0] // lanes == pair[1] // lanes  # one word
    seeds = np.arange(rows, dtype=np.uint64)[None, :]
    draws = np.concatenate(
        [streams.randbelow(n, seeds, 3, ordinal, np.array(pair)[:, None]) for ordinal in range(5)],
        axis=1,
    )
    counts = np.bincount(draws[0] * n + draws[1], minlength=n * n)
    expected = draws.shape[1] / (n * n)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert chi_square_tail(statistic, n * n - 1) > FALSE_FAIL_RATE
