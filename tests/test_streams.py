import numpy as np
import pytest

from cogflow import streams


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


def test_derive_seed_is_plain_int():
    seed = streams.derive_seed(1, 2)
    assert isinstance(seed, int)
    assert 0 <= seed < (1 << 64)


# --- the key/counter split and the in-place buffer ---------------------------

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


def test_out_buffer_receives_the_hash_in_place():
    key = streams.fold_key(np.arange(6, dtype=np.uint64)[:, None], 3)
    buffer = streams.hash_buffer((6, 4))
    got = streams.counter_hash(key, 1 << 32, np.arange(4), out=buffer)
    assert np.shares_memory(got, buffer[0])
    assert np.array_equal(got, streams.counter_hash(key, 1 << 32, np.arange(4)))
    scalar = streams.hash_buffer(())
    assert int(streams.counter_hash(7, 9, out=scalar)) == python_hash(7, 9)
    assert int(scalar[0]) == python_hash(7, 9)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 8, 64])
def test_randbelow_masked_and_modular_bounds_equal_the_remainder(bound):
    seeds = np.array([1, (1 << 63) | 77, _M64], dtype=np.uint64)[:, None]
    for ordinal in (0, 1 << 32, (1 << 63) - 1):
        draws = streams.randbelow(bound, seeds, 3, ordinal, np.arange(8))
        want = [
            [python_hash(int(s), 3, ordinal, k) % bound for k in range(8)]
            for s in seeds[:, 0]
        ]
        assert draws.dtype == np.int64
        assert draws.tolist() == want
        buffer = streams.hash_buffer((3, 8))
        key = streams.fold_key(seeds, 3)
        in_place = streams.randbelow(bound, key, ordinal, np.arange(8), out=buffer)
        assert np.array_equal(in_place, draws)
        assert np.shares_memory(in_place, buffer)
    assert isinstance(streams.randbelow(bound, 4, 2), np.int64)
