"""Counter-based deterministic random streams.

Every draw is a pure function of its integer counters, so results are
reproducible and independent of evaluation order, batching, or thread
scheduling. The generator is a splitmix64-style avalanche applied to a
fold over the counters; each counter may be a scalar or an integer
ndarray, and outputs broadcast accordingly.

The fold runs left to right, so a caller that hashes many counter
tuples sharing a prefix can fold that prefix once: fold_key(*prefix)
returns a Key, and counter_hash(key, *rest) equals
counter_hash(*prefix, *rest). This is the key/counter split of Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). A plain
call folds all but its last counter into a key and goes down the same
code. The last round and the finalizer run in place, in a buffer from
hash_buffer that the caller may own and pass as out= on every call;
without one, each call allocates its own. The module keeps no state, so
calls on separate buffers may run on separate threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_FOLD_SEED = np.uint64(0x8EF827D8B29AA77D)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)

# Stream tags keep draws for different purposes disjoint even when the
# remaining counters coincide.
STREAM_SAMPLE_SEED = 1
STREAM_INIT_STATE = 2
STREAM_CHAIN_DRAW = 3


@dataclass(frozen=True, eq=False)
class Key:
    """Fold state after some leading counters; see fold_key."""

    state: np.ndarray  # uint64, shaped like the broadcast of those counters

    @property
    def shape(self) -> tuple:
        return self.state.shape


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.asarray(int(value) & _MASK64, dtype=np.uint64)
    return np.asarray(value).astype(np.uint64, copy=False)


def _avalanche(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on h; scratch has h's shape."""
    np.right_shift(h, np.uint64(30), out=scratch)
    h ^= scratch
    h *= _MIX1
    np.right_shift(h, np.uint64(27), out=scratch)
    h ^= scratch
    h *= _MIX2
    np.right_shift(h, np.uint64(31), out=scratch)
    h ^= scratch
    return h


def _round(h: np.ndarray, counter: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """One fold round, avalanche((h * golden) ^ counter), written to out."""
    np.bitwise_xor(h * _GOLDEN, counter, out=out)
    return _avalanche(out, scratch)


def hash_buffer(shape) -> np.ndarray:
    """A (2, *shape) uint64 buffer for counter_hash(..., out=): row 0
    receives the hash and row 1 is scratch."""
    return np.empty((2, *shape), dtype=np.uint64)


def _rows(buffer):
    # Ellipsis keeps 0-d rows arrays, which in-place operations need
    return buffer[0, ...], buffer[1, ...]


def fold_key(*counters) -> Key:
    """Fold leading counters once, for counter_hash(key, *rest). The
    first counter may itself be a Key, which is then folded further."""
    if counters and isinstance(counters[0], Key):
        h, counters = counters[0].state, counters[1:]
    else:
        h = np.asarray(_FOLD_SEED)
    # modular uint64 wraparound is the point; silence overflow warnings
    with np.errstate(over="ignore"):
        for counter in map(_as_u64, counters):
            out, scratch = _rows(hash_buffer(np.broadcast_shapes(h.shape, counter.shape)))
            h = _round(h, counter, out, scratch)
    return Key(h)


def _hash(counters, out) -> np.ndarray:
    """The hash of counters as an ndarray (0-d for scalar counters)."""
    if len(counters) == 1 and isinstance(counters[0], Key):
        key, last = counters[0], None
    else:
        key = fold_key(*counters[:-1])
        last = _as_u64(counters[-1]) if counters else None
    shape = key.shape if last is None else np.broadcast_shapes(key.shape, last.shape)
    h, scratch = _rows(hash_buffer(shape) if out is None else out)
    with np.errstate(over="ignore"):
        if last is None:
            h[...] = key.state
        else:
            _round(key.state, last, h, scratch)
        h *= _GOLDEN
        return _avalanche(h, scratch)


def counter_hash(*counters, out=None) -> np.ndarray:
    """Hash one or more integer counters (scalars or arrays) to uint64.

    The first counter may be a Key from fold_key. out, if given, is a
    buffer from hash_buffer(result shape); the hash is written to out[0]
    and returned as that array.
    """
    return _hash(counters, out)[()]


def derive_seed(*counters) -> int:
    """Scalar convenience: a derived 64-bit sub-seed."""
    return int(counter_hash(*counters))


def uniform(*counters) -> np.ndarray:
    """Uniform float64 draws in [0, 1), one per broadcast counter tuple."""
    return (counter_hash(*counters) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def standard_normal(*counters) -> np.ndarray:
    """Standard normal draws via Box-Muller on two sub-streams."""
    key = fold_key(*counters)  # the sub-streams share every counter but the last
    # u1 in (0, 1] so the log is finite
    u1 = ((counter_hash(key, 0) >> np.uint64(11)) + np.uint64(1)).astype(
        np.float64
    ) * _INV_2_53
    u2 = uniform(key, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def randbelow(bound: int, *counters, out=None) -> np.ndarray:
    """Integer draws in [0, bound). Modulo bias is < bound / 2**64.

    Counters and out are as for counter_hash. The draws are reduced in
    place and returned as int64: with out, as a view of out[0]. A
    power-of-two bound is taken by mask, which gives the bits of %.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    h = _hash(counters, out)
    if bound & (bound - 1) == 0:
        np.bitwise_and(h, np.uint64(bound - 1), out=h)
    else:
        np.remainder(h, np.uint64(bound), out=h)
    return h.view(np.int64)[()]
