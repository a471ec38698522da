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

randbelow packs several small draws into one hash. Draws below a bound
take b-bit lanes of a 64-bit word, b = log2(bound) for a power of two
and 32 otherwise, so L = 64 // b draws share a word (a bound of 1 has
0-bit lanes and L = 64; every draw is 0). The draw with last counter k
is lane k mod L, bits [b * (k mod L), b * (k mod L) + b), of
counter_hash(*other counters, k div L), reduced to (lane * bound) >> b.
That is the lane itself for a power of two, exactly uniform; for any
other bound each value has floor(2**32 / bound) or ceil(2**32 / bound)
of the 2**32 lane values, so |P(j) - 1/bound| < 2**-32. Each draw
depends on its own counters alone, so draws by the same counters agree
whichever other last counters are drawn with them. When the last
counter varies along one axis and the other counters do not, each
distinct word is hashed once and the words are gathered along that
axis; otherwise each draw hashes its own word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

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


def _lane_bits(bound) -> int:
    """The lane width b for draws below bound; see the module notes."""
    bound = operator.index(bound)
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound & (bound - 1) == 0:
        if bound > 1 << 63:
            raise ValueError(f"draws are int64: bound must be at most 2**63, got {bound}")
        return bound.bit_length() - 1
    if bound > 1 << 32:
        raise ValueError(
            f"a bound that is not a power of two must be at most 2**32, got {bound}"
        )
    return 32


class _Plan(NamedTuple):
    """How randbelow hashes and gathers the draws of one counter tuple."""

    key: Key
    words: np.ndarray  # the hashed words, along the draw axis if there is one
    inverse: np.ndarray | None  # each draw's word, along that axis
    axis: int | None
    shifts: np.ndarray  # each draw's lane offset in bits, shaped as the last counter
    shape: tuple


def _plan(bits: int, counters) -> _Plan:
    """Split counters into the key, the words to hash and each draw's
    lane; find the draw axis, if any (see the module notes)."""
    if not counters or isinstance(counters[-1], Key):
        raise TypeError("randbelow needs a last counter after any key")
    key, last = fold_key(*counters[:-1]), _as_u64(counters[-1])
    lanes = np.uint64(64 // max(bits, 1))
    words, shifts = last // lanes, (last % lanes) * np.uint64(bits)
    shape = np.broadcast_shapes(key.shape, last.shape)
    pad = len(shape) - last.ndim
    varying = [i for i, size in enumerate(last.shape, pad) if size > 1]
    key_sizes = (1,) * (len(shape) - len(key.shape)) + key.shape
    if len(varying) != 1 or key_sizes[varying[0]] > 1:
        return _Plan(key, words, None, None, shifts, shape)
    axis, flat = varying[0], words.reshape(-1)
    # a set, not np.unique, which raised a generate's peak RSS by 6 MB
    words = np.array(sorted(set(flat.tolist())), dtype=np.uint64)
    along = [1] * len(shape)
    along[axis] = len(words)
    return _Plan(key, words.reshape(along), np.searchsorted(words, flat), axis, shifts, shape)


def draw_buffers(bound: int, *counters) -> tuple[np.ndarray, np.ndarray]:
    """The (hash buffer, draws) pair for randbelow(bound, *counters, out=)
    and any counters of these shapes with this last counter."""
    plan = _plan(_lane_bits(bound), counters)
    hash_shape = np.broadcast_shapes(plan.key.shape, plan.words.shape)
    return hash_buffer(hash_shape), np.empty(plan.shape, dtype=np.uint64)


def randbelow(bound: int, *counters, out=None) -> np.ndarray:
    """Integer draws in [0, bound), lane-packed; see the module notes.

    Exact for a power-of-two bound, at most 2**63 as the draws are
    int64; for another bound, at most 2**32, |P(j) - 1/bound| < 2**-32.
    Any other bound raises ValueError. Counters are as for counter_hash,
    with at least one after any Key; the last picks the word and the
    lane. out, if given, is a pair from draw_buffers: the words are
    hashed in its hash buffer and the draws reduced in place in its
    draws array. The draws are returned as int64, with out as a view of
    that array.
    """
    bits = _lane_bits(bound)
    plan = _plan(bits, counters)
    hash_out, draws = out if out is not None else (None, np.empty(plan.shape, np.uint64))
    h = _hash((plan.key, plan.words), hash_out)
    if plan.axis is None:
        np.right_shift(h, plan.shifts, out=draws)
    else:
        np.take(h, plan.inverse, axis=plan.axis, out=draws, mode="clip")
        np.right_shift(draws, plan.shifts, out=draws)
    np.bitwise_and(draws, np.uint64((1 << bits) - 1), out=draws)
    if bound != 1 << bits:
        draws *= np.uint64(bound)
        draws >>= np.uint64(bits)
    return draws.view(np.int64)[()]
