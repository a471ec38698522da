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
et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
counter_hash is a finalizer over fold_key of all its counters, so a
call with a key and a plain call go down the same code. The module
keeps no state, so calls may run on separate threads.

randbelow packs several small draws into one hash. Draws below a bound
take b-bit lanes of a 64-bit word, b = log2(bound) for a power of two
and 32 otherwise, so L = 64 // b draws share a word (a bound of 1 has
0-bit lanes and L = 64; every draw is 0). The draw with last counter k
is lane k mod L, bits [b * (k mod L), b * (k mod L) + b), of
counter_hash(*other counters, k div L), reduced to (lane * bound) >> b.
That is the lane itself for a power of two, exactly uniform; for any
other bound each value has floor(2**32 / bound) or ceil(2**32 / bound)
of the 2**32 lane values, so |P(j) - 1/bound| < 2**-32. randbelow is
this definition as written: it hashes each draw's own word, so draws
by the same counters agree whichever other last counters are drawn
with them.

The library draws in one shape: a blended field's chain draws,
randbelow(n, key, ordinal, k) for a (1, B) key of the rows' seeds and
the chain-draw stream, every evaluation ordinal, and each active anchor
id k. ChainDraws serves that shape. It is built once per field from the
key and the ids: the distinct words to hash, each anchor's word and its
lane's shift. Each evaluation then folds only the ordinal into the key
and hashes each distinct word once, (words, B), in a buffer it owns,
and lanes() gathers each anchor's word, shifts, masks and reduces, into
an (A, B) draw buffer it also owns, so an evaluation allocates nothing.
The hashed words are kept little-endian, so byte j of a word holds its
bits [8j, 8j + 8). Where b divides 8 (a bound of 2, 4, 16 or 256) no
lane spans two bytes: the draw with last counter k lies in byte
(b * (k mod L)) div 8 of its word, at shift (b * (k mod L)) mod 8
within it, so at a bound of 2 in byte (k mod 64) div 8 at shift
k mod 8, and at a bound of 4 in byte (k mod 32) div 4 at shift
2 * (k mod 4). byte_values() then gives, per anchor, the draw each of
the 256 byte values gives, and byte_columns() each anchor's byte of the
last hash, widened to intp by one copy per word, so a caller can look
a draw's consequence up by its byte without extracting the lane.
"""

from __future__ import annotations

import operator
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
    """One fold round, avalanche((h * golden) ^ counter), written to out,
    which has the broadcast shape of h and counter and may be h itself."""
    np.multiply(h, _GOLDEN, out=out)
    out ^= counter
    return _avalanche(out, scratch)


def hash_buffer(shape, dtype=np.uint64) -> np.ndarray:
    """A (2, *shape) uint64 buffer for a fold round, in dtype's byte
    order: row 0 receives the hash and row 1 is scratch."""
    return np.empty((2, *shape), dtype=dtype)


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


def counter_hash(*counters) -> np.ndarray:
    """Hash one or more integer counters (scalars or arrays) to uint64:
    the finalizer, avalanche(state * golden), over fold_key(*counters).

    The first counter may be a Key from fold_key; its state is read, not
    written.
    """
    key = fold_key(*counters)
    h, scratch = _rows(hash_buffer(key.shape))
    np.multiply(key.state, _GOLDEN, out=h)
    return _avalanche(h, scratch)[()]


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


class ChainDraws:
    """A blended field's chain draws: randbelow(bound, key, ordinal, k)
    for each anchor id k of ids, with key a (1, B) Key, at any ordinal,
    and the buffers they are hashed and read in; see the module notes.

    Built once per field from its key and its active anchor ids: the
    distinct words to hash, each anchor's word and lane shift. hash()
    folds an ordinal into the key and hashes the words; lanes() and
    byte_columns() then read that ordinal's draws, in buffers allocated
    by their first call and valid until the next hash.
    """

    def __init__(self, bound: int, key: Key, ids):
        self.bound, self.bits = bound, _lane_bits(bound)
        self._key = key
        per_word = 64 // max(self.bits, 1)
        ids = [int(k) for k in ids]
        # a set, not np.unique, which raised a generate's peak RSS by 6 MB
        words = sorted({k // per_word for k in ids})
        # per anchor, its word's row in the hash buffer and its lane's offset in bits
        self._layout = [(words.index(k // per_word), k % per_word * self.bits) for k in ids]
        self._word_of = np.array([word for word, _ in self._layout], dtype=np.intp)
        self._shifts = np.array([[shift] for _, shift in self._layout], dtype=np.uint64)
        self._mask = np.uint64((1 << self.bits) - 1)
        self._words = np.array(words, dtype=np.uint64)[:, None]
        self._fold_rows = _rows(hash_buffer(key.shape))
        # little-endian, so that byte j of a word holds its bits [8j, 8j + 8)
        self._hash_rows = _rows(hash_buffer((len(words), key.shape[-1]), "<u8"))
        self._draws = self._columns = None

    def hash(self, ordinal: int) -> np.ndarray:
        """Fold ordinal into the key and hash the words, (words, B), in the
        hash buffer."""
        # every operation is an array ufunc, which wraps around silently
        state = _round(self._key.state, _as_u64(ordinal), *self._fold_rows)
        h, scratch = self._hash_rows
        _round(state, self._words, h, scratch)
        h *= _GOLDEN
        return _avalanche(h, scratch)

    def lanes(self) -> np.ndarray:
        """The draws of the last hash, (A, B) int64: each anchor's word
        gathered, shifted, masked and reduced in the draw buffer."""
        if self._draws is None:
            self._draws = np.empty((len(self._layout), self._key.shape[-1]), dtype=np.uint64)
        draws = self._draws
        np.take(self._hash_rows[0], self._word_of, axis=0, out=draws, mode="clip")
        np.right_shift(draws, self._shifts, out=draws)
        np.bitwise_and(draws, self._mask, out=draws)
        if self.bound != 1 << self.bits:
            draws *= np.uint64(self.bound)
            draws >>= np.uint64(self.bits)
        return draws.view(np.int64)

    def byte_values(self):
        """Per anchor, the draw that each of the 256 values of the byte
        holding its lane gives, (256,) int64; None unless b divides 8 (a
        bound of 2, 4, 16 or 256), where lanes may span two bytes."""
        if self.bits == 0 or 8 % self.bits:
            return None
        values, mask = np.arange(256), int(self._mask)
        return tuple((values >> shift % 8) & mask for _, shift in self._layout)

    def byte_columns(self) -> tuple:
        """Per anchor, the byte of the last hash that holds its lane, (B,)
        intp: views of a buffer refilled by one copy per hashed word. They
        are writeable, as lanes() is: numpy's take copies a read-only
        index before using it. byte_values()[a][byte_columns()[a]] is row
        a of lanes(). ValueError where byte_values is None."""
        if self._columns is None:
            self._columns, self._byte_copies = self._byte_buffer()
        for target, source in self._byte_copies:
            np.copyto(target, source)
        return self._columns

    def _byte_buffer(self) -> tuple:
        if self.byte_values() is None:
            raise ValueError("these draws' lanes do not each lie within one byte")
        lanes = [(word, shift // 8) for word, shift in self._layout]
        spans = {}  # per hashed word, the first and last byte any lane is in
        for word, byte in lanes:
            first, last = spans.get(word, (byte, byte))
            spans[word] = (min(first, byte), max(last, byte))
        h = self._hash_rows[0]
        octets = np.moveaxis(h.view(np.uint8).reshape(*h.shape, 8), -1, 0)
        rows = sum(last - first + 1 for first, last in spans.values())
        buffer = np.empty((rows, h.shape[1]), dtype=np.intp)
        copies, start, row = [], {}, 0
        for word, (first, last) in sorted(spans.items()):
            source = octets[first : last + 1, word]
            copies.append((buffer[row : row + len(source)], source))
            start[word], row = row - first, row + len(source)
        return tuple(buffer[start[word] + byte] for word, byte in lanes), copies


def randbelow(bound: int, *counters) -> np.ndarray:
    """Integer draws in [0, bound), lane-packed, as int64: lane k mod L of
    counter_hash(*other counters, k div L), reduced; see the module
    notes.

    Exact for a power-of-two bound, at most 2**63 as the draws are
    int64; for another bound, at most 2**32, |P(j) - 1/bound| < 2**-32.
    Any other bound raises ValueError. Counters are as for counter_hash,
    with a last counter k after any Key, or TypeError is raised.
    """
    bits = _lane_bits(bound)
    if not counters or isinstance(counters[-1], Key):
        raise TypeError("randbelow needs a last counter after any key")
    *others, k = counters
    k, per_word = _as_u64(k), np.uint64(64 // max(bits, 1))
    lanes = counter_hash(*others, k // per_word) >> k % per_word * np.uint64(bits)
    lanes &= np.uint64((1 << bits) - 1)
    if bound != 1 << bits:
        lanes = lanes * np.uint64(bound) >> np.uint64(bits)
    return lanes.astype(np.int64)[()]
