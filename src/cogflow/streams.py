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
of the 2**32 lane values, so |P(j) - 1/bound| < 2**-32. Each draw
depends on its own counters alone, so draws by the same counters agree
whichever other last counters are drawn with them. When the last
counter varies along one axis and the other counters do not, each
distinct word is hashed once and the words are gathered along that
axis; otherwise each draw hashes its own word.

Which words to hash, each draw's word along that axis, the lane shifts
and the draws' shape depend on the last counter alone: they are a
DrawPlan. draw_buffers builds one, with every buffer a call needs, for
a caller that draws the same last counter again and again under other
leading counters (the chain draws of a blended field, once per
evaluation ordinal), and the caller passes it as out= on every call.
Such a call folds only its leading counters, then hashes, gathers,
shifts and masks in the plan's buffers, and allocates nothing after its
first call. The plan checks every call's last counter: its own
read-only copy passes by identity, an array of the same shape and
values by comparison, and anything else raises ValueError, so a plan
never serves the draws of another last counter. Without out=, a call
builds a plan of its own.

randbelow is two steps, and a caller with a plan may take the first
alone: hash_words folds the leading counters and hashes the words, and
the plan's lanes(bound) then extracts the draws. A caller that needs
each draw's lane rather than its value can read it from the hashed
words itself. The plan keeps them little-endian, so byte j of a word
holds its bits [8j, 8j + 8). Where b divides 8 (a bound of 2, 4, 16 or
256) no lane spans two bytes: the draw with last counter k lies in byte
(b * (k mod L)) div 8 of its word, at shift (b * (k mod L)) mod 8
within it, so at a bound of 2 in byte (k mod 64) div 8 at shift
k mod 8, and at a bound of 4 in byte (k mod 32) div 4 at shift
2 * (k mod 4). The plan's byte_values() gives, per draw along its axis,
the draw each of the 256 byte values gives, and byte_columns() each
draw's byte of the last hash, widened to intp by one copy per word.
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


def _shape(counter) -> tuple:
    if isinstance(counter, (int, np.integer)):
        return ()
    return counter.shape if isinstance(counter, Key) else np.shape(counter)


class DrawPlan:
    """How randbelow hashes and gathers the draws of one last counter,
    with the buffers it does so in; see draw_buffers.

    Only the leading counters are read on each call: they are folded in
    the fold buffer, the words hashed in the hash buffer and the draws
    gathered, shifted and masked in the draws array, all owned here.
    """

    def __init__(self, bits: int, leading: tuple, last):
        last = _as_u64(last)
        self.bits = bits
        self.leading_shapes = [_shape(c) for c in leading]
        # what the plan is for, checked on every call: a read-only copy,
        # which a caller may pass as the last counter to pass the check by
        # identity
        self.last = last.copy()
        self.last.flags.writeable = False
        key_shape = np.broadcast_shapes(*self.leading_shapes)
        lanes = np.uint64(64 // max(bits, 1))
        words = last // lanes
        self.mask = np.uint64((1 << bits) - 1)
        shape = np.broadcast_shapes(key_shape, last.shape)
        self.shifts = (last % lanes) * np.uint64(bits)  # each draw's lane offset in bits
        pad = len(shape) - last.ndim
        varying = [i for i, size in enumerate(last.shape, pad) if size > 1]
        if not varying and last.ndim:
            varying = [pad]  # one draw, along the last counter's first axis
        key_sizes = (1,) * (len(shape) - len(key_shape)) + key_shape
        self.axis = self.inverse = None
        if len(varying) == 1 and key_sizes[varying[0]] == 1:
            # each distinct word is hashed once and gathered along the axis
            self.axis, flat = varying[0], words.reshape(-1)
            # a set, not np.unique, which raised a generate's peak RSS by 6 MB
            distinct = np.array(sorted(set(flat.tolist())), dtype=np.uint64)
            self.inverse = np.searchsorted(distinct, flat)
            along = [1] * len(shape)
            along[self.axis] = len(distinct)
            words = distinct.reshape(along)
        self.words = words  # the hashed words, along the draw axis if there is one
        # little-endian, so that byte_columns can name each lane's byte
        self.hashes = hash_buffer(np.broadcast_shapes(key_shape, words.shape), "<u8")
        self.shape = shape  # the draws'
        self.draws = None  # allocated by the first lanes call
        self._columns = None  # allocated by the first byte_columns call
        self._fold_rows = _rows(hash_buffer(key_shape))
        self._hash_rows = _rows(self.hashes)

    def check(self, bits: int, leading: tuple, last) -> "DrawPlan":
        """Raise ValueError unless this plan was built for these counters:
        the same lane width, the same last counter (self.last itself, or
        one of its shape and values), and leading counters of the same
        shapes."""
        if (
            bits != self.bits
            or not self._is_last(last)
            or [_shape(c) for c in leading] != self.leading_shapes
        ):
            raise ValueError(
                "this draw plan was built for other counters; get one from draw_buffers"
            )
        return self

    def _is_last(self, last) -> bool:
        if last is self.last:
            return True
        last = _as_u64(last)
        return last.shape == self.last.shape and last.tobytes() == self.last.tobytes()

    def hash(self, leading: tuple) -> np.ndarray:
        """Fold the leading counters and hash the plan's words, in the hash
        buffer; returns the hashed words, valid until the plan's next
        call."""
        if leading and isinstance(leading[0], Key):
            state, leading = leading[0].state, leading[1:]
        else:
            state = np.asarray(_FOLD_SEED)
        # every operation is an array ufunc, which wraps around silently
        out, scratch = self._fold_rows
        for counter in leading:
            state = _round(state, _as_u64(counter), out, scratch)
        h, scratch = self._hash_rows
        _round(state, self.words, h, scratch)
        h *= _GOLDEN
        _avalanche(h, scratch)
        return h

    def lanes(self, bound: int) -> np.ndarray:
        """The draws below bound in the words the last hash left, gathered,
        shifted and masked in the draws array, which the first call
        allocates."""
        if self.draws is None:
            self.draws = np.empty(self.shape, dtype=np.uint64)
        h, draws = self._hash_rows[0], self.draws
        if self.axis is None:
            np.right_shift(h, self.shifts, out=draws)
        else:
            np.take(h, self.inverse, axis=self.axis, out=draws, mode="clip")
            np.right_shift(draws, self.shifts, out=draws)
        np.bitwise_and(draws, self.mask, out=draws)
        if bound != 1 << self.bits:
            draws *= np.uint64(bound)
            draws >>= np.uint64(self.bits)
        return draws.view(np.int64)[()]

    def _byte_lanes(self):
        """Per draw along the draw axis, in the order of the last counter's
        elements, (word, byte, low): the position along the axis of the
        word that holds its lane, the byte of that word that holds it and
        the lane's lowest bit within the byte. None where a lane may span
        two bytes (b does not divide 8) or there is no draw axis."""
        if self.axis is None or self.bits == 0 or 8 % self.bits:
            return None
        offsets = self.shifts.reshape(-1).tolist()
        return [(word, *divmod(offset, 8)) for word, offset in zip(self.inverse.tolist(), offsets)]

    def byte_values(self):
        """Per draw along the draw axis, the draw that each of the 256
        values of the byte holding its lane gives, (256,) int64; None
        where no such byte exists (see _byte_lanes): a bound of 2, 4, 16
        or 256 has one. See byte_columns."""
        lanes = self._byte_lanes()
        if lanes is None:
            return None
        values, mask = np.arange(256), int(self.mask)
        return tuple((values >> low) & mask for _, _, low in lanes)

    def byte_columns(self) -> tuple:
        """Per draw along the draw axis, the value of the byte holding its
        lane in the words the last hash left, shaped like the leading
        counters' broadcast, as intp: views of a buffer that the first
        call allocates and every call refills, by one copy per hashed
        word, valid until the next call. They are writeable, as the draws
        of lanes() are: numpy's take copies a read-only index before
        using it. byte_values()[i][byte_columns()[i]] are the draws of
        lanes() along the axis. ValueError where byte_values is None."""
        if self._columns is None:
            self._columns = self._byte_buffer()
        for target, source in self._byte_copies:
            np.copyto(target, source)
        return self._columns

    def _byte_buffer(self) -> tuple:
        lanes = self._byte_lanes()
        if lanes is None:
            raise ValueError("these draws' lanes do not each lie within one byte")
        spans = {}  # per hashed word, the first and last byte any lane is in
        for word, byte, _ in lanes:
            first, last = spans.get(word, (byte, byte))
            spans[word] = (min(first, byte), max(last, byte))
        h = self._hash_rows[0]
        # the hash buffer is little-endian, so byte j holds bits [8j, 8j + 8)
        octets = np.moveaxis(h.view(np.uint8).reshape(*h.shape, 8), -1, 0)
        rest = h.shape[: self.axis] + h.shape[self.axis + 1 :]
        rows = sum(last - first + 1 for first, last in spans.values())
        buffer = np.empty((rows, *rest), dtype=np.intp)
        self._byte_copies, start, row = [], {}, 0
        for word, (first, last) in sorted(spans.items()):
            index = [slice(None)] * h.ndim
            index[self.axis] = word
            source = octets[(slice(first, last + 1), *index)]
            self._byte_copies.append((buffer[row : row + len(source)], source))
            start[word], row = row - first, row + len(source)
        return tuple(buffer[start[word] + byte] for word, byte, _ in lanes)


def _split(counters) -> tuple[tuple, object]:
    if not counters or isinstance(counters[-1], Key):
        raise TypeError("randbelow needs a last counter after any key")
    return counters[:-1], counters[-1]


def draw_buffers(bound: int, *counters) -> DrawPlan:
    """The plan and buffers for randbelow(bound, *counters, out=), built
    once: it serves every call with this last counter and leading
    counters of these shapes, whatever their values."""
    return DrawPlan(_lane_bits(bound), *_split(counters))


def randbelow(bound: int, *counters, out=None) -> np.ndarray:
    """Integer draws in [0, bound), lane-packed; see the module notes.

    Exact for a power-of-two bound, at most 2**63 as the draws are
    int64; for another bound, at most 2**32, |P(j) - 1/bound| < 2**-32.
    Any other bound raises ValueError. Counters are as for counter_hash,
    with at least one after any Key; the last picks the word and the
    lane. out, if given, is a DrawPlan from draw_buffers for these
    counters, or ValueError is raised: the call then only folds the
    leading counters and hashes, gathers and reduces in the plan's
    buffers, and the draws are a view of its draws array, valid until
    the plan's next call. Without out, each call builds its own plan.
    The draws are returned as int64.
    """
    bits = _lane_bits(bound)
    leading, last = _split(counters)
    plan = DrawPlan(bits, leading, last) if out is None else out.check(bits, leading, last)
    # the plan's own copy of the last counter passes its check by identity
    hash_words(*leading, plan.last, out=plan)
    return plan.lanes(bound)


def hash_words(*counters, out: DrawPlan) -> np.ndarray:
    """Hash the words that randbelow(bound, *counters, out=out) draws
    from, without extracting their lanes: the first half of that call,
    in the plan's hash buffer. Returns the hashed words, valid until the
    plan's next call; out.lanes(bound) then gives randbelow's draws, and
    out.byte_columns() the byte of the words that holds each draw. The
    counters are checked as for randbelow."""
    leading, last = _split(counters)
    return out.check(out.bits, leading, last).hash(leading)
