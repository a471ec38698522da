"""Score-weighted blending of anchor velocity fields with the base field.

The blended velocity at (x, t) is

    v = base_mix * v_base + (1 - base_mix) * sum_k w_k(score) * vhat_k

where w_k are the multilinear anchor weights and vhat_k is either the
average of anchor k's chain fields (full_average mode) or one uniformly
drawn chain field (stochastic mode). base_mix = 0.5 recovers the equal
base/anchor split; base_mix = 0 drops the base-prompt velocity entirely
and base_mix = 1 ignores the anchors, which realizes the ablations.

Sums are accumulated as deviations from the base field value, so when
every inner field agrees the blend returns that shared value bit-exactly
regardless of score, mix, or mode.

Only the active anchors, those with w_k != 0, are evaluated. The weights
are exactly 0 on every face of the cube, so at a vertex score one anchor
of 2**n is active; at an interior score all are. The skip keeps the
bits: the sum starts at +0.0, w_k * dev is +-0.0 for a finite dev, and
acc + +-0.0 == acc, since acc is never -0.0 (it starts at +0.0, and
x + (-x) rounds to +0.0). The weights sum to 1, so some anchor is always
active. A non-finite velocity of an inactive anchor therefore no longer
reaches the blend (NaN * 0 is NaN). eval_count stays the paper's cost
formula, rows times evals_per_call(), not the evaluations made, so at a
boundary score it counts more than the work done.

Stochastic draws come from a counter-based stream: the chain drawn for
row r and anchor k is randbelow(n, seed_r, STREAM_CHAIN_DRAW, ordinal,
k), where ordinal counts the field's evaluations: every evaluation,
each stage of a solver step included, draws afresh, so each one is an
unbiased estimate of the full average. Trajectories are therefore
reproducible and independent of batching or scheduling. randbelow packs
the draws into lanes (see streams): anchor k takes lane k mod L of the
hash of word k div L, with lanes b = log2(n) bits wide for a
power-of-two n and 32 bits otherwise, and L = 64 // b. A row then
hashes one word per ordinal at n = 2 and 4, 4 at n = 3 and 32 at n = 6.
The hash is split into a key and a counter: when the field is built,
(seed_r, STREAM_CHAIN_DRAW) is folded once into a (1, B) key, and the
draw plan of the (A, 1) active anchor ids is built (see
streams.draw_buffers): the distinct words to hash, each anchor's word
and lane shift, and the buffers. Each evaluation then makes one
streams.hash_words call, which folds only the ordinal into the key and
hashes the words, for the A active of the K = 2**n anchors. An
anchor's draws depend on its own id alone, so they are those of a draw
over all K ids, and at a vertex only the word holding the one active
anchor is hashed. At n = 1 each anchor has a single chain, which is its
full average, so stochastic mode takes the full_average path and makes
no hash.

How the drawn means are gathered follows from n, D and the spec alone,
with no option. At n = 2 and 4 each anchor's 1- or 2-bit lane lies in
one byte of the row's hashed word (streams names the byte and the
shift). When every active anchor's chain variances are equal, as
template bindings give them, and the A tables below fit TILE_BUDGET
(A * 256 * D * 8 bytes: at n = 4, up to D = 32 for all 16 anchors),
the bank of the stochastic path replaces anchor k's chain means by a
256-row draw table, table_k[v] = means_k[(v >> s_k) & (n - 1)], with
s_k its lane's shift in its byte, built once per field. An evaluation
then widens the bytes that hold lanes to intp, one copy per hashed
word, and gathers each anchor's means with one take from its table by
its byte column, in the loop that computes its closed form: no lane is
extracted and there is no (A, B) draw buffer. The bits are those of
the draws' gather, since row v of a table is a copy of the chain mean
that byte value draws. At n = 3, 5 and 6 (32-bit lanes), with unequal
variances, which gather a kappa per row by the draw, and over budget,
the plan's lanes(n) extracts every draw at once, (A, B), in a draw
buffer it allocates on its first call, and each anchor's means are
gathered by its row of draws; the generic path uses those draws too.
The hash buffer, the widened bytes and the draw buffer all belong to
the plan the field owns, so an evaluation allocates no (A, B)
temporaries and plans nothing; the draws and byte columns are views
valid until the next hash. Against the draw buffer the tables replace,
(16, 2048) uint64 or 256 KB, the tables take 128 KB at n = 4, D = 4
and the widened bytes 64 KB. The widened bytes are writeable, since
numpy's take copies a read-only index first (16 takes at 2048 rows: 53
against 42 us). In process (integrate alone, 2048 rows, rk4/100,
template bindings, median of 8 alternations), the tables took 0.74x the
draws' time at n = 4, D = 4 (169 against 227 ms) and 0.92x at n = 2,
D = 2 (60 against 65 ms).

A field has one input shape: seed is a 1-D array of per-row seeds, and
eval takes a (B, D) batch with one row per seed; any other shape raises
ContractViolation. Row r's draws depend on seed_r and the ordinal alone,
and every other operation is row by row, so a 1-row batch with seed s,
evaluated at the states of the row of seed s in any batch, gives that
row bit for bit.

There are two evaluation paths with the same bits. When the base field
and the active anchors' chain fields are plain GaussianTargetFields (the
template backend without mixture bindings), both modes read a stacked
Gaussian bank of the active anchors, built when the field is made: the
base mean and variance, the chain means, and the chain variances (A, n).
An evaluation takes kappa(t) of all chains, computed at once (rule 3
below), and computes every Gaussian closed form itself; no inner
field's eval is called. The bank records which anchors' chains all have
one variance, as template bindings give them: such an anchor's chains
share one kappa(t), so each row's drawn kappa is that number, and the
closed form multiplies by it instead of gathering a kappa per row, with
the same bits. An anchor whose chain variances differ (explicit
bindings may give them) gathers.

The bank lays its means out for the mode that reads them. Per-field
means go feature-major. The full average reads only those, and an
evaluation works in a C-contiguous (D, B) block. The bank tiles each
field's constants across the batch, so that every elementwise operation
of the closed form runs on operands of one shape: the base mean (D, W),
the chain means (A, n, D, W), and at each distinct t the shifts t * mean
at the same shapes (rule 3 below). W is the batch's B when those means
and shifts fit TILE_BUDGET bytes, and 1 otherwise, where a (D, 1) mean
broadcasts along the long axis. One call serves both widths, since numpy
broadcasts whichever the bank stored. Tiles pay because most of a
small-D evaluation is numpy's fixed cost per call, and a broadcast
operand sends it through its general iterator: at D = 2 and 2048 rows a
subtract with a (D, 1) operand took 3.4 us, and 1.5 us on two arrays of
one shape (an in-place add 3.1 and 1.4 us; numpy 2.4). Past about 1 MB
the tiles' own memory traffic costs more than the calls save (they then
fill much of a core's 2 MB L2 on the machine measured). Alternating the
budget in one process (full_average generate, rk4/25, 2048 rows,
template bindings, median of 30), tiles took 0.87x the broadcast time
with 0.2 MB of tiles (n = 2, D = 2, vertex), 0.91x at 0.6 MB, 0.92x at
0.8 MB, 0.98x at 0.9 MB, 1.03x at 1.2 and 1.4 MB, and 1.05-1.08x from
2.5 to 8.5 MB; hence a budget of 1 MiB. The means and shifts are
read-only, so an in-place write into a shared constant raises.
Per-row means go row-major. In stochastic mode every mean the closed
form reads is a row's drawn one, save the base mean, so the bank holds
the chain means as (A, n, D), or the draw tables (A, 256, D) described
above, and the base mean tiled once to (B, D), and
an evaluation works on the solver's own (B, D) rows. Each anchor's
drawn means are then one gather of contiguous D-wide rows, about three
times cheaper than gathering single numbers into a (D, B) block, and
every operation of the closed form and the weighted sum runs on
same-shape contiguous (B, D) arrays; no (D,) mean is broadcast over
rows. The base velocity and each drawn vhat are computed in two
C-ordered (B, D) scratch arrays the field allocates once, and each
deviation vhat - base in place, so an evaluation allocates only the
gathered means and its result; the result is always a new array, since
a solver may keep several (rk4 holds four). The layout is this
class's decision alone: eval takes a (B, D) batch of any layout. The
full average returns acc.T, the (B, D) view of its (D, B) result, which
is Fortran-ordered; the draws return C-ordered rows. numpy's
elementwise operations keep their inputs' layout, so a solver that
combines states and velocities elementwise holds its state in the
bank's layout after the first evaluation (x.T is then the C-contiguous
block, or x the C-contiguous rows), and no evaluation copies the state
in or out.

Every elementwise expression and its order is the generic path's, so
the bits are too. Sums accumulate in place, in arrays the evaluation
allocated or the field owns (an inner field's result may be an array
it keeps, so it is never written into); IEEE + and * commute, so
acc /= n; acc += first has the bits of first + acc / n. Any other inner
field (a mixture, a subclass, a test double) selects the generic path,
which calls eval on each chain field, in stochastic mode for the rows
that drew it. The path follows from the evaluated fields' types alone.

Passes whose result is known exactly are skipped, by three rules that
follow from the spec alone, with no option:

1. Each distinct field is evaluated once. When the field is built, the
   bank marks each active anchor whose chain fields are one field:
   equal variances and equal mean bytes (bytes, since means equal as
   values may differ in the sign of a zero). In full_average such an
   anchor's vhat is its one closed form, not n closed forms and their
   deviation mean. Template bindings at position_bias 0 give this.
2. No identity passes. At a vertex, where one active anchor has weight
   exactly 1, the sum is vhat - base, with no product by the weight and
   no start from zeros; an anchor share 1 - base_mix of exactly 1 is not
   multiplied. The combine is shared, so this holds on both paths.
3. The bank's per-time constants, kappa(t) of the base and the chains
   and t * mean of the base and, in full_average, of each chain, are
   computed once per distinct t: rk4's two mid-stages share one t, and
   a step's first t is the last t of the step before. (The draws shift
   each row's drawn mean, which changes with every evaluation.)

Why the bits stay. n equal closed forms v have deviations v - v = +0.0,
so their deviation mean is +0.0 / n + v: that is v, except that a -0.0
in v becomes +0.0. The sign of a zero in vhat never reaches the blend:
d = vhat - base is -0.0 only when vhat is -0.0 and base is +0.0, and
+0.0 then absorbs the sign, in the zero-started sum (+0.0 + -0.0 is
+0.0) and, at a vertex, in the final d * share + base (-0.0 + +0.0 is
+0.0); otherwise d is the same either way. Products by exactly 1 are
identities, and rule 3 computes the same products and quotients, only
fewer times. The one difference is a non-finite velocity: two infinite
chains deviate by NaN, so where the n-chain average read NaN a collapsed
anchor reads inf. A row diverges at the same step either way, and
DivergenceError's last_max_velocity may read inf where it read nan.

Each BlendedField logs one debug line to the cogflow.blend logger when
it is built: its path (bank or generic), its mode, and on the bank path
the width W and the bytes of its means and of one time's shifts
(`cogflow --verbose` shows it).

A BlendedField instance owns its ordinal, evaluation counter, draw key,
draw plan and its buffers, the stochastic bank's scratch arrays and the
bank's constants at the last time it evaluated, and must not be shared
across concurrent callers;
separate instances may run on separate threads. A BlendSpec is
immutable and freely shareable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import streams
from .cogspace import (  # noqa: F401  (anchor_weight stays importable from here)
    CognitiveAnchor,
    ScoreVector,
    anchor_weight,
    weight_vector,
)
from .errors import ContractViolation, SpaceMismatchError
from .semantics import (
    GaussianTargetField,
    VelocityField,
    _check_time,
    flow_kappa,
    shifted_velocity,
)

MODES = ("stochastic", "full_average")
# bytes of the full average's means and shifts tiled across the batch;
# larger tiles broadcast instead (see the module notes)
TILE_BUDGET = 1 << 20

log = logging.getLogger("cogflow.blend")


def _check_base_mix(value) -> None:
    """Raise ContractViolation unless value is a real number in [0, 1] (a
    bool would be recorded as true or false, and a string would fail the
    comparison with a bare TypeError)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 <= value <= 1.0:
        raise ContractViolation(f"base_mix must be a number in [0, 1], got {value!r}")


@dataclass(frozen=True)
class AnchorFields:
    """One anchor together with the fields bound from its prompt chains."""

    anchor: CognitiveAnchor
    chain_fields: tuple[VelocityField, ...]

    def __post_init__(self):
        if len(self.chain_fields) != len(self.anchor):
            raise ContractViolation(
                f"anchor {self.anchor.bits} needs {len(self.anchor)} chain fields, "
                f"got {len(self.chain_fields)}"
            )


@dataclass(frozen=True)
class BlendSpec:
    """Immutable description of one blended field."""

    base_field: VelocityField
    anchor_sets: tuple[AnchorFields, ...]
    score: ScoreVector
    mode: str = "stochastic"
    base_mix: float = 0.5

    def __post_init__(self):
        n = len(self.score)
        if len(self.anchor_sets) != (1 << n):
            raise ContractViolation(
                f"expected {1 << n} anchor entries for {n} dimensions, "
                f"got {len(self.anchor_sets)}"
            )
        for k, entry in enumerate(self.anchor_sets, start=1):
            if len(entry.anchor) != n:
                raise SpaceMismatchError(
                    f"anchor {entry.anchor.bits} does not match a {n}-dimensional score"
                )
            if entry.anchor.index != k:
                raise ContractViolation(
                    f"anchor entries must be in canonical order; "
                    f"position {k} holds anchor index {entry.anchor.index}"
                )
        if self.mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_base_mix(self.base_mix)
        dims = self.latent_dims()
        if len(dims) > 1:
            raise SpaceMismatchError(f"inner fields disagree on latent dim: {dims}")

    @property
    def n(self) -> int:
        return len(self.score)

    @property
    def anchor_count(self) -> int:
        return len(self.anchor_sets)

    def evals_per_call(self) -> int:
        """Inner field evaluations per blended evaluation, per sample."""
        if self.mode == "stochastic":
            return self.anchor_count + 1
        return self.n * self.anchor_count + 1

    def weights(self) -> np.ndarray:
        return weight_vector(self.score)

    def latent_dims(self) -> set[int]:
        """The latent dimensions the inner fields declare through .dim."""
        chains = (f for entry in self.anchor_sets for f in entry.chain_fields)
        return {f.dim for f in (self.base_field, *chains) if hasattr(f, "dim")}


def _deviation_mean(values):
    """Mean of the values as first + sum(v - first) / n, the sum taken in
    order, so that it is bit-exact when all values agree.

    The sum accumulates in place in arrays allocated here, never in a
    value, which an inner field may own. It starts at the first deviation
    rather than at zeros: the two differ only when every deviation is
    -0.0, which needs first == +0.0, and then first + sum / n is +0.0
    either way. IEEE + and * commute, so acc / n + first has the bits of
    first + acc / n.
    """
    values = iter(values)
    first = next(values)
    acc, n = None, 1
    for v in values:
        if acc is None:
            acc = v - first
        else:
            acc += v - first
        n += 1
    if acc is None:
        return first
    acc /= n
    acc += first
    return acc


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _one_field(chain) -> bool:
    """Whether the Gaussian chain fields are one field: equal variances and
    equal mean bytes. Bytes, not values: means equal as values may differ
    in the sign of a zero."""
    first = chain[0]
    return all(
        f.variance == first.variance and f.mean.tobytes() == first.mean.tobytes()
        for f in chain[1:]
    )


class GaussianBank(NamedTuple):
    """Stacked parameters of a spec whose inner fields are all Gaussian,
    laid out for the mode that reads them: for the full average, per-field
    means feature-major and tiled to a width W, for (D, B) states; for
    draws, per-row means row-major, for (B, D) states. The means and the
    shifts of at() are read-only. See the module notes."""

    base_mean: np.ndarray  # (D, W); for draws (B, D), tiled once
    base_variance: float
    means: np.ndarray  # (A, n, D, W); for draws (A, n, D), or with tables (A, 256, D)
    variances: np.ndarray  # (A, n)
    equal_variances: tuple  # per anchor, whether its n chain variances are equal
    distinct: tuple  # per anchor, its distinct chain fields: 1 if they are one field, else n
    row_major: bool  # laid out for draws
    tables: bool  # for draws, means holds each anchor's draw table

    @classmethod
    def of(
        cls, spec: BlendSpec, active, rows: int, draws: bool, byte_values=None
    ) -> "GaussianBank | None":
        """The bank of spec's base field and of its anchors at the
        positions active, for a batch of rows, or None unless each of
        those fields is exactly a GaussianTargetField (subclasses may
        override eval). draws lays it out for a field that draws chains;
        byte_values, its DrawPlan's byte_values(), if not None, turns each
        anchor's chain means into its draw table when the tables fit
        TILE_BUDGET and every anchor's chain variances are equal."""
        chains = [spec.anchor_sets[k].chain_fields for k in active]
        fields = [spec.base_field, *(f for chain in chains for f in chain)]
        if any(type(f) is not GaussianTargetField for f in fields):
            return None
        means = np.array([[f.mean for f in chain] for chain in chains])
        variances = np.array([[f.variance for f in chain] for chain in chains])
        equal_variances = (variances == variances[:, :1]).all(axis=1)
        tables = (
            byte_values is not None
            and equal_variances.all()
            and len(chains) * 256 * spec.base_field.mean.nbytes <= TILE_BUDGET
        )
        if tables:
            # row v of anchor k's table is the mean of the chain it draws
            # when the byte holding its draw reads v
            chain_means, means = means, np.empty((len(chains), 256, means.shape[-1]))
            for table, chain, values in zip(means, chain_means, byte_values):
                chain.take(values, axis=0, out=table)
        if draws:
            base_mean = np.tile(spec.base_field.mean, (rows, 1))
        else:
            # a (D, W) mean and shift per field; see the module notes
            tiles = 2 * len(fields) * spec.base_field.mean.nbytes * rows
            width = rows if tiles <= TILE_BUDGET else 1
            base_mean = np.repeat(spec.base_field.mean[:, None], width, axis=1)
            means = np.repeat(means[..., None], width, axis=-1)
        return cls(
            base_mean=_read_only(base_mean),
            base_variance=spec.base_field.variance,
            means=_read_only(means),
            variances=variances,
            equal_variances=tuple(equal_variances.tolist()),
            distinct=tuple(1 if _one_field(chain) else spec.n for chain in chains),
            row_major=draws,
            tables=bool(tables),
        )

    @property
    def width(self) -> int:
        """The batch width the constants are laid out at: W, or for draws B."""
        return len(self.base_mean) if self.row_major else self.base_mean.shape[1]

    def constant_bytes(self) -> int:
        """Bytes of the stored means and of one time's shifts."""
        shifted = self.base_mean.nbytes + (0 if self.row_major else self.means.nbytes)
        return self.base_mean.nbytes + self.means.nbytes + shifted

    def at(self, t: float) -> tuple:
        """What every evaluation at time t shares: (t, the base's kappa(t)
        and t * mean, the chains' kappa(t) (A, n) and t * means
        (A, n, D, W)). The draws shift each row's drawn mean, so they have
        no chain shifts (None)."""
        return (
            t,
            flow_kappa(t, self.base_variance),
            _read_only(t * self.base_mean),
            flow_kappa(t, self.variances),
            None if self.row_major else _read_only(t * self.means),
        )

    def values(self, x, at):
        """Base velocity and an iterator over the bank's full-average
        vhats, in anchor order, at a feature-major state x (D, B), with at
        the bank's constants at the evaluation's time; the expressions are
        the generic path's, so the bits equal its bits."""
        t, base_kappa, base_shift, kappas, shifts = at
        base = shifted_velocity(self.base_mean, base_shift, base_kappa, x)
        vhats = (
            _deviation_mean(
                shifted_velocity(means[j], shift[j], kappa[j], x) for j in range(count)
            )
            for means, shift, kappa, count in zip(self.means, shifts, kappas, self.distinct)
        )
        return base, vhats

    def gathered(self, draws):
        """Each active anchor's drawn means (B, D), in anchor order: its row
        of draws, the chain indices (A, B), taken from its chain means, or
        with tables its draw bytes, one (B,) column per anchor, taken from
        its table."""
        for means, chosen in zip(self.means, draws):
            yield means.take(chosen, axis=0)

    def drawn(self, x, at, draws, scratch):
        """As values, for draws: at a row-major state x (B, D), each row's
        vhat is the closed form of the chain it drew, with draws as for
        gathered. scratch is a C-ordered (2, B, D) array the caller owns:
        the base velocity is computed in scratch[0], and each vhat in
        scratch[1], valid until the next is asked for."""
        t, base_kappa, base_shift, kappas, _ = at
        base, work = scratch
        shifted_velocity(self.base_mean, base_shift, base_kappa, x, out=base)

        def vhats():
            for mean, kappa, equal, chosen in zip(
                self.gathered(draws), kappas, self.equal_variances, draws
            ):
                # equal variances give equal kappas, so the drawn kappa is
                # kappa[0]; tables are built only then
                drawn_kappa = kappa[0] if equal else kappa.take(chosen)[:, None]
                shift = np.multiply(t, mean, out=work)
                yield shifted_velocity(mean, shift, drawn_kappa, x, out=work)

        return base, vhats()


class BlendedField(VelocityField):
    """Evaluates the blend; owns the draw stream and evaluation counter.

    seed is a 1-D array of per-row seeds, and eval takes (B, D) batches
    with one row per seed; any other shape raises ContractViolation. Each
    row draws from its own seed's stream, so a 1-row batch with seed s
    reproduces the row of seed s in any batch; see the module notes.
    """

    def __init__(self, spec: BlendSpec, seed):
        if np.ndim(seed) != 1:
            raise ContractViolation(
                f"seed must be a 1-D array of per-row seeds, got shape {np.shape(seed)}"
            )
        self.spec = spec
        self.seed = seed
        self.eval_counter = 0
        self._eval_ordinal = 0
        # fixed for the field's life, so worked out once rather than per eval
        self._evals_per_call = spec.evals_per_call()
        # at n = 1 each anchor's one chain is its full average: no draws
        self._stochastic = spec.mode == "stochastic" and spec.n > 1
        self._anchor_share = 1.0 - spec.base_mix
        # only the active anchors are evaluated; see the module notes
        weights = spec.weights()
        active = np.flatnonzero(weights)
        self._weights = weights[active]
        self._chains = tuple(spec.anchor_sets[k].chain_fields for k in active)
        # one anchor of weight exactly 1: a vertex
        self._vertex = len(active) == 1 and self._weights[0] == 1.0
        byte_values = None
        if self._stochastic:
            # the key/counter split and the draw plan; see the module notes
            self._key = streams.fold_key(np.asarray(seed)[None, :], streams.STREAM_CHAIN_DRAW)
            ids = active.astype(np.uint64)[:, None]
            self._draw_plan = streams.draw_buffers(spec.n, self._key, 0, ids)
            # the plan's read-only copy of the ids passes its check by identity
            self._anchor_ids = self._draw_plan.last
            byte_values = self._draw_plan.byte_values()
        self._bank = GaussianBank.of(spec, active, len(seed), self._stochastic, byte_values)
        if self._bank is None:
            log.debug("blended field: generic path, %s, %d rows", spec.mode, len(seed))
        else:
            log.debug(
                "blended field: bank path, %s, width %d, %d bytes of constants",
                spec.mode, self._bank.width, self._bank.constant_bytes(),
            )
        # the full average computes in a (D, B) block, draws on (B, D) rows
        self._feature_major = self._bank is not None and not self._stochastic
        self._scratch = None
        if self._bank is not None and self._stochastic:
            self._scratch = np.empty((2, *self._bank.base_mean.shape))
        self._time = self._at = None  # the bank's constants at the last time

    def _draws(self, ordinal: int) -> np.ndarray:
        """Chain index per active anchor and row, (A, B).

        The draws depend on the seeds and the ordinal alone, and are a
        view of the field's draw buffer, valid until the next hash.
        """
        return streams.randbelow(
            self.spec.n, self._key, ordinal, self._anchor_ids, out=self._draw_plan
        )

    def _gather_by(self, ordinal: int):
        """What the bank gathers each active anchor's drawn means by at
        ordinal: with draw tables, the byte of the hashed words that holds
        the anchor's draws, (B,) per anchor; otherwise the draws. Either
        way one streams.hash_words call hashes the draws' words."""
        if not self._bank.tables:
            return self._draws(ordinal)
        streams.hash_words(self._key, ordinal, self._anchor_ids, out=self._draw_plan)
        return self._draw_plan.byte_columns()

    @staticmethod
    def _chain_value(fields, x, t, draw):
        if draw is None:
            return _deviation_mean(f.eval(x, t) for f in fields)
        out = np.empty_like(x)
        for j, f in enumerate(fields):
            rows = draw == j
            if rows.any():
                out[rows] = f.eval(x[rows], t)
        return out

    def eval(self, x, t):
        """Blended velocity at a batch (B, D) with one row per seed, (B, D),
        always a new array.

        On the bank path the result has the layout the bank computed in:
        in full_average a transposed view of a (D, B) block, so
        Fortran-ordered; in stochastic mode C-ordered rows. See the
        module notes.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) != len(self.seed):
            got = f"batch of {len(x)} rows" if x.ndim == 2 else f"state of shape {x.shape}"
            raise ContractViolation(f"{len(self.seed)} per-row seeds for a {got}")
        if self._bank is not None:
            if t != self._time:
                self._at = self._bank.at(_check_time(t))
                self._time = t
            if self._feature_major:
                # no copy when x is a view of a C-contiguous (D, B) block
                base, vhats = self._bank.values(np.ascontiguousarray(x.T), self._at)
            else:
                draws = self._gather_by(self._eval_ordinal)
                base, vhats = self._bank.drawn(x, self._at, draws, self._scratch)
        else:
            draws = self._draws(self._eval_ordinal) if self._stochastic else None
            base = self.spec.base_field.eval(x, t)
            vhats = (
                self._chain_value(fields, x, t, None if draws is None else draws[i])
                for i, fields in enumerate(self._chains)
            )
        # base + (1 - base_mix) * sum_k w_k * (vhat_k - base) over the
        # active anchors, summed in order from zeros, in place in arrays
        # allocated here: base and the vhats may be arrays an inner field
        # owns. The drawn vhats are the field's scratch[1], so their
        # deviations are taken there. At a vertex the sum is vhat - base,
        # and a share of exactly 1 is not multiplied; see the module notes.
        if self._vertex:
            (vhat,) = vhats
            acc = vhat - base
        else:
            acc = np.zeros_like(base)
            dev = np.empty_like(base) if self._scratch is None else self._scratch[1]
            for w, vhat in zip(self._weights, vhats):
                np.subtract(vhat, base, out=dev)
                dev *= w
                acc += dev
        if self._anchor_share != 1.0:
            acc *= self._anchor_share
        acc += base
        self._eval_ordinal += 1
        self.eval_counter += len(x) * self._evals_per_call
        return acc.T if self._feature_major else acc
