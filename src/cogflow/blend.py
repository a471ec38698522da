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
k), where ordinal counts evaluations (per_eval) or solver steps
(per_step). Trajectories are therefore reproducible and independent of
batching or scheduling. randbelow packs the draws into lanes (see
streams): anchor k takes lane k mod L of the hash of word k div L, with
lanes b = log2(n) bits wide for a power-of-two n and 32 bits otherwise,
and L = 64 // b. A row then hashes one word per ordinal at n = 2 and 4,
4 at n = 3 and 32 at n = 6. The hash is split into a key and a counter:
when the field is built, (seed_r, STREAM_CHAIN_DRAW) is folded once
into a key, (1, B) for per-row seeds or a scalar for a scalar seed, and
the draw plan of the active anchor ids, (A, 1) or (A,), is built (see
streams.draw_buffers): the distinct words to hash, each anchor's word
and lane shift, and the buffers. One randbelow call per ordinal then
folds only the ordinal into the key, hashes the words and gathers every
draw at once, (A, B) or (A,), for the A active of the K = 2**n anchors:
the i-th active anchor's draws are the contiguous row draws[i]. An
anchor's draws depend on its own id alone, so they are those of a draw
over all K ids, and at a vertex only the word holding the one active
anchor is hashed. The words are hashed in a (words, B) hash buffer and
the draws reduced in an (A, B) draw buffer, both in the plan the field
owns, so an evaluation allocates no (A, B) temporaries and plans
nothing. The draws are a view of the draw buffer until the next hash.
At n = 1 each anchor has a single chain and no hash is made.

There are two evaluation paths with the same bits. When the base field
and the active anchors' chain fields are plain GaussianTargetFields (the
template backend without mixture bindings), both modes read a stacked
Gaussian bank of the active anchors, built when the field is made: the
base mean (D, 1) and variance, chain means stored feature-major as
(A, D, n), and chain variances (A, n). An evaluation works in a
C-contiguous (D, B) block: it computes
kappa(t) for all chains at once and every Gaussian closed form in that
block (in stochastic mode on each row's drawn mean and kappa); no inner
field's eval is called. The bank records which anchors' chains all have
one variance, as template bindings give them: such an anchor's chains
share one kappa(t), so each row's drawn kappa is that number, and the
closed form multiplies by it instead of gathering a kappa per row, with
the same bits. An anchor whose chain variances differ (explicit
bindings may give them) gathers. Feature-major, a per-field (D, 1) mean
broadcasts along the long axis, which numpy does several times faster
than a (D,) mean over (B, D) rows at small D. The layout is this
class's decision alone: eval takes a (B, D) or (D,) state of any
layout, and returns acc.T, the (B, D) view of its (D, B) result, which
is Fortran-ordered. numpy's elementwise operations keep their inputs'
layout, so a solver that combines states and velocities elementwise
holds its state Fortran-ordered after the first evaluation; x.T is then
the C-contiguous block and no evaluation copies the state in or out.
Every elementwise expression and its order is the generic path's, so
the bits are too. Sums accumulate in place, in arrays the evaluation
allocated (an inner field's result may be an array it keeps, so it is
never written into); IEEE + and * commute, so acc /= n; acc += first
has the bits of first + acc / n. Any other inner field (a
mixture, a subclass, a test double) selects the generic path, which
calls eval on each chain field, in stochastic mode for the rows that
drew it. The path follows from the evaluated fields' types alone.

A BlendedField instance owns its ordinal, evaluation counter, draw key
and draw buffers, and must not be shared across concurrent callers;
separate instances may run on separate threads. A BlendSpec is
immutable and freely shareable.
"""

from __future__ import annotations

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
    gaussian_velocity,
)

MODES = ("stochastic", "full_average")
DRAW_SCOPES = ("per_eval", "per_step")


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
    draw_scope: str = "per_eval"

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
        if self.draw_scope not in DRAW_SCOPES:
            raise ContractViolation(
                f"draw_scope must be one of {DRAW_SCOPES}, got {self.draw_scope!r}"
            )
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


class GaussianBank(NamedTuple):
    """Stacked parameters of a spec whose inner fields are all Gaussian,
    laid out for feature-major (D, B) states."""

    base_mean: np.ndarray  # (D, 1)
    base_variance: float
    means: np.ndarray  # (A, D, n)
    variances: np.ndarray  # (A, n)
    equal_variances: tuple  # per anchor, whether its n chain variances are equal

    @classmethod
    def of(cls, spec: BlendSpec, active) -> "GaussianBank | None":
        """The bank of spec's base field and of its anchors at the
        positions active, or None unless each of those fields is exactly a
        GaussianTargetField (subclasses may override eval)."""
        chains = [spec.anchor_sets[k].chain_fields for k in active]
        fields = [spec.base_field, *(f for chain in chains for f in chain)]
        if any(type(f) is not GaussianTargetField for f in fields):
            return None
        means = np.array([[f.mean for f in chain] for chain in chains])
        variances = np.array([[f.variance for f in chain] for chain in chains])
        return cls(
            base_mean=np.array(spec.base_field.mean)[:, None],
            base_variance=spec.base_field.variance,
            means=np.ascontiguousarray(means.transpose(0, 2, 1)),
            variances=variances,
            equal_variances=tuple((variances == variances[:, :1]).all(axis=1).tolist()),
        )

    def values(self, x, t, draws):
        """Base velocity and an iterator over the bank's vhats, in anchor
        order, at a feature-major state x of shape (D, B).

        draws holds chain indices of shape (A,) or (A, B), or is None for
        the full average; the expressions are the generic path's, so the
        bits equal its bits.
        """
        t = _check_time(t)
        base = gaussian_velocity(
            self.base_mean, flow_kappa(t, self.base_variance), x, t
        )
        kappas = flow_kappa(t, self.variances)

        def averaged():
            for means, kappa in zip(self.means, kappas):
                yield _deviation_mean(
                    gaussian_velocity(means[:, j : j + 1], kappa[j], x, t)
                    for j in range(len(kappa))
                )

        def drawn():
            for k, (means, kappa, equal) in enumerate(
                zip(self.means, kappas, self.equal_variances)
            ):
                chosen = draws[k]
                mean = means.take(chosen, axis=1).reshape(len(means), -1)
                # equal variances give equal kappas, so the drawn kappa is kappa[0]
                yield gaussian_velocity(mean, kappa[0] if equal else kappa.take(chosen), x, t)

        return base, averaged() if draws is None else drawn()


class BlendedField(VelocityField):
    """Evaluates the blend; owns the draw stream and evaluation counter.

    x may be a single state (D,) or a batch (B, D). For batched use,
    seed may be an array of per-row seeds so each row reproduces the
    stream it would own as a standalone single-sample field.
    """

    def __init__(self, spec: BlendSpec, seed):
        self.spec = spec
        self.seed = seed
        self.eval_counter = 0
        self._eval_ordinal = 0
        self._step_ordinal = 0
        self._drawn = (None, None)  # (ordinal, draws) of the last hash
        # fixed for the field's life, so worked out once rather than per eval
        self._evals_per_call = spec.evals_per_call()
        self._stochastic = spec.mode == "stochastic"
        self._per_step = spec.draw_scope == "per_step"
        self._anchor_share = 1.0 - spec.base_mix
        self._per_row = np.ndim(seed) > 0
        # only the active anchors are evaluated; see the module notes
        weights = spec.weights()
        active = np.flatnonzero(weights)
        self._weights = weights[active]
        self._chains = tuple(spec.anchor_sets[k].chain_fields for k in active)
        self._bank = GaussianBank.of(spec, active)
        self._draw_plan = None
        if self._stochastic and spec.n > 1:
            # the key/counter split and the draw plan; see the module notes
            self._key = streams.fold_key(
                np.asarray(seed)[None, :] if self._per_row else seed,
                streams.STREAM_CHAIN_DRAW,
            )
            ids = active.astype(np.uint64)
            self._draw_plan = streams.draw_buffers(
                spec.n, self._key, 0, ids[:, None] if self._per_row else ids
            )
            # the plan's read-only copy of the ids passes its check by identity
            self._anchor_ids = self._draw_plan.last

    @property
    def dim(self):
        return getattr(self.spec.base_field, "dim", None)

    def begin_step(self, step_index: int):
        """Integrator hook; freezes draws within a step in per_step scope."""
        self._step_ordinal = step_index

    def _draws(self, x, ordinal: int) -> np.ndarray:
        """Chain index per active anchor: (A,) for a scalar seed, (A, B)
        per row.

        x is the state, (D,) or (B, D); per-row seeds need one seed per
        row. The draws are a view of the field's draw buffer, valid until
        the next hash. They depend on the ordinal alone, so in per_step
        scope they are kept and reused by the stages of one solver step,
        and the buffer is not written again until the step ordinal
        changes.
        """
        if self._per_row:
            if x.ndim == 1:
                raise ContractViolation(
                    "per-row seeds require batched states of shape (rows, dim)"
                )
            if x.shape[0] != len(self.seed):
                raise ContractViolation(
                    f"{len(self.seed)} per-row seeds for a batch of {x.shape[0]} rows"
                )
        last, draws = self._drawn
        if ordinal == last:
            return draws
        if self._draw_plan is None:
            # n = 1: randbelow(1, ...) is always 0, so skip the hash
            draws = np.zeros(len(self._weights), dtype=np.int64)
        else:
            draws = streams.randbelow(
                self.spec.n, self._key, ordinal, self._anchor_ids, out=self._draw_plan
            )
        if self._per_step:
            self._drawn = (ordinal, draws)
        return draws

    @staticmethod
    def _chain_value(fields, x, t, draw):
        if draw is None:
            return _deviation_mean(f.eval(x, t) for f in fields)
        if np.ndim(draw) == 0:
            return fields[int(draw)].eval(x, t)
        out = np.empty_like(x)
        for j, f in enumerate(fields):
            rows = draw == j
            if rows.any():
                out[rows] = f.eval(x[rows], t)
        return out

    def eval(self, x, t):
        """Blended velocity at a state (D,) or a batch (B, D), same shape.

        On the bank path the result is a transposed view of the (D, B)
        block the evaluation computed in, so a batch comes back
        Fortran-ordered; see the module notes.
        """
        x = np.asarray(x, dtype=float)
        draws = None
        if self._stochastic:
            draws = self._draws(x, self._step_ordinal if self._per_step else self._eval_ordinal)
        if self._bank is not None:
            # no copy when x is a view of a C-contiguous (D, B) block
            block = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
            base, vhats = self._bank.values(block, t, draws)
        else:
            base = self.spec.base_field.eval(x, t)
            vhats = (
                self._chain_value(fields, x, t, None if draws is None else draws[i])
                for i, fields in enumerate(self._chains)
            )
        # base + (1 - base_mix) * sum_k w_k * (vhat_k - base) over the
        # active anchors, summed in order from zeros, in place in arrays
        # allocated here: base and the vhats may be arrays an inner field
        # owns
        acc, dev = np.zeros_like(base), np.empty_like(base)
        for w, vhat in zip(self._weights, vhats):
            np.subtract(vhat, base, out=dev)
            dev *= w
            acc += dev
        acc *= self._anchor_share
        acc += base
        if not self._per_step:
            self._eval_ordinal += 1
        self.eval_counter += (1 if x.ndim == 1 else len(x)) * self._evals_per_call
        if self._bank is None:
            return acc
        return acc.T.reshape(x.shape)

