"""The blended sampler against a plain reference of the paper's estimator.

The reference evaluates the blend as written,

    v = base_mix * v_base + (1 - base_mix) * sum_k w_k * vhat_k,

with w_k the left-to-right product of s_i or 1 - s_i, vhat_k the mean
of anchor k's chain fields (full_average) or the chain j drawn for the
row (stochastic), and a textbook solver loop that counts its own
evaluations. The draw for row r, anchor k at the e-th evaluation of a
run, every solver stage counted, is

    j = randbelow(n, seed_r, STREAM_CHAIN_DRAW, e, k),

hashed from the plain counter tuple. Nothing of the field's bank, chain
draws, skipped anchors or deviation sums is used, so the sums may differ
from the field's in the last bits and the comparison has a tolerance.
A field that reused one draw across a step's stages, started its count
anywhere but 0, or counted evaluations of another field would miss the
reference at n >= 2 for midpoint and rk4. At n = 1 a face score is a
vertex.
"""

import numpy as np
import pytest

from cogflow import streams
from cogflow.blend import AnchorFields, BlendedField, BlendSpec
from cogflow.cogspace import ScoreVector, enumerate_anchors
from cogflow.flow import IntegrationConfig, integrate
from cogflow.semantics import GaussianTargetField

from conftest import DelegatingField, make_space

DIM, ROWS = 3, 6
SCORES = {
    "interior": (0.7, 0.2, 0.45, 0.9),
    "face": (1.0, 0.2, 0.45, 0.0),
    "vertex": (1.0, 0.0, 1.0, 1.0),
}
WRAPS = {"bank": lambda f: f, "generic": DelegatingField}


def make_spec(n, mode, where, path):
    """Chains of one anchor differ in mean and variance, so each draw matters."""
    rng = np.random.default_rng(n)
    wrap = WRAPS[path]

    def field():
        return wrap(GaussianTargetField(rng.normal(size=DIM), rng.uniform(0.05, 3.0)))

    return BlendSpec(
        base_field=field(),
        anchor_sets=tuple(
            AnchorFields(anchor=a, chain_fields=tuple(field() for _ in range(n)))
            for a in enumerate_anchors(make_space(n))
        ),
        score=ScoreVector(SCORES[where][:n]),
        mode=mode,
        base_mix=0.375,
    )


class ReferenceBlend:
    """The blend as the paper writes it; counts its own evaluations."""

    def __init__(self, spec, seeds):
        self.spec = spec
        self.seeds = seeds
        self.evaluations = 0

    def weight(self, anchor):
        w = 1.0
        for s, bit in zip(self.spec.score.values, anchor.bits):
            w *= s if bit else 1.0 - s
        return w

    def anchor_velocity(self, entry, k, x, t):
        chains = entry.chain_fields
        if self.spec.mode == "full_average":
            return sum(f.eval(x, t) for f in chains) / len(chains)
        draws = [
            int(streams.randbelow(
                len(chains), int(seed), streams.STREAM_CHAIN_DRAW, self.evaluations, k
            ))
            for seed in self.seeds
        ]
        return np.stack([chains[j].eval(row, t) for j, row in zip(draws, x)])

    def eval(self, x, t):
        total = np.zeros_like(x)
        for k, entry in enumerate(self.spec.anchor_sets):
            total = total + self.weight(entry.anchor) * self.anchor_velocity(entry, k, x, t)
        self.evaluations += 1
        mix = self.spec.base_mix
        return mix * self.spec.base_field.eval(x, t) + (1.0 - mix) * total


def reference_endpoint(field, x0, solver, n_steps):
    x = np.array(x0, dtype=float)
    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i / n_steps
        t_mid, t_next = t + 0.5 * h, (i + 1) / n_steps
        if solver == "euler":
            x = x + h * field.eval(x, t)
        elif solver == "midpoint":
            k1 = field.eval(x, t)
            x = x + h * field.eval(x + 0.5 * h * k1, t_mid)
        else:
            k1 = field.eval(x, t)
            k2 = field.eval(x + 0.5 * h * k1, t_mid)
            k3 = field.eval(x + 0.5 * h * k2, t_mid)
            k4 = field.eval(x + h * k3, t_next)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("where", ["interior", "face", "vertex"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
def test_integrate_matches_the_reference_sampler(mode, where, n, solver, steps, path):
    spec = make_spec(n, mode, where, path)
    seeds = np.arange(40, 40 + ROWS, dtype=np.uint64)
    x0 = np.random.default_rng(100 + n).normal(size=(ROWS, DIM))
    field = BlendedField(spec, seeds)
    got = integrate(field, x0, IntegrationConfig(solver, steps)).endpoint
    reference = ReferenceBlend(spec, seeds)
    want = reference_endpoint(reference, x0, solver, steps)
    stages = {"euler": 1, "midpoint": 2, "rk4": 4}[solver]
    assert reference.evaluations == steps * stages
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
