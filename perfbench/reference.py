"""Independent references the benchmark checks cogflow's outputs against.

Nothing here imports cogflow.semantics or cogflow.flow. The expected
endpoint map, the template rendering of every chain and the set of
distinct rewrite requests are worked out from the model's definition
(README, "Semantics" and "Polarization"). The initial states come from
cogflow.streams, whose contract is that sample i starts from a pure
function of (seed, i).

Dimensions are 0-based here; anchor k has bit i equal to (k >> i) & 1.
"""

from __future__ import annotations

import numpy as np


def anchors(n: int) -> list[tuple[int, ...]]:
    return [tuple((k >> i) & 1 for i in range(n)) for k in range(1 << n)]


def chain_order(n: int, start: int) -> list[int]:
    """Cyclic rewrite order of chain `start`: start, start+1, ... mod n."""
    return [(start + offset) % n for offset in range(n)]


def _tag(name: str, pole: int) -> str:
    return f"«{name}:{'+' if pole else '-'}»"


def _render(base: str, tags: list[str]) -> str:
    return f"{base} {''.join(tags)}" if tags else base


def render_chain(base: str, names: list[str], bits, start: int) -> str:
    """Template-backend result of one chain: the base, then one tag per
    dimension in the chain's order."""
    order = chain_order(len(names), start)
    return _render(base, [_tag(names[d], bits[d]) for d in order])


def rewrite_requests(base: str, names: list[str]) -> set[tuple[str, int, int]]:
    """Distinct (prompt, dimension, pole) requests of a full n-dimensional
    build: every anchor, every chain, every position."""
    n = len(names)
    requests = set()
    for bits in anchors(n):
        for start in range(n):
            tags: list[str] = []
            for d in chain_order(n, start):
                requests.add((_render(base, tags), d, bits[d]))
                tags.append(_tag(names[d], bits[d]))
    return requests


def chain_mean(bits, start: int, latent_dim: int, magnitude: float, bias: float):
    """Target mean of one chain under the template model with zero base
    mean and coordinate-axis directions: the tag at 1-based position p
    shifts its axis by sign * magnitude * (1 + bias * (p - (n+1)/2) / n)."""
    n = len(bits)
    mean = np.zeros(latent_dim)
    for pos, d in enumerate(chain_order(n, start), start=1):
        omega = 1.0 + bias * (pos - (n + 1) / 2.0) / n
        mean[d] += (1.0 if bits[d] else -1.0) * magnitude * omega
    return mean


def anchor_mean(bits, latent_dim: int, magnitude: float, bias: float):
    """Average of an anchor's n chain means."""
    n = len(bits)
    return np.mean(
        [chain_mean(bits, j, latent_dim, magnitude, bias) for j in range(n)], axis=0
    )


def anchor_weights(score) -> np.ndarray:
    """Multilinear weight of every anchor: prod_i (s_i if bit else 1 - s_i)."""
    n = len(score)
    return np.array(
        [
            np.prod([s if b else 1.0 - s for s, b in zip(score, bits)])
            for bits in anchors(n)
        ]
    )


def blend_mean(score, latent_dim: int, magnitude: float, bias: float, base_mix: float):
    """psi = base_mix * base_mean + (1 - base_mix) * sum_k w_k * anchor_mean_k,
    with a zero base mean.

    When every field shares one variance v, the full_average blend is the
    exact marginal field of N(psi, v I), whose flow map sends x0 to
    psi + sqrt(v) * x0.
    """
    weights = anchor_weights(score)
    means = [anchor_mean(bits, latent_dim, magnitude, bias) for bits in anchors(len(score))]
    return (1.0 - base_mix) * np.sum([w * m for w, m in zip(weights, means)], axis=0)


def initial_states(seed: int, count: int, dim: int) -> np.ndarray:
    """Standard-normal start of each sample, from the counter-based streams."""
    from cogflow import streams

    rows = streams.counter_hash(seed, streams.STREAM_SAMPLE_SEED, np.arange(count))
    return streams.standard_normal(
        rows[:, None], streams.STREAM_INIT_STATE, np.arange(dim)[None, :]
    )


def read_csv_rows(path) -> np.ndarray:
    """Numeric rows of a header-plus-rows CSV written with %.17g."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])
