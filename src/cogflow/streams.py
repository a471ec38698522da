"""Counter-based deterministic random streams.

Every draw is a pure function of its integer counters, so results are
reproducible and independent of evaluation order, batching, or thread
scheduling. The generator is a splitmix64-style avalanche applied to a
fold over the counters; each counter may be a scalar or an integer
ndarray, and outputs broadcast accordingly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_FOLD_SEED = np.uint64(0x8EF827D8B29AA77D)
_INV_2_53 = 1.0 / (1 << 53)

# Stream tags keep draws for different purposes disjoint even when the
# remaining counters coincide.
STREAM_SAMPLE_SEED = 1
STREAM_INIT_STATE = 2
STREAM_CHAIN_DRAW = 3


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.asarray(int(value) & _MASK64, dtype=np.uint64)
    return np.asarray(value).astype(np.uint64, copy=False)


def _avalanche(h: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def counter_hash(*counters) -> np.ndarray:
    """Hash one or more integer counters (scalars or arrays) to uint64."""
    # modular uint64 wraparound is the point; silence overflow warnings
    with np.errstate(over="ignore"):
        h = np.asarray(_FOLD_SEED)
        for c in counters:
            h = _avalanche((h * _GOLDEN) ^ _as_u64(c))
        return _avalanche(h * _GOLDEN)


def derive_seed(*counters) -> int:
    """Scalar convenience: a derived 64-bit sub-seed."""
    return int(counter_hash(*counters))


def uniform(*counters) -> np.ndarray:
    """Uniform float64 draws in [0, 1), one per broadcast counter tuple."""
    return (counter_hash(*counters) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def standard_normal(*counters) -> np.ndarray:
    """Standard normal draws via Box-Muller on two sub-streams."""
    # u1 in (0, 1] so the log is finite
    u1 = ((counter_hash(*counters, 0) >> np.uint64(11)) + np.uint64(1)).astype(
        np.float64
    ) * _INV_2_53
    u2 = uniform(*counters, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def randbelow(bound: int, *counters) -> np.ndarray:
    """Integer draws in [0, bound). Modulo bias is < bound / 2**64."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return (counter_hash(*counters) % np.uint64(bound)).astype(np.int64)
