"""Cognitive space geometry: dimensions, score vectors, anchors, and the
multilinear interpolation weights over the unit hypercube.

Anchor ordering convention: anchor index k runs 1..2**n, with k-1 written
in binary using dimension 1 as the least significant bit. Everything that
zips weights against anchors or fields relies on this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, SpaceMismatchError

MAX_DIMENSIONS = 6  # 2**n anchors; full-average mode is impractical beyond this


@dataclass(frozen=True)
class DimensionSpec:
    """One cognitive dimension with human descriptions of its two poles."""

    name: str
    index: int  # 1-based position within the space
    low_pole_text: str = ""
    high_pole_text: str = ""

    def __post_init__(self):
        if not self.name:
            raise ContractViolation("dimension name must be nonempty")
        if self.index < 1:
            raise ContractViolation(f"dimension index must be >= 1, got {self.index}")

    def pole_text(self, pole: int) -> str:
        return self.high_pole_text if pole else self.low_pole_text


@dataclass(frozen=True)
class CognitiveSpace:
    """The unit hypercube [0, 1]**n whose axes are cognitive dimensions."""

    dimensions: tuple[DimensionSpec, ...]

    def __post_init__(self):
        n = len(self.dimensions)
        if not 1 <= n <= MAX_DIMENSIONS:
            raise ContractViolation(
                f"space must have between 1 and {MAX_DIMENSIONS} dimensions, got {n}"
            )
        names = [d.name for d in self.dimensions]
        if len(set(names)) != n:
            raise ContractViolation(f"dimension names must be unique, got {names}")
        indices = [d.index for d in self.dimensions]
        if indices != list(range(1, n + 1)):
            raise ContractViolation(
                f"dimension indices must be exactly 1..{n} in order, got {indices}"
            )

    @property
    def n(self) -> int:
        return len(self.dimensions)

    @classmethod
    def from_names(cls, *names: str) -> "CognitiveSpace":
        return cls(
            tuple(DimensionSpec(name=nm, index=i + 1) for i, nm in enumerate(names))
        )

    @classmethod
    def from_records(cls, records: list[dict]) -> "CognitiveSpace":
        """Build from config records [{name, low_pole_text, high_pole_text}, ...]."""
        dims = []
        for i, rec in enumerate(records):
            dims.append(
                DimensionSpec(
                    name=rec["name"],
                    index=i + 1,
                    low_pole_text=rec.get("low_pole_text", ""),
                    high_pole_text=rec.get("high_pole_text", ""),
                )
            )
        return cls(tuple(dims))

    def to_records(self) -> list[dict]:
        return [
            {
                "name": d.name,
                "low_pole_text": d.low_pole_text,
                "high_pole_text": d.high_pole_text,
            }
            for d in self.dimensions
        ]


@dataclass(frozen=True)
class ScoreVector:
    """A target profile: one intensity in [0, 1] per dimension."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for i, v in enumerate(self.values):
            # reject rather than clamp: out-of-range scores are caller bugs
            if not (0.0 <= v <= 1.0) or not np.isfinite(v):
                raise ContractViolation(
                    f"score component {i + 1} must be in [0, 1], got {v}"
                )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CognitiveAnchor:
    """A hypercube vertex: each dimension pinned to its 0 or 1 pole."""

    bits: tuple[int, ...]
    index: int = field(default=0)  # canonical k in 1..2**n; 0 means "derive"

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ContractViolation(f"anchor bits must be 0/1, got {bits}")
        object.__setattr__(self, "bits", bits)
        canonical = 1 + sum(b << i for i, b in enumerate(bits))
        if self.index == 0:
            object.__setattr__(self, "index", canonical)
        elif self.index != canonical:
            raise ContractViolation(
                f"anchor index {self.index} inconsistent with bits {bits} "
                f"(canonical index is {canonical})"
            )

    def __len__(self) -> int:
        return len(self.bits)


def enumerate_anchors(space: CognitiveSpace) -> list[CognitiveAnchor]:
    """All 2**n anchors in canonical order: k=1 all-zeros, k=2**n all-ones."""
    n = space.n
    return [
        CognitiveAnchor(bits=tuple((k >> i) & 1 for i in range(n)), index=k + 1)
        for k in range(1 << n)
    ]


def anchor_weight(score: ScoreVector, anchor: CognitiveAnchor) -> float:
    """Multilinear weight of one anchor: prod_i (s_i a_i + (1-a_i)(1-s_i)),
    the anchor's entry of weight_vector."""
    if len(score) != len(anchor):
        raise SpaceMismatchError(
            f"score has {len(score)} components but anchor has {len(anchor)}"
        )
    return float(weight_vector(score)[anchor.index - 1])


def weight_vector(score: ScoreVector, space: CognitiveSpace | None = None) -> np.ndarray:
    """Weights for all anchors in canonical order; a partition of unity.

    Each anchor's product runs over the dimensions in order. The score is
    checked against space when one is given.
    """
    if space is not None and len(score) != space.n:
        raise SpaceMismatchError(
            f"score has {len(score)} components but space has {space.n} dimensions"
        )
    n = len(score)
    s = np.asarray(score.values)
    # per-dimension factor table: row 0 is 1-s_i, row 1 is s_i
    factors = np.stack([1.0 - s, s])
    weights = np.ones(1 << n)
    for i in range(n):
        bit = (np.arange(1 << n) >> i) & 1
        weights *= factors[bit, i]
    return weights
