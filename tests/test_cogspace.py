import numpy as np
import pytest

from cogflow.cogspace import (
    CognitiveAnchor,
    CognitiveSpace,
    DimensionSpec,
    ScoreVector,
    anchor_weight,
    enumerate_anchors,
    weight_vector,
)
from cogflow.errors import ContractViolation, SpaceMismatchError

from conftest import make_space


def test_enumerate_anchors_small_cases():
    assert [a.bits for a in enumerate_anchors(make_space(1))] == [(0,), (1,)]
    # dimension 1 is the least significant bit
    assert [a.bits for a in enumerate_anchors(make_space(2))] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    ]
    anchors3 = enumerate_anchors(make_space(3))
    assert len(anchors3) == 8
    assert anchors3[0].bits == (0, 0, 0)
    assert anchors3[-1].bits == (1, 1, 1)
    assert [a.index for a in anchors3] == list(range(1, 9))


def test_anchor_weight_center_symmetry():
    space = make_space(2)
    s = ScoreVector((0.5, 0.5))
    for anchor in enumerate_anchors(space):
        assert anchor_weight(s, anchor) == 0.25


def test_anchor_weight_vertex_delta():
    assert anchor_weight(ScoreVector((0.0, 0.0)), CognitiveAnchor((0, 0))) == 1.0
    assert anchor_weight(ScoreVector((0.0, 0.0)), CognitiveAnchor((1, 1))) == 0.0


def test_anchor_weight_hand_values():
    # hand-evaluated products for s=(0.3, 0.8):
    #   (1-.3)(1-.8)=.14  (.3)(1-.8)=.06  (1-.3)(.8)=.56  (.3)(.8)=.24
    s = ScoreVector((0.3, 0.8))
    expected = {(0, 0): 0.14, (1, 0): 0.06, (0, 1): 0.56, (1, 1): 0.24}
    for bits, want in expected.items():
        assert anchor_weight(s, CognitiveAnchor(bits)) == pytest.approx(want, abs=1e-15)


def test_weight_vector_matches_anchor_weight_and_sums_to_one():
    space = make_space(2)
    s = ScoreVector((0.3, 0.8))
    weights = weight_vector(s, space)
    assert weights == pytest.approx([0.14, 0.06, 0.56, 0.24], abs=1e-15)
    assert abs(weights.sum() - 1.0) <= 1e-12


def test_weight_vector_one_dimensional_interpolation():
    weights = weight_vector(ScoreVector((0.25,)), make_space(1))
    assert weights == pytest.approx([0.75, 0.25], abs=0)


def test_partition_of_unity_and_nonnegativity():
    rng = np.random.default_rng(42)
    for n in range(1, 5):
        space = make_space(n)
        for _ in range(500):
            s = ScoreVector(tuple(rng.uniform(0, 1, n)))
            weights = weight_vector(s, space)
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert weights.min() >= 0.0


def test_vertex_weights_are_exactly_one_hot():
    for n in range(1, 5):
        space = make_space(n)
        for anchor in enumerate_anchors(space):
            weights = weight_vector(ScoreVector(anchor.bits), space)
            expected = np.zeros(1 << n)
            expected[anchor.index - 1] = 1.0
            assert np.array_equal(weights, expected)


def test_multilinearity_along_each_axis():
    # affine in s_i: the midpoint weight equals the average of the endpoints
    rng = np.random.default_rng(3)
    space = make_space(3)
    for axis in range(3):
        base = rng.uniform(0, 1, 3)
        lo, hi = base.copy(), base.copy()
        lo[axis], hi[axis] = 0.2, 0.8
        mid = (lo + hi) / 2
        w_lo = weight_vector(ScoreVector(tuple(lo)), space)
        w_hi = weight_vector(ScoreVector(tuple(hi)), space)
        w_mid = weight_vector(ScoreVector(tuple(mid)), space)
        assert np.allclose(w_mid, (w_lo + w_hi) / 2, atol=1e-12, rtol=0)


def test_marginalization_over_one_bit():
    # collapsing the two anchors that differ only in bit i recovers the
    # (n-1)-dimensional weight of the remaining bits
    rng = np.random.default_rng(11)
    for n in range(2, 5):
        space = make_space(n)
        values = rng.uniform(0, 1, n)
        weights = weight_vector(ScoreVector(tuple(values)), space)
        for drop in range(n):
            reduced_space = make_space(n - 1)
            reduced_score = ScoreVector(
                tuple(v for i, v in enumerate(values) if i != drop)
            )
            reduced = weight_vector(reduced_score, reduced_space)
            for anchor in enumerate_anchors(reduced_space):
                paired = 0.0
                for bit in (0, 1):
                    bits = list(anchor.bits)
                    bits.insert(drop, bit)
                    paired += weights[CognitiveAnchor(tuple(bits)).index - 1]
                assert paired == pytest.approx(reduced[anchor.index - 1], abs=1e-12)


def test_score_validation_rejects_out_of_range():
    with pytest.raises(ContractViolation):
        ScoreVector((0.5, 1.2))
    with pytest.raises(ContractViolation):
        ScoreVector((-0.01,))
    with pytest.raises(ContractViolation):
        ScoreVector((float("nan"),))


def test_dimension_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        anchor_weight(ScoreVector((0.5,)), CognitiveAnchor((0, 1)))
    with pytest.raises(SpaceMismatchError):
        weight_vector(ScoreVector((0.5, 0.5, 0.5)), make_space(2))


def test_space_validation():
    with pytest.raises(ContractViolation):
        CognitiveSpace(dimensions=())
    with pytest.raises(ContractViolation):
        make_space(7)
    with pytest.raises(ContractViolation):
        CognitiveSpace(
            (DimensionSpec("a", 1), DimensionSpec("a", 2))
        )
    with pytest.raises(ContractViolation):
        CognitiveSpace(
            (DimensionSpec("a", 1), DimensionSpec("b", 3))
        )


def test_anchor_index_consistency():
    assert CognitiveAnchor((1, 0)).index == 2
    with pytest.raises(ContractViolation):
        CognitiveAnchor((1, 0), index=3)
    with pytest.raises(ContractViolation):
        CognitiveAnchor((2, 0))


def test_space_record_round_trip():
    space = CognitiveSpace.from_records(
        [
            {"name": "valence", "low_pole_text": "sad", "high_pole_text": "happy"},
            {"name": "arousal"},
        ]
    )
    assert space.n == 2
    assert space.dimensions[0].high_pole_text == "happy"
    assert CognitiveSpace.from_records(space.to_records()) == space
