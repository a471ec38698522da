import numpy as np
import pytest

from cogflow.cogspace import CognitiveSpace
from cogflow.semantics import SemanticModel, VelocityField


def make_space(n):
    return CognitiveSpace.from_names(*[f"d{i + 1}" for i in range(n)])


class ConstantField(VelocityField):
    """Test double: velocity independent of (x, t)."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.dim = self.value.shape[0]

    def eval(self, x, t):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.value.copy()
        return np.broadcast_to(self.value, x.shape).copy()


class StoredField(VelocityField):
    """Test double: returns the same stored array on every call."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.dim = self.value.shape[-1]

    def eval(self, x, t):
        return self.value


class DelegatingField(VelocityField):
    """Test double: forwards to an inner field. Its type is not a plain
    GaussianTargetField, so a blend over it takes the generic path."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def eval(self, x, t):
        return self.inner.eval(x, t)


@pytest.fixture
def space2() -> CognitiveSpace:
    return CognitiveSpace.from_names("valence", "arousal")


@pytest.fixture
def biased_model(space2) -> SemanticModel:
    return SemanticModel.for_space(
        space2, effect_magnitudes=1.5, position_bias=0.5, default_variance=0.6
    )
