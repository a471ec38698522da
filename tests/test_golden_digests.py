"""Golden digests of integrate() endpoints on Gaussian-bank blends.

The digests were recorded before the bank and the solver loop moved to
in-place, feature-major arithmetic; a change that alters any bit of the
sampler's output fails here. Every input is dyadic (x0, means,
variances, scores, base_mix, and stage times i/8 and i/8 + 1/16), so the
path uses only IEEE + - * / and exact squares, and the bits do not
depend on the platform's libm.
"""

import hashlib

import numpy as np
import pytest

from cogflow.blend import AnchorFields, BlendedField, BlendSpec
from cogflow.cogspace import ScoreVector, enumerate_anchors
from cogflow.flow import IntegrationConfig, integrate
from cogflow.semantics import GaussianTargetField

from conftest import make_space

DIM, ROWS, STEPS = 3, 8, 8
SCORES = (0.25, 0.75, 0.625, 0.375)


def dyadic_field(j):
    mean = [((3 * j + 5 * d) % 17 - 8) / 8 for d in range(DIM)]
    return GaussianTargetField(mean, (1 + j % 7) / 4)


def dyadic_spec(n, mode, draw_scope):
    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=dyadic_field(0),
        anchor_sets=tuple(
            AnchorFields(a, tuple(dyadic_field(1 + k * n + j) for j in range(n)))
            for k, a in enumerate(anchors)
        ),
        score=ScoreVector(SCORES[:n]),
        mode=mode,
        base_mix=0.375,
        draw_scope=draw_scope,
    )


def endpoint_digest(n, mode, draw_scope, solver):
    x0 = np.array([[((7 * r + 3 * d) % 13 - 6) / 4 for d in range(DIM)] for r in range(ROWS)])
    field = BlendedField(
        dyadic_spec(n, mode, draw_scope), np.arange(100, 100 + ROWS, dtype=np.uint64)
    )
    endpoint = integrate(field, x0, IntegrationConfig(solver, STEPS)).endpoint
    assert endpoint.shape == (ROWS, DIM)
    return hashlib.sha256(np.ascontiguousarray(endpoint, dtype="<f8").tobytes()).hexdigest()


GOLDEN = {
    (1, "stochastic", "per_eval", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "stochastic", "per_eval", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "stochastic", "per_eval", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (1, "stochastic", "per_step", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "stochastic", "per_step", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "stochastic", "per_step", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (1, "full_average", "per_eval", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "full_average", "per_eval", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "full_average", "per_eval", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (1, "full_average", "per_step", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "full_average", "per_step", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "full_average", "per_step", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (2, "stochastic", "per_eval", "euler"): "fcf8db4583797242f9776ebf38caa75cb2a41fc7bc54b1509a91d7ca927c9a8e",
    (2, "stochastic", "per_eval", "midpoint"): "c0df50968c1629de2f17e0e2c3a636d10002866380d597ac0c4a3852554f2ae1",
    (2, "stochastic", "per_eval", "rk4"): "33bd382174973d528e86b2733fc6f823f6f12edf4e266dfc5e5bd7764abea22a",
    (2, "stochastic", "per_step", "euler"): "fcf8db4583797242f9776ebf38caa75cb2a41fc7bc54b1509a91d7ca927c9a8e",
    (2, "stochastic", "per_step", "midpoint"): "b615ec7c02d3037f6569a065d0c5cfee1627acc51a2187cf02175b794fac1e77",
    (2, "stochastic", "per_step", "rk4"): "5498f32fc988ef9c52eae7e5b0d0823743a4805221111f92baea520bf22d4768",
    (2, "full_average", "per_eval", "euler"): "888546a2b9e8ae76fd6d8b6ccfcc9080d151374a981184a13e643a0c2b8ac245",
    (2, "full_average", "per_eval", "midpoint"): "00e3be7dab0c2bfe149aa770c1cc5be6b9b0c68aa52fa2abbc3d528f4d3c85de",
    (2, "full_average", "per_eval", "rk4"): "4eb023523dfaadb701e01e26113383db947e791c3c82d2d32d144cf1b8ef8321",
    (2, "full_average", "per_step", "euler"): "888546a2b9e8ae76fd6d8b6ccfcc9080d151374a981184a13e643a0c2b8ac245",
    (2, "full_average", "per_step", "midpoint"): "00e3be7dab0c2bfe149aa770c1cc5be6b9b0c68aa52fa2abbc3d528f4d3c85de",
    (2, "full_average", "per_step", "rk4"): "4eb023523dfaadb701e01e26113383db947e791c3c82d2d32d144cf1b8ef8321",
    (3, "stochastic", "per_eval", "euler"): "7da0fe4f6d8a5532d47858dba8a0e4756038a5d3ce85befbb906d6fa2c08b702",
    (3, "stochastic", "per_eval", "midpoint"): "993eaecd103a9c8e15c4895cfc2ca67917e1558ed0f9ebe4bdef440d87ba3f94",
    (3, "stochastic", "per_eval", "rk4"): "3d8f9be3ea4dc0b8701ffca3d3133295792f42d6943e64dccaa2c8da668645e5",
    (3, "stochastic", "per_step", "euler"): "7da0fe4f6d8a5532d47858dba8a0e4756038a5d3ce85befbb906d6fa2c08b702",
    (3, "stochastic", "per_step", "midpoint"): "e5e7f593609259fbd27eb617e0d32b9655e275ed870940fabcd372faefd9c15c",
    (3, "stochastic", "per_step", "rk4"): "9072a17dda9037cd7d0865b9048ecd486243553eae2bbc9e28051040d9096335",
    (3, "full_average", "per_eval", "euler"): "5120180efc21e78d3a8ab1744f2afd3319cd1a0472658eaf54faf74ea1fe98d6",
    (3, "full_average", "per_eval", "midpoint"): "7cf74e578f2f9eec61a3d2ea8a478df62f7101f82a5d900e840f55b2d47b1703",
    (3, "full_average", "per_eval", "rk4"): "31e5cb1d98dddfe18b89e1f66ce5ce7b0ea7ff287061ebf23a36e3cbab27616e",
    (3, "full_average", "per_step", "euler"): "5120180efc21e78d3a8ab1744f2afd3319cd1a0472658eaf54faf74ea1fe98d6",
    (3, "full_average", "per_step", "midpoint"): "7cf74e578f2f9eec61a3d2ea8a478df62f7101f82a5d900e840f55b2d47b1703",
    (3, "full_average", "per_step", "rk4"): "31e5cb1d98dddfe18b89e1f66ce5ce7b0ea7ff287061ebf23a36e3cbab27616e",
    (4, "stochastic", "per_eval", "euler"): "920b145ec12180241f2d9831bff94e614c511ab1e89b6763c69adc563db226e5",
    (4, "stochastic", "per_eval", "midpoint"): "8243db422f29616a2f82fc3292e149a4e814b81d8d2f470d83c2f9e6d30d8a36",
    (4, "stochastic", "per_eval", "rk4"): "4442c50383e4df9b609178299f63d5d7a43ec3165da2586cfdf25fba3b084f56",
    (4, "stochastic", "per_step", "euler"): "920b145ec12180241f2d9831bff94e614c511ab1e89b6763c69adc563db226e5",
    (4, "stochastic", "per_step", "midpoint"): "377fedcb5ad8d497aa1481f5a9812ca94e9e837bf0b3f4a645fc83808f57b1eb",
    (4, "stochastic", "per_step", "rk4"): "2bfbcd2914556d789388b20639920d8db95a9b4c2446de2cb82d00b174ebdeb5",
    (4, "full_average", "per_eval", "euler"): "6f69d99554f734fbe05f035d36633c1e32e325f70f4591e7196a758e7716761b",
    (4, "full_average", "per_eval", "midpoint"): "c5b98bc7ef5e3f0720e43c66e1979602f4458a622733f0c1f07a533afbefbe89",
    (4, "full_average", "per_eval", "rk4"): "c7872d8caa14f1ccb1be55cd6c125ba56988de644be7cfcce3712749a34ce032",
    (4, "full_average", "per_step", "euler"): "6f69d99554f734fbe05f035d36633c1e32e325f70f4591e7196a758e7716761b",
    (4, "full_average", "per_step", "midpoint"): "c5b98bc7ef5e3f0720e43c66e1979602f4458a622733f0c1f07a533afbefbe89",
    (4, "full_average", "per_step", "rk4"): "c7872d8caa14f1ccb1be55cd6c125ba56988de644be7cfcce3712749a34ce032",
}


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_endpoint_matches_golden_digest(n, mode, draw_scope, solver):
    assert endpoint_digest(n, mode, draw_scope, solver) == GOLDEN[n, mode, draw_scope, solver]
