"""Golden digests of integrate() endpoints and trajectories.

The endpoint digests were recorded before the bank and the solver loop
moved to in-place, feature-major arithmetic, and the trajectory digests
before the Gaussian bank's layout became private to BlendedField, and
the boundary digests (face and vertex scores, where some anchors have
weight exactly 0) before the blend stopped evaluating those anchors; a
change that alters any bit of the sampler's output fails here. The
generic path (inner fields wrapped so that no bank is built) must give
the same digests as the bank path. Every input is dyadic (x0, means,
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

from conftest import DelegatingField, make_space

DIM, ROWS, STEPS = 3, 8, 8
SCORES = (0.25, 0.75, 0.625, 0.375)
# on the cube's boundary some anchor weights are exactly 0: on a face
# (a vertex at n = 1, an edge at n = 3) and at a vertex, where one
# anchor alone has weight 1
BOUNDARY_SCORES = {"face": (0.0, 0.75, 1.0, 0.375), "vertex": (1.0, 0.0, 1.0, 1.0)}


def dyadic_field(j, wrap):
    mean = [((3 * j + 5 * d) % 17 - 8) / 8 for d in range(DIM)]
    return wrap(GaussianTargetField(mean, (1 + j % 7) / 4))


def dyadic_spec(n, mode, draw_scope, wrap, scores=SCORES):
    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=dyadic_field(0, wrap),
        anchor_sets=tuple(
            AnchorFields(a, tuple(dyadic_field(1 + k * n + j, wrap) for j in range(n)))
            for k, a in enumerate(anchors)
        ),
        score=ScoreVector(scores[:n]),
        mode=mode,
        base_mix=0.375,
        draw_scope=draw_scope,
    )


WRAPS = {"bank": lambda f: f, "generic": DelegatingField}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def run(n, mode, draw_scope, solver, path="bank", record_trajectory=False, scores=SCORES):
    x0 = np.array([[((7 * r + 3 * d) % 13 - 6) / 4 for d in range(DIM)] for r in range(ROWS)])
    field = BlendedField(
        dyadic_spec(n, mode, draw_scope, WRAPS[path], scores),
        np.arange(100, 100 + ROWS, dtype=np.uint64),
    )
    assert (field._bank is not None) == (path == "bank")
    config = IntegrationConfig(solver, STEPS, record_trajectory=record_trajectory)
    result = integrate(field, x0, config)
    assert result.endpoint.shape == (ROWS, DIM)
    return result


def endpoint_digest(n, mode, draw_scope, solver, path="bank", scores=SCORES):
    return digest(run(n, mode, draw_scope, solver, path, scores=scores).endpoint)


def trajectory_digest(n, mode, draw_scope, solver, path):
    trajectory = run(n, mode, draw_scope, solver, path, record_trajectory=True).trajectory
    assert trajectory.shape == (STEPS + 1, ROWS, DIM)
    return digest(trajectory)


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


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_path_endpoint_matches_golden_digest(n, mode, draw_scope, solver):
    got = endpoint_digest(n, mode, draw_scope, solver, path="generic")
    assert got == GOLDEN[n, mode, draw_scope, solver]


TRAJECTORY_GOLDEN = {
    (1, "stochastic", "per_eval", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "stochastic", "per_eval", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "stochastic", "per_eval", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (1, "stochastic", "per_step", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "stochastic", "per_step", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "stochastic", "per_step", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (1, "full_average", "per_eval", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "full_average", "per_eval", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "full_average", "per_eval", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (1, "full_average", "per_step", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "full_average", "per_step", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "full_average", "per_step", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (2, "stochastic", "per_eval", "euler"): "0727a0d451d82cfc9d065bc8462800fe340e72a0dff353b4139186fc4e10340f",
    (2, "stochastic", "per_eval", "midpoint"): "825ebd3b1be75e7549fadef3e7666f518373b63b62cd2e5984d0e104ca149cf2",
    (2, "stochastic", "per_eval", "rk4"): "9af35a74e44ea5cdcbee99329e22304ff5008a187d8050d13f8fb423b4a2d85e",
    (2, "stochastic", "per_step", "euler"): "0727a0d451d82cfc9d065bc8462800fe340e72a0dff353b4139186fc4e10340f",
    (2, "stochastic", "per_step", "midpoint"): "ed9817fe0f146061fa6252c432058dae8765b81bdec376fb8bc38a11ef81b97a",
    (2, "stochastic", "per_step", "rk4"): "2369dcce57418ec43bef6e062bb5eeca9f686b95fe273c068ba41f0d6a72aebb",
    (2, "full_average", "per_eval", "euler"): "4ebeae317763e7b5e9fd2a93e5de233392d740b7c4f69bc525683f82f7ce6ca7",
    (2, "full_average", "per_eval", "midpoint"): "6835c45bdaddfe01ae4ea1756678d96e0c480b9fdf06d7ea37c38ed0da3467ab",
    (2, "full_average", "per_eval", "rk4"): "5f3f371ff2d3bbd546d3459bd35df2a4b98c4dec165c8239fa357babffa1ec6f",
    (2, "full_average", "per_step", "euler"): "4ebeae317763e7b5e9fd2a93e5de233392d740b7c4f69bc525683f82f7ce6ca7",
    (2, "full_average", "per_step", "midpoint"): "6835c45bdaddfe01ae4ea1756678d96e0c480b9fdf06d7ea37c38ed0da3467ab",
    (2, "full_average", "per_step", "rk4"): "5f3f371ff2d3bbd546d3459bd35df2a4b98c4dec165c8239fa357babffa1ec6f",
    (3, "stochastic", "per_eval", "euler"): "d5a193aa10288ca269843edf28a4c7a2ce0ad6f3ceceb2582e39ec030b577cae",
    (3, "stochastic", "per_eval", "midpoint"): "e0817f42658b5fb6ca229e19aa52d991b84633d726ba6c2fdea0b0e64de5747b",
    (3, "stochastic", "per_eval", "rk4"): "f3826d78f18daed4f3b8664c4987a04aaac8a9d47c172ababe4a33574dbb11aa",
    (3, "stochastic", "per_step", "euler"): "d5a193aa10288ca269843edf28a4c7a2ce0ad6f3ceceb2582e39ec030b577cae",
    (3, "stochastic", "per_step", "midpoint"): "8736a41ef16ffe26330892b9336a6ebf0bb8c95d060dfb6f1b0f20f3feb6dd0a",
    (3, "stochastic", "per_step", "rk4"): "3fbb8064f17887c1dbe6b2225529180ccbef44cb0bfdf13bb5b22c9cbc7a9176",
    (3, "full_average", "per_eval", "euler"): "98650f194180a19f6191325fe02c83dc512dec072e3c894c524dfee16f0a1571",
    (3, "full_average", "per_eval", "midpoint"): "57c90895be66d7cc11551fe3202826ab12561e58311a272914818e233da4a4ae",
    (3, "full_average", "per_eval", "rk4"): "0795388e65f4cfda13e9ff34c8eb20f7d893d293d068d72551fb1a8562ffaa92",
    (3, "full_average", "per_step", "euler"): "98650f194180a19f6191325fe02c83dc512dec072e3c894c524dfee16f0a1571",
    (3, "full_average", "per_step", "midpoint"): "57c90895be66d7cc11551fe3202826ab12561e58311a272914818e233da4a4ae",
    (3, "full_average", "per_step", "rk4"): "0795388e65f4cfda13e9ff34c8eb20f7d893d293d068d72551fb1a8562ffaa92",
    (4, "stochastic", "per_eval", "euler"): "3e87826a214d69188385bda0876e2022eef0ef165b3d67084efd1e5ccbc441b3",
    (4, "stochastic", "per_eval", "midpoint"): "1f885bccb368a48f567aed8437ead14e5347fa70d6e30098503cd145b11b855a",
    (4, "stochastic", "per_eval", "rk4"): "0400455e1c25e3d4ced7ae84195ec8330e3da6f08da292938505b34a3d9496d4",
    (4, "stochastic", "per_step", "euler"): "3e87826a214d69188385bda0876e2022eef0ef165b3d67084efd1e5ccbc441b3",
    (4, "stochastic", "per_step", "midpoint"): "88943905d6434893507cad825c72ef11fd17f6f6da94de70d0b38ca7cacb3d3f",
    (4, "stochastic", "per_step", "rk4"): "2feaa1e4ef846fa81ded946e7b975e973cff504300ed68a4dc03b33f8e7e4d98",
    (4, "full_average", "per_eval", "euler"): "7de51d22e84df5d8150075ac3694d92255d27d1b39420cc6dddd251c812a66a7",
    (4, "full_average", "per_eval", "midpoint"): "74c87a467aa6525104d3800612423be6702815e6a6cf9b4b84554c2155b58ea8",
    (4, "full_average", "per_eval", "rk4"): "9d5b7f126eb1044e760e99bdd96b2801e30f0b180624aa0aed9a421d59014554",
    (4, "full_average", "per_step", "euler"): "7de51d22e84df5d8150075ac3694d92255d27d1b39420cc6dddd251c812a66a7",
    (4, "full_average", "per_step", "midpoint"): "74c87a467aa6525104d3800612423be6702815e6a6cf9b4b84554c2155b58ea8",
    (4, "full_average", "per_step", "rk4"): "9d5b7f126eb1044e760e99bdd96b2801e30f0b180624aa0aed9a421d59014554",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_trajectory_matches_golden_digest(n, mode, draw_scope, solver, path):
    got = trajectory_digest(n, mode, draw_scope, solver, path)
    assert got == TRAJECTORY_GOLDEN[n, mode, draw_scope, solver]


BOUNDARY_GOLDEN = {
    ("face", 1, "stochastic", "per_eval", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "stochastic", "per_eval", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "stochastic", "per_eval", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 1, "stochastic", "per_step", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "stochastic", "per_step", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "stochastic", "per_step", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 1, "full_average", "per_eval", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "full_average", "per_eval", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "full_average", "per_eval", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 1, "full_average", "per_step", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "full_average", "per_step", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "full_average", "per_step", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 2, "stochastic", "per_eval", "euler"): "ed561c652d4568a92e6c5a97d8c51595bab4ec9753743277be580ed67975a3a3",
    ("face", 2, "stochastic", "per_eval", "midpoint"): "be4362ae7471021b49496852884903b1fe65ac4011b229a9f1a784a12aa7e810",
    ("face", 2, "stochastic", "per_eval", "rk4"): "bf762b38f5c6bc581a1fa2cc6cafa59439f7ed6cfb7a4ec9e422b70754fd662b",
    ("face", 2, "stochastic", "per_step", "euler"): "ed561c652d4568a92e6c5a97d8c51595bab4ec9753743277be580ed67975a3a3",
    ("face", 2, "stochastic", "per_step", "midpoint"): "55fc5c783011fbc07047bf784b01cb39d8702cfe3b78bbdd8272766a059885a0",
    ("face", 2, "stochastic", "per_step", "rk4"): "7bcc335f6782f6ea1c5c9222e7edd68bb99cc1d16a719345a90cab02ee6f27df",
    ("face", 2, "full_average", "per_eval", "euler"): "fad87ff56773141c9e46bfc5a4f08936dc37509f644e765f88c284d5bcde2bba",
    ("face", 2, "full_average", "per_eval", "midpoint"): "2f4733b56a0fca02502013a66ea83042d5e6e0e4fdf9cbf0100ccb1810b3f55b",
    ("face", 2, "full_average", "per_eval", "rk4"): "8afafe72f7954b5ec47dc17f274810b22e07a989c35fbf89e063e91132d8832a",
    ("face", 2, "full_average", "per_step", "euler"): "fad87ff56773141c9e46bfc5a4f08936dc37509f644e765f88c284d5bcde2bba",
    ("face", 2, "full_average", "per_step", "midpoint"): "2f4733b56a0fca02502013a66ea83042d5e6e0e4fdf9cbf0100ccb1810b3f55b",
    ("face", 2, "full_average", "per_step", "rk4"): "8afafe72f7954b5ec47dc17f274810b22e07a989c35fbf89e063e91132d8832a",
    ("face", 3, "stochastic", "per_eval", "euler"): "536a9ede4404529175c4eb1531f74def99b2d6405267e44e1203976ff981b4be",
    ("face", 3, "stochastic", "per_eval", "midpoint"): "c6b0d0305df62f4864394ac5cce86814327b24743e9aa97250a668e6531f53de",
    ("face", 3, "stochastic", "per_eval", "rk4"): "895832c91186dea80dd16b0f9bcac3e3cb3db275943254152dbd5ce2c2fc970e",
    ("face", 3, "stochastic", "per_step", "euler"): "536a9ede4404529175c4eb1531f74def99b2d6405267e44e1203976ff981b4be",
    ("face", 3, "stochastic", "per_step", "midpoint"): "bd062fcc3c87403a09bbd5262b2da5472173e8a375deb7e3bcfaa85919a2cbbe",
    ("face", 3, "stochastic", "per_step", "rk4"): "8dc26a10f76bd33c7266647275b8daf9f5070c1d5daa0990d6e6af5cdf8b5964",
    ("face", 3, "full_average", "per_eval", "euler"): "d392fc09adb41ab5abbabca16b6d3179d4740e14550d1334a23d6132fe18725d",
    ("face", 3, "full_average", "per_eval", "midpoint"): "403e981345f783719e5bc805cbf40c85ca428778a7e21dc70a4ebb730a13cc51",
    ("face", 3, "full_average", "per_eval", "rk4"): "69ffb5ec35bd3bd82ee9f7d30ce0697f8bddcacfbeadf60d0e8e80bf9c9d3596",
    ("face", 3, "full_average", "per_step", "euler"): "d392fc09adb41ab5abbabca16b6d3179d4740e14550d1334a23d6132fe18725d",
    ("face", 3, "full_average", "per_step", "midpoint"): "403e981345f783719e5bc805cbf40c85ca428778a7e21dc70a4ebb730a13cc51",
    ("face", 3, "full_average", "per_step", "rk4"): "69ffb5ec35bd3bd82ee9f7d30ce0697f8bddcacfbeadf60d0e8e80bf9c9d3596",
    ("face", 4, "stochastic", "per_eval", "euler"): "547c74c82eed3122c9cf0bdaeac255fba9638b4109f8489879e06d1e73695241",
    ("face", 4, "stochastic", "per_eval", "midpoint"): "93129a5e1447c610e5dd2ac4339d27aa647b92f7738d57de6642f05d6421c484",
    ("face", 4, "stochastic", "per_eval", "rk4"): "9968e69d2a51b681875d4c58e923ecec1be42655faf78d9805d88a41c73636c6",
    ("face", 4, "stochastic", "per_step", "euler"): "547c74c82eed3122c9cf0bdaeac255fba9638b4109f8489879e06d1e73695241",
    ("face", 4, "stochastic", "per_step", "midpoint"): "59389daeec2597f5cc69d653a68b271ae657c20d987a16092cbb195ee4116344",
    ("face", 4, "stochastic", "per_step", "rk4"): "e183c08bfd3f6a9a6ade735386465b9613f2c24757a9fe78ad9985dcd6679e21",
    ("face", 4, "full_average", "per_eval", "euler"): "c746be3f2ebf5c5410b851994e85a7c6201ca33b0f5ed768634e807d8a939386",
    ("face", 4, "full_average", "per_eval", "midpoint"): "422e8233855d69771e10de3ab18558a1cc4af83235b66a8dab20cbff242bcdae",
    ("face", 4, "full_average", "per_eval", "rk4"): "5395f561776a55436b2319633c943c739a71a4d2b0dec24b6c61c536c7530754",
    ("face", 4, "full_average", "per_step", "euler"): "c746be3f2ebf5c5410b851994e85a7c6201ca33b0f5ed768634e807d8a939386",
    ("face", 4, "full_average", "per_step", "midpoint"): "422e8233855d69771e10de3ab18558a1cc4af83235b66a8dab20cbff242bcdae",
    ("face", 4, "full_average", "per_step", "rk4"): "5395f561776a55436b2319633c943c739a71a4d2b0dec24b6c61c536c7530754",
    ("vertex", 1, "stochastic", "per_eval", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "stochastic", "per_eval", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "stochastic", "per_eval", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 1, "stochastic", "per_step", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "stochastic", "per_step", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "stochastic", "per_step", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 1, "full_average", "per_eval", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "full_average", "per_eval", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "full_average", "per_eval", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 1, "full_average", "per_step", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "full_average", "per_step", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "full_average", "per_step", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 2, "stochastic", "per_eval", "euler"): "f441a7c6956a23469ff74ba22e22f93e9c48529b5649c2e31cf1d394a82b890a",
    ("vertex", 2, "stochastic", "per_eval", "midpoint"): "9b8207646d8ed417ae9f98eec6e50f47fca26ca9dd733af05b6784444de8f8ec",
    ("vertex", 2, "stochastic", "per_eval", "rk4"): "0bf056676b0d1affb5b97b84f00aa24931ec320cf14d55d1acba40c33debf47d",
    ("vertex", 2, "stochastic", "per_step", "euler"): "f441a7c6956a23469ff74ba22e22f93e9c48529b5649c2e31cf1d394a82b890a",
    ("vertex", 2, "stochastic", "per_step", "midpoint"): "aaff9cc64f54bbac337108f395ec27650b4bcc36394f70c6dbcdec24c5827874",
    ("vertex", 2, "stochastic", "per_step", "rk4"): "9b226e3386eb85b1ee24206ab605c755adfaca0b5e7417a06ad3553c4b1eaf1e",
    ("vertex", 2, "full_average", "per_eval", "euler"): "a52ce3a3f76025b0b879fa5d8f7dda6a646505e8f2d223e9af5aa58f7c3ba9f0",
    ("vertex", 2, "full_average", "per_eval", "midpoint"): "5b4b22487df5a2b7c3989eaac6e856b6623402adb1d5c047cf5e93ed62a4e4cd",
    ("vertex", 2, "full_average", "per_eval", "rk4"): "adf377ff139c362bc215f0a64b05e5c82e8886df7c0af4a1137807304ff7d95d",
    ("vertex", 2, "full_average", "per_step", "euler"): "a52ce3a3f76025b0b879fa5d8f7dda6a646505e8f2d223e9af5aa58f7c3ba9f0",
    ("vertex", 2, "full_average", "per_step", "midpoint"): "5b4b22487df5a2b7c3989eaac6e856b6623402adb1d5c047cf5e93ed62a4e4cd",
    ("vertex", 2, "full_average", "per_step", "rk4"): "adf377ff139c362bc215f0a64b05e5c82e8886df7c0af4a1137807304ff7d95d",
    ("vertex", 3, "stochastic", "per_eval", "euler"): "48bcf13dfd7ebc24205bdb3b5f392e79ab63281688a04a13fe73d599fe37c0b5",
    ("vertex", 3, "stochastic", "per_eval", "midpoint"): "a90a27bf0c4fde7b3c8ed0c5493ec4d51e44419cb3ca8f4ccd429b3da2637ee2",
    ("vertex", 3, "stochastic", "per_eval", "rk4"): "b14837d075979240cc43276574b4ef2030e60a7d80ade28029e2e3128a563a1b",
    ("vertex", 3, "stochastic", "per_step", "euler"): "48bcf13dfd7ebc24205bdb3b5f392e79ab63281688a04a13fe73d599fe37c0b5",
    ("vertex", 3, "stochastic", "per_step", "midpoint"): "dd0022388ac20f0148a1d0e160335f1942d7d4bd04b28c9af92d2bf398199302",
    ("vertex", 3, "stochastic", "per_step", "rk4"): "08078d8475febcfa8aee1d54c411353252b8a46f49643b3e22ec3f97f856e532",
    ("vertex", 3, "full_average", "per_eval", "euler"): "1a81c3a8b2ac209703815d714439eba1105d6c9376b9e0d3c4399a86dae58530",
    ("vertex", 3, "full_average", "per_eval", "midpoint"): "26f294564c2090ca3673e6eb0f55759ac97dce16121eca6f2b6c5b549c7ce496",
    ("vertex", 3, "full_average", "per_eval", "rk4"): "1bbbf9ede890894cb95ede6bd83721c38affcfd81745ef2eb751e4cde39bc291",
    ("vertex", 3, "full_average", "per_step", "euler"): "1a81c3a8b2ac209703815d714439eba1105d6c9376b9e0d3c4399a86dae58530",
    ("vertex", 3, "full_average", "per_step", "midpoint"): "26f294564c2090ca3673e6eb0f55759ac97dce16121eca6f2b6c5b549c7ce496",
    ("vertex", 3, "full_average", "per_step", "rk4"): "1bbbf9ede890894cb95ede6bd83721c38affcfd81745ef2eb751e4cde39bc291",
    ("vertex", 4, "stochastic", "per_eval", "euler"): "cae582da7ebc7a389ffcfbd6daa7363716dc09e5e6659ab92042396b4ad466ae",
    ("vertex", 4, "stochastic", "per_eval", "midpoint"): "a25e3476dd247e9a541557a855d90b4a233861b9ae357729cdcb1f85418896cf",
    ("vertex", 4, "stochastic", "per_eval", "rk4"): "c82ae4fe09d594cafd2d28c97ae5c7506074796cb5d01dc31cb09dcfbda2605c",
    ("vertex", 4, "stochastic", "per_step", "euler"): "cae582da7ebc7a389ffcfbd6daa7363716dc09e5e6659ab92042396b4ad466ae",
    ("vertex", 4, "stochastic", "per_step", "midpoint"): "a9455eda53ffa0236797ca504b85dfaa0039a55cc182ab9803b17dc9972d1286",
    ("vertex", 4, "stochastic", "per_step", "rk4"): "c564ee599503285b657a1b7a53ad3241ea865c462aa61b0dbdbaadca04e5fc7b",
    ("vertex", 4, "full_average", "per_eval", "euler"): "5198792d7269b781312421e4ff30cb0d91920955269493134a6921e9da6b8c2b",
    ("vertex", 4, "full_average", "per_eval", "midpoint"): "f3df90618da9818c523b029df67cb574417e452209416a0b8fe2190d00b0ce86",
    ("vertex", 4, "full_average", "per_eval", "rk4"): "e6b547aa7a8e311c561d1a9cf7778531598de68428628b00c18fa4e41f7aac29",
    ("vertex", 4, "full_average", "per_step", "euler"): "5198792d7269b781312421e4ff30cb0d91920955269493134a6921e9da6b8c2b",
    ("vertex", 4, "full_average", "per_step", "midpoint"): "f3df90618da9818c523b029df67cb574417e452209416a0b8fe2190d00b0ce86",
    ("vertex", 4, "full_average", "per_step", "rk4"): "e6b547aa7a8e311c561d1a9cf7778531598de68428628b00c18fa4e41f7aac29",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("where", ["face", "vertex"])
def test_boundary_endpoint_matches_golden_digest(where, n, mode, draw_scope, solver, path):
    got = endpoint_digest(n, mode, draw_scope, solver, path, BOUNDARY_SCORES[where])
    assert got == BOUNDARY_GOLDEN[where, n, mode, draw_scope, solver]
