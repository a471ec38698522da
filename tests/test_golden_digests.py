"""Golden digests of integrate() endpoints and trajectories.

The endpoint digests were recorded before the bank and the solver loop
moved to in-place, feature-major arithmetic, and the trajectory digests
before the Gaussian bank's layout became private to BlendedField, and
the boundary digests (face and vertex scores, where some anchors have
weight exactly 0) before the blend stopped evaluating those anchors; a
change that alters any bit of the sampler's output fails here. The
stochastic digests at n >= 2 were re-recorded when chain draws became
lane-packed, a declared change of every such draw; the full_average
and n = 1 digests were kept as they were. The
generic path (inner fields wrapped so that no bank is built) must give
the same digests as the bank path. Every input is dyadic (x0, means,
variances, scores, base_mix, and stage times i/8 and i/8 + 1/16), so the
path uses only IEEE + - * / and exact squares, and the bits do not
depend on the platform's libm.
"""

import hashlib
import json

import numpy as np
import pytest

from cogflow.blend import AnchorFields, BlendedField, BlendSpec
from cogflow.cli import main
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


def dyadic_field(j, wrap, v=None):
    """Field j, whose variance is field v's (by default its own)."""
    mean = [((3 * j + 5 * d) % 17 - 8) / 8 for d in range(DIM)]
    return wrap(GaussianTargetField(mean, (1 + (j if v is None else v) % 7) / 4))


def dyadic_spec(n, mode, draw_scope, wrap, scores=SCORES, equal_variances=False):
    """Every chain field has its own variance, or with equal_variances
    the chains of anchor k all have field k's variance."""
    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=dyadic_field(0, wrap),
        anchor_sets=tuple(
            AnchorFields(
                a,
                tuple(
                    dyadic_field(1 + k * n + j, wrap, k if equal_variances else None)
                    for j in range(n)
                ),
            )
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


def run(
    n, mode, draw_scope, solver, path="bank", record_trajectory=False, scores=SCORES,
    equal_variances=False,
):
    x0 = np.array([[((7 * r + 3 * d) % 13 - 6) / 4 for d in range(DIM)] for r in range(ROWS)])
    field = BlendedField(
        dyadic_spec(n, mode, draw_scope, WRAPS[path], scores, equal_variances),
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
    (2, "stochastic", "per_eval", "euler"): "f2829d8fe909fe0ae0b9d77a199c703131731609943e386f84d4d867761e5b3c",
    (2, "stochastic", "per_eval", "midpoint"): "b2b701b6fe80132d841a9ca972b6d2db09a81ded4d25645d936f332ae5985a83",
    (2, "stochastic", "per_eval", "rk4"): "2565cec84a33ebafbebec8c12cde8ee5d8f3a4705843261b7c8674adee433904",
    (2, "stochastic", "per_step", "euler"): "f2829d8fe909fe0ae0b9d77a199c703131731609943e386f84d4d867761e5b3c",
    (2, "stochastic", "per_step", "midpoint"): "db08cb9ed82cb2bf1fec1a3c35353efcecefee60bf8e84ed012589968aa3f85e",
    (2, "stochastic", "per_step", "rk4"): "13d59595d50f9bb639954024cb13f2fa9e993724de9283d5412809c7958a54e5",
    (2, "full_average", "per_eval", "euler"): "888546a2b9e8ae76fd6d8b6ccfcc9080d151374a981184a13e643a0c2b8ac245",
    (2, "full_average", "per_eval", "midpoint"): "00e3be7dab0c2bfe149aa770c1cc5be6b9b0c68aa52fa2abbc3d528f4d3c85de",
    (2, "full_average", "per_eval", "rk4"): "4eb023523dfaadb701e01e26113383db947e791c3c82d2d32d144cf1b8ef8321",
    (2, "full_average", "per_step", "euler"): "888546a2b9e8ae76fd6d8b6ccfcc9080d151374a981184a13e643a0c2b8ac245",
    (2, "full_average", "per_step", "midpoint"): "00e3be7dab0c2bfe149aa770c1cc5be6b9b0c68aa52fa2abbc3d528f4d3c85de",
    (2, "full_average", "per_step", "rk4"): "4eb023523dfaadb701e01e26113383db947e791c3c82d2d32d144cf1b8ef8321",
    (3, "stochastic", "per_eval", "euler"): "470d87753ce651e0567bd43df16d03a45b60fb2699010ba03917ae4239c5470c",
    (3, "stochastic", "per_eval", "midpoint"): "33b35d4623cee88935046222d285f7c4aae81feea9afcf1a7cb8982fcfba51e3",
    (3, "stochastic", "per_eval", "rk4"): "2fe6e1db50744b48b71c60fbada19a70a4dcef26bc90c2f9c9350f3d4f7d1617",
    (3, "stochastic", "per_step", "euler"): "470d87753ce651e0567bd43df16d03a45b60fb2699010ba03917ae4239c5470c",
    (3, "stochastic", "per_step", "midpoint"): "cc72cb108daf4ef156696e80ba87aa190c781916d71917d1e759fbf49e834f28",
    (3, "stochastic", "per_step", "rk4"): "b04853019120a7c122c531e9d5fc48da6a953b93af446adb0da23d7577eacdff",
    (3, "full_average", "per_eval", "euler"): "5120180efc21e78d3a8ab1744f2afd3319cd1a0472658eaf54faf74ea1fe98d6",
    (3, "full_average", "per_eval", "midpoint"): "7cf74e578f2f9eec61a3d2ea8a478df62f7101f82a5d900e840f55b2d47b1703",
    (3, "full_average", "per_eval", "rk4"): "31e5cb1d98dddfe18b89e1f66ce5ce7b0ea7ff287061ebf23a36e3cbab27616e",
    (3, "full_average", "per_step", "euler"): "5120180efc21e78d3a8ab1744f2afd3319cd1a0472658eaf54faf74ea1fe98d6",
    (3, "full_average", "per_step", "midpoint"): "7cf74e578f2f9eec61a3d2ea8a478df62f7101f82a5d900e840f55b2d47b1703",
    (3, "full_average", "per_step", "rk4"): "31e5cb1d98dddfe18b89e1f66ce5ce7b0ea7ff287061ebf23a36e3cbab27616e",
    (4, "stochastic", "per_eval", "euler"): "a87636ba5fb728edb409684e635dca8285226471383c6b9249665711985dd959",
    (4, "stochastic", "per_eval", "midpoint"): "5c16bb695eb66569687a76e49b378ef05989c0dd38357775613f812b9dde4c2a",
    (4, "stochastic", "per_eval", "rk4"): "868bacae2dd4962b5788a5d99ab4ded0fbb55f52e3c464c1691592092c1afbce",
    (4, "stochastic", "per_step", "euler"): "a87636ba5fb728edb409684e635dca8285226471383c6b9249665711985dd959",
    (4, "stochastic", "per_step", "midpoint"): "ef12d8c029e9af5d682d4b668716c1d44a269c68c5ff18575c0652590acfddec",
    (4, "stochastic", "per_step", "rk4"): "1a4213fa731434e6dd9375d266879694388ef28bb898ab8c026f41f0b873c1a2",
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
    (2, "stochastic", "per_eval", "euler"): "17327b28d9353f886dd5e40f07391815d2dc61d7564302d6c2984c1328515cd2",
    (2, "stochastic", "per_eval", "midpoint"): "880db32d757a975f9c222dc022eeee60424392131dc96d702699a1d6e40cac9d",
    (2, "stochastic", "per_eval", "rk4"): "92fc574ae8d873aeb4442aa0f902faeb77befe015b10cc993f47cd0e472c0f95",
    (2, "stochastic", "per_step", "euler"): "17327b28d9353f886dd5e40f07391815d2dc61d7564302d6c2984c1328515cd2",
    (2, "stochastic", "per_step", "midpoint"): "1550ecc965fd8e9c5a059ca7ca34edbab001031fd6102c33a1ec979c195cc184",
    (2, "stochastic", "per_step", "rk4"): "fd7add4e16ee905d1d99d799f6bdd9113b72adc3b7eebeb9cc5d1950bcd2a505",
    (2, "full_average", "per_eval", "euler"): "4ebeae317763e7b5e9fd2a93e5de233392d740b7c4f69bc525683f82f7ce6ca7",
    (2, "full_average", "per_eval", "midpoint"): "6835c45bdaddfe01ae4ea1756678d96e0c480b9fdf06d7ea37c38ed0da3467ab",
    (2, "full_average", "per_eval", "rk4"): "5f3f371ff2d3bbd546d3459bd35df2a4b98c4dec165c8239fa357babffa1ec6f",
    (2, "full_average", "per_step", "euler"): "4ebeae317763e7b5e9fd2a93e5de233392d740b7c4f69bc525683f82f7ce6ca7",
    (2, "full_average", "per_step", "midpoint"): "6835c45bdaddfe01ae4ea1756678d96e0c480b9fdf06d7ea37c38ed0da3467ab",
    (2, "full_average", "per_step", "rk4"): "5f3f371ff2d3bbd546d3459bd35df2a4b98c4dec165c8239fa357babffa1ec6f",
    (3, "stochastic", "per_eval", "euler"): "30fee3b06fd0b3cc83e0b0a8c3964fe4a47ed6f141c6c50a4eed78b06a1c7a46",
    (3, "stochastic", "per_eval", "midpoint"): "cb4515772eaa3edb347219c99644b5233ec135750b3c9968ee5996f637c7dce3",
    (3, "stochastic", "per_eval", "rk4"): "7876c473d3389906c78f9bd0a1ae2c08974b6eead5bb1f79f261058a7763712b",
    (3, "stochastic", "per_step", "euler"): "30fee3b06fd0b3cc83e0b0a8c3964fe4a47ed6f141c6c50a4eed78b06a1c7a46",
    (3, "stochastic", "per_step", "midpoint"): "2cf3323f5eb633dd2a69639f6ffa6959cb58f51f84b1e3e82d5958839e8963d3",
    (3, "stochastic", "per_step", "rk4"): "e253ed1709cf3117fc7974a7cf10f849a41f5611b28e1497478b1bc8052c5983",
    (3, "full_average", "per_eval", "euler"): "98650f194180a19f6191325fe02c83dc512dec072e3c894c524dfee16f0a1571",
    (3, "full_average", "per_eval", "midpoint"): "57c90895be66d7cc11551fe3202826ab12561e58311a272914818e233da4a4ae",
    (3, "full_average", "per_eval", "rk4"): "0795388e65f4cfda13e9ff34c8eb20f7d893d293d068d72551fb1a8562ffaa92",
    (3, "full_average", "per_step", "euler"): "98650f194180a19f6191325fe02c83dc512dec072e3c894c524dfee16f0a1571",
    (3, "full_average", "per_step", "midpoint"): "57c90895be66d7cc11551fe3202826ab12561e58311a272914818e233da4a4ae",
    (3, "full_average", "per_step", "rk4"): "0795388e65f4cfda13e9ff34c8eb20f7d893d293d068d72551fb1a8562ffaa92",
    (4, "stochastic", "per_eval", "euler"): "25477712baf463e7525e8adfad2668240d4d9f58b4cfcc9130944f4bdcd1091c",
    (4, "stochastic", "per_eval", "midpoint"): "64c09953f1610da466844c094f1206ea65fb72c015cf1af077182d3be3e8c636",
    (4, "stochastic", "per_eval", "rk4"): "6d37cd00fa95ac358fe9de28d7c0d878adce22d40af4222d2b918cca462dc92c",
    (4, "stochastic", "per_step", "euler"): "25477712baf463e7525e8adfad2668240d4d9f58b4cfcc9130944f4bdcd1091c",
    (4, "stochastic", "per_step", "midpoint"): "fe4313a3b400747dc752ea1ef7f1068ffaba7dc7be0d0de10daa9ff9e7280738",
    (4, "stochastic", "per_step", "rk4"): "c50b0012c3d88ab16c296d0b41abb97bf76e7da5a1356ffba65d1b6a4885a7d3",
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
    ("face", 2, "stochastic", "per_eval", "euler"): "7f6f159703b9955668ea82c3c20abced9109a1c902fbe5600e4dcdd1ed7cfdc4",
    ("face", 2, "stochastic", "per_eval", "midpoint"): "8a1a6aadc5e05592b2d551eb890a8b3f134c7507b08f8253017aa74ca7c1d1d9",
    ("face", 2, "stochastic", "per_eval", "rk4"): "242e8a5fef1d22e1a6b1b7d55bf50bba69b6b1b6708741979f88b6aac6ac7c70",
    ("face", 2, "stochastic", "per_step", "euler"): "7f6f159703b9955668ea82c3c20abced9109a1c902fbe5600e4dcdd1ed7cfdc4",
    ("face", 2, "stochastic", "per_step", "midpoint"): "f9bf50b68ac16f1a05c303a0dbe53a9ec1abbf89bfed0fbee5961bb9e735367e",
    ("face", 2, "stochastic", "per_step", "rk4"): "f727ad7d650026ebcc0f84a8baac53aa12f5915368e3610458672067fbbea0d0",
    ("face", 2, "full_average", "per_eval", "euler"): "fad87ff56773141c9e46bfc5a4f08936dc37509f644e765f88c284d5bcde2bba",
    ("face", 2, "full_average", "per_eval", "midpoint"): "2f4733b56a0fca02502013a66ea83042d5e6e0e4fdf9cbf0100ccb1810b3f55b",
    ("face", 2, "full_average", "per_eval", "rk4"): "8afafe72f7954b5ec47dc17f274810b22e07a989c35fbf89e063e91132d8832a",
    ("face", 2, "full_average", "per_step", "euler"): "fad87ff56773141c9e46bfc5a4f08936dc37509f644e765f88c284d5bcde2bba",
    ("face", 2, "full_average", "per_step", "midpoint"): "2f4733b56a0fca02502013a66ea83042d5e6e0e4fdf9cbf0100ccb1810b3f55b",
    ("face", 2, "full_average", "per_step", "rk4"): "8afafe72f7954b5ec47dc17f274810b22e07a989c35fbf89e063e91132d8832a",
    ("face", 3, "stochastic", "per_eval", "euler"): "dc43a32c2058f215001d26f5deb5f6f29d346255d1056a5c343d0b0a13d958d8",
    ("face", 3, "stochastic", "per_eval", "midpoint"): "a5c0b4b0bd87faed93e14ce737f17d46d3654023c6b380c8bc2ba8480286fc5e",
    ("face", 3, "stochastic", "per_eval", "rk4"): "189043ffa7723aaf5b04af430659a483ac39417d8747413a9afe22ac2cc051e4",
    ("face", 3, "stochastic", "per_step", "euler"): "dc43a32c2058f215001d26f5deb5f6f29d346255d1056a5c343d0b0a13d958d8",
    ("face", 3, "stochastic", "per_step", "midpoint"): "2ddb183db38d7cd0b3f9d22411ad51d94f165b443aa32a58c719e0c2fdc074f9",
    ("face", 3, "stochastic", "per_step", "rk4"): "5f90f0bcbe52f3baa9fdce08504385b7778377e3776cecaab6d466c1fb7a1645",
    ("face", 3, "full_average", "per_eval", "euler"): "d392fc09adb41ab5abbabca16b6d3179d4740e14550d1334a23d6132fe18725d",
    ("face", 3, "full_average", "per_eval", "midpoint"): "403e981345f783719e5bc805cbf40c85ca428778a7e21dc70a4ebb730a13cc51",
    ("face", 3, "full_average", "per_eval", "rk4"): "69ffb5ec35bd3bd82ee9f7d30ce0697f8bddcacfbeadf60d0e8e80bf9c9d3596",
    ("face", 3, "full_average", "per_step", "euler"): "d392fc09adb41ab5abbabca16b6d3179d4740e14550d1334a23d6132fe18725d",
    ("face", 3, "full_average", "per_step", "midpoint"): "403e981345f783719e5bc805cbf40c85ca428778a7e21dc70a4ebb730a13cc51",
    ("face", 3, "full_average", "per_step", "rk4"): "69ffb5ec35bd3bd82ee9f7d30ce0697f8bddcacfbeadf60d0e8e80bf9c9d3596",
    ("face", 4, "stochastic", "per_eval", "euler"): "eb12b828f24647badc660eb991f05033b8d62fa4fab62429d5d4d0ff771055a7",
    ("face", 4, "stochastic", "per_eval", "midpoint"): "70c406a40b1c97d0624e03f3667e86c89dc89a8d36151fc19b72f916dff9eea6",
    ("face", 4, "stochastic", "per_eval", "rk4"): "07e285e3a1056014f23eced2b3c7e210b2d9852daed60f11d7d19c8110dd49e1",
    ("face", 4, "stochastic", "per_step", "euler"): "eb12b828f24647badc660eb991f05033b8d62fa4fab62429d5d4d0ff771055a7",
    ("face", 4, "stochastic", "per_step", "midpoint"): "4e4aec2cb531aedaed005db2d59982c8b161bfe72d3342927145a74d5e850924",
    ("face", 4, "stochastic", "per_step", "rk4"): "7cffa774c78343910c463571cc734c3ad1d012d6c8e3feb10ed780a15a04e145",
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
    ("vertex", 2, "stochastic", "per_eval", "euler"): "b9a946c1a1bb6777234a0c7783b92cdef7858e3c27baba502c80bc3504a74651",
    ("vertex", 2, "stochastic", "per_eval", "midpoint"): "033c5cdcbfff093f1d2b45aa5902b3d2d793f84ecdc3efce4ee5ff9f27e2fff6",
    ("vertex", 2, "stochastic", "per_eval", "rk4"): "9f57b013130d08efccdef2e12d7b1cb1584571cdfba1ca52de4827651dc18f91",
    ("vertex", 2, "stochastic", "per_step", "euler"): "b9a946c1a1bb6777234a0c7783b92cdef7858e3c27baba502c80bc3504a74651",
    ("vertex", 2, "stochastic", "per_step", "midpoint"): "3aad1d6fc8f0a49b0d41415d4370349a4b32f08bd7026787a9f412a4445d8392",
    ("vertex", 2, "stochastic", "per_step", "rk4"): "19d70ed6141d87dd5f6c8a3cbca70fe344a8c2bcef1cd02f0bd007c8c19d91d3",
    ("vertex", 2, "full_average", "per_eval", "euler"): "a52ce3a3f76025b0b879fa5d8f7dda6a646505e8f2d223e9af5aa58f7c3ba9f0",
    ("vertex", 2, "full_average", "per_eval", "midpoint"): "5b4b22487df5a2b7c3989eaac6e856b6623402adb1d5c047cf5e93ed62a4e4cd",
    ("vertex", 2, "full_average", "per_eval", "rk4"): "adf377ff139c362bc215f0a64b05e5c82e8886df7c0af4a1137807304ff7d95d",
    ("vertex", 2, "full_average", "per_step", "euler"): "a52ce3a3f76025b0b879fa5d8f7dda6a646505e8f2d223e9af5aa58f7c3ba9f0",
    ("vertex", 2, "full_average", "per_step", "midpoint"): "5b4b22487df5a2b7c3989eaac6e856b6623402adb1d5c047cf5e93ed62a4e4cd",
    ("vertex", 2, "full_average", "per_step", "rk4"): "adf377ff139c362bc215f0a64b05e5c82e8886df7c0af4a1137807304ff7d95d",
    ("vertex", 3, "stochastic", "per_eval", "euler"): "aab12a9a6ec1fb9a4da8b0c75c0abed6abe195ee8546830956e56b0c6998ba04",
    ("vertex", 3, "stochastic", "per_eval", "midpoint"): "f91c03da7e9ec7d514af0ba3d7e6e8f7453ec0d46fb1574d018bd2d4729dbbf9",
    ("vertex", 3, "stochastic", "per_eval", "rk4"): "092cb3e3288f71c620eed182dbcffacc9f999dab69d6bca1b98a20044a62bd31",
    ("vertex", 3, "stochastic", "per_step", "euler"): "aab12a9a6ec1fb9a4da8b0c75c0abed6abe195ee8546830956e56b0c6998ba04",
    ("vertex", 3, "stochastic", "per_step", "midpoint"): "4255b686fa816f340a2b40939d5594fe8a297782bd3dd6cbcd8ddbf87f7336de",
    ("vertex", 3, "stochastic", "per_step", "rk4"): "191cfa937c1cc01a72a07eff5157916b18bce7a8f598b57a24fc5bea69a3ad8f",
    ("vertex", 3, "full_average", "per_eval", "euler"): "1a81c3a8b2ac209703815d714439eba1105d6c9376b9e0d3c4399a86dae58530",
    ("vertex", 3, "full_average", "per_eval", "midpoint"): "26f294564c2090ca3673e6eb0f55759ac97dce16121eca6f2b6c5b549c7ce496",
    ("vertex", 3, "full_average", "per_eval", "rk4"): "1bbbf9ede890894cb95ede6bd83721c38affcfd81745ef2eb751e4cde39bc291",
    ("vertex", 3, "full_average", "per_step", "euler"): "1a81c3a8b2ac209703815d714439eba1105d6c9376b9e0d3c4399a86dae58530",
    ("vertex", 3, "full_average", "per_step", "midpoint"): "26f294564c2090ca3673e6eb0f55759ac97dce16121eca6f2b6c5b549c7ce496",
    ("vertex", 3, "full_average", "per_step", "rk4"): "1bbbf9ede890894cb95ede6bd83721c38affcfd81745ef2eb751e4cde39bc291",
    ("vertex", 4, "stochastic", "per_eval", "euler"): "c22a31ac35698d183c90e4a3a2ed403eb0f385b215c8eda1bd4ae1c1253ce19a",
    ("vertex", 4, "stochastic", "per_eval", "midpoint"): "70feab1155a186fa8d9243c61e30c53b5276fb9944ac8c073f2df0a1705aad4f",
    ("vertex", 4, "stochastic", "per_eval", "rk4"): "ddeb2131f3db8360de5e9b389456ca7ca37f129667c62ab034ee456e0527a990",
    ("vertex", 4, "stochastic", "per_step", "euler"): "c22a31ac35698d183c90e4a3a2ed403eb0f385b215c8eda1bd4ae1c1253ce19a",
    ("vertex", 4, "stochastic", "per_step", "midpoint"): "c5e793cc8eeaeb380a018f3903ea4b5d9b85b6742773a1b986d0a4a4b367e76c",
    ("vertex", 4, "stochastic", "per_step", "rk4"): "8a2356ad4e68b62eb053cc3e755217cd4ea615ca233cc61ce7b7858bc6400484",
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


# The chains of each anchor share one variance, as template bindings give
# them, so every active anchor's kappa(t) is one number for all its rows.
# Recorded before the Gaussian bank multiplied such an anchor by that
# number instead of gathering a kappa per row.
EQUAL_VARIANCE_SCORES = {"interior": SCORES, **BOUNDARY_SCORES}
EQUAL_VARIANCE_GOLDEN = {
    ("interior", 2, "per_eval"): "b1af916afc027600fe0dd59f93c5cb4b2c74b8e0371a66de0dac951db0cc8cfb",
    ("interior", 2, "per_step"): "e121aefd22a80a8a35babd081469414e374c63a56d8057aa17a07e00d7c3f0c9",
    ("interior", 3, "per_eval"): "b77cd846a4c2646a6817e93ce8ad424a8d45ed1141ffa113a60f4f364b41ab46",
    ("interior", 3, "per_step"): "92bd7733cccf11ff898a372c3049d39ced4a7795047d4aaf50baef867177ce99",
    ("interior", 4, "per_eval"): "2d0777edcd248e9da866b749adab07ee997fda64478e0a011388dbc497800967",
    ("interior", 4, "per_step"): "cfb772b96b046f1d6f949e3f1b553a4f46bd025eb8ad898f2b17e53c3c19f0dd",
    ("face", 2, "per_eval"): "9aff93b84e70b58bfc05ae20064723d85a840ebb863377aa4f78e697a6e197f6",
    ("face", 2, "per_step"): "6af4f08a9f0f09cbc04a9cb3d77e1388cbb9438985676b47450bd0172bcbf1ba",
    ("face", 3, "per_eval"): "a67262f5662b9bc553544b2cf9810e3592f75e44bcd548139376808444f0e0b7",
    ("face", 3, "per_step"): "5b3b39498a484f069fa4ae13994929c7b2f1bf1bd1904ddc521e1062103c585a",
    ("face", 4, "per_eval"): "bf1b6dcc39bbd6ea94b99b0889375dbd67e931d71d8c9add96b57f01f5481184",
    ("face", 4, "per_step"): "a99847c4172f7940c45f39f8166c008d76f5f1d61a1a7796264fec612c3eb24a",
    ("vertex", 2, "per_eval"): "bde262945e465f9f80a82064862f18e6096915d3c7720ed617feae74271215fb",
    ("vertex", 2, "per_step"): "1a837e114c463b0b7106ff9693f8cfb1f56b6f52e2a3863095763d21400384e5",
    ("vertex", 3, "per_eval"): "f95f80c80203e0f2e5ecc26cc6b24a2e87d536efc0e84eab283a0ad5cb262bda",
    ("vertex", 3, "per_step"): "7fd076bc2080e76dc6ad6430b58bc6140379f837c6628b892a8ce236017f9136",
    ("vertex", 4, "per_eval"): "4f0144ee1fce4c4b90da1996ba71be35dd561f469a88051f4e554a71e8dae403",
    ("vertex", 4, "per_step"): "de37b8fe389a1bb5bbe0bdce1cadaee4effb06a2fa87de478124184e7d578f92",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("draw_scope", ["per_eval", "per_step"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("where", ["interior", "face", "vertex"])
def test_equal_variance_endpoint_matches_golden_digest(where, n, draw_scope, path):
    result = run(
        n, "stochastic", draw_scope, "rk4", path, scores=EQUAL_VARIANCE_SCORES[where],
        equal_variances=True,
    )
    assert digest(result.endpoint) == EQUAL_VARIANCE_GOLDEN[where, n, draw_scope]


# One small `cogflow generate` on the template backend, whose bindings give
# every chain the default variance, through an affine decoder. Its x0 come
# from numpy's log and cos (Box-Muller), so unlike the dyadic digests
# above these bytes pin numpy's elementary functions too.
CLI_CONFIG = {
    "space": {"dimensions": [{"name": f"d{i}"} for i in range(3)]},
    "semantics": {"effect_magnitudes": 1.5, "position_bias": 0.5, "default_variance": 0.6},
    "blend": {"mode": "stochastic", "lambda": 0.5, "draw_scope": "per_eval"},
    "flow": {
        "solver": "rk4", "steps": 8, "sample_count": 16, "seed": 5,
        "decoder": {"kind": "affine", "matrix": [[1.0, 0.5, -2.0], [0.25, 0.0, 3.0]],
                    "offset": [0.125, -1.0]},
    },
    "experiment": {"base_prompt": "a quiet harbor", "score": [0.3, 0.7, 0.55]},
}
CLI_GOLDEN = {
    "endpoints.csv": "5fb40583dda79e840a7f0d87b6408281a6b39992ecf8e2e25690996ba89fe8da",
    "decoded.csv": "e76e9c4e50339bf49d2ecd321abb16fc72bb1b1814473cbaf957b1b698e14b39",
}


def test_cli_generate_csv_bytes_match_golden_digest(tmp_path):
    config = dict(CLI_CONFIG, polarize={"cache_path": str(tmp_path / "cache.ndjson")})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    for name, want in CLI_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want
