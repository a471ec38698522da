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
the same digests as the bank path. The digests are keyed by the draw
scope they were recorded in, "per_eval", the only one now; those of the
"per_step" scope, which froze a step's draws across its stages, went
with that scope. Every input is dyadic (x0, means,
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


def dyadic_field(j, wrap, v=None, dim=DIM):
    """Field j, whose variance is field v's (by default its own)."""
    mean = [((3 * j + 5 * d) % 17 - 8) / 8 for d in range(dim)]
    return wrap(GaussianTargetField(mean, (1 + (j if v is None else v) % 7) / 4))


def dyadic_spec(n, mode, wrap, scores=SCORES, equal_variances=False, dim=DIM):
    """Every chain field has its own variance, or with equal_variances
    the chains of anchor k all have field k's variance."""
    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=dyadic_field(0, wrap, dim=dim),
        anchor_sets=tuple(
            AnchorFields(
                a,
                tuple(
                    dyadic_field(1 + k * n + j, wrap, k if equal_variances else None, dim)
                    for j in range(n)
                ),
            )
            for k, a in enumerate(anchors)
        ),
        score=ScoreVector(scores[:n]),
        mode=mode,
        base_mix=0.375,
    )


WRAPS = {"bank": lambda f: f, "generic": DelegatingField}
SCOPE = "per_eval"  # the draw scope in the digests' keys


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def run(
    n, mode, solver, path="bank", record_trajectory=False, scores=SCORES, equal_variances=False,
    rows=ROWS, width=None, dim=DIM, tables=None,
):
    """integrate's result; width, if given, is the full-average bank's W,
    and tables whether the stochastic bank has draw tables."""
    x0 = np.array([[((7 * r + 3 * d) % 13 - 6) / 4 for d in range(dim)] for r in range(rows)])
    field = BlendedField(
        dyadic_spec(n, mode, WRAPS[path], scores, equal_variances, dim),
        np.arange(100, 100 + rows, dtype=np.uint64),
    )
    assert (field._bank is not None) == (path == "bank")
    if width is not None and field._bank is not None:
        assert field._bank.width == width
    if tables is not None and field._bank is not None:
        assert field._bank.tables == tables
    config = IntegrationConfig(solver, STEPS, record_trajectory=record_trajectory)
    result = integrate(field, x0, config)
    assert result.endpoint.shape == (rows, dim)
    return result


def endpoint_digest(n, mode, solver, path="bank", scores=SCORES):
    return digest(run(n, mode, solver, path, scores=scores).endpoint)


def trajectory_digest(n, mode, solver, path):
    trajectory = run(n, mode, solver, path, record_trajectory=True).trajectory
    assert trajectory.shape == (STEPS + 1, ROWS, DIM)
    return digest(trajectory)


GOLDEN = {
    (1, "stochastic", "per_eval", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "stochastic", "per_eval", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "stochastic", "per_eval", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (1, "full_average", "per_eval", "euler"): "7ec7d300f0741e8c018eec60c9a6e3b8e6489cc1ce4b8238827499cc886bc7bb",
    (1, "full_average", "per_eval", "midpoint"): "2557031bbe470e21a3bc1e97b5ec873bd69cbd044684b35a263b275eecd0f525",
    (1, "full_average", "per_eval", "rk4"): "94ef88362134f47fc82055d331d3b5d6813a4c8e2c21fed4cf1bd18ff56ac7b4",
    (2, "stochastic", "per_eval", "euler"): "f2829d8fe909fe0ae0b9d77a199c703131731609943e386f84d4d867761e5b3c",
    (2, "stochastic", "per_eval", "midpoint"): "b2b701b6fe80132d841a9ca972b6d2db09a81ded4d25645d936f332ae5985a83",
    (2, "stochastic", "per_eval", "rk4"): "2565cec84a33ebafbebec8c12cde8ee5d8f3a4705843261b7c8674adee433904",
    (2, "full_average", "per_eval", "euler"): "888546a2b9e8ae76fd6d8b6ccfcc9080d151374a981184a13e643a0c2b8ac245",
    (2, "full_average", "per_eval", "midpoint"): "00e3be7dab0c2bfe149aa770c1cc5be6b9b0c68aa52fa2abbc3d528f4d3c85de",
    (2, "full_average", "per_eval", "rk4"): "4eb023523dfaadb701e01e26113383db947e791c3c82d2d32d144cf1b8ef8321",
    (3, "stochastic", "per_eval", "euler"): "470d87753ce651e0567bd43df16d03a45b60fb2699010ba03917ae4239c5470c",
    (3, "stochastic", "per_eval", "midpoint"): "33b35d4623cee88935046222d285f7c4aae81feea9afcf1a7cb8982fcfba51e3",
    (3, "stochastic", "per_eval", "rk4"): "2fe6e1db50744b48b71c60fbada19a70a4dcef26bc90c2f9c9350f3d4f7d1617",
    (3, "full_average", "per_eval", "euler"): "5120180efc21e78d3a8ab1744f2afd3319cd1a0472658eaf54faf74ea1fe98d6",
    (3, "full_average", "per_eval", "midpoint"): "7cf74e578f2f9eec61a3d2ea8a478df62f7101f82a5d900e840f55b2d47b1703",
    (3, "full_average", "per_eval", "rk4"): "31e5cb1d98dddfe18b89e1f66ce5ce7b0ea7ff287061ebf23a36e3cbab27616e",
    (4, "stochastic", "per_eval", "euler"): "a87636ba5fb728edb409684e635dca8285226471383c6b9249665711985dd959",
    (4, "stochastic", "per_eval", "midpoint"): "5c16bb695eb66569687a76e49b378ef05989c0dd38357775613f812b9dde4c2a",
    (4, "stochastic", "per_eval", "rk4"): "868bacae2dd4962b5788a5d99ab4ded0fbb55f52e3c464c1691592092c1afbce",
    (4, "full_average", "per_eval", "euler"): "6f69d99554f734fbe05f035d36633c1e32e325f70f4591e7196a758e7716761b",
    (4, "full_average", "per_eval", "midpoint"): "c5b98bc7ef5e3f0720e43c66e1979602f4458a622733f0c1f07a533afbefbe89",
    (4, "full_average", "per_eval", "rk4"): "c7872d8caa14f1ccb1be55cd6c125ba56988de644be7cfcce3712749a34ce032",
}


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_endpoint_matches_golden_digest(n, mode, solver):
    assert endpoint_digest(n, mode, solver) == GOLDEN[n, mode, SCOPE, solver]


@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_path_endpoint_matches_golden_digest(n, mode, solver):
    got = endpoint_digest(n, mode, solver, path="generic")
    assert got == GOLDEN[n, mode, SCOPE, solver]


TRAJECTORY_GOLDEN = {
    (1, "stochastic", "per_eval", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "stochastic", "per_eval", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "stochastic", "per_eval", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (1, "full_average", "per_eval", "euler"): "c5c04b0c63f4408de197d82fecbe6f9d8a4b79e034501e0a01d6622b20756acf",
    (1, "full_average", "per_eval", "midpoint"): "08e4225747ae92ee8a5a37fcd6607bee72add45efb4f625c0a0038c9b9e06d8c",
    (1, "full_average", "per_eval", "rk4"): "1481f90c660ef12c1ae9f9c679d22c04ef4017da4ebc36abc399a22a33e7cd7a",
    (2, "stochastic", "per_eval", "euler"): "17327b28d9353f886dd5e40f07391815d2dc61d7564302d6c2984c1328515cd2",
    (2, "stochastic", "per_eval", "midpoint"): "880db32d757a975f9c222dc022eeee60424392131dc96d702699a1d6e40cac9d",
    (2, "stochastic", "per_eval", "rk4"): "92fc574ae8d873aeb4442aa0f902faeb77befe015b10cc993f47cd0e472c0f95",
    (2, "full_average", "per_eval", "euler"): "4ebeae317763e7b5e9fd2a93e5de233392d740b7c4f69bc525683f82f7ce6ca7",
    (2, "full_average", "per_eval", "midpoint"): "6835c45bdaddfe01ae4ea1756678d96e0c480b9fdf06d7ea37c38ed0da3467ab",
    (2, "full_average", "per_eval", "rk4"): "5f3f371ff2d3bbd546d3459bd35df2a4b98c4dec165c8239fa357babffa1ec6f",
    (3, "stochastic", "per_eval", "euler"): "30fee3b06fd0b3cc83e0b0a8c3964fe4a47ed6f141c6c50a4eed78b06a1c7a46",
    (3, "stochastic", "per_eval", "midpoint"): "cb4515772eaa3edb347219c99644b5233ec135750b3c9968ee5996f637c7dce3",
    (3, "stochastic", "per_eval", "rk4"): "7876c473d3389906c78f9bd0a1ae2c08974b6eead5bb1f79f261058a7763712b",
    (3, "full_average", "per_eval", "euler"): "98650f194180a19f6191325fe02c83dc512dec072e3c894c524dfee16f0a1571",
    (3, "full_average", "per_eval", "midpoint"): "57c90895be66d7cc11551fe3202826ab12561e58311a272914818e233da4a4ae",
    (3, "full_average", "per_eval", "rk4"): "0795388e65f4cfda13e9ff34c8eb20f7d893d293d068d72551fb1a8562ffaa92",
    (4, "stochastic", "per_eval", "euler"): "25477712baf463e7525e8adfad2668240d4d9f58b4cfcc9130944f4bdcd1091c",
    (4, "stochastic", "per_eval", "midpoint"): "64c09953f1610da466844c094f1206ea65fb72c015cf1af077182d3be3e8c636",
    (4, "stochastic", "per_eval", "rk4"): "6d37cd00fa95ac358fe9de28d7c0d878adce22d40af4222d2b918cca462dc92c",
    (4, "full_average", "per_eval", "euler"): "7de51d22e84df5d8150075ac3694d92255d27d1b39420cc6dddd251c812a66a7",
    (4, "full_average", "per_eval", "midpoint"): "74c87a467aa6525104d3800612423be6702815e6a6cf9b4b84554c2155b58ea8",
    (4, "full_average", "per_eval", "rk4"): "9d5b7f126eb1044e760e99bdd96b2801e30f0b180624aa0aed9a421d59014554",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_trajectory_matches_golden_digest(n, mode, solver, path):
    got = trajectory_digest(n, mode, solver, path)
    assert got == TRAJECTORY_GOLDEN[n, mode, SCOPE, solver]


BOUNDARY_GOLDEN = {
    ("face", 1, "stochastic", "per_eval", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "stochastic", "per_eval", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "stochastic", "per_eval", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 1, "full_average", "per_eval", "euler"): "ec3df1f6f3e9b0d1148133296c1c95898b6877367db0cf6fc8a9f4d139640326",
    ("face", 1, "full_average", "per_eval", "midpoint"): "e15616d0f16be4831a8d80a06915a063ba7e3cee89e720dd410876e8468538d4",
    ("face", 1, "full_average", "per_eval", "rk4"): "6c0a429731a09db19c106d8e7f60697e7f80892f194d6c6f6c6df97d819b82b3",
    ("face", 2, "stochastic", "per_eval", "euler"): "7f6f159703b9955668ea82c3c20abced9109a1c902fbe5600e4dcdd1ed7cfdc4",
    ("face", 2, "stochastic", "per_eval", "midpoint"): "8a1a6aadc5e05592b2d551eb890a8b3f134c7507b08f8253017aa74ca7c1d1d9",
    ("face", 2, "stochastic", "per_eval", "rk4"): "242e8a5fef1d22e1a6b1b7d55bf50bba69b6b1b6708741979f88b6aac6ac7c70",
    ("face", 2, "full_average", "per_eval", "euler"): "fad87ff56773141c9e46bfc5a4f08936dc37509f644e765f88c284d5bcde2bba",
    ("face", 2, "full_average", "per_eval", "midpoint"): "2f4733b56a0fca02502013a66ea83042d5e6e0e4fdf9cbf0100ccb1810b3f55b",
    ("face", 2, "full_average", "per_eval", "rk4"): "8afafe72f7954b5ec47dc17f274810b22e07a989c35fbf89e063e91132d8832a",
    ("face", 3, "stochastic", "per_eval", "euler"): "dc43a32c2058f215001d26f5deb5f6f29d346255d1056a5c343d0b0a13d958d8",
    ("face", 3, "stochastic", "per_eval", "midpoint"): "a5c0b4b0bd87faed93e14ce737f17d46d3654023c6b380c8bc2ba8480286fc5e",
    ("face", 3, "stochastic", "per_eval", "rk4"): "189043ffa7723aaf5b04af430659a483ac39417d8747413a9afe22ac2cc051e4",
    ("face", 3, "full_average", "per_eval", "euler"): "d392fc09adb41ab5abbabca16b6d3179d4740e14550d1334a23d6132fe18725d",
    ("face", 3, "full_average", "per_eval", "midpoint"): "403e981345f783719e5bc805cbf40c85ca428778a7e21dc70a4ebb730a13cc51",
    ("face", 3, "full_average", "per_eval", "rk4"): "69ffb5ec35bd3bd82ee9f7d30ce0697f8bddcacfbeadf60d0e8e80bf9c9d3596",
    ("face", 4, "stochastic", "per_eval", "euler"): "eb12b828f24647badc660eb991f05033b8d62fa4fab62429d5d4d0ff771055a7",
    ("face", 4, "stochastic", "per_eval", "midpoint"): "70c406a40b1c97d0624e03f3667e86c89dc89a8d36151fc19b72f916dff9eea6",
    ("face", 4, "stochastic", "per_eval", "rk4"): "07e285e3a1056014f23eced2b3c7e210b2d9852daed60f11d7d19c8110dd49e1",
    ("face", 4, "full_average", "per_eval", "euler"): "c746be3f2ebf5c5410b851994e85a7c6201ca33b0f5ed768634e807d8a939386",
    ("face", 4, "full_average", "per_eval", "midpoint"): "422e8233855d69771e10de3ab18558a1cc4af83235b66a8dab20cbff242bcdae",
    ("face", 4, "full_average", "per_eval", "rk4"): "5395f561776a55436b2319633c943c739a71a4d2b0dec24b6c61c536c7530754",
    ("vertex", 1, "stochastic", "per_eval", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "stochastic", "per_eval", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "stochastic", "per_eval", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 1, "full_average", "per_eval", "euler"): "0430b087360f42c6355bbe1ca61fc1c0efbfcd2cb02f8b78bef70c3260b8d721",
    ("vertex", 1, "full_average", "per_eval", "midpoint"): "e25413373fa5aaab7ec582340c4145299d378ca60553234581a1a69509db69ad",
    ("vertex", 1, "full_average", "per_eval", "rk4"): "899dcbfe3e28af090265f904ffc39d7698532b4be05dde79d9806d7986c5d9bf",
    ("vertex", 2, "stochastic", "per_eval", "euler"): "b9a946c1a1bb6777234a0c7783b92cdef7858e3c27baba502c80bc3504a74651",
    ("vertex", 2, "stochastic", "per_eval", "midpoint"): "033c5cdcbfff093f1d2b45aa5902b3d2d793f84ecdc3efce4ee5ff9f27e2fff6",
    ("vertex", 2, "stochastic", "per_eval", "rk4"): "9f57b013130d08efccdef2e12d7b1cb1584571cdfba1ca52de4827651dc18f91",
    ("vertex", 2, "full_average", "per_eval", "euler"): "a52ce3a3f76025b0b879fa5d8f7dda6a646505e8f2d223e9af5aa58f7c3ba9f0",
    ("vertex", 2, "full_average", "per_eval", "midpoint"): "5b4b22487df5a2b7c3989eaac6e856b6623402adb1d5c047cf5e93ed62a4e4cd",
    ("vertex", 2, "full_average", "per_eval", "rk4"): "adf377ff139c362bc215f0a64b05e5c82e8886df7c0af4a1137807304ff7d95d",
    ("vertex", 3, "stochastic", "per_eval", "euler"): "aab12a9a6ec1fb9a4da8b0c75c0abed6abe195ee8546830956e56b0c6998ba04",
    ("vertex", 3, "stochastic", "per_eval", "midpoint"): "f91c03da7e9ec7d514af0ba3d7e6e8f7453ec0d46fb1574d018bd2d4729dbbf9",
    ("vertex", 3, "stochastic", "per_eval", "rk4"): "092cb3e3288f71c620eed182dbcffacc9f999dab69d6bca1b98a20044a62bd31",
    ("vertex", 3, "full_average", "per_eval", "euler"): "1a81c3a8b2ac209703815d714439eba1105d6c9376b9e0d3c4399a86dae58530",
    ("vertex", 3, "full_average", "per_eval", "midpoint"): "26f294564c2090ca3673e6eb0f55759ac97dce16121eca6f2b6c5b549c7ce496",
    ("vertex", 3, "full_average", "per_eval", "rk4"): "1bbbf9ede890894cb95ede6bd83721c38affcfd81745ef2eb751e4cde39bc291",
    ("vertex", 4, "stochastic", "per_eval", "euler"): "c22a31ac35698d183c90e4a3a2ed403eb0f385b215c8eda1bd4ae1c1253ce19a",
    ("vertex", 4, "stochastic", "per_eval", "midpoint"): "70feab1155a186fa8d9243c61e30c53b5276fb9944ac8c073f2df0a1705aad4f",
    ("vertex", 4, "stochastic", "per_eval", "rk4"): "ddeb2131f3db8360de5e9b389456ca7ca37f129667c62ab034ee456e0527a990",
    ("vertex", 4, "full_average", "per_eval", "euler"): "5198792d7269b781312421e4ff30cb0d91920955269493134a6921e9da6b8c2b",
    ("vertex", 4, "full_average", "per_eval", "midpoint"): "f3df90618da9818c523b029df67cb574417e452209416a0b8fe2190d00b0ce86",
    ("vertex", 4, "full_average", "per_eval", "rk4"): "e6b547aa7a8e311c561d1a9cf7778531598de68428628b00c18fa4e41f7aac29",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
@pytest.mark.parametrize("mode", ["stochastic", "full_average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("where", ["face", "vertex"])
def test_boundary_endpoint_matches_golden_digest(where, n, mode, solver, path):
    got = endpoint_digest(n, mode, solver, path, BOUNDARY_SCORES[where])
    assert got == BOUNDARY_GOLDEN[where, n, mode, SCOPE, solver]


# The chains of each anchor share one variance, as template bindings give
# them, so every active anchor's kappa(t) is one number for all its rows.
# Recorded before the Gaussian bank multiplied such an anchor by that
# number instead of gathering a kappa per row.
EQUAL_VARIANCE_SCORES = {"interior": SCORES, **BOUNDARY_SCORES}
EQUAL_VARIANCE_GOLDEN = {
    ("interior", 2, "per_eval"): "b1af916afc027600fe0dd59f93c5cb4b2c74b8e0371a66de0dac951db0cc8cfb",
    ("interior", 3, "per_eval"): "b77cd846a4c2646a6817e93ce8ad424a8d45ed1141ffa113a60f4f364b41ab46",
    ("interior", 4, "per_eval"): "2d0777edcd248e9da866b749adab07ee997fda64478e0a011388dbc497800967",
    ("face", 2, "per_eval"): "9aff93b84e70b58bfc05ae20064723d85a840ebb863377aa4f78e697a6e197f6",
    ("face", 3, "per_eval"): "a67262f5662b9bc553544b2cf9810e3592f75e44bcd548139376808444f0e0b7",
    ("face", 4, "per_eval"): "bf1b6dcc39bbd6ea94b99b0889375dbd67e931d71d8c9add96b57f01f5481184",
    ("vertex", 2, "per_eval"): "bde262945e465f9f80a82064862f18e6096915d3c7720ed617feae74271215fb",
    ("vertex", 3, "per_eval"): "f95f80c80203e0f2e5ecc26cc6b24a2e87d536efc0e84eab283a0ad5cb262bda",
    ("vertex", 4, "per_eval"): "4f0144ee1fce4c4b90da1996ba71be35dd561f469a88051f4e554a71e8dae403",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("where", ["interior", "face", "vertex"])
def test_equal_variance_endpoint_matches_golden_digest(where, n, path):
    result = run(
        n, "stochastic", "rk4", path, scores=EQUAL_VARIANCE_SCORES[where], equal_variances=True
    )
    assert digest(result.endpoint) == EQUAL_VARIANCE_GOLDEN[where, n, SCOPE]


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


# Chains that coincide and identity passes. Recorded before the Gaussian
# bank evaluated an anchor whose chain fields are one field once, and
# before the blend dropped the passes whose result is known exactly: the
# sum starting from zeros and the product by a weight of exactly 1 at a
# vertex, and the product by an anchor share 1 - base_mix of exactly 1.
# "dyadic": each chain is its own field, as in dyadic_spec. "one_field":
# each anchor's n chain fields are n objects with the bytes
# of one field. "signed_zero": an anchor's chain means differ only in the
# sign of a zero, -0.0 in the even chains and +0.0 in the odd ones, and
# the base mean and some x0 have a zero in that coordinate too.
def chain_fields(kind, n, k, wrap):
    if kind == "dyadic":
        return tuple(dyadic_field(1 + k * n + j, wrap) for j in range(n))
    if kind == "one_field":
        return tuple(dyadic_field(1 + k, wrap) for _ in range(n))
    fields = []
    for j in range(n):
        mean = [((3 * (1 + k) + 5 * d) % 17 - 8) / 8 for d in range(DIM)]
        mean[0] = -0.0 if j % 2 == 0 else 0.0
        fields.append(wrap(GaussianTargetField(mean, (1 + (1 + k) % 7) / 4)))
    return tuple(fields)


def coinciding_spec(kind, n, mode, wrap, scores, base_mix):
    base = GaussianTargetField([0.0, *dyadic_field(0, lambda f: f).mean[1:]], 0.25)
    anchors = enumerate_anchors(make_space(n))
    return BlendSpec(
        base_field=wrap(base),
        anchor_sets=tuple(
            AnchorFields(a, chain_fields(kind, n, k, wrap)) for k, a in enumerate(anchors)
        ),
        score=ScoreVector(scores[:n]),
        mode=mode,
        base_mix=base_mix,
    )


def coinciding_digest(kind, where, base_mix, n, mode, solver, path):
    x0 = np.array([[((7 * r + 3 * d) % 13 - 6) / 4 for d in range(DIM)] for r in range(ROWS)])
    x0[::3, 0] = 0.0
    field = BlendedField(
        coinciding_spec(kind, n, mode, WRAPS[path], EQUAL_VARIANCE_SCORES[where], base_mix),
        np.arange(100, 100 + ROWS, dtype=np.uint64),
    )
    assert (field._bank is not None) == (path == "bank")
    return digest(integrate(field, x0, IntegrationConfig(solver, STEPS)).endpoint)


COINCIDING_CASES = [
    *(("one_field", where, 0.375, n, mode, solver)
      for where in ("interior", "vertex") for n in (1, 2, 3, 4)
      for mode in ("stochastic", "full_average") for solver in ("euler", "midpoint", "rk4")),
    *((kind, "vertex", base_mix, n, mode, "rk4")
      for kind in ("dyadic", "one_field") for base_mix in (0.0, 1.0) for n in (1, 2, 3, 4)
      for mode in ("stochastic", "full_average")),
    *(("signed_zero", where, base_mix, n, mode, "rk4")
      for where in ("interior", "vertex") for base_mix in (0.0, 0.375) for n in (2, 3, 4)
      for mode in ("stochastic", "full_average")),
]


COINCIDING_GOLDEN = {
    ('one_field', 'interior', 0.375, 1, 'stochastic', 'euler'): "93295e89f2398c0151629916685a083c762dc65d0190a06374d3d79335722426",
    ('one_field', 'interior', 0.375, 1, 'stochastic', 'midpoint'): "4cd14edb685f909e4cfc26f0e70af17fa950e840c2b89b6ba48b69772bceb4e2",
    ('one_field', 'interior', 0.375, 1, 'stochastic', 'rk4'): "70a6cb627f1799d0eeadeb4ceec4f3e7357bdeaf35375bccb18ba17c5f0568cc",
    ('one_field', 'interior', 0.375, 1, 'full_average', 'euler'): "93295e89f2398c0151629916685a083c762dc65d0190a06374d3d79335722426",
    ('one_field', 'interior', 0.375, 1, 'full_average', 'midpoint'): "4cd14edb685f909e4cfc26f0e70af17fa950e840c2b89b6ba48b69772bceb4e2",
    ('one_field', 'interior', 0.375, 1, 'full_average', 'rk4'): "70a6cb627f1799d0eeadeb4ceec4f3e7357bdeaf35375bccb18ba17c5f0568cc",
    ('one_field', 'interior', 0.375, 2, 'stochastic', 'euler'): "c67cbf664a93f7033606008ec958a37260a61f5500612ed2e049680b5cf9bf60",
    ('one_field', 'interior', 0.375, 2, 'stochastic', 'midpoint'): "5672aa2b5b08bcc48ae465b50e770f82ffc208c934c307cc324a18ea749b230d",
    ('one_field', 'interior', 0.375, 2, 'stochastic', 'rk4'): "744e67771225264c37aa22ffeab7f50a95e501aca27e5dbf282c070912e0b687",
    ('one_field', 'interior', 0.375, 2, 'full_average', 'euler'): "c67cbf664a93f7033606008ec958a37260a61f5500612ed2e049680b5cf9bf60",
    ('one_field', 'interior', 0.375, 2, 'full_average', 'midpoint'): "5672aa2b5b08bcc48ae465b50e770f82ffc208c934c307cc324a18ea749b230d",
    ('one_field', 'interior', 0.375, 2, 'full_average', 'rk4'): "744e67771225264c37aa22ffeab7f50a95e501aca27e5dbf282c070912e0b687",
    ('one_field', 'interior', 0.375, 3, 'stochastic', 'euler'): "973e7521d2fbdf48b1344f5d924f3acc7f60b40ef8a19372393eafc47d93f601",
    ('one_field', 'interior', 0.375, 3, 'stochastic', 'midpoint'): "f6dd38c2c1d9ab109a97c6c88e12934652789afaa308f20c9c0189bc74ccb480",
    ('one_field', 'interior', 0.375, 3, 'stochastic', 'rk4'): "e59387767c8364955e74d99bd3fa0968c6007ec413904132dbb430902bf34d2f",
    ('one_field', 'interior', 0.375, 3, 'full_average', 'euler'): "973e7521d2fbdf48b1344f5d924f3acc7f60b40ef8a19372393eafc47d93f601",
    ('one_field', 'interior', 0.375, 3, 'full_average', 'midpoint'): "f6dd38c2c1d9ab109a97c6c88e12934652789afaa308f20c9c0189bc74ccb480",
    ('one_field', 'interior', 0.375, 3, 'full_average', 'rk4'): "e59387767c8364955e74d99bd3fa0968c6007ec413904132dbb430902bf34d2f",
    ('one_field', 'interior', 0.375, 4, 'stochastic', 'euler'): "355ae08050867f3c4d187d84a42f5f6f59a1d506b6dc3c67383baab87a0befcb",
    ('one_field', 'interior', 0.375, 4, 'stochastic', 'midpoint'): "f326a713eacfd0760a28fc86ff4b331fa9ba3c4f71cec601f813466491f54c38",
    ('one_field', 'interior', 0.375, 4, 'stochastic', 'rk4'): "20af286db96e658797a4e71f5e8fdf3bf1eb0a7cfb794b83a99aaab1d6ad7537",
    ('one_field', 'interior', 0.375, 4, 'full_average', 'euler'): "355ae08050867f3c4d187d84a42f5f6f59a1d506b6dc3c67383baab87a0befcb",
    ('one_field', 'interior', 0.375, 4, 'full_average', 'midpoint'): "f326a713eacfd0760a28fc86ff4b331fa9ba3c4f71cec601f813466491f54c38",
    ('one_field', 'interior', 0.375, 4, 'full_average', 'rk4'): "20af286db96e658797a4e71f5e8fdf3bf1eb0a7cfb794b83a99aaab1d6ad7537",
    ('one_field', 'vertex', 0.375, 1, 'stochastic', 'euler'): "6b5de63bb37a6e84c93f850d8a9eee5326c9d2cf4139a7adcfbec5d60673db5a",
    ('one_field', 'vertex', 0.375, 1, 'stochastic', 'midpoint'): "8ffa68d04e597639318746c45a980f6130a98eb5e260d2402003e2150727fdce",
    ('one_field', 'vertex', 0.375, 1, 'stochastic', 'rk4'): "4c99ac9f5b13b2df5ec08278baafd0007ff16599af026e6dacd1cba6a81c3fe3",
    ('one_field', 'vertex', 0.375, 1, 'full_average', 'euler'): "6b5de63bb37a6e84c93f850d8a9eee5326c9d2cf4139a7adcfbec5d60673db5a",
    ('one_field', 'vertex', 0.375, 1, 'full_average', 'midpoint'): "8ffa68d04e597639318746c45a980f6130a98eb5e260d2402003e2150727fdce",
    ('one_field', 'vertex', 0.375, 1, 'full_average', 'rk4'): "4c99ac9f5b13b2df5ec08278baafd0007ff16599af026e6dacd1cba6a81c3fe3",
    ('one_field', 'vertex', 0.375, 2, 'stochastic', 'euler'): "6b5de63bb37a6e84c93f850d8a9eee5326c9d2cf4139a7adcfbec5d60673db5a",
    ('one_field', 'vertex', 0.375, 2, 'stochastic', 'midpoint'): "8ffa68d04e597639318746c45a980f6130a98eb5e260d2402003e2150727fdce",
    ('one_field', 'vertex', 0.375, 2, 'stochastic', 'rk4'): "4c99ac9f5b13b2df5ec08278baafd0007ff16599af026e6dacd1cba6a81c3fe3",
    ('one_field', 'vertex', 0.375, 2, 'full_average', 'euler'): "6b5de63bb37a6e84c93f850d8a9eee5326c9d2cf4139a7adcfbec5d60673db5a",
    ('one_field', 'vertex', 0.375, 2, 'full_average', 'midpoint'): "8ffa68d04e597639318746c45a980f6130a98eb5e260d2402003e2150727fdce",
    ('one_field', 'vertex', 0.375, 2, 'full_average', 'rk4'): "4c99ac9f5b13b2df5ec08278baafd0007ff16599af026e6dacd1cba6a81c3fe3",
    ('one_field', 'vertex', 0.375, 3, 'stochastic', 'euler'): "f2e825d32ee03f6e5612d0086736838e8b60703c5793ac18cc85be91de13a307",
    ('one_field', 'vertex', 0.375, 3, 'stochastic', 'midpoint'): "045d0ca9551f7e4c57e44bb8ac6d84cba7bef2fd4f53d9d4aab6d2c6f6c9b155",
    ('one_field', 'vertex', 0.375, 3, 'stochastic', 'rk4'): "db3a19fa195c1378ca5fc17cd5f19c28ccf813007c8e84a7100238cec2b69b9e",
    ('one_field', 'vertex', 0.375, 3, 'full_average', 'euler'): "f2e825d32ee03f6e5612d0086736838e8b60703c5793ac18cc85be91de13a307",
    ('one_field', 'vertex', 0.375, 3, 'full_average', 'midpoint'): "045d0ca9551f7e4c57e44bb8ac6d84cba7bef2fd4f53d9d4aab6d2c6f6c9b155",
    ('one_field', 'vertex', 0.375, 3, 'full_average', 'rk4'): "db3a19fa195c1378ca5fc17cd5f19c28ccf813007c8e84a7100238cec2b69b9e",
    ('one_field', 'vertex', 0.375, 4, 'stochastic', 'euler'): "5db7c99a73adc5add22f7fb71ff5b3de764ee071e45971ab7ba118dd057605ee",
    ('one_field', 'vertex', 0.375, 4, 'stochastic', 'midpoint'): "ac4a434e4edd72231612e9393d3c8ba2da919ced19b5e7bbaba6b6e553924bc2",
    ('one_field', 'vertex', 0.375, 4, 'stochastic', 'rk4'): "846c0c16ed5fd854c873bcc48abf204749f0dfa213ada0b293f19e48124e653c",
    ('one_field', 'vertex', 0.375, 4, 'full_average', 'euler'): "5db7c99a73adc5add22f7fb71ff5b3de764ee071e45971ab7ba118dd057605ee",
    ('one_field', 'vertex', 0.375, 4, 'full_average', 'midpoint'): "ac4a434e4edd72231612e9393d3c8ba2da919ced19b5e7bbaba6b6e553924bc2",
    ('one_field', 'vertex', 0.375, 4, 'full_average', 'rk4'): "846c0c16ed5fd854c873bcc48abf204749f0dfa213ada0b293f19e48124e653c",
    ('dyadic', 'vertex', 0.0, 1, 'stochastic', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('dyadic', 'vertex', 0.0, 1, 'full_average', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('dyadic', 'vertex', 0.0, 2, 'stochastic', 'rk4'): "3f78f6622c344db207b4de3eb9c9847f8fc79e074b73a765065c8133ce84db3a",
    ('dyadic', 'vertex', 0.0, 2, 'full_average', 'rk4'): "d6885dc928ec175876cf3505e18eca22ee147d88192a6da75734fda1c71e3a41",
    ('dyadic', 'vertex', 0.0, 3, 'stochastic', 'rk4'): "2457e7f401e567b3da4aa17d673a6aa578322f010f8b77a9ec9c8ccf34b441c4",
    ('dyadic', 'vertex', 0.0, 3, 'full_average', 'rk4'): "f3a607ba6edbc386ba3852a0b51a1903f38c93e98a85a3b6941dd52415014346",
    ('dyadic', 'vertex', 0.0, 4, 'stochastic', 'rk4'): "70ed5e6a329e7b1639ed0b5c95ae2c4d85f014d4f0c4ef04b4a9f2fb80d4b0ab",
    ('dyadic', 'vertex', 0.0, 4, 'full_average', 'rk4'): "999f984f51271d5ab6f62590f872b700e68e99db32a6372615e7e1fdd3a1fcd1",
    ('dyadic', 'vertex', 1.0, 1, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 1, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 2, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 2, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 3, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 3, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 4, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('dyadic', 'vertex', 1.0, 4, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 0.0, 1, 'stochastic', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('one_field', 'vertex', 0.0, 1, 'full_average', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('one_field', 'vertex', 0.0, 2, 'stochastic', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('one_field', 'vertex', 0.0, 2, 'full_average', 'rk4'): "602bb42e11aa5089130ff0da3bba7b6925f4b02e9fbbb7e750b87fe2054245ff",
    ('one_field', 'vertex', 0.0, 3, 'stochastic', 'rk4'): "eb8a1f4e6b6a946fced3adf743056f80c435d87ecb763dec5d5b6c32b19c704d",
    ('one_field', 'vertex', 0.0, 3, 'full_average', 'rk4'): "eb8a1f4e6b6a946fced3adf743056f80c435d87ecb763dec5d5b6c32b19c704d",
    ('one_field', 'vertex', 0.0, 4, 'stochastic', 'rk4'): "4021b8d1c86c463d184af71919eb3272ba309fb89a6e6254a2f85870e1cfd895",
    ('one_field', 'vertex', 0.0, 4, 'full_average', 'rk4'): "4021b8d1c86c463d184af71919eb3272ba309fb89a6e6254a2f85870e1cfd895",
    ('one_field', 'vertex', 1.0, 1, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 1, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 2, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 2, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 3, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 3, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 4, 'stochastic', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('one_field', 'vertex', 1.0, 4, 'full_average', 'rk4'): "8e0a62a333ae0b599aee5df4547456ec3cd75607ecf42665f21d3c7b1ae2e172",
    ('signed_zero', 'interior', 0.0, 2, 'stochastic', 'rk4'): "407daef85036e40f9540bdd1ef5d514499349840660bf6eb6956c84c98361027",
    ('signed_zero', 'interior', 0.0, 2, 'full_average', 'rk4'): "407daef85036e40f9540bdd1ef5d514499349840660bf6eb6956c84c98361027",
    ('signed_zero', 'interior', 0.0, 3, 'stochastic', 'rk4'): "dfd420dda2c73f9f26c01dfcb1a6c7f59c5850a31d6e72af05d6e6b90dbe99e7",
    ('signed_zero', 'interior', 0.0, 3, 'full_average', 'rk4'): "dfd420dda2c73f9f26c01dfcb1a6c7f59c5850a31d6e72af05d6e6b90dbe99e7",
    ('signed_zero', 'interior', 0.0, 4, 'stochastic', 'rk4'): "5f6c7b9c087db004c3ae415aed06fc6ef9237d7298ff715e2a172d5d986ba2df",
    ('signed_zero', 'interior', 0.0, 4, 'full_average', 'rk4'): "5f6c7b9c087db004c3ae415aed06fc6ef9237d7298ff715e2a172d5d986ba2df",
    ('signed_zero', 'interior', 0.375, 2, 'stochastic', 'rk4'): "4f3097d56bdf145d02d6a21f24cba2fa6ce4a83223ac855af50c9ff2b47540b7",
    ('signed_zero', 'interior', 0.375, 2, 'full_average', 'rk4'): "4f3097d56bdf145d02d6a21f24cba2fa6ce4a83223ac855af50c9ff2b47540b7",
    ('signed_zero', 'interior', 0.375, 3, 'stochastic', 'rk4'): "ae61b4fe0a79683c6bf2e272d07ffd86b10fe246717d224a3d565c9b0dba7553",
    ('signed_zero', 'interior', 0.375, 3, 'full_average', 'rk4'): "ae61b4fe0a79683c6bf2e272d07ffd86b10fe246717d224a3d565c9b0dba7553",
    ('signed_zero', 'interior', 0.375, 4, 'stochastic', 'rk4'): "861c561073a8c944dadb2e762d48b9acb79293ff13ec621744f3edd2a0d22553",
    ('signed_zero', 'interior', 0.375, 4, 'full_average', 'rk4'): "861c561073a8c944dadb2e762d48b9acb79293ff13ec621744f3edd2a0d22553",
    ('signed_zero', 'vertex', 0.0, 2, 'stochastic', 'rk4'): "662a0b8404cebba972632c5f32fba975daa8cc3f6df0b2ed77e836e9fb498a9b",
    ('signed_zero', 'vertex', 0.0, 2, 'full_average', 'rk4'): "662a0b8404cebba972632c5f32fba975daa8cc3f6df0b2ed77e836e9fb498a9b",
    ('signed_zero', 'vertex', 0.0, 3, 'stochastic', 'rk4'): "cf67b48fd2152b4967562c4a4477d81baf0c2f9d5f81d0c36578779e0ebfcdba",
    ('signed_zero', 'vertex', 0.0, 3, 'full_average', 'rk4'): "cf67b48fd2152b4967562c4a4477d81baf0c2f9d5f81d0c36578779e0ebfcdba",
    ('signed_zero', 'vertex', 0.0, 4, 'stochastic', 'rk4'): "4021b8d1c86c463d184af71919eb3272ba309fb89a6e6254a2f85870e1cfd895",
    ('signed_zero', 'vertex', 0.0, 4, 'full_average', 'rk4'): "4021b8d1c86c463d184af71919eb3272ba309fb89a6e6254a2f85870e1cfd895",
    ('signed_zero', 'vertex', 0.375, 2, 'stochastic', 'rk4'): "b6816111f7c5f8f94f2c828bec88a859d1ab432e9ab13320079234ee535adcbe",
    ('signed_zero', 'vertex', 0.375, 2, 'full_average', 'rk4'): "b6816111f7c5f8f94f2c828bec88a859d1ab432e9ab13320079234ee535adcbe",
    ('signed_zero', 'vertex', 0.375, 3, 'stochastic', 'rk4'): "9f3f77fa7220d2497b49e60b0d12114de5f430ae12567f7415f66004c8b0d40b",
    ('signed_zero', 'vertex', 0.375, 3, 'full_average', 'rk4'): "9f3f77fa7220d2497b49e60b0d12114de5f430ae12567f7415f66004c8b0d40b",
    ('signed_zero', 'vertex', 0.375, 4, 'stochastic', 'rk4'): "846c0c16ed5fd854c873bcc48abf204749f0dfa213ada0b293f19e48124e653c",
    ('signed_zero', 'vertex', 0.375, 4, 'full_average', 'rk4'): "846c0c16ed5fd854c873bcc48abf204749f0dfa213ada0b293f19e48124e653c",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("case", COINCIDING_CASES, ids=lambda case: "-".join(map(str, case)))
def test_coinciding_chains_and_identity_passes_match_golden_digest(case, path):
    assert coinciding_digest(*case, path=path) == COINCIDING_GOLDEN[case]


# Batches of 1024 rows, wide enough that the full average's means and
# shifts tiled across the batch no longer fit TILE_BUDGET at interior
# scores for n = 3 and 4, which broadcast a (D, 1) mean (W = 1); every
# other case here tiles (W = 1024), as every 8-row case above does.
# Recorded before the bank tiled any constant.
WIDE_ROWS = 1024
WIDE_BROADCAST = {("interior", 3), ("interior", 4)}
WIDE_GOLDEN = {
    ("interior", 2, "euler"): "1b1eadfaa711da95b78d91970e447675c69969ea7099eaad2d6d98489fadb053",
    ("interior", 2, "rk4"): "0926c2bf0ae51fa6c4df16855c27608517f9abcfb46b6f9084f5b294c682a467",
    ("interior", 3, "euler"): "2c60fd6b55426c755c11aa2ace262c543fd01e344a834f0888e4a7e454915f77",
    ("interior", 3, "rk4"): "604c6af7392528a28105401e4daef65cf6d45a011b035b26b7e88ff017c6a70f",
    ("interior", 4, "euler"): "025c6ddb4d9aa5ad1e3a82f399fb85805777d0208127283bbca1060d418c8da0",
    ("interior", 4, "rk4"): "ef02f49a17371cd78b2e0caba4491ee746133b29db3a205241ffb62a297528a7",
    ("face", 2, "euler"): "b3e49eb32c8ed74f9c7f9a5ec1b603db138528ffa531f3cfc614de8cc148e5f4",
    ("face", 2, "rk4"): "d9f2494f999931e44a041269c7b65f71b1cd46c4fd9bc3ea076481aa16434baf",
    ("face", 3, "euler"): "e9ae44e739b1270e5ca6dca1310cde929b8dbdf1f48afb4ee0e7140a5b7df56d",
    ("face", 3, "rk4"): "1c5011326e8d25772d66b78375b00ada7d10126877f93d1eb98887fd1408e035",
    ("face", 4, "euler"): "44901c79bdc64257dbee50e8725a17dbe97f3a15026377507adb2c44386387c9",
    ("face", 4, "rk4"): "c5634cce82b509fb967544f281e1eecc43ec10760282f6fdb5bbac7b65bb74c2",
    ("vertex", 2, "euler"): "65732cd141d67487a962fb842f06da3ee89c2d7d004efdc7702e246710ead715",
    ("vertex", 2, "rk4"): "68f56b279909584fac37e00387226e67304baa9a4dc38fc201e64c1b314d1cf2",
    ("vertex", 3, "euler"): "da067174a1c16a5fddfc7112dce2b93c315f9193fb503696b7ce34e4a8f44ae5",
    ("vertex", 3, "rk4"): "14429de6d7d8be15b30cf8f03c3e380692b8df905a93140678fdf7f50f4aceb1",
    ("vertex", 4, "euler"): "8acd89783302d03095737e7f1b30caf4e4feb5ad6911bab2fac2c6cb7328e1eb",
    ("vertex", 4, "rk4"): "1e723ca6659f6c629c8c21da3a19e0bb8455f8e4540caab0d4174524dac96a06",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("solver", ["euler", "rk4"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("where", ["interior", "face", "vertex"])
def test_wide_full_average_endpoint_matches_golden_digest(where, n, solver, path):
    width = 1 if (where, n) in WIDE_BROADCAST else WIDE_ROWS
    scores = EQUAL_VARIANCE_SCORES[where]
    result = run(n, "full_average", solver, path, scores=scores, rows=WIDE_ROWS, width=width)
    assert digest(result.endpoint) == WIDE_GOLDEN[where, n, solver]


# Stochastic digests at a latent dim D on each side of the stochastic
# bank's draw-table budget: A active anchors' 256-row tables take
# A * 256 * D * 8 bytes, at most TILE_BUDGET, so at interior scores n = 2
# (4 anchors) fits up to D = 128 and n = 4 (16 anchors) up to D = 32, and
# at the face score n = 4 (4 active anchors) up to D = 128. Every chain of
# an anchor has one variance, as template bindings give them. Recorded
# before the bank gathered draws through tables.
TABLE_GOLDEN = {
    ("interior", 2, 128): "85875c6f6d8d5cb4ec446e0f5bfd4d9f6ad646c09cbd5a64a2553ef20f90e011",
    ("interior", 2, 129): "dc0a4caea283fa7c8ca5c4ca6264eb5dffee2fecb1ccc4b4a779da4afa538a78",
    ("interior", 4, 32): "daa3cc7ac3ccc7679bef669d0db2f824dad01c367d98e3c6c901e64a82c5874c",
    ("interior", 4, 33): "df78b7eb2fc4757d706ad95f838ab0d116d0a61e2fdab776f03b3a1ce6cd3995",
    ("face", 4, 128): "8dd1026c498b1d68cfd6479a8c0b96ec64ccbdb697a81ec26332764a1e7467ba",
    ("face", 4, 129): "92adecefc71957df434a502edce9ba0e492a692399439fa3be3978bda0c1e989",
}


@pytest.mark.parametrize("path", ["bank", "generic"])
@pytest.mark.parametrize("where, n, dim", list(TABLE_GOLDEN))
def test_stochastic_endpoint_on_each_side_of_the_table_budget_matches_golden_digest(
    where, n, dim, path
):
    scores = EQUAL_VARIANCE_SCORES[where]
    tables = dim in (32, 128)
    result = run(
        n, "stochastic", "rk4", path, scores=scores, equal_variances=True, dim=dim, tables=tables
    )
    assert digest(result.endpoint) == TABLE_GOLDEN[where, n, dim]
