"""Bit pins: exact float.hex outputs of a fixed seeded problem.

The values were recorded before the kernel factors were routed through the
shared coordinate-product helpers, with numpy 2.4 on x86-64.  A change that
claims to keep outputs bit-identical (a refactor, a faster evaluation path)
must leave every pin unchanged.  The one exception is ``sym_weighted``,
whose weighted B factor is now 1 + g_j * (x(1-x)/2) rather than
1 + (g_j/2) x (1-x): its values are compared to within a few ulps of the
cancelling O(1) terms, and its gradient is not pinned.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from l2disc import (
    GreedyConfig,
    OptimizerConfig,
    PointSet,
    expected_iid_squared,
    greedy_contribution,
    greedy_extend,
    iid_uniform,
    kernel_spec,
    mc_expected_iid,
    optimize,
    squared_value,
    value_and_gradient,
)

N, D, SEED = 37, 3, 20261017
# 4.9 makes g_j * fl(1/12) differ from fl(g_j / 12), so the weighted A is
# pinned on a weight where the two roundings disagree
GAMMA = (0.3, 1.7, 4.9)
Y = (0.21, 0.47, 0.83)

VALUE = {
    "star": "0x1.802386fb77f20p-10",
    "ext": "0x1.0d57f27930da0p-13",
    "per": "0x1.3942f7cdcfad0p-9",
    "ctr": "0x1.b40606c0ff080p-12",
    "cad": "0x1.86aec698697b6p-12",
    "sym": "0x1.7da5bcf439e20p-12",
    "mix": "0x1.5f25148a28540p-8",
    "asd": "0x1.be6036686b7c0p-10",
    "ctr_weighted": "0x1.f6340c4411d00p-6",
    "sym_weighted": "0x1.eeba2c62316c0p-6",
}
CONTRIBUTION = {
    "star": "-0x1.cabdc767f3ef8p-8",
    "ext": "-0x1.81bcf3b00cc9cp-12",
    "per": "0x1.19974bcdf161bp-4",
    "ctr": "0x1.86adaadfa2d08p-15",
    "cad": "-0x1.427061e944cfep-11",
    "sym": "-0x1.0a65d9cabe184p-11",
    "mix": "-0x1.134a02493a2c0p-5",
    "asd": "-0x1.b75d48980f450p-8",
    "ctr_weighted": "0x1.6f7ad0443bdc0p-4",
    "sym_weighted": "-0x1.0af798fb64dc0p-3",
}
EXPECTED_IID = {
    "star": "0x1.379b8c2c13778p-9",
    "ext": "0x1.cb3611f01cb22p-14",
    "per": "0x1.379b8c2c1378cp-9",
    "ctr": "0x1.aa6910a81aa6bp-12",
    "cad": "0x1.aa6910a81aa6bp-12",
    "sym": "0x1.aa6910a81aa6ep-12",
    "mix": "0x1.8ba8df7498aafp-8",
    "asd": "0x1.379b8c2c137fcp-9",
    "ctr_weighted": "0x1.85c1df05dc747p-5",
    "sym_weighted": "0x1.85c1df05dc6cdp-5",
}
VG_VALUE = {
    "star": "0x1.802386fb77f40p-10",
    "ext": "0x1.0d57f27930da0p-13",
    "per": "0x1.3942f7cdcfad0p-9",
    "ctr": "0x1.b40606c0ff07cp-12",
    "sym": "0x1.7da5bcf439e20p-12",
    "mix": "0x1.5f25148a28500p-8",
    "asd": "0x1.be6036686b7c0p-10",
    "ctr_weighted": "0x1.f6340c4411d00p-6",
    "sym_weighted": "0x1.eeba2c6231700p-6",
}
# sha256 of the C-ordered float64 bytes of the (N, D) gradient
GRADIENT_SHA256 = {
    "star": "5c7b8eca1e2ec23ffdc2260728fe250d4f003a66c2c71bcb2d2485f34c72d589",
    "ext": "1862e0f32927c232cf33c7185bc5d3842eb1661d02b88d5d86efa4559c7be5d3",
    "per": "2779c3ad08e46776ce4f3f1f931ed62b778a119291e918f1fa3793014bf5b795",
    "ctr": "dc95c9b0b8eb56478782775e22536670aec64672e4c5048aaea5354ff56f1f69",
    "sym": "76742ed91dad55f1ed585b62b1bc3040279b482e6df6db0db7695644b70be019",
    "mix": "adfa9b4ede115e5705357a6cae6abd3d5f2bdc11de92b3d7a031235a6d7519e3",
    "asd": "1c8757ef59198d34abb5a78f8515d32541f46fc819f092e26298c060a4cc7698",
    "ctr_weighted": "59b7c3545a4d0e3ea55863f0b6b3e7ef4588e1e49a0ef1c57bcaea96d2b929ab",
}
GREEDY_FINAL = {
    "per": "0x1.e770e98607770p-9",
    "ctr_weighted": "0x1.4a79619f7dbd0p-4",
}
MC_EXPECTED_IID = {
    "per": "0x1.cd6bb70de8d93p-6",
    "star": "0x1.c19ceaf2eb8bap-6",
    "ctr_weighted": "0x1.1a509d7d2134fp-4",
}
OPTIMIZE_PER_FINAL = "0x1.a7fb9cdbdfc58p-8"


def _gamma(measure, d=D):
    return GAMMA[:d] if measure.endswith("weighted") else None


def _spec(measure, d=D):
    return kernel_spec(measure, d, gamma=_gamma(measure, d))


def _assert_pinned(measure, got, pinned):
    want = float.fromhex(pinned)
    if measure == "sym_weighted":
        assert math.isclose(got, want, rel_tol=1e-13), (got.hex(), pinned)
    else:
        assert got.hex() == pinned


@pytest.fixture(scope="module")
def points():
    return iid_uniform(N, D, seed=SEED)


@pytest.mark.parametrize("measure", sorted(VALUE))
def test_squared_value(measure, points):
    _assert_pinned(measure, float(squared_value(_spec(measure), points.coords)), VALUE[measure])


@pytest.mark.parametrize("measure", sorted(CONTRIBUTION))
def test_greedy_contribution(measure, points):
    got = float(greedy_contribution(_spec(measure), points, Y))
    _assert_pinned(measure, got, CONTRIBUTION[measure])


@pytest.mark.parametrize("measure", sorted(EXPECTED_IID))
def test_expected_iid_squared(measure):
    got = float(expected_iid_squared(measure, N, D, gamma=_gamma(measure)))
    _assert_pinned(measure, got, EXPECTED_IID[measure])


@pytest.mark.parametrize("measure", sorted(VG_VALUE))
def test_value_and_gradient(measure, points):
    value, grad = value_and_gradient(_spec(measure), points.coords)
    _assert_pinned(measure, float(value), VG_VALUE[measure])
    if measure in GRADIENT_SHA256:
        digest = hashlib.sha256(np.ascontiguousarray(grad).tobytes()).hexdigest()
        assert digest == GRADIENT_SHA256[measure]


@pytest.mark.parametrize("measure", sorted(GREEDY_FINAL))
def test_greedy_extend_final(measure, points):
    cfg = GreedyConfig(batch=2, grid_k=9, max_refine_evaluations=200)
    _, trace = greedy_extend(_spec(measure), PointSet(points.coords[:10]), 2, cfg)
    assert float(trace.final_value).hex() == GREEDY_FINAL[measure]


@pytest.mark.parametrize("measure", sorted(MC_EXPECTED_IID))
def test_mc_expected_iid(measure):
    est = mc_expected_iid(measure, 5, 2, 300, 3, gamma=_gamma(measure, 2))
    assert float(est.mean).hex() == MC_EXPECTED_IID[measure]


def test_optimize_per_final(points):
    cfg = OptimizerConfig(restarts=2, iterations=40, seed=1)
    _, trace = optimize(_spec("per"), PointSet(points.coords[:8]), cfg)
    assert float(trace.final_value).hex() == OPTIMIZE_PER_FINAL
