"""Bit pins: exact float.hex outputs of a fixed seeded problem.

The values were first recorded before the kernel factors were routed through
the shared coordinate-product helpers, with numpy 2.4 on x86-64.  A change
that claims to keep outputs bit-identical (a refactor, a faster evaluation
path) must leave every pin unchanged.  Two changes moved pins on purpose
and re-recorded them: summing every kernel row with numpy and combining the
row sums with math.fsum (squared values, every value-and-gradient pin and a
greedy final value; `value_and_gradient` now returns the value pinned in
VALUE), and computing the IID expectation as J/n without the analytically
zero constant (EXPECTED_IID), and replacing projected gradient descent by
L-BFGS-B (OPTIMIZE_PER_FINAL, which holds per numpy and scipy install).
Every pin is exact, sym_weighted included.
VALUE_SEGMENTED pins values at n = 300, where each row spans three
128-column segments, so the segment rule's doubled upper segments are
pinned too; every other value pin has n <= 128, one segment per row.
GRADIENT_SEGMENTED_SHA256 and GRADIENT_LATTICE_SHA256 pin gradients past
one segment, so the partials that rows take from the column sums of upper
tiles, mirrored or subtracted, are pinned too, the signs of exact zeros
included: the lattice's gradients hold 34-98 of them per measure.
"""

from __future__ import annotations

import hashlib

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
    mc_squared_discrepancy,
    optimize,
    squared_value,
    value_and_gradient,
)

N, D, SEED = 37, 3, 20261017
# 4.9 makes g_j * fl(1/12) differ from fl(g_j / 12), so the weighted A is
# pinned on a weight where the two roundings disagree
GAMMA = (0.3, 1.7, 4.9)
Y = (0.21, 0.47, 0.83)
# the value+gradient shape the optimizer runs on: n = 16-64 at d = 2
N2, D2 = 16, 2

VALUE = {
    "star": "0x1.802386fb77f40p-10",
    "ext": "0x1.0d57f27930da0p-13",
    "per": "0x1.3942f7cdcfac0p-9",
    "ctr": "0x1.b40606c0ff07cp-12",
    "cad": "0x1.86aec698697b6p-12",
    "sym": "0x1.7da5bcf439e20p-12",
    "mix": "0x1.5f25148a28540p-8",
    "asd": "0x1.be6036686b7c0p-10",
    "ctr_weighted": "0x1.f6340c4411d40p-6",
    "sym_weighted": "0x1.eeba2c62316c0p-6",
}
# squared_value on iid_uniform(300, 3): recorded under the segment rule
N3 = 300
VALUE_SEGMENTED = {
    "asd": "0x1.f729b27898180p-12",
    "cad": "0x1.a7f6bbbd36320p-15",
    "ctr": "0x1.099a6a69ffd88p-14",
    "ctr_weighted": "0x1.c40c9e3489980p-7",
    "ext": "0x1.33224c11a1080p-16",
    "mix": "0x1.2ab984aa0b180p-10",
    "per": "0x1.93f24c9c53680p-12",
    "star": "0x1.8127e0518d580p-11",
    "sym": "0x1.1e1f1cedb19f0p-14",
    "sym_weighted": "0x1.d2bc5b4e0f980p-7",
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
    # one and 100 coordinates: iid_uniform(N, d), with y and gamma cycling
    # Y and GAMMA
    "star-d1": "-0x1.3e06a0c57e94cp-3",
    "ext-d1": "-0x1.fa6ed40a59268p-6",
    "per-d1": "0x1.42414d2d11618p-1",
    "ctr-d1": "-0x1.4ab8b00995cf4p-5",
    "cad-d1": "-0x1.85d1384d847d8p-5",
    "sym-d1": "-0x1.29fd5bb6eb8f9p-4",
    "mix-d1": "-0x1.4c0b1a7088730p-4",
    "asd-d1": "-0x1.44efe2738d3e8p-4",
    "ctr_weighted-d1": "-0x1.3acb9de7ed9c0p-5",
    "sym_weighted-d1": "-0x1.8a5f6cec67a00p-5",
    "star-d100": "0x1.84bc78a178d50p-132",
    "ext-d100": "0x1.2cfc8419a909dp-253",
    "per-d100": "0x1.af286bca1af2ap-106",
    "ctr-d100": "0x1.3c9ce0f4cae30p-286",
    "cad-d100": "0x1.db627d9d99019p-203",
    "sym-d100": "0x1.af286bca1af28p-206",
    "mix-d100": "0x1.c6bc021f5ed4ap-45",
    "asd-d100": "0x1.af286bca1af16p-106",
    "ctr_weighted-d100": "0x1.0261fb95f0351p+47",
    "sym_weighted-d100": "0x1.2dac1abf81af9p+53",
}
EXPECTED_IID = {
    "star": "0x1.379b8c2c13798p-9",
    "ext": "0x1.cb3611f01cb32p-14",
    "per": "0x1.379b8c2c1379cp-9",
    "ctr": "0x1.aa6910a81aa67p-12",
    "cad": "0x1.aa6910a81aa67p-12",
    "sym": "0x1.aa6910a81aa6ap-12",
    "mix": "0x1.8ba8df7498bafp-8",
    "asd": "0x1.379b8c2c1379cp-9",
    "ctr_weighted": "0x1.85c1df05dc707p-5",
    "sym_weighted": "0x1.85c1df05dc70dp-5",
}
VG_VALUE = {
    "asd-d2": "0x1.445d648528870p-8",
    "ctr-d2": "0x1.a5adc3b121778p-9",
    "ctr_weighted-d2": "0x1.ee5dc426a0c80p-7",
    "ext-d2": "0x1.75465fc7af2f0p-11",
    "mix-d2": "0x1.0c61054e95d20p-7",
    "per-d2": "0x1.76cdd93dd6280p-8",
    "star-d2": "0x1.3e3fc9766d400p-8",
    "sym-d2": "0x1.075e7f4b0a3bcp-9",
    "sym_weighted-d2": "0x1.da2e8a2669580p-7",
}
# sha256 of the C-ordered float64 bytes of the (n, d) gradient
GRADIENT_SHA256 = {
    "star": "8932cff43bcab6741e809aef1a0c52c027ad6816f156605a5e0bf2289401ca47",
    "ext": "741c7cb843fbcd0501e410a06372d6bf585f4abbbbda108d92033368f6d955e7",
    "per": "52078b3eec49ef614ffc21133684b6cd56fe01655dd4ebefc2db711f877e1d17",
    "ctr": "dd3bd86698b6c0d008714f1a73269ea4697ea48b3925d97417bcabaf20bb2d94",
    "sym": "83ad838df42ccd40144fbb95237ced21fa42dc1560e0966e95f2e53fc34e0c57",
    "mix": "bf0f0a66a61decbd96002c9f4469200d6a3356e57ec3afa20a506143ac92a658",
    "asd": "982093f0433d03cf841e04af048be62e0d1a1ca292871325f4ed2d90ca71bd4a",
    "ctr_weighted": "e5df47edf574aac397c88329713feab1b5a8afabfac2a734a0605acc262e8393",
    "sym_weighted": "1e8e0b0783fda078102f7434e8e3c421a479c9ddd6fc16821dd66b57a17c46e2",
    "asd-d2": "9ef1c4e770d53173af3715e2bb3b7b0c3913d629da993c3b9af8901f376c9cba",
    "ctr-d2": "495e9ed6ec8c3747c6c823d47174f0fe729495d1623b49ed1a142d589f4ad0f0",
    "ctr_weighted-d2": "7630347c59fe80f46793487685aab3446d4a7eb4174cfcbf3b0906ae96241c59",
    "ext-d2": "f9637737566493f7c3e6ef887ef4e7a761634bb42aed2e19515717a92287e3a1",
    "mix-d2": "fdb245c2c9640fc060072e0e3a60daac4a2e31813a0c59cd582bf5c8fc762ec4",
    "per-d2": "bbd2afdf98b92448da83ec103eaaf61ab0c884077d3d9fcf8d1ce5bcd54c1f6b",
    "star-d2": "3e3cb67a8a195dd8506aa3db65080a0d000b9b8322b2dac36c86eca6d61cd7b3",
    "sym-d2": "1bbb2c9f5a75e7fc705d8e8309cdc5c384f7299faf583d30e5cd9a672c44d188",
    "sym_weighted-d2": "5f750bc8e11b8c6b83ec66215c7408e954902dbbf98742863d8431fadf702cb0",
}
# the gradient on iid_uniform(300, 3), VALUE_SEGMENTED's set
GRADIENT_SEGMENTED_SHA256 = {
    "asd": "d15b03ac23b190198ea78c11786454fcb2db6f5ab58124ed127d5cdd814b1482",
    "ctr": "cc6ec4702fdd190b4f86305c1f5d73ccadac771351cb5c4f8301ff9df9c43364",
    "ctr_weighted": "7f0727c0cc5510a0c372c5afa4256ff590b458399a68e4ebc13f03d1bc7af3dc",
    "ext": "67e444182812f823e23faa86e72150269a13bd5db0c96eb681e0b18392b75343",
    "mix": "a8ca916e54590c0841a682592dfe94a710cf7a5e2e6bef5c5a5770e403a04a42",
    "per": "dc29b4aa0c1abf143aa9cff11ad692b2ecaf3f787f54312d3b4838df0890ff9d",
    "star": "524593014a7cd222d54a04ddcca2150ec9aee5093a8bcc05454f93a3b7d94829",
    "sym": "806d7784db4c496b90142749f2d1b08fd17c14e8e480ed900b210a8f6ce49302",
    "sym_weighted": "d689588e2eb86de037f4c7f65ae8da4fb6472bc69ad9b306e869795cd41a6d33",
}
# the gradient on the 17 x 17 inclusive lattice, linspace(0, 1, 17) squared
LATTICE_K = 17
GRADIENT_LATTICE_SHA256 = {
    "asd": "e48657ea240c97ac7cb619f29ad6c0997cd6fa47d5db55c60cc8bd87aeae1a1a",
    "ctr": "6c0a58d65101c806ea9a13c7a56945b472f8a3fd08128d6177744fe2c0a10e94",
    "ext": "818017e4d555aebee0ffecad32a57d45fd6ec57dcaa7998d629d470dfb6660d3",
    "mix": "70067a7a5c7117d8a3335a7a0bb68d84a39dae01fbeaeb83e8d050afa44fd14c",
    "per": "3d97694ba310358bcb9297e25e9926d276e953ce14609bddb4707daa80c813b2",
    "star": "9299cc78d5eb60d27f59c35ddc7e75c64b0e2a72fe03c64e3e39cddb34d9c22f",
    "sym": "818017e4d555aebee0ffecad32a57d45fd6ec57dcaa7998d629d470dfb6660d3",
}
GREEDY_FINAL = {
    "per": "0x1.e770e98607770p-9",
    "ctr_weighted": "0x1.4a79619f7dbb0p-4",
}
MC_EXPECTED_IID = {
    "per": "0x1.cd6bb70de8d93p-6",
    "star": "0x1.c19ceaf2eb8bap-6",
    "ctr_weighted": "0x1.1a509d7d2134fp-4",
}
# mc_expected_iid("sym", 4, 2, 10 000, seed=5): three accumulation chunks
MC_EXPECTED_IID_CHUNKED = ("0x1.c7d1f2fc8edafp-7", "0x1.e719d609a23cfp-15")
# greedy_extend(mix, iid_uniform(64, 3), 2 steps, batch 2, grid_k 17) with the
# default pattern-search budget: final value and sha256 of the final coords
GREEDY_PATTERN = ("0x1.8240a00674d80p-10",
                  "d005a6eac6142fc2b390bc2bd70e4bd1743e98dc5e4d983d38b7ed5192ece860")
OPTIMIZE_PER_FINAL = "0x1.3fceafa365cb0p-8"
# geometric oracle (mean, stderr) on iid_uniform(8, d) with 70 000 anchors:
# one full accumulation chunk and a partial second one; the "-n300" cases
# run on iid_uniform(300, d), whose points span two 255-point count blocks
MC_SQUARED = {
    "asd-d1": ("0x1.78361b04180f0p-8", "0x1.da90a572baad4p-16"),
    "asd-d2": ("0x1.5df53185f1449p-7", "0x1.b84933d1ea26dp-15"),
    "asd-d3": ("0x1.74a7dd8d8ac37p-7", "0x1.6325bcb94bf2cp-14"),
    "cad-d1": ("0x1.7754f50ef028dp-8", "0x1.d99eda8ac3e0dp-16"),
    "cad-d2": ("0x1.96f3748eb1930p-9", "0x1.2f8b010776e0ap-16"),
    "cad-d3": ("0x1.1b6a8717ba036p-10", "0x1.697be13d972fbp-17"),
    "ctr-d1": ("0x1.7754f50ef028dp-8", "0x1.d99eda8ac3e0dp-16"),
    "ctr-d2": ("0x1.1c784964d5b67p-7", "0x1.7817ff002b609p-15"),
    "ctr-d3": ("0x1.2aacb77e5d7d8p-8", "0x1.9acc34e36ae36p-15"),
    "ext-d1": ("0x1.39fcb41cca7e9p-8", "0x1.4f1db2268e598p-15"),
    "ext-d2": ("0x1.643d977fd2fb0p-10", "0x1.51d67a9492251p-16"),
    "ext-d3": ("0x1.6d52383ab582fp-12", "0x1.310e800fc0dcbp-17"),
    "per-d1": ("0x1.39413a06c4e49p-7", "0x1.a5f78a2938362p-15"),
    "per-d2": ("0x1.e911c5925ac86p-7", "0x1.7eecf1bb75741p-14"),
    "per-d3": ("0x1.1df909116cf90p-7", "0x1.07155873b2f55p-14"),
    "per-d2-n300": ("0x1.6fe276644d0cdp-11", "0x1.110af360c81dfp-18"),
    "star-d1": ("0x1.7754f50ef028dp-8", "0x1.d99eda8ac3e0dp-16"),
    "star-d2": ("0x1.2642e4fb13d1fp-7", "0x1.c09f2cfb01e74p-15"),
    "star-d3": ("0x1.600b4d5939573p-8", "0x1.2aaf9547500fdp-15"),
    "star-d3-n300": ("0x1.81fa00bd1e3d5p-11", "0x1.18b65cb744a64p-18"),
    "sym-d1": ("0x1.7754f50ef028dp-8", "0x1.d99eda8ac3e0dp-16"),
    "sym-d2": ("0x1.76970b8c025dcp-9", "0x1.02f0070d0cebap-16"),
    "sym-d3": ("0x1.c1b08306f7dedp-10", "0x1.195aa333e0f57p-17"),
    "sym-d3-n300": ("0x1.1db10ff614c7fp-14", "0x1.5fd0ad737e871p-22"),
}


def _gamma(measure, d=D):
    return GAMMA[:d] if measure.endswith("weighted") else None


def _spec(measure, d=D):
    return kernel_spec(measure, d, gamma=_gamma(measure, d))


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def points():
    return iid_uniform(N, D, seed=SEED)


@pytest.mark.parametrize("measure", sorted(VALUE))
def test_squared_value(measure, points):
    assert float(squared_value(_spec(measure), points.coords)).hex() == VALUE[measure]


@pytest.mark.parametrize("measure", sorted(VALUE_SEGMENTED))
def test_squared_value_segmented(measure):
    coords = iid_uniform(N3, D, seed=SEED).coords
    assert float(squared_value(_spec(measure), coords)).hex() == VALUE_SEGMENTED[measure]


@pytest.mark.parametrize("case", sorted(CONTRIBUTION))
def test_greedy_contribution(case, points):
    measure, _, d = case.partition("-d")
    if d:
        d = int(d)
        gamma = np.resize(GAMMA, d) if measure.endswith("weighted") else None
        spec, y = kernel_spec(measure, d, gamma), np.resize(Y, d)
        points = iid_uniform(N, d, seed=SEED)
    else:
        spec, y = _spec(measure), Y
    got = float(greedy_contribution(spec, points, y))
    assert got.hex() == CONTRIBUTION[case]


@pytest.mark.parametrize("measure", sorted(EXPECTED_IID))
def test_expected_iid_squared(measure):
    got = float(expected_iid_squared(measure, N, D, gamma=_gamma(measure)))
    assert got.hex() == EXPECTED_IID[measure]


@pytest.mark.parametrize("case", sorted(GRADIENT_SHA256))
def test_value_and_gradient(case, points):
    measure, _, small = case.partition("-")
    if small:
        spec, coords = _spec(measure, D2), iid_uniform(N2, D2, seed=SEED).coords
    else:
        spec, coords = _spec(measure), points.coords
    value, grad = value_and_gradient(spec, coords)
    assert float(value).hex() == (VG_VALUE[case] if small else VALUE[measure])
    assert _digest(grad) == GRADIENT_SHA256[case]


@pytest.mark.parametrize("measure", sorted(GRADIENT_SEGMENTED_SHA256))
def test_value_and_gradient_segmented(measure):
    coords = iid_uniform(N3, D, seed=SEED).coords
    value, grad = value_and_gradient(_spec(measure), coords)
    assert float(value).hex() == VALUE_SEGMENTED[measure]
    assert _digest(grad) == GRADIENT_SEGMENTED_SHA256[measure]


@pytest.mark.parametrize("measure", sorted(GRADIENT_LATTICE_SHA256))
def test_value_and_gradient_lattice(measure):
    axis = np.linspace(0.0, 1.0, LATTICE_K)
    coords = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grad = value_and_gradient(kernel_spec(measure, 2), coords)[1]
    assert _digest(grad) == GRADIENT_LATTICE_SHA256[measure]


@pytest.mark.parametrize("measure", sorted(GREEDY_FINAL))
def test_greedy_extend_final(measure, points):
    cfg = GreedyConfig(batch=2, grid_k=9, max_refine_evaluations=200)
    _, trace = greedy_extend(_spec(measure), PointSet(points.coords[:10]), 2, cfg)
    assert float(trace.final_value).hex() == GREEDY_FINAL[measure]


@pytest.mark.parametrize("measure", sorted(MC_EXPECTED_IID))
def test_mc_expected_iid(measure):
    est = mc_expected_iid(measure, 5, 2, 300, 3, gamma=_gamma(measure, 2))
    assert float(est.mean).hex() == MC_EXPECTED_IID[measure]


def test_mc_expected_iid_chunked():
    est = mc_expected_iid("sym", 4, 2, 10_000, 5)
    assert (float(est.mean).hex(), float(est.stderr).hex()) == MC_EXPECTED_IID_CHUNKED


def test_greedy_extend_pattern_scale():
    start = iid_uniform(64, 3, seed=SEED)
    final, trace = greedy_extend(_spec("mix"), start, 2,
                                 GreedyConfig(batch=2, grid_k=17))
    assert (float(trace.final_value).hex(), _digest(final.coords)) == GREEDY_PATTERN


@pytest.mark.parametrize("case", sorted(MC_SQUARED))
def test_mc_squared_discrepancy(case):
    measure, dim, n = (case + "-n8").split("-")[:3]
    pts = iid_uniform(int(n[1:]), int(dim[1:]), seed=SEED)
    est = mc_squared_discrepancy(measure, pts, 70_000, seed=41)
    assert (float(est.mean).hex(), float(est.stderr).hex()) == MC_SQUARED[case]


def test_optimize_per_final(points):
    cfg = OptimizerConfig(restarts=2, iterations=40, seed=1)
    _, trace = optimize(_spec("per"), PointSet(points.coords[:8]), cfg)
    assert float(trace.final_value).hex() == OPTIMIZE_PER_FINAL
