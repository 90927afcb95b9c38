"""Independent closed-form check against scipy.stats.qmc.discrepancy.

scipy's centered discrepancy ``CD`` is Hickernell's squared centered L2
discrepancy, which is ``ctr_weighted`` with every gamma_j = 1; its
``L2-star`` is the root of the ``star`` value.  scipy sums in a different
order, and its own rounding error grows with n (about 6e-11 relative by
n = 1024), so the sets stay small enough for rtol = 1e-11.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.stats import qmc  # noqa: E402

from l2disc import iid_uniform, kernel_spec, sobol, squared_value  # noqa: E402

RTOL = 1e-11
CASES = [(n, d, kind) for n in (16, 64) for d in (1, 2, 3, 5) for kind in ("iid", "sobol")]


def _coords(n, d, kind):
    pts = iid_uniform(n, d, seed=1000 * n + d) if kind == "iid" else sobol(n, d)
    return pts.coords


@pytest.mark.parametrize("n,d,kind", CASES)
def test_ctr_weighted_unit_gamma_is_scipy_cd(n, d, kind):
    coords = _coords(n, d, kind)
    ours = squared_value(kernel_spec("ctr_weighted", d, gamma=[1.0] * d), coords)
    ref = qmc.discrepancy(coords, method="CD", workers=1)
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=0)


@pytest.mark.parametrize("n,d,kind", CASES)
def test_root_star_is_scipy_l2_star(n, d, kind):
    coords = _coords(n, d, kind)
    ours = np.sqrt(squared_value(kernel_spec("star", d), coords))
    ref = qmc.discrepancy(coords, method="L2-star", workers=1)
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=0)
