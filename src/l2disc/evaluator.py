"""Closed-form evaluation: values, gradients, and insertion contributions.

All routines run in O(d n^2) time.  Values sum the kernel matrix in blocks
along numpy's pairwise tree (the bits of one sum); the value and gradient
come from one pass over column tiles of T points of the per-coordinate
(n, T) factors with their leave-one-out products, in about (2d + 3) n T
floats.  T is a fixed function of (n, d).  Accumulation order is fixed
(squared_value: constant A, minus the B sum, plus the C sum;
value_and_gradient: A plus the math.fsum of the tile C sums, minus the B
sum; numpy's pairwise reductions over fixed shapes), so repeated runs are
bit-identical.  The two orders differ, so the two functions can disagree in
the last bits of the value for the same points.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    MeasureId,
    NonDifferentiableMeasureError,
    PointSet,
    SquaredDiscrepancy,
    ValidationError,
    check_unit_cube,
)
from .kernels import KernelSpec, b_rows, c_cross, c_diag, kernel_spec

__all__ = [
    "squared_value",
    "squared_discrepancy",
    "asd_by_reflection",
    "gradient",
    "value_and_gradient",
    "greedy_contribution",
]

_ASD_REFLECTION_MAX_D = 20
# floats in one (n, T) tile of value_and_gradient: T = max(2, this // (n d))
_TILE_FLOATS = 1 << 19
# B: floats per squared_value leaf and greedy chunk; >= 128, numpy's pairwise block
_SUM_BLOCK = 1 << 14


def _checked_coords(spec: KernelSpec, coords) -> np.ndarray:
    """coords as a float64 (n, d) array in [0, 1]^d with d matching spec.

    O(nd) against the O(n^2 d) evaluation it guards, so every public
    evaluation path runs it.
    """
    coords = np.asarray(coords, dtype=np.float64)
    check_unit_cube(coords)
    if coords.shape[1] != spec.d:
        raise ValidationError(
            f"kernel spec is for d={spec.d} but the points have d={coords.shape[1]}"
        )
    return coords


def squared_value(spec: KernelSpec, coords: np.ndarray) -> float:
    """Raw squared discrepancy of an (n, d) coordinate matrix.

    It sums the (n, n) kernel matrix in blocks along numpy's pairwise tree,
    with the bits of the unblocked sum.  `squared_discrepancy` adds types and
    the negative-value guard; the optimizers run on `value_and_gradient`.
    """
    coords = _checked_coords(spec, coords)
    n = coords.shape[0]
    acc = spec.a - 2.0 * float(b_rows(spec, coords).sum()) / n
    acc = acc + float(_c_sum(spec, coords)) / (n * n)
    return acc


def _c_sum(spec: KernelSpec, coords: np.ndarray, lo: int = 0, hi: int | None = None):
    """Sum of c_cross(spec, coords, coords).ravel()[lo:hi] along numpy's pairwise
    tree, in leaves of <= B floats that build only the rows they touch."""
    n = coords.shape[0]
    hi = n * n if hi is None else hi
    if hi - lo > _SUM_BLOCK:
        half = (hi - lo) // 2
        half -= half % 8
        return _c_sum(spec, coords, lo, lo + half) + _c_sum(spec, coords, lo + half, hi)
    r0 = lo // n
    flat = c_cross(spec, coords[r0:-(-hi // n)], coords).ravel()
    return flat[lo - r0 * n:hi - r0 * n].sum()


def squared_discrepancy(spec: KernelSpec, points: PointSet) -> SquaredDiscrepancy:
    """Closed-form squared discrepancy of a point set under one measure."""
    value = squared_value(spec, points.coords)
    return SquaredDiscrepancy(spec.measure, value, points.n, points.d)


def asd_by_reflection(points: PointSet) -> SquaredDiscrepancy:
    """Average of the star squared discrepancy over all 2^d reflected copies.

    This is the defining form of the `asd` measure: for every subset of
    coordinates, reflect the complementary coordinates through the cube
    center, take the star squared discrepancy, and average.  It costs
    2^d full evaluations and exists as the independent route against the
    single `asd` kernel evaluation; refuse d > 20 rather than attempt a
    million-term average.
    """
    d = points.d
    if d > _ASD_REFLECTION_MAX_D:
        raise ValidationError(
            f"reflection average needs 2^d star evaluations; d={d} > "
            f"{_ASD_REFLECTION_MAX_D} is refused (use the asd kernel instead)"
        )
    star = kernel_spec(MeasureId.STAR, d)
    coords = points.coords
    flipped = 1.0 - coords
    total = 0.0
    # subsets in fixed mask order for reproducibility; bit j set = coordinate
    # j+1 kept, cleared = reflected
    for mask in range(1 << d):
        keep = (mask >> np.arange(d)) & 1 == 1
        total += squared_value(star, np.where(keep, coords, flipped))
    value = total / (1 << d)
    return SquaredDiscrepancy(MeasureId.ASD, value, points.n, points.d)


def _leave_one_out(factors):
    """Yield prod_{l != j} f_l for j = 0..d-1, with no division (safe at zeros).

    Each product is (f_0 ... f_{j-1}) * (f_{d-1} ... f_{j+1}): a running
    prefix times a suffix built from the last factor down, each multiplied in
    scan order: the association the pinned gradient bits were recorded with.
    Empty prefixes and suffixes are left out instead of multiplied in as 1.0,
    which changes no bit and saves two array products per call.
    """
    if len(factors) == 1:
        yield 1.0
        return
    suffixes = [factors[-1]]
    for f in factors[-2:0:-1]:
        suffixes.append(suffixes[-1] * f)
    yield suffixes.pop()
    prefix = factors[0]
    for f in factors[1:-1]:
        yield prefix * suffixes.pop()
        prefix = prefix * f
    yield prefix


def gradient(spec: KernelSpec, points: PointSet) -> np.ndarray:
    """Gradient of the squared discrepancy in every coordinate, shape (n, d).

    Defined for the continuous measures only.  On the measure-zero kink sets
    the subgradient conventions documented in the kernel module apply.
    """
    return value_and_gradient(spec, points.coords)[1]


def value_and_gradient(spec: KernelSpec, coords: np.ndarray) -> tuple[float, np.ndarray]:
    """Fused squared value and gradient from one leave-one-out pass.

    The C part runs over column tiles of T = max(2, 2^19 // (n d)) points.
    A tile keeps the d per-coordinate (n, T) C factors, their d - 1 suffix
    products and a few (n, T) work arrays alive: about (2d + 3) n T floats.
    Every gradient entry is summed over the rows k = 0..n-1 in order, so
    the gradient does not depend on T.  The value's C sum is the math.fsum
    of the tile sums (with one tile, that tile's sum); it can differ in its
    last bits from `squared_value`, which sums in another order.
    """
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure} has a discontinuous kernel; no gradient exists"
        )
    coords = _checked_coords(spec, coords)
    n, d = coords.shape
    grad = np.empty((n, d))

    # C part.  Every C factor is symmetric bit-for-bit, so each product
    # E_j left out is too; the derivative is laid out (k, i) so that its
    # axis-0 sum adds the rows k = 0..n-1 in order, the summation order of
    # the pinned gradients.  numpy sums an (n, 1) column pairwise instead,
    # so a trailing tile of width 1 joins the tile before it.  rows[j] holds
    # x_kj down the rows, cols[j] the tile's x_ij across the columns.
    width = max(2, _TILE_FLOATS // (n * d))
    rows = [col[:, None] for col in coords.T]
    c_sums = []
    for i0 in range(0, max(n - 1, 1), width):
        i1 = n if i0 + width >= n - 1 else i0 + width
        cols = coords[i0:i1].T
        cs = [spec.c_col(rows[j], cols[j], j) for j in range(d)]
        for j, exc in enumerate(_leave_one_out(cs)):
            if j == 0:
                c_sums.append(float((exc * cs[0]).sum()))
            dct = spec.c_dx_col(cols[j], rows[j], j)
            dct *= exc
            grad[i0:i1, j] = dct.sum(axis=0)
    value = spec.a + math.fsum(c_sums) / (n * n)
    grad *= 2.0 / (n * n)

    bs = [spec.b_col(col, j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(_leave_one_out(bs)):
        if j == 0:
            value -= 2.0 * float((exc * bs[0]).sum()) / n
        grad[:, j] -= (2.0 / n) * spec.b_prime_col(coords[:, j], j) * exc
    return value, grad


def greedy_contribution(spec: KernelSpec, points: PointSet, y) -> float:
    """Objective scored by greedy insertion: the y-dependent part of the
    squared discrepancy of ``points + {y}``, rescaled by (n+1)^2 / (n+1).

    Explicitly:

        F(y) = -2 * prod_j B_j(y_j)
               + [ 2 * sum_i prod_j C_j(x_ij, y_j) + prod_j C_j(y_j, y_j) ] / (n+1)

    Adding the constant that collects all terms not involving y and
    dividing by (n+1) recovers the full squared discrepancy of the extended
    set, so the argmin over y of F equals the argmin of the extended
    discrepancy — a relation the tests verify pointwise.
    """
    coords = _checked_coords(spec, points.coords)
    ypt = _checked_coords(spec, np.reshape(y, (1, -1)))
    bprod = float(b_rows(spec, ypt)[0])
    cross = float(c_cross(spec, coords, ypt).sum())
    selfprod = float(c_diag(spec, ypt)[0])
    return -2.0 * bprod + (2.0 * cross + selfprod) / (coords.shape[0] + 1)
