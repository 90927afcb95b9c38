"""Closed-form evaluation: values, gradients, and insertion contributions.

All routines run in O(d n^2) time under one summation rule: numpy sums each
point's kernel row sum_k C(x_i, x_k) as one contiguous length-n row, and
the value is A - 2 sum B / n + fsum(row sums) / n^2 with math.fsum, the
exactly rounded sum.  So values and gradients do not depend on how many rows
a block or tile holds, and `squared_value` equals the value returned by
`value_and_gradient` bit for bit.  The value and gradient come from one
pass over row tiles of the per-coordinate (T, n) factors with their
leave-one-out products, in about (2d + 3) n T floats.
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
# floats in one (T, n) tile of value_and_gradient: T = max(1, this // (n d))
_TILE_FLOATS = 1 << 19
# floats per value block and greedy chunk
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

    It builds the kernel matrix in blocks of whole rows, so only a few rows
    are alive at once.  `squared_discrepancy` adds types and the
    negative-value guard; the optimizers run on `value_and_gradient`.
    """
    return _values(spec, _checked_coords(spec, coords)[None])[0]


def _values(spec: KernelSpec, sets: np.ndarray) -> list[float]:
    """Each set's `squared_value`, bit for bit, for an (r, n, d) stack."""
    r, n, _ = sets.shape
    row_sums = np.empty((r, n))
    # kernel blocks of several whole sets, or of whole rows of one set
    group, step = max(1, _SUM_BLOCK // (n * n)), max(1, _SUM_BLOCK // n)
    for s0 in range(0, r, group):
        part = sets[s0:s0 + group]
        for i0 in range(0, n, step):
            c_cross(spec, part[:, i0:i0 + step], part).sum(
                axis=2, out=row_sums[s0:s0 + group, i0:i0 + step])
    # B over one (r n, d) matrix: numpy's per-call cost is lower in 2-D
    b_sums = b_rows(spec, sets.reshape(r * n, -1)).reshape(r, n).sum(axis=1)
    return [_combine(spec, n, b, rows) for b, rows in zip(b_sums.tolist(), row_sums)]


def _combine(spec: KernelSpec, n: int, b_sum, row_sums: np.ndarray) -> float:
    """A - 2 b_sum / n + (exactly rounded sum of the kernel row sums) / n^2."""
    c_sum = math.fsum(row_sums.data)
    return spec.a - 2.0 * float(b_sum) / n + c_sum / (n * n)


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
    scan order; the last one, f_0 ... f_{d-2}, is the kernels module's
    coordinate product up to j = d - 2.
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

    The C part runs over row tiles of T = max(1, 2^19 // (n d)) points.
    A tile keeps the d per-coordinate (T, n) C factors, their d - 1 suffix
    products and a few (T, n) work arrays alive: about (2d + 3) n T floats.
    Every row is summed whole, so neither value nor gradient depends on T.
    """
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure} has a discontinuous kernel; no gradient exists"
        )
    coords = _checked_coords(spec, coords)
    n, d = coords.shape
    grad = np.empty((n, d))

    # the factors are laid out [i, k] = C_j(x_ij, x_kj), as in c_cross, and
    # the product left out at j = d - 1 is the prefix chain f_0 ... f_{d-2},
    # so exc * cs[-1] and exc * bs[-1] have the bits of c_cross and b_rows;
    # right[j] is a contiguous copy of column j, which numpy's broadcast
    # (T, 1) x (1, n) loops run faster on than on a strided view
    step = max(1, _TILE_FLOATS // (n * d))
    right = np.ascontiguousarray(coords.T)[:, None, :]
    row_sums = np.empty(n)
    for i0 in range(0, n, step):
        left = coords[i0:i0 + step].T[:, :, None]
        cs = [spec.c_col(left[j], right[j], j) for j in range(d)]
        for j, exc in enumerate(_leave_one_out(cs)):
            dct = spec.c_dx_col(left[j], right[j], j)
            dct *= exc
            dct.sum(axis=1, out=grad[i0:i0 + step, j])
        (exc * cs[-1]).sum(axis=1, out=row_sums[i0:i0 + step])
    grad *= 2.0 / (n * n)

    bs = [spec.b_col(col, j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(_leave_one_out(bs)):
        grad[:, j] -= (2.0 / n) * spec.b_prime_col(coords[:, j], j) * exc
    return _combine(spec, n, (exc * bs[-1]).sum(), row_sums), grad


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
