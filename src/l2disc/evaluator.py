"""Closed-form evaluation: values, gradients, and insertion contributions.

All routines run in O(d n^2) time via vectorized pairwise kernel matrices.
Accumulation order is fixed (constant A, minus the B sum, plus the C sum,
with numpy's pairwise reductions over fixed shapes), so repeated runs are
bit-identical.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

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

    This is the allocation-light array path used by the optimizers; the
    public wrapper `squared_discrepancy` adds type packaging and the
    negative-value guard.
    """
    coords = _checked_coords(spec, coords)
    n = coords.shape[0]
    acc = spec.a - 2.0 * float(b_rows(spec, coords).sum()) / n
    acc = acc + float(c_cross(spec, coords, coords).sum()) / (n * n)
    return acc


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
    total = 0.0
    # subsets in fixed mask order for reproducibility; bit j set = coordinate
    # j+1 kept, cleared = reflected
    for mask in range(1 << d):
        refl = np.empty_like(coords)
        for j in range(d):
            if (mask >> j) & 1:
                refl[:, j] = coords[:, j]
            else:
                refl[:, j] = 1.0 - coords[:, j]
        total += squared_value(star, refl)
    value = total / (1 << d)
    return SquaredDiscrepancy(MeasureId.ASD, value, points.n, points.d)


def _prod_except(mat: np.ndarray, axis: int = -1) -> np.ndarray:
    """Products over one axis leaving each slot out, via prefix/suffix scans.

    Safe at exact zeros (no division), same shape as the input.
    """
    mat = np.moveaxis(mat, axis, -1)
    left = np.ones_like(mat)
    right = np.ones_like(mat)
    np.cumprod(mat[..., :-1], axis=-1, out=left[..., 1:])
    np.cumprod(mat[..., :0:-1], axis=-1, out=right[..., -2::-1])
    return np.moveaxis(left * right, -1, axis)


def gradient(spec: KernelSpec, points: PointSet) -> np.ndarray:
    """Gradient of the squared discrepancy in every coordinate, shape (n, d).

    Defined for the continuous measures only.  On the measure-zero kink sets
    the subgradient conventions documented in the kernel module apply.
    """
    _, grad = _value_and_gradient_arrays(spec, points.coords, want_value=False)
    return grad


def value_and_gradient(spec: KernelSpec, coords: np.ndarray) -> tuple[float, np.ndarray]:
    """Fused squared value and gradient sharing one kernel-matrix pass."""
    value, grad = _value_and_gradient_arrays(spec, coords, want_value=True)
    return value, grad


def _value_and_gradient_arrays(
    spec: KernelSpec, coords: np.ndarray, want_value: bool
) -> tuple[Optional[float], np.ndarray]:
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure} has a discontinuous kernel; no gradient exists"
        )
    coords = _checked_coords(spec, coords)
    n, d = coords.shape

    # C part: tensor of per-coordinate factors, pair products excluding each
    # coordinate, and the derivative in the first argument.
    cten = np.empty((n, n, d))
    dcten = np.empty((n, n, d))
    for j in range(d):
        col = coords[:, j]
        cten[:, :, j] = spec.c_col(col[:, None], col[None, :], j)
        dcten[:, :, j] = spec.c_dx_col(col[:, None], col[None, :], j)
    cexc = _prod_except(cten, axis=2)
    grad = (2.0 / (n * n)) * np.einsum("ikj,ikj->ij", dcten, cexc)

    value: Optional[float] = None
    if want_value:
        cfull = cexc[:, :, 0] * cten[:, :, 0]
        value = spec.a + float(cfull.sum()) / (n * n)

    bmat = np.empty((n, d))
    dbmat = np.empty((n, d))
    for j in range(d):
        bmat[:, j] = spec.b_col(coords[:, j], j)
        dbmat[:, j] = spec.b_prime_col(coords[:, j], j)
    bexc = _prod_except(bmat, axis=1)
    grad -= (2.0 / n) * dbmat * bexc
    if want_value:
        value -= 2.0 * float((bexc[:, 0] * bmat[:, 0]).sum()) / n

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
