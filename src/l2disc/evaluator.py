"""Closed-form evaluation: values, gradients, and insertion contributions.

All routines run in O(d n^2) time.  Values follow one summation rule, the
segment rule.  The columns of the kernel matrix are cut into segments of
128 points, numpy's pairwise-sum leaf, and row i belongs to row group
I = i // 128.  The partials of row i are the numpy sums of its segments
K >= I; the sum of segment K = I is taken once and each K > I is doubled,
which is exact.  C is symmetric, so the doubled upper blocks stand for the
lower ones, and only the kernel entries on and right of the diagonal
segments are computed.  The value is A - 2 sum B / n + fsum(partials) / n^2
with math.fsum, the exactly rounded sum.  Both the value and the value
with its gradient walk the same tiles, one per pair of segments I <= K
(`_segment_pairs`), so a tile's row sums are the partials of its rows,
`squared_value` equals the value returned by `value_and_gradient` bit for
bit, and for n <= 128 the one segment is the whole row.  A gradient row
follows the same segments: the partial of segment K is the numpy sum of
its 128 terms for K >= I and, for K < I, their pairwise sum down the
mirrored tile of row group K; the partials are added in segment order, so
for n <= 128 each gradient row is one numpy sum.
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
    reflect,
)
from .kernels import KernelSpec, b_rows, c_cross, factor_tiles, kernel_spec

__all__ = [
    "squared_value",
    "squared_discrepancy",
    "asd_by_reflection",
    "gradient",
    "value_and_gradient",
    "greedy_contribution",
]

_ASD_REFLECTION_MAX_D = 20
# floats per tile of stacked small sets, and per greedy chunk
_SUM_BLOCK = 1 << 14
# points per column segment of the value: numpy's pairwise sum adds up to
# 128 contiguous floats in one unrolled leaf
_SEGMENT = 128


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

    It builds the kernel matrix one pair of 128-point segments at a time,
    on and right of the diagonal, so only those entries are computed and
    only one (128, 128) tile is alive at once.  `squared_discrepancy` adds
    types and the negative-value guard; the optimizers run on
    `value_and_gradient`.
    """
    return _values(spec, _checked_coords(spec, coords)[None])[0]


def _segment_pairs(n: int):
    """Yield (i0, i1, k0, k1), the point ranges of each pair of 128-point
    segments I <= K once, row group by row group, the diagonal pair first."""
    for i0 in range(0, n, _SEGMENT):
        i1 = min(i0 + _SEGMENT, n)
        for k0 in range(i0, n, _SEGMENT):
            yield i0, i1, k0, min(k0 + _SEGMENT, n)


def _partial_cells(r: int, n: int) -> np.ndarray:
    """Zeroed (r, pairs, min(n, 128)) cells for the value partials: the pair
    of segments I <= K numbered p in `_segment_pairs` order keeps the
    segment-K partials of the rows of group I in cells [:, p, :rows]."""
    g = -(-n // _SEGMENT)
    return np.zeros((r, g * (g + 1) // 2, min(n, _SEGMENT)))


def _values(spec: KernelSpec, sets: np.ndarray) -> list[float]:
    """Each set's `squared_value`, bit for bit, for an (r, n, d) stack."""
    r, n, _ = sets.shape
    cells = _partial_cells(r, n)
    for p, (i0, i1, k0, k1) in enumerate(_segment_pairs(n)):
        # one tile holds as many small sets as fit in _SUM_BLOCK floats
        group = min(r, max(1, _SUM_BLOCK // ((i1 - i0) * (k1 - k0))))
        for s0 in range(0, r, group):
            # a lone set is indexed, not sliced: 2-D broadcasts cost numpy less
            at = s0 if group == 1 else slice(s0, s0 + group)
            part = sets[at]
            out = cells[at, p, :i1 - i0]
            c_cross(spec, part[..., i0:i1, :], part[..., k0:k1, :]).sum(axis=-1, out=out)
            # each later segment stands for its mirror image too
            if k0 > i0:
                out *= 2.0
    # B over one (r n, d) matrix: numpy's per-call cost is lower in 2-D
    b_sums = b_rows(spec, sets.reshape(r * n, -1)).reshape(r, n).sum(axis=1)
    return [_combine(spec, n, b, c) for b, c in zip(b_sums.tolist(), cells)]


def _combine(spec: KernelSpec, n: int, b_sum, partials: np.ndarray) -> float:
    """A - 2 b_sum / n + (exactly rounded sum of the partials) / n^2.

    The zeros of the short last row group's cells add nothing to the sum.
    """
    c_sum = math.fsum(partials.ravel().data)
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
    total = 0.0
    # subsets in fixed mask order for reproducibility; bit j set = coordinate
    # j+1 kept, cleared = reflected
    for mask in range(1 << d):
        keep = [j + 1 for j in range(d) if mask >> j & 1]
        total += squared_value(star, reflect(points, keep).coords)
    value = total / (1 << d)
    return SquaredDiscrepancy(MeasureId.ASD, value, points.n, points.d)


def _leave_one_out(factors, work=None):
    """Yield prod_{l != j} f_l for j = 0..d-1, with no division (safe at zeros).

    Each product is (f_0 ... f_{j-1}) * (f_{d-1} ... f_{j+1}): a running
    prefix times a suffix built from the last factor down, each multiplied in
    scan order; the last one, f_0 ... f_{d-2}, is the kernels module's
    coordinate product up to j = d - 2.
    Empty prefixes and suffixes are left out instead of multiplied in as 1.0,
    which changes no bit and saves two array products per call.  Given
    ``work``, d arrays shaped like the factors, the products are written
    into them and each yielded array is overwritten by a later one.
    """
    d = len(factors)
    if d == 1:
        yield 1.0
        return
    work = [None] * d if work is None else work
    suffixes = [factors[-1]]
    for f, out in zip(factors[-2:0:-1], work):
        suffixes.append(np.multiply(suffixes[-1], f, out=out))
    yield suffixes.pop()
    prefix = factors[0]
    for f in factors[1:-1]:
        yield np.multiply(prefix, suffixes.pop(), out=work[-2])
        prefix = np.multiply(prefix, f, out=work[-1])
    yield prefix


def gradient(spec: KernelSpec, points: PointSet) -> np.ndarray:
    """Gradient of the squared discrepancy in every coordinate, shape (n, d).

    Defined for the continuous measures only.  On the measure-zero kink sets
    the subgradient conventions documented in the kernel module apply.
    """
    return value_and_gradient(spec, points.coords)[1]


def value_and_gradient(spec: KernelSpec, coords: np.ndarray) -> tuple[float, np.ndarray]:
    """Fused squared value and gradient from one leave-one-out pass.

    The C part walks the tiles of `squared_value`, one per pair of segments
    I <= K.  Each pair is computed once: the tile's row sums give rows of I
    their segment-K partials and, for K > I, the column sums of the mirrored
    derivative, dC(z, x)/dx times the same leave-one-out product (exc is
    symmetric), give rows of K their segment-I partials; an odd derivative's
    mirror is -dC exactly, so there those rows subtract dC's column sums.
    Each row adds its per-segment partials in segment order to -0.0, which
    keeps the first one exactly, and for n <= 128 the one tile sums whole
    rows.  The value takes the segment rule's partials off the C products of
    the same tiles, so it is `squared_value`'s bit for bit.  The
    factors, their derivatives, their mirrors and the leave-one-out products
    are four (d, 128, 128) arrays (three with no mirror) allocated once per
    call, at most 0.5 d MiB.
    """
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure} has a discontinuous kernel; no gradient exists"
        )
    coords = _checked_coords(spec, coords)
    n, d = coords.shape
    fill, mirrored = factor_tiles(spec)
    grad = np.full((n, d), -0.0)
    cells = _partial_cells(1, n)[0]

    # the factors are laid out [j, i, k] = C_j(x_ij, x_kj), as in c_cross,
    # and the product left out at j = d - 1 is the prefix chain
    # f_0 ... f_{d-2}, so exc * cs[-1] and exc * bs[-1] have the bits of
    # c_cross and b_rows; right is a contiguous copy of the columns, which
    # numpy's broadcast (m, 1) x (1, k) loops run faster on than on strided
    # views.  -0.0 + x is x for every x, zeros included, so each row adds
    # every partial alike, in segment order.
    right = np.ascontiguousarray(coords.T)[:, None, :]
    # (d, m, k) tile arrays, one allocation each: the factors, their
    # derivatives, the leave-one-out products (x - z first) and the mirrors
    m = min(n, _SEGMENT)
    bufs = [np.empty((d, m * m)) for _ in range(4 if mirrored and n > m else 3)]
    for p, (i0, i1, k0, k1) in enumerate(_segment_pairs(n)):
        upper = k0 > i0
        cs, dcs, work, *ms = [b[:, :(i1 - i0) * (k1 - k0)].reshape(d, i1 - i0, k1 - k0)
                              for b in bufs]
        ms = ms[0] if upper and ms else None
        fill(coords[i0:i1].T[:, :, None], right[:, :, k0:k1], cs, dcs, ms, work)
        for j, exc in enumerate(_leave_one_out(list(cs), list(work))):
            dcs[j] *= exc
            grad[i0:i1, j] += dcs[j].sum(axis=1)
            # the rows of the tile's columns get their segment-I partials
            if ms is not None:
                ms[j] *= exc
                grad[k0:k1, j] += _column_sums(ms[j])
            elif upper:
                grad[k0:k1, j] -= _column_sums(dcs[j])
        # in place: no second tile-sized array; exc is not read again
        exc *= cs[-1]
        out = cells[p, :i1 - i0]
        exc.sum(axis=1, out=out)
        if upper:
            out *= 2.0
    grad *= 2.0 / (n * n)

    bs = [spec.b_col(col, j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(_leave_one_out(bs)):
        grad[:, j] -= (2.0 / n) * spec.b_prime_col(coords[:, j], j) * exc
    return _combine(spec, n, (exc * bs[-1]).sum(), cells), grad


def _column_sums(tile: np.ndarray) -> np.ndarray:
    """The column sums of a full row group's (128, k) tile, summed pairwise
    down the rows in place."""
    h = _SEGMENT // 2
    while h:
        tile[:h] += tile[h:2 * h]
        h //= 2
    return tile[0]


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
    selfprod = float(c_cross(spec, ypt, ypt)[0, 0])
    return -2.0 * bprod + (2.0 * cross + selfprod) / (coords.shape[0] + 1)
