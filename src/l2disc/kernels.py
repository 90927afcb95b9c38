"""Kernel triples (A, B, C) defining each squared L2 discrepancy.

Every measure here admits the same closed form on a point set
``x_1, ..., x_n`` in [0,1]^d:

    D^2 = A  -  (2/n) * sum_i prod_j B_j(x_ij)
             +  (1/n^2) * sum_{i,i'} prod_j C_j(x_ij, x_i'j)

with a constant ``A``, a one-argument factor ``B`` and a symmetric
two-argument factor ``C`` applied coordinate-wise.  The periodic measure has
no B term: it is encoded as B == 0 with A = -3^-d, which keeps its values
bit-for-bit those of the two-term form.  The weighted variants are
Hickernell's product weights applied to a base measure: B -> 1 + gamma_j B,
C -> 1 + gamma_j C and A -> prod_j (1 + gamma_j A(1)).

The coordinate-product sums of that form are written once, here:
``b_rows``, ``c_cross`` and ``c_diag`` multiply the factors in coordinate
order j = 0..d-1 into one accumulator, over any leading batch axes.

A KernelSpec also carries the expectation constants

    EB   = E[B(u)]          u uniform on [0,1]
    ECuv = E[C(u, v)]       u, v independent uniform
    ECuu = E[C(u, u)]

precomputed at construction by composite Gauss-Legendre quadrature with
panels split along the kink lines x = 1/2, z = 1/2 and x = z (the kernels
are piecewise polynomial, so the panel quadrature is exact to rounding).
These constants drive the expected squared discrepancy of IID sampling, and
they satisfy ``A - 2*EB^d + ECuv^d = 0`` for every measure — the constant
part of that expectation cancels exactly, which tests verify.

Subgradient conventions used by the derivative factors (relevant only on
measure-zero tie sets): sign(0) = 0 at absolute-value kinks, and ties of
max/min contribute slope one-half.  With these choices the diagonal pair
(i' = k) of the gradient formula is exact, not merely almost-everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import MeasureId, ValidationError, WeightVector

__all__ = ["KernelSpec", "kernel_spec", "expectation_constants"]


# ---------------------------------------------------------------------------
# per-measure factor definitions (vectorized over numpy arrays)
# ---------------------------------------------------------------------------


def _sign(x):
    # numpy sign already maps 0 -> 0, the subgradient convention we document
    return np.sign(x)


def _b_star(x):
    return (1.0 - x * x) / 2.0


def _db_star(x):
    return -x


def _c_star(x, z):
    return 1.0 - np.maximum(x, z)


def _dc_star(x, z):
    # d/dx [1 - max(x,z)]: -1 where x > z, -1/2 on the tie, 0 where x < z
    return -((x > z).astype(np.float64)) - 0.5 * (x == z)


def _b_ext(x):
    return x * (1.0 - x) / 2.0


def _db_ext(x):
    return 0.5 - x


def _c_ext(x, z):
    return np.minimum(x, z) - x * z


def _dc_ext(x, z):
    return (x < z).astype(np.float64) + 0.5 * (x == z) - z


def _c_per(x, z):
    t = x - z
    return 0.5 - np.abs(t) + t * t


def _dc_per(x, z):
    t = x - z
    return -_sign(t) + 2.0 * t


def _b_ctr(x):
    u = x - 0.5
    return (np.abs(u) - u * u) / 2.0


def _db_ctr(x):
    u = x - 0.5
    return 0.5 * _sign(u) - u


def _c_ctr(x, z):
    return (np.abs(x - 0.5) + np.abs(z - 0.5) - np.abs(x - z)) / 2.0


def _dc_ctr(x, z):
    return 0.5 * (_sign(x - 0.5) - _sign(x - z))


def _c_cad(x, z):
    # Factor for the discontinuous centered variant: zero unless both
    # arguments sit on the same side of 1/2 (ties at 1/2 count as the
    # upper side), else the smaller distance to that shared side.
    vx = x >= 0.5
    vz = z >= 0.5
    ax = np.where(vx, 1.0 - x, x)
    az = np.where(vz, 1.0 - z, z)
    return (vx == vz) * np.minimum(ax, az)


def _c_sym(x, z):
    return (1.0 - 2.0 * np.abs(x - z)) / 4.0


def _dc_sym(x, z):
    return -0.5 * _sign(x - z)


def _b_mix(x):
    u = x - 0.5
    return 2.0 / 3.0 - np.abs(u) / 4.0 - u * u / 4.0


def _db_mix(x):
    u = x - 0.5
    return -_sign(u) / 4.0 - u / 2.0


def _c_mix(x, z):
    t = np.abs(x - z)
    return (
        7.0 / 8.0
        - (np.abs(x - 0.5) + np.abs(z - 0.5)) / 4.0
        - 0.75 * t
        + 0.5 * t * t
    )


def _dc_mix(x, z):
    return -_sign(x - 0.5) / 4.0 - 0.75 * _sign(x - z) + (x - z)


def _b_asd(x):
    return (1.0 + 2.0 * x - 2.0 * x * x) / 4.0


def _c_asd(x, z):
    return (1.0 - np.abs(x - z)) / 2.0


def _zero(x):
    # per's B and B': with B == 0 the B sum adds exactly 0.0, and A = -3^-d
    # is the constant of per's two-term form, so its values keep their bits
    return np.zeros(np.shape(x))


# Unweighted measures: (B, B', C, dC/dx, A(d), continuous, geometric); a
# factor shared by several measures is defined once, under the first of them
_PLAIN = {
    MeasureId.STAR: (_b_star, _db_star, _c_star, _dc_star, lambda d: 3.0 ** -d, True, True),
    MeasureId.EXT: (_b_ext, _db_ext, _c_ext, _dc_ext, lambda d: 12.0 ** -d, True, True),
    MeasureId.PER: (_zero, _zero, _c_per, _dc_per, lambda d: -(3.0 ** -d), True, True),
    MeasureId.CTR: (_b_ctr, _db_ctr, _c_ctr, _dc_ctr, lambda d: 12.0 ** -d, True, True),
    MeasureId.CAD: (_b_ext, _db_ext, _c_cad, None, lambda d: 12.0 ** -d, False, True),
    MeasureId.SYM: (_b_ext, _db_ext, _c_sym, _dc_sym, lambda d: 12.0 ** -d, True, True),
    MeasureId.MIX: (_b_mix, _db_mix, _c_mix, _dc_mix, lambda d: (7.0 / 12.0) ** d, True, False),
    MeasureId.ASD: (_b_asd, _db_ext, _c_asd, _dc_sym, lambda d: 3.0 ** -d, True, True),
}

# Weighted measures: the base measure their product weights apply to
_WEIGHTED_BASE = {
    MeasureId.CTR_WEIGHTED: MeasureId.CTR,
    MeasureId.SYM_WEIGHTED: MeasureId.SYM,
}


@dataclass(frozen=True)
class KernelSpec:
    """A fully resolved kernel triple for one measure in one dimension count.

    The factor callables take the coordinate index ``j`` as their last
    argument; unweighted measures ignore it, weighted ones use it to pick
    gamma_j.  All callables broadcast over numpy arrays.

    ``eb``, ``ec_uv`` and ``ec_uu`` are scalars for unweighted measures and
    length-d arrays for the weighted ones; ``eb`` is 0.0 for ``per``, whose
    B is identically zero.  They are filled by quadrature at construction.
    """

    measure: MeasureId
    d: int
    a: float
    continuous: bool
    has_geometric_oracle: bool
    gamma: Optional[np.ndarray] = field(repr=False, default=None)
    b_col: Callable = field(repr=False, default=None)
    b_prime_col: Callable = field(repr=False, default=None)
    c_col: Callable = field(repr=False, default=None)
    c_dx_col: Optional[Callable] = field(repr=False, default=None)
    eb: "float | np.ndarray" = field(repr=False, default=0.0)
    ec_uv: "float | np.ndarray" = field(repr=False, default=0.0)
    ec_uu: "float | np.ndarray" = field(repr=False, default=0.0)

    # -- products over coordinates of the expectation constants ------------

    def _coordinate_product(self, const: "float | np.ndarray") -> float:
        if np.ndim(const) == 0:
            return float(const) ** self.d
        return float(np.prod(const))

    def eb_product(self) -> float:
        """prod_j E[B_j(u)]."""
        return self._coordinate_product(self.eb)

    def ecuv_product(self) -> float:
        return self._coordinate_product(self.ec_uv)

    def ecuu_product(self) -> float:
        return self._coordinate_product(self.ec_uu)


# ---------------------------------------------------------------------------
# coordinate-product sums of the kernel form
# ---------------------------------------------------------------------------
#
# Each helper multiplies the factors in coordinate order j = 0..d-1 into one
# accumulator in place: the fixed order keeps results bit-reproducible, and
# the in-place product keeps one (..., n, m) array alive, not two.


def b_rows(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """prod_j B_j(p_j) for every row of an (..., n, d) array, shape (..., n)."""
    out = np.ones(pts.shape[:-1])
    for j in range(spec.d):
        out *= spec.b_col(pts[..., j], j)
    return out


def c_cross(spec: KernelSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """prod_j C_j(l_ij, r_kj) for (..., n, d) and (..., m, d) arrays with the
    same leading axes, shape (..., n, m)."""
    out = np.ones(left.shape[:-1] + right.shape[-2:-1])
    for j in range(spec.d):
        out *= spec.c_col(left[..., :, None, j], right[..., None, :, j], j)
    return out


def c_diag(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """prod_j C_j(p_j, p_j) for every row of an (..., n, d) array, shape (..., n)."""
    out = np.ones(pts.shape[:-1])
    for j in range(spec.d):
        col = pts[..., j]
        out *= spec.c_col(col, col, j)
    return out


# ---------------------------------------------------------------------------
# quadrature for the expectation constants
# ---------------------------------------------------------------------------

_GL_ORDER = 24


@lru_cache(maxsize=None)
def _gl_nodes(order: int = _GL_ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _quad_interval(f, lo: float, hi: float) -> float:
    """Gauss-Legendre integral of f over [lo, hi] (empty intervals -> 0)."""
    if hi <= lo:
        return 0.0
    x, w = _gl_nodes()
    half = (hi - lo) / 2.0
    nodes = lo + half * (x + 1.0)
    return float(half * np.dot(w, f(nodes)))


def _quad_unit_1d(f) -> float:
    """Integral over [0,1] with a panel split at the kink x = 1/2."""
    return _quad_interval(f, 0.0, 0.5) + _quad_interval(f, 0.5, 1.0)


def _quad_triangle(f, lo: float, hi: float, lower: bool) -> float:
    """Integral of f(u, v) over the triangle of [lo,hi]^2 below (lower=True)
    or above the diagonal v = u, via iterated Gauss-Legendre.

    The inner interval collapses linearly toward the corner, which keeps the
    iterated integrand polynomial whenever f is polynomial on the triangle,
    so the rule stays exact to rounding for the kernels here.
    """
    x, w = _gl_nodes()
    half = (hi - lo) / 2.0
    u = lo + half * (x + 1.0)  # outer nodes, shape (k,)
    if lower:
        inner_lo, inner_hi = np.full_like(u, lo), u
    else:
        inner_lo, inner_hi = u, np.full_like(u, hi)
    ihalf = (inner_hi - inner_lo) / 2.0  # (k,)
    v = inner_lo[:, None] + ihalf[:, None] * (x[None, :] + 1.0)  # (k, k)
    vals = f(u[:, None], v)  # (k, k)
    inner = ihalf * (vals @ w)  # (k,)
    return float(half * np.dot(w, inner))


def _quad_rect(f, ulo, uhi, vlo, vhi) -> float:
    x, w = _gl_nodes()
    uh, vh = (uhi - ulo) / 2.0, (vhi - vlo) / 2.0
    u = ulo + uh * (x + 1.0)
    v = vlo + vh * (x + 1.0)
    vals = f(u[:, None], v[None, :])
    return float(uh * vh * np.dot(w, vals @ w))


def _quad_unit_square(f) -> float:
    """Integral over [0,1]^2 with panels split on u=1/2, v=1/2 and u=v."""
    total = 0.0
    halves = ((0.0, 0.5), (0.5, 1.0))
    for ulo, uhi in halves:
        for vlo, vhi in halves:
            if ulo == vlo:  # quadrant touches the diagonal: two triangles
                total += _quad_triangle(f, ulo, uhi, lower=True)
                total += _quad_triangle(f, ulo, uhi, lower=False)
            else:
                total += _quad_rect(f, ulo, uhi, vlo, vhi)
    return total


def _constants_for(b_col, c_col, j: int) -> tuple[float, float, float]:
    eb = _quad_unit_1d(lambda x: b_col(x, j))
    ec_uv = _quad_unit_square(lambda u, v: c_col(u, v, j))
    ec_uu = _quad_unit_1d(lambda x: c_col(x, x, j))
    return eb, ec_uv, ec_uu


def expectation_constants(spec: KernelSpec):
    """Recompute (E[B(u)], E[C(u,v)], E[C(u,u)]) for a spec by quadrature.

    Returns scalars for unweighted measures and length-d arrays for the
    weighted ones; E[B(u)] is 0.0 for ``per``, whose B is identically zero.
    The same routine fills the constants stored on the spec at construction;
    calling it again is the independent route used by verification tests.
    """
    if spec.gamma is None:
        return _constants_for(spec.b_col, spec.c_col, 0)
    cols = [_constants_for(spec.b_col, spec.c_col, j) for j in range(spec.d)]
    eb = np.array([c[0] for c in cols])
    ec_uv = np.array([c[1] for c in cols])
    ec_uu = np.array([c[2] for c in cols])
    return eb, ec_uv, ec_uu


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _factor_columns(measure: MeasureId, gamma: Optional[np.ndarray]):
    """(b_col, b_prime_col, c_col, c_dx_col) taking the coordinate index j.

    With ``gamma`` the factors of the base measure get the product-weight
    transform B -> 1 + g_j B, B' -> g_j B', C -> 1 + g_j C, dC -> g_j dC.
    """
    b, db, c, dc = _PLAIN[measure][:4]
    if gamma is None:
        return (
            lambda x, j: b(x),
            lambda x, j: db(x),
            lambda x, z, j: c(x, z),
            None if dc is None else (lambda x, z, j: dc(x, z)),
        )
    g = gamma
    return (
        lambda x, j: 1.0 + g[j] * b(x),
        lambda x, j: g[j] * db(x),
        lambda x, z, j: 1.0 + g[j] * c(x, z),
        lambda x, z, j: g[j] * dc(x, z),
    )


def kernel_spec(
    measure: "MeasureId | str", d: int, gamma=None
) -> KernelSpec:
    """Resolve a measure tag into a concrete kernel triple for dimension d.

    Parameters
    ----------
    measure : MeasureId or str
        One of the ten measure tags.
    d : int
        Number of coordinates, >= 1.
    gamma : array-like or WeightVector, optional
        Length-d nonnegative weights; required for the weighted measures and
        rejected for all others.
    """
    measure = MeasureId.parse(measure)
    d = int(d)
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")

    if measure.weighted:
        if gamma is None:
            raise ValidationError(f"measure {measure} requires a gamma weight vector")
        wv = gamma if isinstance(gamma, WeightVector) else WeightVector(np.asarray(gamma, dtype=np.float64))
        if wv.d != d:
            raise ValidationError(
                f"gamma has length {wv.d} but the point dimension is {d}"
            )
        g = wv.gamma
        base = _WEIGHTED_BASE[measure]
        # A(1) rounds 1/12 but 1/A(1) rounds back to exactly 12, so the
        # division gives the correctly rounded g_j/12 where g_j * A(1) is an
        # ulp off for some g_j
        a = float(np.prod(1.0 + g / (1.0 / _PLAIN[base][4](1))))
        continuous, geometric = True, False
    else:
        if gamma is not None:
            raise ValidationError(
                f"measure {measure} does not take a gamma weight vector"
            )
        g = None
        base = measure
        a_of_d, continuous, geometric = _PLAIN[measure][4:]
        a = float(a_of_d(d))

    b_col, b_prime_col, c_col, c_dx_col = _factor_columns(base, g)
    spec = KernelSpec(
        measure=measure,
        d=d,
        a=a,
        continuous=continuous,
        has_geometric_oracle=geometric,
        gamma=g,
        b_col=b_col,
        b_prime_col=b_prime_col,
        c_col=c_col,
        c_dx_col=c_dx_col,
    )
    eb, ec_uv, ec_uu = expectation_constants(spec)
    return replace(spec, eb=eb, ec_uv=ec_uv, ec_uu=ec_uu)
