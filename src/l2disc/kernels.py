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

The coordinate products of that form are written once, here, each in
coordinate order j = 0..d-1 from 1.0: ``b_rows`` and ``c_cross`` over any
leading batch axes, and ``point_factors`` for the factors of one point.

A KernelSpec also carries the expectation constants

    EB   = E[B(u)]          u uniform on [0,1]
    ECuv = E[C(u, v)]       u, v independent uniform
    ECuu = E[C(u, u)]

precomputed by composite Gauss-Legendre quadrature with panels split along
the kink lines x = 1/2, z = 1/2 and x = z (the kernels are piecewise
polynomial, so the panel quadrature is exact to rounding), once per measure
for the unweighted ones, whose constants do not depend on d.
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
from functools import cache
from typing import Callable, Optional

import numpy as np

from .core import MeasureId, ValidationError, WeightVector, check_count

__all__ = ["KernelSpec", "kernel_spec", "expectation_constants"]


# ---------------------------------------------------------------------------
# per-measure factor definitions (vectorized over numpy arrays)
# ---------------------------------------------------------------------------


def _chain(c):
    """Where the later steps of a factor's ufunc chain write: over c, the
    array its first step wrote, or nowhere (a new result) when scalar
    arguments made c a numpy scalar."""
    return c if c.ndim else None


def _b_star(x):
    return (1.0 - x * x) / 2.0


def _db_star(x):
    return -x


def _c_star(x, z, t=None, out=None, tmp=None):
    c = np.maximum(x, z, out=out)
    return np.subtract(1.0, c, out=_chain(c))


def _dc_star(x, z, t, out=None, tmp=None, mirror=None):
    # d/dx [1 - max(x,z)]: -1 where x > z, -1/2 on the tie, -0.0 where x < z,
    # which is -(1 + s)/2 with s = sign(x - z), exactly
    s = np.sign(t, out=tmp)
    if mirror is not None:
        np.multiply(np.subtract(1.0, s, out=mirror), -0.5, out=mirror)
    return np.multiply(np.add(s, 1.0, out=out), -0.5, out=out)


def _b_ext(x):
    return x * (1.0 - x) / 2.0


def _db_ext(x):
    return 0.5 - x


def _c_ext(x, z, t=None, out=None, tmp=None):
    c = np.minimum(x, z, out=out)
    return np.subtract(c, np.multiply(x, z, out=tmp), out=_chain(c))


def _dc_ext(x, z, t, out=None, tmp=None, mirror=None):
    # [x < z] + [x == z]/2 - z, the step being (1 - s)/2 exactly
    s = np.sign(t, out=tmp)
    if mirror is not None:
        np.multiply(np.add(1.0, s, out=mirror), 0.5, out=mirror)
        np.subtract(mirror, x, out=mirror)
    return np.subtract(np.multiply(np.subtract(1.0, s, out=out), 0.5, out=out), z, out=out)


def _c_per(x, z, t=None, out=None, tmp=None):
    # 1/2 - |t| + t^2
    t = x - z if t is None else t
    c = np.abs(t, out=out)
    into = _chain(c)
    c = np.subtract(0.5, c, out=into)
    return np.add(c, np.multiply(t, t, out=tmp), out=into)


def _dc_per(x, z, t, out=None, tmp=None, mirror=None):
    # -sign(t) + 2t
    return np.subtract(np.multiply(t, 2.0, out=out), np.sign(t, out=tmp), out=out)


def _b_ctr(x):
    u = x - 0.5
    return (np.abs(u) - u * u) / 2.0


def _db_ctr(x):
    u = x - 0.5
    return 0.5 * np.sign(u) - u


def _c_ctr(x, z, t=None, out=None, tmp=None):
    # (|x - 1/2| + |z - 1/2| - |t|) / 2
    c = np.add(np.abs(x - 0.5), np.abs(z - 0.5), out=out)
    into = _chain(c)
    c = np.subtract(c, np.abs(x - z if t is None else t, out=tmp), out=into)
    return np.multiply(c, 0.5, out=into)


def _dc_ctr(x, z, t, out=None, tmp=None, mirror=None):
    # (sign(x - 1/2) - sign(x - z)) / 2
    s = np.sign(t, out=tmp)
    if mirror is not None:
        np.multiply(np.add(np.sign(z - 0.5), s, out=mirror), 0.5, out=mirror)
    return np.multiply(np.subtract(np.sign(x - 0.5), s, out=out), 0.5, out=out)


def _c_cad(x, z, t=None, out=None, tmp=None):
    # Factor for the discontinuous centered variant: zero unless both
    # arguments sit on the same side of 1/2 (ties at 1/2 count as the
    # upper side), else the smaller distance to that shared side.
    vx = x >= 0.5
    vz = z >= 0.5
    ax = np.where(vx, 1.0 - x, x)
    az = np.where(vz, 1.0 - z, z)
    return np.multiply(vx == vz, np.minimum(ax, az), out=out)


def _c_sym(x, z, t=None, out=None, tmp=None):
    # (1 - 2|t|) / 4
    c = np.abs(x - z if t is None else t, out=out)
    into = _chain(c)
    c = np.subtract(1.0, np.multiply(2.0, c, out=into), out=into)
    return np.multiply(c, 0.25, out=into)


def _dc_sym(x, z, t, out=None, tmp=None, mirror=None):
    return np.multiply(-0.5, np.sign(t, out=out), out=out)


def _b_mix(x):
    u = x - 0.5
    return 2.0 / 3.0 - np.abs(u) / 4.0 - u * u / 4.0


def _db_mix(x):
    u = x - 0.5
    return -np.sign(u) / 4.0 - u / 2.0


def _c_mix(x, z, t=None, out=None, tmp=None):
    # 7/8 - (|x - 1/2| + |z - 1/2|)/4 - 3|t|/4 + |t|^2/2; (t/2) t has the
    # bits of (|t|/2) |t|
    t = x - z if t is None else t
    c = np.add(np.abs(x - 0.5), np.abs(z - 0.5), out=out)
    into = _chain(c)
    c = np.subtract(7.0 / 8.0, np.multiply(c, 0.25, out=into), out=into)
    c = np.subtract(c, np.multiply(0.75, np.abs(t, out=tmp), out=tmp), out=into)
    return np.add(c, np.multiply(np.multiply(0.5, t, out=tmp), t, out=tmp), out=into)


def _dc_mix(x, z, t, out=None, tmp=None, mirror=None):
    # -sign(x - 1/2)/4 - 3 sign(t)/4 + t; t is read last, so tmp is unused
    s = np.multiply(0.75, np.sign(t, out=out), out=out)
    if mirror is not None:
        np.subtract(np.add(-np.sign(z - 0.5) / 4.0, s, out=mirror), t, out=mirror)
    return np.add(np.subtract(-np.sign(x - 0.5) / 4.0, s, out=out), t, out=out)


def _b_asd(x):
    return (1.0 + 2.0 * x - 2.0 * x * x) / 4.0


def _c_asd(x, z, t=None, out=None, tmp=None):
    # (1 - |t|) / 2
    c = np.abs(x - z if t is None else t, out=out)
    into = _chain(c)
    return np.multiply(np.subtract(1.0, c, out=into), 0.5, out=into)


def _zero(x):
    # per's B and B': with B == 0 the B sum adds exactly 0.0, and A = -3^-d
    # is the constant of per's two-term form, so its values keep their bits
    return np.zeros(np.shape(x))


# Unweighted measures: (B, B', C, dC/dx, A(d)); a factor shared by several
# measures is defined once, under the first of them.  cad's kernel jumps at
# 1/2, so it has no dC/dx and no gradient.  C and dC/dx are ufunc chains,
# in the order of their formulas (a product by 1/2 or 1/4 has the bits of
# the quotient by 2 or 4, and is faster), over the difference t = x - z (formed from
# x and z when not given).  They are the single definition behind a spec's
# c_col and c_dx_col, which pass their t, out, tmp and mirror on: with
# out=None they return new arrays; given arrays (the evaluator's factor
# tiles), they write into them, with the same bits.  C(x, z, t, out, tmp)
# may use tmp as scratch; dC/dx(x, z, t, out, tmp, mirror) may write the
# sign of t over tmp once it has read t, and from the same sign writes the
# mirrored derivative dC(z, x)/dx into `mirror`, unless dC/dx is odd.
_PLAIN = {
    MeasureId.STAR: (_b_star, _db_star, _c_star, _dc_star, lambda d: 3.0 ** -d),
    MeasureId.EXT: (_b_ext, _db_ext, _c_ext, _dc_ext, lambda d: 12.0 ** -d),
    MeasureId.PER: (_zero, _zero, _c_per, _dc_per, lambda d: -(3.0 ** -d)),
    MeasureId.CTR: (_b_ctr, _db_ctr, _c_ctr, _dc_ctr, lambda d: 12.0 ** -d),
    MeasureId.CAD: (_b_ext, _db_ext, _c_cad, None, lambda d: 12.0 ** -d),
    MeasureId.SYM: (_b_ext, _db_ext, _c_sym, _dc_sym, lambda d: 12.0 ** -d),
    MeasureId.MIX: (_b_mix, _db_mix, _c_mix, _dc_mix, lambda d: (7.0 / 12.0) ** d),
    MeasureId.ASD: (_b_asd, _db_ext, _c_asd, _dc_sym, lambda d: 3.0 ** -d),
}

# Measures with a set-based definition, which the Monte Carlo oracle
# estimates: every unweighted measure but mix
_GEOMETRIC = frozenset(_PLAIN) - {MeasureId.MIX}

# Measures whose dC/dx is odd in x - z: the mirrored derivative dC(z, x)/dx
# is -dC(x, z)/dx exactly, so it is never formed
_ODD_DERIVATIVE = frozenset({MeasureId.PER, MeasureId.SYM, MeasureId.ASD})


def mirrored(spec: "KernelSpec") -> bool:
    """Whether spec.c_dx_col writes the mirrored derivative dC(z, x)/dx into
    a given ``mirror``; False for an odd derivative, whose mirror is -dC."""
    return _base_measure(spec.measure) not in _ODD_DERIVATIVE


@dataclass(frozen=True)
class KernelSpec:
    """A fully resolved kernel triple for one measure in one dimension count.

    The factor callables are ``b_col(x, j)``, ``b_prime_col(x, j)``,
    ``c_col(x, z, j, t=None, out=None, tmp=None)`` and ``c_dx_col(x, z, j,
    t=None, out=None, tmp=None, mirror=None)``, with ``j`` the coordinate
    index: unweighted measures ignore it, weighted ones use it to pick
    gamma_j.  All callables broadcast over numpy arrays, an index array j
    too.  The C columns take the difference ``t = x - z`` when it is already
    formed, and write into ``out`` (with ``tmp`` as scratch) when given, with
    the bits of a new array; ``c_dx_col`` also writes dC(z, x)/dx into
    ``mirror`` where `mirrored` says so.

    ``eb``, ``ec_uv`` and ``ec_uu`` are scalars for unweighted measures and
    length-d arrays for the weighted ones; ``eb`` is 0.0 for ``per``, whose
    B is identically zero.  An unweighted measure's constants do not depend
    on d: they are computed by quadrature once per measure and shared by its
    specs; a weighted spec's are computed per axis at construction.
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
    # the first factor is the accumulator: 1.0 * C_0 has the bits of C_0
    out = spec.c_col(left[..., :, None, 0], right[..., None, :, 0], 0)
    for j in range(1, spec.d):
        out *= spec.c_col(left[..., :, None, j], right[..., None, :, j], j)
    return out


def point_factors(spec: KernelSpec, p: np.ndarray) -> tuple[list, list]:
    """[B_j(p_j)] and [C_j(p_j, p_j)] of one point, one call each over the axis
    indices; their math.prod has the bits of b_rows and c_cross on p[None]."""
    j = np.arange(spec.d)
    return spec.b_col(p, j).tolist(), spec.c_col(p, p, j).tolist()


# ---------------------------------------------------------------------------
# quadrature for the expectation constants
# ---------------------------------------------------------------------------

@cache
def _gauss_legendre():
    """24-point Gauss-Legendre nodes and weights on [-1, 1], loaded on first use."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(24)


def _quad_interval(f, lo: float, hi: float) -> float:
    """Gauss-Legendre integral of f over [lo, hi]."""
    x, w = _gauss_legendre()
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
    x, w = _gauss_legendre()
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
    x, w = _gauss_legendre()
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
    The same routine fills a weighted spec's constants at construction; an
    unweighted measure's are computed once per measure, by the same
    quadrature call, so they carry the same bits.  Calling it again is the
    independent route used by verification tests.
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


def _base_measure(measure: MeasureId) -> MeasureId:
    """The unweighted measure whose factors a (weighted) measure reweights."""
    return MeasureId(measure.value.removesuffix("_weighted"))


def _factor_columns(measure: MeasureId, g: Optional[np.ndarray]):
    """(b_col, b_prime_col, c_col, c_dx_col) taking the coordinate index j;
    c_dx_col is None where the measure has no dC/dx.

    With weights ``g`` the factors of the base measure get the product-weight
    transform B -> 1 + g_j B, B' -> g_j B', C -> 1 + g_j C, dC -> g_j dC
    (and the mirror -> g_j mirror), written into ``out`` when it is given.
    """
    b, db, c, dc = _PLAIN[measure][:4]

    def b_col(x, j):
        return b(x) if g is None else 1.0 + g[j] * b(x)

    def b_prime_col(x, j):
        return db(x) if g is None else g[j] * db(x)

    def c_col(x, z, j, t=None, out=None, tmp=None):
        col = c(x, z, t, out, tmp)
        return col if g is None else np.add(1.0, np.multiply(g[j], col, out=out), out=out)

    def c_dx_col(x, z, j, t=None, out=None, tmp=None, mirror=None):
        col = dc(x, z, x - z if t is None else t, out, tmp, mirror)
        if g is None:
            return col
        if mirror is not None:
            np.multiply(g[j], mirror, out=mirror)
        return np.multiply(g[j], col, out=out)

    return b_col, b_prime_col, c_col, None if dc is None else c_dx_col


@cache
def _plain_constants(measure: MeasureId) -> tuple[float, float, float]:
    """(E[B], E[C(u,v)], E[C(u,u)]) of an unweighted measure, for every d."""
    b_col, _, c_col, _ = _factor_columns(measure, None)
    return _constants_for(b_col, c_col, 0)


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
    d = check_count("d", d, 1)

    if measure.weighted:
        if gamma is None:
            raise ValidationError(f"measure {measure} requires a gamma weight vector")
        wv = gamma if isinstance(gamma, WeightVector) else WeightVector(np.asarray(gamma, dtype=np.float64))
        if wv.d != d:
            raise ValidationError(
                f"gamma has length {wv.d} but the point dimension is {d}"
            )
        g = wv.gamma
        base = _base_measure(measure)
        # A(1) rounds 1/12 but 1/A(1) rounds back to exactly 12, so the
        # division gives the correctly rounded g_j/12 where g_j * A(1) is an
        # ulp off for some g_j
        a = float(np.prod(1.0 + g / (1.0 / _PLAIN[base][4](1))))
    else:
        if gamma is not None:
            raise ValidationError(
                f"measure {measure} does not take a gamma weight vector"
            )
        g = None
        base = measure
        a = float(_PLAIN[measure][4](d))

    b_col, b_prime_col, c_col, c_dx_col = _factor_columns(base, g)
    spec = KernelSpec(
        measure=measure,
        d=d,
        a=a,
        continuous=c_dx_col is not None,
        has_geometric_oracle=measure in _GEOMETRIC,
        gamma=g,
        b_col=b_col,
        b_prime_col=b_prime_col,
        c_col=c_col,
        c_dx_col=c_dx_col,
    )
    eb, ec_uv, ec_uu = _plain_constants(measure) if g is None else expectation_constants(spec)
    return replace(spec, eb=eb, ec_uv=ec_uv, ec_uu=ec_uu)
