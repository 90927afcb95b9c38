"""Monte Carlo geometric oracles for the discrepancy measures.

Each measure with a set-based definition is estimated directly from its
geometry: draw random anchor points, form the test region, compare the
empirical point count against the region volume, and average the squared
local discrepancy.  The geometric estimators never touch the kernel closed
forms, so they serve as an independent check of them (only mc_expected_iid
uses them: it values each IID set as squared_value does, bit for bit).

Test-region conventions per measure (x is a set point, a and b anchors):

  star  half-open box [0, a): membership is x_j < a_j in every coordinate.
  ext   box [a, b); an inverted pair (some a_j > b_j) is an empty box of
        volume 0, so rejected draws contribute zero inside the integral,
        matching the unnormalized closed form.
  per   coordinate-wise wraparound interval: [a_j, b_j) when a_j <= b_j,
        else [0, b_j) united with [a_j, 1).
  ctr   box between a and its nearest cube vertex; the vertex end is closed
        (membership x_j >= a_j on v_j = 1 coordinates, x_j < a_j on v_j = 0),
        which is the convention consistent with the closed form at boundary
        points.
  asd   box between a and the cube vertex nearest a second anchor b, with
        ctr's convention: the star box of one of the 2^d reflections, each
        drawn with probability 2^-d, whose average asd is.
  cad   box between a and the center plane: [a_j, 1/2) when a_j <= 1/2,
        else [1/2, a_j) — so 1/2 itself belongs to the upper-anchored box.
  sym   union of even orthants: x is inside exactly when the number of
        coordinates with x_j >= a_j is even; its volume has the closed form
        (1 + prod_j (2 a_j - 1)) / 2, which tests verify against an explicit
        sum over even-size vertex subsets.  The raw squared local
        discrepancy of this union integrates to 4^(d-1) times the value the
        sym closed form computes (the classical kernel normalizes by the
        2^(d-1) even orthants; at d = 1 the two coincide, and at one
        hand-checked d = 2 point the ratio is exactly 4), so the estimator
        divides delta by 2^(d-1) to target the same functional as the
        closed form.

Every region but sym is a product of one half-open interval lo_j <= x_j < hi_j
per coordinate (per's wraparound is the complement of [b_j, a_j)); sym's
membership is the parity of the count of x_j >= a_j.  Blocks of at most 255
points are compared, coordinate by coordinate, against a chunk's anchors laid
out as (d, m) rows, into reused bool buffers; each block's column sums are
exact uint8 counts, added into integer counts, so blocks move no bit.

All estimators stream through a fixed chunk size with Philox streams keyed
by the seed, so an estimate is a pure function of (inputs, samples, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    MeasureId,
    NoGeometricOracleError,
    PointSet,
    ValidationError,
    check_count,
    check_seed,
)
from .evaluator import _values
from .kernels import _GEOMETRIC, kernel_spec

__all__ = [
    "OracleEstimate",
    "box_membership",
    "local_discrepancy",
    "mc_squared_discrepancy",
    "mc_expected_iid",
    "even_subset_volume",
]

# Fixed accumulation chunk (do not make this configurable: the chunk
# boundaries define the floating-point summation order of an estimate).
_CHUNK = 1 << 16

_NEEDS_SECOND_ANCHOR = (MeasureId.EXT, MeasureId.PER, MeasureId.ASD)


@dataclass(frozen=True)
class OracleEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    samples: int
    seed: int

    def agrees_with(self, value: float, sigmas: float = 4.0) -> bool:
        """Whether a candidate value sits within `sigmas` standard errors."""
        return abs(value - self.mean) <= sigmas * self.stderr


def _require_geometric(measure: MeasureId) -> MeasureId:
    measure = MeasureId.parse(measure)
    if measure not in _GEOMETRIC:
        raise NoGeometricOracleError(
            f"measure {measure} has no geometric set definition; "
            "only the kernel closed form applies"
        )
    return measure


def _region_counts(
    measure: MeasureId, coords: np.ndarray, a: np.ndarray, b: "np.ndarray | None"
):
    """Point counts (m,) and volumes (m,) for a batch of test regions.

    coords: (n, d) set points; a, b: (m, d) anchor draws, taken as (d, m)
    rows.  A product region is x_j < hi_j, and lo_j <= x_j where it has a
    lower end (x_j >= 0 always holds), XORed with flip_j where per wraps or
    ctr's and asd's vertex end is closed, ANDed over the coordinates; sym
    XORs x_j >= a_j into a parity.  An inverted ext pair has an empty
    interval: an empty box of volume 0.
    """
    a, b = (None if v is None else np.ascontiguousarray(v.T) for v in (a, b))
    lo = flip = None
    hi, compare, combine = a, np.less, np.bitwise_and
    if measure is MeasureId.STAR:
        volume = a.prod(axis=0)
    elif measure is MeasureId.EXT:
        lo, hi = a, b
        volume = np.where((a <= b).all(axis=0), (b - a).prod(axis=0), 0.0)
    elif measure is MeasureId.PER:
        lo, hi, flip = np.minimum(a, b), np.maximum(a, b), a > b
        volume = np.where(a <= b, b - a, 1.0 - a + b).prod(axis=0)
    elif measure in (MeasureId.CTR, MeasureId.ASD):
        # the box's vertex coordinate is 1 (its end is closed) where the
        # anchor it is nearest to, a for ctr and b for asd, is >= 1/2
        flip = (a if measure is MeasureId.CTR else b) >= 0.5
        volume = np.where(flip, 1.0 - a, a).prod(axis=0)
    elif measure is MeasureId.CAD:
        lo, hi = np.minimum(a, 0.5), np.maximum(a, 0.5)
        volume = np.abs(a - 0.5).prod(axis=0)
    else:  # sym
        compare, combine = np.greater_equal, np.bitwise_xor
        volume = (1.0 + (2.0 * a - 1.0).prod(axis=0)) / 2.0
    counts = np.zeros(a.shape[1], dtype=np.intp)
    # a uint8 column sum counts at most 255 points exactly
    buffers = np.empty((3, min(len(coords), 255), a.shape[1]), dtype=bool)
    for p in range(0, len(coords), 255):
        inside, hit, low = buffers[:, :len(coords) - p]
        inside[...] = True  # also sym's parity: no x_j >= a_j yet is even
        for j, x in enumerate(coords[p:p + 255].T[:, :, None]):
            compare(x, hi[j], out=hit)
            if lo is not None:
                hit &= np.greater_equal(x, lo[j], out=low)
            if flip is not None:
                hit ^= flip[j]
            combine(inside, hit, out=inside)
        counts += np.add.reduce(inside.view(np.uint8), axis=0, dtype=np.uint8)
    return counts, volume


def _estimate(draw, count: int, chunk: int, seed: int) -> OracleEstimate:
    """Mean and standard error of ``count`` draws from ``draw(gen, m)``, which
    returns m of them from the seed's Philox stream, ``chunk`` at a time."""
    gen = np.random.Generator(np.random.Philox(seed))
    s1 = 0.0
    s2 = 0.0
    for start in range(0, count, chunk):
        g = draw(gen, min(chunk, count - start))
        s1 += float(g.sum())
        s2 += float((g * g).sum())
    mean = s1 / count
    var = max(s2 - count * mean * mean, 0.0) / (count - 1)
    return OracleEstimate(mean=mean, stderr=math.sqrt(var / count),
                          samples=count, seed=seed)


def _outside_cube(arr) -> bool:
    # the comparisons are False for NaN, so a NaN coordinate is outside
    return not np.all((arr >= 0.0) & (arr <= 1.0))


def box_membership(measure: "MeasureId | str", x, a, b=None):
    """Membership of a single point in one test region, with its volume.

    Returns (inside: bool, volume: float).  ``b`` is required for the
    two-anchor measures (ext, per, asd) and rejected otherwise.  For ext an
    inverted anchor pair (some a_j > b_j) is a rejected draw: membership
    is False and the volume is 0, mirroring the indicator inside the
    closed-form integral.
    """
    measure = _require_geometric(measure)
    xa = np.asarray(x, dtype=np.float64).reshape(1, -1)
    aa = np.asarray(a, dtype=np.float64).reshape(1, -1)
    if xa.shape != aa.shape:
        raise ValidationError("point and anchor must share a dimension count")
    if _outside_cube(xa) or _outside_cube(aa):
        raise ValidationError("point and anchors must be finite and lie in [0, 1]^d")
    if measure in _NEEDS_SECOND_ANCHOR:
        if b is None:
            raise ValidationError(f"measure {measure} needs a second anchor b")
        ba = np.asarray(b, dtype=np.float64).reshape(1, -1)
        if ba.shape != aa.shape or _outside_cube(ba):
            raise ValidationError("second anchor must lie in [0, 1]^d and match d")
    else:
        if b is not None:
            raise ValidationError(f"measure {measure} takes a single anchor")
        ba = None
    counts, volume = _region_counts(measure, xa, aa, ba)
    return bool(counts[0]), float(volume[0])


def local_discrepancy(points: PointSet, inside: np.ndarray, volume: float) -> float:
    """Signed local discrepancy: covered fraction minus region volume."""
    inside = np.asarray(inside, dtype=bool).reshape(-1)
    if inside.size != points.n:
        raise ValidationError(
            f"membership vector has {inside.size} entries for {points.n} points"
        )
    return float(inside.sum()) / points.n - float(volume)


def mc_squared_discrepancy(
    measure: "MeasureId | str", points: PointSet, samples: int, seed: int
) -> OracleEstimate:
    """Monte Carlo estimate of the squared discrepancy from the geometry.

    Draws anchors uniformly, computes the squared local discrepancy of each
    test region (times the validity indicator for ext), and returns the
    sample mean with its standard error.
    """
    measure = _require_geometric(measure)
    samples = check_count("samples", samples, 2)
    seed = check_seed(seed)
    d = points.d
    two_anchor = measure in _NEEDS_SECOND_ANCHOR
    # sym normalization (see module docstring): the even-orthant union is
    # 2^(d-1) orthants wide, and the closed form measures the per-orthant
    # scale, so its delta shrinks accordingly.
    delta_scale = 0.5 ** (d - 1) if measure is MeasureId.SYM else 1.0

    def draw(gen, m):
        a = gen.random((m, d))
        b = gen.random((m, d)) if two_anchor else None
        counts, volume = _region_counts(measure, points.coords, a, b)
        delta = (counts.astype(np.float64) / points.n - volume) * delta_scale
        return delta * delta

    return _estimate(draw, samples, _CHUNK, seed)


def mc_expected_iid(
    measure: "MeasureId | str",
    n: int,
    d: int,
    replications: int,
    seed: int,
    gamma=None,
) -> OracleEstimate:
    """Monte Carlo estimate of E[D^2] over IID uniform sets of size n.

    Averages `squared_value`, bit for bit, over `replications` independent
    n-point sets.  Covers every measure (including those without a geometric
    definition), so it arbitrates the expectation identity.
    """
    spec = kernel_spec(measure, d, gamma=gamma)
    n = check_count("n", n, 1)
    replications = check_count("replications", replications, 2)
    seed = check_seed(seed)
    chunk = max(1, min(4096, (1 << 22) // (n * n)))  # fixes streams and sums
    return _estimate(lambda gen, r: np.array(_values(spec, gen.random((r, n, d)))),
                     replications, chunk, seed)


def even_subset_volume(a) -> float:
    """Volume of the even-reflection union by explicit vertex-subset summation.

    Sums, over every even-size subset S of coordinates, the volume of the
    cell {x : x_j >= a_j exactly for j in S}.  Exponential in d; exists as
    the independent check of the closed-form volume used by the sym oracle.
    """
    arr = np.asarray(a, dtype=np.float64).reshape(-1)
    d = arr.size
    if d == 0 or _outside_cube(arr):
        raise ValidationError("anchor must be finite and lie in [0, 1]^d with d >= 1")
    if d > 20:
        raise ValidationError("subset summation is exponential in d; d > 20 refused")
    total = 0.0
    for size in range(0, d + 1, 2):
        for subset in combinations(range(d), size):
            vol = 1.0
            for j in range(d):
                vol *= (1.0 - arr[j]) if j in subset else arr[j]
            total += vol
    return total
