"""Shared domain types for point sets in the unit cube.

Everything here is an immutable value object: point sets carry a read-only
coordinate matrix, and the transformation helpers return new objects.  All
arithmetic is IEEE double precision, and row order is always significant —
two runs over the same inputs must produce bit-identical results.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EPS_NUM",
    "MeasureId",
    "PointSet",
    "WeightVector",
    "SquaredDiscrepancy",
    "ValidationError",
    "NumericGuardError",
    "NonDifferentiableMeasureError",
    "NoGeometricOracleError",
    "BudgetExhaustedError",
    "reflect",
    "nearest_vertex",
]

# Tolerated negative rounding slack for squared quantities.  A closed-form
# squared discrepancy may round to a tiny negative number; anything below
# -EPS_NUM indicates a real defect and trips NumericGuardError.
EPS_NUM = 1e-12


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericGuardError(ArithmeticError):
    """A squared quantity is negative beyond the tolerated rounding slack."""


class NonDifferentiableMeasureError(ValidationError):
    """A gradient was requested for a measure with a discontinuous kernel."""


class NoGeometricOracleError(ValidationError):
    """A geometric Monte Carlo estimate was requested for a measure that has
    no set-based definition."""


class BudgetExhaustedError(RuntimeError):
    """An evaluation budget ran out before a requested target was met."""


class MeasureId(enum.Enum):
    """Closed enumeration of the supported squared L2 discrepancy measures.

    Tags
    ----
    star          classic star discrepancy (anchored boxes ``[0, a)``)
    ext           extreme / unanchored discrepancy (boxes ``[a, b)``)
    per           periodic (wraparound) discrepancy on the torus
    ctr           centered discrepancy (boxes anchored at the nearest vertex)
    cad           centered anchor-dependent variant (boxes from the point to
                  the center plane; kernel is discontinuous)
    sym           symmetric discrepancy (even-reflection unions)
    mix           mixture discrepancy (no geometric set definition)
    asd           average squared discrepancy over all 2^d reflections
    ctr_weighted  coordinate-weighted centered discrepancy
    sym_weighted  coordinate-weighted symmetric discrepancy
    """

    STAR = "star"
    EXT = "ext"
    PER = "per"
    CTR = "ctr"
    CAD = "cad"
    SYM = "sym"
    MIX = "mix"
    ASD = "asd"
    CTR_WEIGHTED = "ctr_weighted"
    SYM_WEIGHTED = "sym_weighted"

    @classmethod
    def parse(cls, tag: "str | MeasureId") -> "MeasureId":
        """Parse a measure tag, rejecting anything outside the enumeration."""
        if isinstance(tag, MeasureId):
            return tag
        try:
            return cls(str(tag).strip().lower())
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ValidationError(
                f"unknown measure tag {tag!r}; known tags: {known}"
            ) from None

    @property
    def weighted(self) -> bool:
        return self in (MeasureId.CTR_WEIGHTED, MeasureId.SYM_WEIGHTED)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_unit_cube(arr: np.ndarray) -> None:
    """Raise ValidationError unless ``arr`` is an (n, d) array, n, d >= 1,
    of finite coordinates in [0, 1]."""
    if arr.ndim != 2:
        raise ValidationError(
            f"coords must be a 2-d array of shape (n, d), got shape {arr.shape}"
        )
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    # min and max propagate NaN, so two reductions pass every valid set; the
    # optimizers run this check on every iterate
    if 0.0 <= arr.min() and arr.max() <= 1.0:
        return
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(
            f"non-finite coordinate at row {bad[0]}, column {bad[1]}"
        )
    bad = np.argwhere((arr < 0.0) | (arr > 1.0))[0]
    raise ValidationError(
        f"coordinate out of [0, 1] at row {bad[0]}, column {bad[1]}: "
        f"{arr[bad[0], bad[1]]!r}"
    )


def check_seed(seed) -> int:
    """seed as an int; ValidationError unless it is a nonnegative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def check_count(name: str, count, least: int) -> int:
    """count as an int; ValidationError unless it is an integer >= least
    (a bool is not a count)."""
    if (not isinstance(count, (int, np.integer)) or isinstance(count, bool)
            or count < least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {count!r}")
    return int(count)


def check_positive(name: str, value) -> None:
    """ValidationError unless value is a finite real number > 0."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (math.isfinite(value) and value > 0)):
        raise ValidationError(f"{name} must be finite and positive, got {value!r}")


def check_point(name: str, p, d: "int | None" = None) -> np.ndarray:
    """p as a single point: a float64 vector in [0, 1]^d, d >= 1 (the given d, if any)."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a single point, got shape {arr.shape}")
    if d is not None and arr.size != d:
        raise ValidationError(f"{name} must share a dimension count d={d}, got {arr.size}")
    # the comparisons are False for NaN, so a NaN coordinate is outside
    if not arr.size or not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{name} must be finite and lie in [0, 1]^d with d >= 1")
    return arr


@dataclass(frozen=True)
class PointSet:
    """An ordered multiset of ``n`` points in the closed unit cube [0,1]^d.

    ``coords`` is an ``(n, d)`` float64 matrix; the input is copied and the
    copy is marked read-only.  Duplicate rows are legal (replicated designs
    are a meaningful degenerate case), and row order is preserved by every
    operation in this package.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=np.float64, copy=True, order="C")
        check_unit_cube(arr)
        object.__setattr__(self, "coords", _freeze(arr))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class WeightVector:
    """Per-coordinate nonnegative weights for the weighted measures."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.gamma, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("gamma must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValidationError("gamma entries must be finite and >= 0")
        object.__setattr__(self, "gamma", _freeze(arr))

    @property
    def d(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class SquaredDiscrepancy:
    """A squared discrepancy value tagged with its measure and set shape.

    ``value`` is the raw closed-form result and may round to a tiny negative
    number; clamping to zero happens only when the root is taken, never
    inside algebra, so identity tests always see the raw value.
    """

    measure: MeasureId
    value: float
    n: int
    d: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise NumericGuardError(f"squared discrepancy is not finite: {self.value!r}")
        if self.value < -EPS_NUM:
            raise NumericGuardError(
                f"squared discrepancy {self.value!r} is negative beyond -{EPS_NUM}"
            )

    @property
    def root(self) -> float:
        """sqrt of the squared value, clamped to [0, inf) at this boundary."""
        return math.sqrt(max(self.value, 0.0))


def reflect(points: PointSet, keep: Iterable[int]) -> PointSet:
    """Reflect a point set through the cube center in selected coordinates.

    Coordinates whose 1-based index appears in ``keep`` are left unchanged;
    every other coordinate ``x`` becomes ``1 - x``.  For coordinates on the
    uniform 2^-53 lattice (every value drawn by the generators here) the map
    is exact in binary floating point, so applying the same reflection twice
    restores the original set bit-for-bit.

    Parameters
    ----------
    points : PointSet
    keep : iterable of int
        1-based coordinate indices to keep fixed (the mathematical
        convention for subsets of {1, ..., d}).  May be empty (reflect
        everything) or the full set (identity).  A bool is not an index.
    """
    keep = list(keep)
    if any(isinstance(j, bool) or not isinstance(j, (int, np.integer)) for j in keep):
        raise ValidationError(f"reflection subset indices must be integers, got {keep!r}")
    kept = frozenset(int(j) for j in keep)
    d = points.d
    bad = sorted(j for j in kept if j < 1 or j > d)
    if bad:
        raise ValidationError(
            f"reflection subset contains indices {bad} outside 1..{d}"
        )
    out = 1.0 - points.coords
    for j in kept:
        out[:, j - 1] = points.coords[:, j - 1]
    return PointSet(out)


def nearest_vertex(a: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map a point of [0,1]^d to the nearest cube vertex in {0,1}^d.

    Ties at 1/2 resolve upward: component j is 1 exactly when ``a[j] >= 1/2``.
    A 2-d array is refused: it is not a single point.
    """
    return (check_point("point a", a) >= 0.5).astype(np.int64)
