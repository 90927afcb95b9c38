"""Replicated-point pathology analysis.

Every measure's squared discrepancy is affine in 1/n once the points are
IID uniform: with the stored expectation constants EB, ECuv, ECuu,

    E[D^2] = A - 2 prod_j E[B_j] + (1 - 1/n) prod_j E[C_j(u,v)]
               + (1/n) prod_j E[C_j(u,u)].

Placing all n points at one fixed anchor gives an n-independent value
A - 2 prod_j B_j(p) + prod_j C_j(p,p).  Comparing the two yields the
crossover sample size above which dispersed sampling wins.  A published
reference table lists all three quantities per measure; this module
recomputes them from the kernel constants and flags every disagreement
instead of silently adopting the published entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import MeasureId, PointSet, ValidationError, check_count, check_point
from .evaluator import squared_discrepancy
from .kernels import KernelSpec, kernel_spec

__all__ = [
    "PathologyRow",
    "ReferenceRow",
    "reference_row",
    "anchor_description",
    "anchor_point",
    "single_point_value",
    "expected_iid_squared",
    "iid_threshold",
    "check_asd_superiority",
    "pathology_table",
]

#: Relative tolerance for declaring a computed quantity equal to a
#: published closed form.
MATCH_RTOL = 1e-10

@dataclass(frozen=True)
class ReferenceRow:
    """Published closed forms for one measure, each as a function of d.

    ``single_value`` is None when the published table omits the entry;
    ``threshold_is_approximate`` marks entries the table itself prints
    as approximations.
    """

    n_times_expected: Callable[[int], float]
    anchor: str
    single_value: Optional[Callable[[int], float]]
    threshold: Callable[[int], float]
    threshold_is_approximate: bool = False


_REFERENCE = {
    MeasureId.STAR: ReferenceRow(
        lambda d: 2.0 ** -d - 3.0 ** -d, "all-ones vertex",
        lambda d: 3.0 ** -d, lambda d: 1.5 ** d - 1.0),
    MeasureId.EXT: ReferenceRow(
        lambda d: 6.0 ** -d - 12.0 ** -d, "any vertex",
        lambda d: 12.0 ** -d, lambda d: 2.0 ** d - 1.0),
    MeasureId.PER: ReferenceRow(
        lambda d: 2.0 ** -d - 3.0 ** -d, "any point",
        lambda d: 3.0 ** -d, lambda d: 1.5 ** d - 1.0),
    MeasureId.CTR: ReferenceRow(
        lambda d: 4.0 ** -d - 12.0 ** -d, "center",
        lambda d: 12.0 ** -d, lambda d: 3.0 ** d - 1.0),
    MeasureId.CAD: ReferenceRow(
        lambda d: 2.0 ** -d - 12.0 ** -d, "center",
        lambda d: 12.0 ** -d - 2.0 * 8.0 ** -d + 2.0 ** -d,
        lambda d: 6.0 ** d - 1.0),
    MeasureId.MIX: ReferenceRow(
        lambda d: 0.75 ** d - (7.0 / 12.0) ** d, "any vertex",
        None, lambda d: (9.0 / 7.0) ** d, threshold_is_approximate=True),
    MeasureId.SYM: ReferenceRow(
        lambda d: 4.0 ** -d - 12.0 ** -d, "center",
        lambda d: 12.0 ** -d - 2.0 * 8.0 ** -d + 4.0 ** -d,
        lambda d: 1.0),
    MeasureId.ASD: ReferenceRow(
        lambda d: 2.0 ** -d - 3.0 ** -d, "center",
        lambda d: 2.0 ** -d - 2.0 * 0.375 ** d + 3.0 ** -d,
        lambda d: 1.0),
}

#: Row order of the published reference table.
TABLE_MEASURES = tuple(_REFERENCE)

_NOTES = {
    MeasureId.PER: (
        "published single-point value and threshold are inconsistent with "
        "the kernel closed form: any replicated point scores 2^-d - 3^-d, "
        "equal to n*E[D^2], so the crossover is exactly 1"),
    MeasureId.CAD: (
        "published n*E[D^2] = 2^-d - 12^-d disagrees with the kernel "
        "constants, which give 4^-d - 12^-d (confirmed by Monte Carlo); "
        "the published threshold 6^d - 1 equals the published n*E divided "
        "by 12^-d rather than by the printed single-point value"),
    MeasureId.MIX: (
        "published table omits the single-point value; every vertex gives "
        "(7/12)^d - 2*(23/48)^d + (5/8)^d, and the resulting crossover "
        "grows like (6/5)^d, well below the published approximation "
        "(9/7)^d"),
    MeasureId.SYM: (
        "published threshold 1 is unattainable: the exact crossover is "
        "(4^-d - 12^-d) / (12^-d - 2*8^-d + 4^-d), equal to 2 at d=1 "
        "(an IID pair exactly ties the replicated center) and decreasing "
        "toward 1, so the printed value holds as an integer statement "
        "only for d >= 2"),
    MeasureId.ASD: (
        "published threshold 1 is unattainable: the exact crossover is "
        "(2^-d - 3^-d) / (2^-d - 2*(3/8)^d + 3^-d), equal to 2 at d=1 "
        "(an IID pair exactly ties the replicated center) and decreasing "
        "toward 1, so the printed value holds as an integer statement "
        "only for d >= 2"),
}


@dataclass(frozen=True)
class PathologyRow:
    """One measure's pathology summary in dimension d.

    ``n_times_expected`` is n*E[D^2] for IID points (n-independent),
    ``single_value`` the squared discrepancy of any number of copies of
    the anchor, and ``threshold`` the real t with: dispersed sampling
    beats the replicated anchor iff n > t.  The three ``*_match`` fields
    compare each column against the published closed forms at relative
    1e-10 ("not-listed" when the table omits the entry), and
    ``table1_match`` is "match" only when every listed column agrees.
    """

    measure: MeasureId
    d: int
    n_times_expected: float
    anchor: str
    single_value: float
    threshold: float
    table1_match: str
    expected_match: str
    single_match: str
    threshold_match: str
    notes: str = ""


def reference_row(measure: MeasureId) -> ReferenceRow:
    """The published closed forms for one of the eight unweighted measures."""
    measure = MeasureId.parse(measure)
    try:
        return _REFERENCE[measure]
    except KeyError:
        raise ValidationError(
            f"no published reference row for measure {measure.value!r}"
        ) from None


def anchor_description(measure: MeasureId) -> str:
    """Human-readable description of the measure's replicated anchor."""
    measure = MeasureId.parse(measure)
    return "center" if measure.weighted else _REFERENCE[measure].anchor


def anchor_point(measure: MeasureId, d: int) -> np.ndarray:
    """Numeric anchor used for the single-point column.

    Measures whose anchor is "any vertex" or "any point" use a concrete
    representative (the all-ones vertex, resp. the center); the value is
    location-independent for those measures, which the tests assert.
    """
    d = check_count("d", d, 1)
    if anchor_description(measure).endswith("vertex"):
        return np.ones(d)
    return np.full(d, 0.5)


def single_point_value(measure, d: int, anchor, *, gamma=None) -> float:
    """Squared discrepancy of n identical copies of ``anchor``, any n.

    With all points coincident the closed form collapses to
    A - 2 prod_j B_j(p) + prod_j C_j(p, p), independent of n, so the
    value is computed from a single-point set.  ``anchor`` is a single
    point: a 2-d array is refused.
    """
    spec = kernel_spec(measure, d, gamma)
    anchor = check_point("anchor", anchor, spec.d)
    return squared_discrepancy(spec, PointSet(anchor[None])).value


def _constant_products(spec: KernelSpec) -> float:
    """J = prod(ECuu) - prod(ECuv), so that E[D^2] = J/n exactly: the
    constant A - 2*prod(EB) + prod(ECuv) vanishes analytically for every
    measure and is left out rather than added as a rounding residue."""
    return spec.ecuu_product() - spec.ecuv_product()


def expected_iid_squared(measure, n: int, d: int, *, gamma=None) -> float:
    """E[D^2] for n IID uniform points, from the stored constants."""
    n = check_count("n", n, 1)
    return _constant_products(kernel_spec(measure, d, gamma)) / n


def _crossover(spec: KernelSpec) -> tuple[float, float, float]:
    """(J, single, t): n*E[D^2] of IID points, the replicated anchor's
    value, and the crossover t = J / single (+inf if single <= 0), taken
    for an unweighted measure from `_scaled_crossover`."""
    anchor = anchor_point(spec.measure, spec.d)
    j = _constant_products(spec)
    single = single_point_value(spec.measure, spec.d, anchor, gamma=spec.gamma)
    num, den = (j, single) if spec.gamma is not None else _scaled_crossover(spec, anchor[0])
    return j, single, (num / den if den > 0.0 else math.inf)


def _scaled_crossover(spec: KernelSpec, p: float) -> tuple[float, float]:
    """J / m^d and single / m^d for an unweighted anchor with coordinate p on
    every axis: J = u^d - v^d and single = A - 2 b^d + c^d, with u, v = E C(u,u),
    E C(u,v), b, c = B(p), C(p, p) and A = ±|A_1|^d.  Every 1-D constant is
    divided by the largest magnitude m before its power is taken, so the
    ratio stays finite where J and single leave float range (12^-d is 0.0
    from d = 300)."""
    a1 = kernel_spec(spec.measure, 1).a
    b, c = float(spec.b_col(p, 0)), float(spec.c_col(p, p, 0))
    consts = (spec.ec_uu, spec.ec_uv, a1, b, c)
    m = max(abs(x) for x in consts)
    u, v, a, b, c = (x / m for x in consts)
    d = spec.d
    return u ** d - v ** d, math.copysign(abs(a) ** d, a1) - 2.0 * b ** d + c ** d


def iid_threshold(measure, d: int, *, gamma=None) -> float:
    """Real t such that n IID points beat the replicated anchor iff n > t.

    E[D^2] = (prod ECuu - prod ECuv) / n, so the crossover is that
    numerator over the replicated anchor's value.  Returns +inf if the
    replicated anchor is never beaten (does not occur here).
    """
    return _crossover(kernel_spec(measure, d, gamma))[2]


@lru_cache(maxsize=None)
def _asd_crossover(d: int) -> tuple[float, float, float]:
    return _crossover(kernel_spec(MeasureId.ASD, d))


def check_asd_superiority(d: int, n: int) -> bool:
    """Whether n IID points beat n replicated centers in expectation (asd).

    Claimed for all n > 1; the claim fails by an exact tie at d=1, n=2
    where both sides equal 1/12 (the comparison there sits at rounding
    noise), and holds strictly everywhere else.
    """
    d, n = check_count("d", d, 1), check_count("n", n, 1)
    j, single, _ = _asd_crossover(d)
    return j / n < single


def _flag(computed: float, form: Optional[Callable[[int], float]], d: int) -> str:
    if form is None:
        return "not-listed"
    try:
        published = form(d)
    except OverflowError:  # past float range, as cad's 6^d - 1 from d = 397
        published = math.inf
    if math.isclose(computed, published, rel_tol=MATCH_RTOL, abs_tol=0.0):
        return "match"
    return "mismatch"


def pathology_row(measure, d: int) -> PathologyRow:
    """Computed row plus per-column comparison against the published table."""
    ref = reference_row(measure)
    spec = kernel_spec(measure, d)
    measure, d = spec.measure, spec.d
    n_e, single, threshold = _crossover(spec)
    expected_match = _flag(n_e, ref.n_times_expected, d)
    single_match = _flag(single, ref.single_value, d)
    threshold_match = _flag(threshold, ref.threshold, d)
    listed = [f for f in (expected_match, single_match, threshold_match)
              if f != "not-listed"]
    overall = "match" if all(f == "match" for f in listed) else "mismatch"
    return PathologyRow(
        measure=measure,
        d=d,
        n_times_expected=n_e,
        anchor=ref.anchor,
        single_value=single,
        threshold=threshold,
        table1_match=overall,
        expected_match=expected_match,
        single_match=single_match,
        threshold_match=threshold_match,
        notes=_NOTES.get(measure, ""),
    )


def pathology_table(d_list: Sequence[int]) -> list[PathologyRow]:
    """All eight measures' rows for each dimension in ``d_list``.

    Mismatches against the published closed forms are reported in the
    row flags, never silently corrected.
    """
    rows = []
    for d in d_list:
        for measure in TABLE_MEASURES:
            rows.append(pathology_row(measure, d))
    return rows
