"""Replicated-point pathology: expectations, single values, thresholds, flags."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from l2disc import (
    MeasureId,
    ValidationError,
    check_asd_superiority,
    expected_iid_squared,
    iid_threshold,
    kernel_spec,
    mc_expected_iid,
    pathology_row,
    pathology_table,
    replicated_point,
    single_point_value,
    squared_discrepancy,
)
from l2disc.pathology import (
    TABLE_MEASURES,
    anchor_description,
    anchor_point,
    reference_row,
)


class TestSinglePointValue:
    def test_star_all_ones_vertex(self):
        assert single_point_value("star", 2, (1.0, 1.0)) == pytest.approx(
            1 / 9, rel=1e-13
        )

    def test_sym_center(self):
        expected = 12.0**-2 - 2 * 8.0**-2 + 4.0**-2
        assert single_point_value("sym", 2, (0.5, 0.5)) == pytest.approx(
            expected, rel=1e-13
        )

    def test_mix_origin_d1(self):
        assert single_point_value("mix", 1, (0.0,)) == pytest.approx(
            0.25, rel=1e-13
        )

    @pytest.mark.parametrize("measure", list(TABLE_MEASURES), ids=lambda m: m.value)
    def test_independent_of_replication_count(self, measure):
        d = 3
        anchor = anchor_point(measure, d)
        value = single_point_value(measure, d, anchor)
        spec = kernel_spec(measure, d)
        for n in (1, 2, 5, 17):
            replicated = squared_discrepancy(spec, replicated_point(anchor, n))
            assert replicated.value == pytest.approx(value, abs=1e-14)

    def test_weighted_single_value(self):
        g = [2.5, 2.5]
        value = single_point_value("ctr_weighted", 2, (0.5, 0.5), gamma=g)
        spec = kernel_spec("ctr_weighted", 2, gamma=g)
        for n in (1, 2, 5, 17):
            replicated = squared_discrepancy(
                spec, replicated_point((0.5, 0.5), n)
            )
            assert replicated.value == pytest.approx(value, abs=1e-14)

    def test_anchor_length_checked(self):
        with pytest.raises(ValidationError):
            single_point_value("star", 2, (1.0,))


class TestExpectedIidSquared:
    def test_star_example(self):
        assert expected_iid_squared("star", 8, 2) == pytest.approx(
            5 / 288, rel=1e-12
        )

    def test_asd_n1_d1(self):
        assert expected_iid_squared("asd", 1, 1) == pytest.approx(1 / 6, rel=1e-12)

    def test_ext_n1_matches_constants(self):
        # E[D^2] at n = 1 is A - 2 EB^d + ECuu^d = 6^-d - 12^-d for d = 3
        assert expected_iid_squared("ext", 1, 3) == pytest.approx(
            6.0**-3 - 12.0**-3, rel=1e-12
        )

    @pytest.mark.parametrize("measure", list(TABLE_MEASURES), ids=lambda m: m.value)
    def test_n_times_expected_is_n_free(self, measure):
        d = 2
        base = expected_iid_squared(measure, 1, d)
        for n in (2, 3, 10, 1000):
            assert n * expected_iid_squared(measure, n, d) == pytest.approx(
                base, rel=1e-12
            )

    def test_equal_expectations_agree_to_rounding(self):
        # star, per and asd share ECuu = 1/2 and ECuv = 1/3, so their E[D^2]
        # is the same (2^-d - 3^-d) / n; no rounding residue of the
        # analytically zero constant may separate them
        values = [expected_iid_squared(m, 37, 3) for m in ("star", "per", "asd")]
        assert max(values) - min(values) <= 8 * math.ulp(values[0])

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            expected_iid_squared("star", 0, 2)

    def test_mc_arbitration_for_inconsistent_rows(self):
        # the published expectation row for cad disagrees with the kernel
        # constants; the Monte-Carlo expectation sides with the constants
        for measure, n, d in [("per", 4, 2), ("cad", 4, 2), ("mix", 4, 2)]:
            est = mc_expected_iid(measure, n, d, replications=20_000, seed=61)
            assert abs(est.mean - expected_iid_squared(measure, n, d)) < 4 * est.stderr

    def test_cad_published_expectation_is_refuted_by_mc(self):
        est = mc_expected_iid("cad", 4, 2, replications=20_000, seed=67)
        published = (2.0**-2 - 12.0**-2) / 4
        assert abs(est.mean - published) > 10 * est.stderr


class TestIidThreshold:
    def test_star_closed_form(self):
        for d in range(1, 11):
            assert iid_threshold("star", d) == pytest.approx(
                1.5**d - 1, rel=1e-10
            )

    def test_ext_closed_form(self):
        for d in range(1, 11):
            assert iid_threshold("ext", d) == pytest.approx(2.0**d - 1, rel=1e-10)

    def test_ctr_closed_form(self):
        for d in range(1, 11):
            assert iid_threshold("ctr", d) == pytest.approx(3.0**d - 1, rel=1e-10)

    def test_per_crossover_is_one(self):
        # any replicated point scores exactly n * E, so the crossover sits at 1
        for d in (1, 2, 5):
            assert iid_threshold("per", d) == pytest.approx(1.0, rel=1e-12)

    def test_sym_thresholds(self):
        assert iid_threshold("sym", 1) == pytest.approx(2.0, rel=1e-12)
        assert iid_threshold("sym", 2) == pytest.approx(16 / 11, rel=1e-12)

    def test_asd_thresholds(self):
        assert iid_threshold("asd", 1) == pytest.approx(2.0, rel=1e-12)
        assert iid_threshold("asd", 2) == pytest.approx(40 / 23, rel=1e-12)


class TestAsdSuperiority:
    def test_examples(self):
        assert check_asd_superiority(2, 2) is True
        assert check_asd_superiority(6, 2) is True

    def test_n1_comparison_goes_the_other_way(self):
        # at n = 1 the expectation exceeds the replicated-center value (the
        # superiority claim starts at n = 2)
        d = 3
        expected = expected_iid_squared("asd", 1, d)
        single = single_point_value("asd", d, anchor_point(MeasureId.ASD, d))
        assert expected > single

    def test_exact_tie_at_d1_n2(self):
        # 12^d - 4*9^d + 3*8^d = 0 exactly at d = 1: expectation equals the
        # replicated-center value, so the strict comparison sits on rounding
        # noise and only the gap magnitude is asserted here
        gap = expected_iid_squared("asd", 2, 1) - single_point_value(
            "asd", 1, (0.5,)
        )
        assert abs(gap) <= 1e-15

    def test_holds_on_sampled_grid(self):
        for d in (1, 2, 5, 10):
            for n in (3, 4, 10, 100, 10_000):
                assert check_asd_superiority(d, n) is True
        assert check_asd_superiority(1, 3) is True


class TestPathologyRows:
    def test_consistent_rows_match(self):
        for tag in ("star", "ext", "ctr"):
            for d in (1, 4, 10):
                row = pathology_row(tag, d)
                assert row.table1_match == "match"
                assert (row.expected_match, row.single_match,
                        row.threshold_match) == ("match", "match", "match")
                assert row.notes == ""

    def test_per_row_flags(self):
        row = pathology_row("per", 3)
        assert row.expected_match == "match"
        assert row.single_match == "mismatch"
        assert row.threshold_match == "mismatch"
        assert row.table1_match == "mismatch"
        assert row.notes

    def test_cad_row_flags(self):
        row = pathology_row("cad", 3)
        assert row.expected_match == "mismatch"
        assert row.single_match == "match"
        assert row.threshold_match == "mismatch"
        assert row.table1_match == "mismatch"

    def test_mix_row_flags(self):
        row = pathology_row("mix", 3)
        assert row.expected_match == "match"
        assert row.single_match == "not-listed"
        assert row.threshold_match == "mismatch"
        assert row.table1_match == "mismatch"

    def test_sym_asd_threshold_mismatch_only(self):
        for tag in ("sym", "asd"):
            row = pathology_row(tag, 2)
            assert row.expected_match == "match"
            assert row.single_match == "match"
            assert row.threshold_match == "mismatch"
            assert row.table1_match == "mismatch"

    def test_published_form_past_float_range_is_a_mismatch(self):
        # cad's published threshold 6^d - 1 overflows a float from d = 397
        row = pathology_row("cad", 400)
        assert row.threshold_match == "mismatch"
        assert row.table1_match == "mismatch"

    @pytest.mark.parametrize("tag", ["star", "ext", "ctr"])
    def test_consistent_rows_match_at_any_d(self, tag):
        # ext's and ctr's single value 12^-d is subnormal from d = 286 and
        # 0.0 from d = 300; ctr's 3^d leaves float range from d = 647
        flags = {d: pathology_row(tag, d).table1_match for d in range(1, 601)}
        assert [d for d, flag in flags.items() if flag != "match"] == []

    def test_table_covers_all_rows(self):
        rows = pathology_table([1, 2])
        assert len(rows) == 2 * len(TABLE_MEASURES)
        assert [r.d for r in rows[: len(TABLE_MEASURES)]] == [1] * len(TABLE_MEASURES)

    def test_reference_row_rejects_weighted(self):
        with pytest.raises(ValidationError):
            reference_row(MeasureId.CTR_WEIGHTED)

    @pytest.mark.parametrize("measure", TABLE_MEASURES, ids=lambda m: m.value)
    def test_anchor_description_is_the_reference_anchor(self, measure):
        assert anchor_description(measure) == reference_row(measure).anchor
        assert pathology_row(measure, 2).anchor == reference_row(measure).anchor

    def test_weighted_measures_replicate_the_center(self):
        for measure in (MeasureId.CTR_WEIGHTED, MeasureId.SYM_WEIGHTED):
            assert anchor_description(measure) == "center"
            np.testing.assert_array_equal(anchor_point(measure, 3), [0.5] * 3)

    @pytest.mark.parametrize("measure", TABLE_MEASURES, ids=lambda m: m.value)
    def test_row_numbers_are_the_public_functions_bit_for_bit(self, measure):
        for d in (1, 3, 7):
            row = pathology_row(measure, d)
            assert row.n_times_expected == expected_iid_squared(measure, 1, d)
            assert row.single_value == single_point_value(
                measure, d, anchor_point(measure, d))
            assert row.threshold == iid_threshold(measure, d)


class TestAnchorIndependence:
    def test_per_value_is_anchor_free(self):
        values = [
            single_point_value("per", 2, a)
            for a in [(0.0, 0.0), (0.3, 0.8), (0.5, 0.5), (1.0, 0.2)]
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-13)
        assert values[0] == pytest.approx(2.0**-2 - 3.0**-2, rel=1e-12)

    @pytest.mark.parametrize("tag", ["ext", "mix"])
    def test_vertex_values_all_equal(self, tag):
        for d in (1, 2, 4, 6):
            vertices = itertools.product((0.0, 1.0), repeat=d)
            values = [single_point_value(tag, d, v) for v in vertices]
            for v in values[1:]:
                assert v == pytest.approx(values[0], rel=1e-13)

    def test_ext_vertex_value_matches_constant(self):
        for d in (1, 3, 6):
            anchor = np.ones(d)
            assert single_point_value("ext", d, anchor) == pytest.approx(
                12.0**-d, rel=1e-12
            )


class TestDimensionIsChecked:
    # the (measure, d) caches key 2.0 and True as 2 and 1, so d is checked
    # before any cache lookup, warm or cold
    CALLS = {
        "single_point_value": lambda d: single_point_value("star", d, [0.5] * int(d)),
        "expected_iid_squared": lambda d: expected_iid_squared("star", 4, d),
        "iid_threshold": lambda d: iid_threshold("star", d),
        "pathology_row": lambda d: pathology_row("star", d),
        "check_asd_superiority": lambda d: check_asd_superiority(d, 3),
        "anchor_point": lambda d: anchor_point("star", d),
    }

    @pytest.mark.parametrize("d", [2.0, True, 0], ids=repr)
    @pytest.mark.parametrize("name", list(CALLS))
    def test_non_count_d_is_refused_with_a_warm_cache(self, name, d):
        call = self.CALLS[name]
        call(1), call(2)
        with pytest.raises(ValidationError, match="d must be an integer"):
            call(d)


class TestRuntimeBudget:
    def test_full_sweep_is_fast(self):
        import time

        check_asd_superiority(1, 2)  # warm the cached constants
        start = time.perf_counter()
        for d in range(1, 11):
            for n in range(2, 10_001):
                if not check_asd_superiority(d, n) and not (d == 1 and n == 2):
                    raise AssertionError(f"superiority fails at d={d}, n={n}")
        assert time.perf_counter() - start < 1.0
