"""Geometric Monte-Carlo oracle: memberships, volumes, estimator agreement."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from l2disc import (
    MeasureId,
    NoGeometricOracleError,
    PointSet,
    ValidationError,
    box_membership,
    even_subset_volume,
    iid_uniform,
    kernel_spec,
    local_discrepancy,
    mc_expected_iid,
    mc_squared_discrepancy,
    replicated_point,
    squared_discrepancy,
    squared_value,
)
from l2disc.oracle import _region_counts
from l2disc.pathology import expected_iid_squared


QUARTERS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _reference_membership(measure, x, a, b):
    """Membership and volume one coordinate at a time, written from the
    conventions in the oracle module docstring."""
    if measure == "sym":
        above = sum(xj >= aj for xj, aj in zip(x, a))
        return above % 2 == 0, (1.0 + math.prod(2.0 * aj - 1.0 for aj in a)) / 2.0
    if measure == "ext" and any(aj > bj for aj, bj in zip(a, b)):
        return False, 0.0  # rejected draw
    inside, volume = True, 1.0
    for j, (xj, aj) in enumerate(zip(x, a)):
        if measure == "star":
            ok, length = xj < aj, aj
        elif measure == "ext":
            ok, length = aj <= xj < b[j], b[j] - aj
        elif measure == "per":  # wraps around when a_j > b_j
            if aj <= b[j]:
                ok, length = aj <= xj < b[j], b[j] - aj
            else:
                ok, length = xj < b[j] or xj >= aj, 1.0 - aj + b[j]
        elif measure in ("ctr", "asd"):  # the vertex end is closed
            # the vertex is the one nearest a (ctr) or nearest b (asd)
            if (aj if measure == "ctr" else b[j]) >= 0.5:
                ok, length = xj >= aj, 1.0 - aj
            else:
                ok, length = xj < aj, aj
        elif aj <= 0.5:  # cad: 1/2 belongs to the upper-anchored box
            ok, length = aj <= xj < 0.5, 0.5 - aj
        else:
            ok, length = 0.5 <= xj < aj, aj - 0.5
        inside = inside and ok
        volume *= length
    return inside, volume


class TestLocalDiscrepancy:
    def test_empty_box(self):
        pts = PointSet([[0.5, 0.5]])
        assert local_discrepancy(pts, [False], 0.0) == 0.0

    def test_full_cube(self):
        pts = PointSet([[0.2, 0.2], [0.8, 0.8]])
        assert local_discrepancy(pts, [True, True], 1.0) == 0.0

    def test_interval_count_minus_length(self):
        pts = PointSet([[0.5]])
        assert local_discrepancy(pts, [True], 0.75) == pytest.approx(0.25)

    def test_membership_length_mismatch(self):
        with pytest.raises(ValidationError):
            local_discrepancy(PointSet([[0.5]]), [True, False], 0.5)


class TestBoxMembership:
    def test_star(self):
        inside, volume = box_membership("star", (0.3, 0.3), (0.5, 0.5))
        assert inside is True
        assert volume == pytest.approx(0.25)

    def test_per_wraparound(self):
        inside, volume = box_membership("per", [0.05], [0.9], [0.2])
        assert inside is True
        assert volume == pytest.approx(0.3)

    def test_sym_even_orthant(self):
        inside, volume = box_membership("sym", (0.6, 0.6), (0.5, 0.5))
        assert inside is True
        assert volume == pytest.approx(even_subset_volume([0.5, 0.5]))

    def test_point_and_anchor_must_share_d(self):
        with pytest.raises(ValidationError, match="share a dimension count"):
            box_membership("star", (0.3, 0.3), (0.5,))

    def test_ext_rejected_pair(self):
        inside, volume = box_membership("ext", [0.5], [0.8], [0.2])
        assert inside is False and volume == 0.0

    def test_ext_valid_pair(self):
        inside, volume = box_membership("ext", [0.5], [0.2], [0.8])
        assert inside is True
        assert volume == pytest.approx(0.6)

    def test_ctr_nearest_vertex_box(self):
        # anchor 0.7 -> vertex 1; box [0.7, 1], membership is x >= a
        assert box_membership("ctr", [0.8], [0.7]) == (True, pytest.approx(0.3))
        assert box_membership("ctr", [0.6], [0.7])[0] is False

    def test_cad_center_anchored_box(self):
        # anchor 0.2 -> box [0.2, 0.5); anchor 0.9 -> box [0.5, 0.9)
        assert box_membership("cad", [0.3], [0.2]) == (True, pytest.approx(0.3))
        assert box_membership("cad", [0.6], [0.9]) == (True, pytest.approx(0.4))
        assert box_membership("cad", [0.1], [0.9])[0] is False

    def test_asd_box_runs_to_the_vertex_nearest_b(self):
        # b = 0.9 -> vertex 1, box [0.2, 1]; b = 0.1 -> vertex 0, box [0, 0.2)
        assert box_membership("asd", [0.3], [0.2], [0.9]) == (True, pytest.approx(0.8))
        assert box_membership("asd", [0.3], [0.2], [0.1]) == (False, pytest.approx(0.2))
        with pytest.raises(ValidationError, match="second anchor"):
            box_membership("asd", [0.3], [0.2])

    def test_second_anchor_policy(self):
        with pytest.raises(ValidationError, match="second anchor"):
            box_membership("ext", [0.5], [0.2])
        with pytest.raises(ValidationError, match="single anchor"):
            box_membership("star", [0.5], [0.2], [0.8])

    def test_no_geometric_definition(self):
        with pytest.raises(NoGeometricOracleError):
            box_membership("mix", [0.5], [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("measure,slot", [
        ("star", 0), ("star", 1), ("ext", 0), ("ext", 1), ("ext", 2), ("sym", 1),
    ])
    def test_rejects_non_finite(self, measure, slot, bad):
        args = [[0.5, 0.5], [0.2, 0.3], [0.8, 0.9]][:3 if measure == "ext" else 2]
        args[slot] = [0.4, bad]
        with pytest.raises(ValidationError, match="lie in"):
            box_membership(measure, *args)


    @pytest.mark.parametrize("measure", ["star", "ext", "per", "ctr", "cad", "sym", "asd"])
    def test_quarter_grid_ties_match_reference(self, measure):
        # on the quarter grid x = a, a = 1/2 and a = b all occur often, and
        # every volume is exact, so both results must match exactly
        rng = np.random.Generator(np.random.Philox(71))
        for d in (1, 2, 3):
            for x, a, b in rng.choice(QUARTERS, size=(300, 3, d)):
                b = b if measure in ("ext", "per", "asd") else None
                got = box_membership(measure, x, a, b)
                assert got == _reference_membership(measure, x, a, b), (x, a, b)


class TestRegionCounts:
    @pytest.mark.parametrize("measure", ["star", "ext", "per", "ctr", "cad", "sym", "asd"])
    def test_counts_are_sums_of_reference_memberships(self, measure):
        # quarter-grid points and anchors, so x = a, a = 1/2 and a = b occur;
        # n = 255, 256 and 300 end, cross and run past one 255-point count
        # block, and every volume on the grid is exact
        rng = np.random.Generator(np.random.Philox(73))
        two_anchor = measure in ("ext", "per", "asd")
        cases = [(d, n) for d in (1, 2, 3, 5) for n in (1, 7, 64)]
        for d, n in cases + [(3, 255), (3, 256), (3, 300)]:
            x, a, b = (rng.choice(QUARTERS, size=(size, d)) for size in (n, 32, 32))
            counts, volume = _region_counts(
                MeasureId(measure), x, a, b if two_anchor else None)
            for i, (ai, bi) in enumerate(zip(a, b)):
                ref = [_reference_membership(measure, xi, ai, bi if two_anchor else None)
                       for xi in x]
                assert counts[i] == sum(inside for inside, _ in ref), (d, n, ai, bi)
                assert volume[i] == ref[0][1], (d, n, ai, bi)

    @pytest.mark.parametrize("measure", ["star", "ext", "per", "ctr", "cad", "sym", "asd"])
    def test_full_blocks_count_exactly(self, measure):
        # n copies of x = 1/2 fill every count block of a region that holds
        # x, so a block of 256 or more points would wrap its uint8 sum
        a, b = (g.reshape(-1, 1) for g in np.meshgrid(QUARTERS, QUARTERS))
        for n in (255, 256, 300, 600):
            counts, _ = _region_counts(MeasureId(measure), np.full((n, 1), 0.5),
                                       a, b if measure in ("ext", "per", "asd") else None)
            ref = [_reference_membership(measure, [0.5], ai, bi)[0] for ai, bi in zip(a, b)]
            assert any(ref)
            assert counts.tolist() == [n * inside for inside in ref], n

    def test_peak_memory_is_block_sized(self):
        # one chunk of 65 536 anchors against 2048 points would be a 128 MiB
        # membership matrix; 255-point blocks keep three 16 MiB bool buffers
        pts = iid_uniform(2048, 2, seed=1)
        tracemalloc.start()
        try:
            mc_squared_discrepancy("per", pts, 70_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestSymVolumeIdentity:
    def test_shortcut_equals_vertex_summation(self):
        rng = np.random.Generator(np.random.Philox(47))
        for trial in range(10_000):
            d = 1 + trial % 6
            a = rng.random(d)
            shortcut = (1.0 + np.prod(2.0 * a - 1.0)) / 2.0
            assert abs(shortcut - even_subset_volume(a)) < 1e-12

    def test_refuses_exponential_dimension(self):
        with pytest.raises(ValidationError):
            even_subset_volume(np.full(21, 0.5))

    @pytest.mark.parametrize("a", [[2.0, -1.0], [math.nan], []],
                             ids=["outside", "nan", "empty"])
    def test_refuses_anchor_outside_the_cube(self, a):
        # unchecked, these gave -4.0, nan and 1.0
        with pytest.raises(ValidationError, match=r"must be finite and lie in \[0, 1\]\^d"):
            even_subset_volume(a)


class TestMcSquaredDiscrepancy:
    def test_star_origin(self):
        est = mc_squared_discrepancy("star", PointSet([[0.0]]), 200_000, seed=1)
        assert abs(est.mean - 1 / 3) < 4 * est.stderr

    def test_ext_any_single_point(self):
        est = mc_squared_discrepancy("ext", PointSet([[0.37]]), 200_000, seed=2)
        assert abs(est.mean - 1 / 12) < 4 * est.stderr

    def test_cad_center_point(self):
        est = mc_squared_discrepancy("cad", PointSet([[0.5]]), 200_000, seed=3)
        assert abs(est.mean - 1 / 3) < 4 * est.stderr

    @pytest.mark.parametrize("tag", ["star", "ext", "per", "ctr", "cad", "sym", "asd"])
    def test_agrees_with_closed_form(self, tag):
        pts = iid_uniform(8, 2, 53)
        closed = squared_discrepancy(kernel_spec(tag, 2), pts).value
        est = mc_squared_discrepancy(tag, pts, 150_000, seed=5)
        assert est.agrees_with(closed), (
            f"{tag}: closed {closed} vs mc {est.mean} +- {est.stderr}"
        )

    def test_reproducible_bit_for_bit(self):
        pts = iid_uniform(5, 2, 59)
        a = mc_squared_discrepancy("sym", pts, 50_000, seed=7)
        b = mc_squared_discrepancy("sym", pts, 50_000, seed=7)
        assert a == b

    def test_seed_changes_estimate(self):
        pts = iid_uniform(5, 2, 59)
        a = mc_squared_discrepancy("sym", pts, 50_000, seed=7)
        b = mc_squared_discrepancy("sym", pts, 50_000, seed=8)
        assert a.mean != b.mean

    def test_rejects_mix_and_tiny_samples(self):
        with pytest.raises(NoGeometricOracleError):
            mc_squared_discrepancy("mix", PointSet([[0.5, 0.5]]), 1000, seed=0)
        with pytest.raises(ValidationError):
            mc_squared_discrepancy("star", PointSet([[0.5]]), 1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            mc_squared_discrepancy("star", PointSet([[0.5]]), 100, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            mc_expected_iid("star", 3, 2, 10, seed=seed)


    @pytest.mark.parametrize("samples", [2.9, 3.0, "3", None])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            mc_squared_discrepancy("star", PointSet([[0.5]]), samples, seed=0)

    def test_accepts_numpy_integer_samples(self):
        est = mc_squared_discrepancy("star", PointSet([[0.5]]), np.int64(3), seed=0)
        assert est.samples == 3 and type(est.samples) is int


class TestMcExpectedIid:
    def test_star_matches_closed_expectation(self):
        est = mc_expected_iid("star", n=8, d=2, replications=30_000, seed=11)
        assert abs(est.mean - 5 / 288) < 4 * est.stderr

    def test_asd_matches_star_expectation(self):
        est = mc_expected_iid("asd", n=8, d=2, replications=30_000, seed=13)
        assert abs(est.mean - 5 / 288) < 4 * est.stderr

    def test_sym_expectation(self):
        est = mc_expected_iid("sym", n=4, d=3, replications=30_000, seed=17)
        expected = (4.0**-3 - 12.0**-3) / 4
        assert abs(est.mean - expected) < 4 * est.stderr

    def test_mix_agrees_with_constant_formula(self):
        est = mc_expected_iid("mix", n=6, d=2, replications=30_000, seed=19)
        assert abs(est.mean - expected_iid_squared("mix", 6, 2)) < 4 * est.stderr

    def test_weighted_measures_supported(self):
        est = mc_expected_iid(
            "sym_weighted", n=3, d=2, replications=20_000, seed=23, gamma=[4.0, 4.0]
        )
        expected = expected_iid_squared("sym_weighted", 3, 2, gamma=[4.0, 4.0])
        assert abs(est.mean - expected) < 4 * est.stderr

    @pytest.mark.parametrize("n,replications", [
        (3.5, 10), (3.0, 10), (3, 10.5), (3, 10.0), (None, 10),
    ])
    def test_rejects_non_integer_counts(self, n, replications):
        with pytest.raises(ValidationError, match="n must|replications must"):
            mc_expected_iid("star", n, 2, replications, seed=0)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValidationError, match="d must be an integer"):
            mc_expected_iid("star", 3, 2.5, 10, seed=0)

    def test_peak_memory_is_block_sized(self):
        # 512 sets of 64 points: one (512, 64, 64) kernel batch would be 16 MiB
        tracemalloc.start()
        try:
            mc_expected_iid("sym", 64, 3, 512, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("tag", [m.value for m in MeasureId])
    @pytest.mark.parametrize("n,d,replications", [
        (1, 2, 50), (4, 2, 300), (16, 3, 100), (130, 2, 250),
    ])
    def test_replications_are_squared_values(self, tag, n, d, replications):
        # the same Philox chunks, each set valued alone by squared_value; at
        # n = 130 a set's n^2 exceeds the value block, and 250 replications
        # are two chunks of 248 and 2 sets
        gamma = [0.3 + 0.7 * j for j in range(d)] if tag.endswith("_weighted") else None
        spec = kernel_spec(tag, d, gamma=gamma)
        gen = np.random.Generator(np.random.Philox(9))
        chunk = max(1, min(4096, (1 << 22) // (n * n)))
        s1 = s2 = 0.0
        for start in range(0, replications, chunk):
            sets = gen.random((min(chunk, replications - start), n, d))
            vals = np.array([squared_value(spec, coords) for coords in sets])
            s1 += float(vals.sum())
            s2 += float((vals * vals).sum())
        mean = s1 / replications
        var = max(s2 - replications * mean * mean, 0.0) / (replications - 1)
        est = mc_expected_iid(tag, n, d, replications, 9, gamma=gamma)
        assert (est.mean, est.stderr) == (mean, math.sqrt(var / replications))

    def test_reproducible(self):
        a = mc_expected_iid("ctr", n=4, d=2, replications=5_000, seed=29)
        b = mc_expected_iid("ctr", n=4, d=2, replications=5_000, seed=29)
        assert a == b


class TestSingleReplicatedOracle:
    def test_per_replicated_point_value(self):
        # geometric check of the wraparound closed form on a degenerate set
        pts = replicated_point((0.3,), 4)
        closed = squared_discrepancy(kernel_spec("per", 1), pts).value
        est = mc_squared_discrepancy("per", pts, 200_000, seed=31)
        assert est.agrees_with(closed)
        assert closed == pytest.approx(2.0**-1 - 3.0**-1, rel=1e-12)
