"""Domain types: validation, immutability, reflections, vertex rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from l2disc import (
    MeasureId,
    NumericGuardError,
    PointSet,
    SquaredDiscrepancy,
    ValidationError,
    WeightVector,
    nearest_vertex,
    reflect,
)
from l2disc.core import EPS_NUM


class TestMeasureId:
    def test_parse_known_tags(self):
        assert MeasureId.parse("star") is MeasureId.STAR
        assert MeasureId.parse(" CTR ") is MeasureId.CTR
        assert MeasureId.parse("sym_weighted") is MeasureId.SYM_WEIGHTED

    def test_parse_passthrough(self):
        assert MeasureId.parse(MeasureId.ASD) is MeasureId.ASD

    def test_parse_unknown_tag(self):
        with pytest.raises(ValidationError, match="unknown measure"):
            MeasureId.parse("l-infinity")

    def test_weighted_flag(self):
        weighted = {m for m in MeasureId if m.weighted}
        assert weighted == {MeasureId.CTR_WEIGHTED, MeasureId.SYM_WEIGHTED}


class TestPointSet:
    def test_shape_and_accessors(self):
        ps = PointSet(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
        assert (ps.n, ps.d) == (3, 2)
        assert [tuple(row) for row in ps] == [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError, match="shape"):
            PointSet(np.array([0.1, 0.2]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PointSet(np.empty((0, 2)))

    def test_rejects_nan_with_location(self):
        arr = np.full((2, 2), 0.5)
        arr[1, 0] = np.nan
        with pytest.raises(ValidationError, match="row 1, column 0"):
            PointSet(arr)

    def test_rejects_out_of_cube_with_location(self):
        with pytest.raises(ValidationError, match="row 0, column 1"):
            PointSet(np.array([[0.5, 1.5]]))

    def test_coords_are_frozen_copies(self):
        src = np.array([[0.1, 0.2]])
        ps = PointSet(src)
        src[0, 0] = 0.9
        assert ps.coords[0, 0] == 0.1
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 0.3

    def test_duplicate_rows_allowed(self):
        ps = PointSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert ps.n == 2

    def test_closed_boundaries_allowed(self):
        ps = PointSet(np.array([[0.0, 1.0]]))
        assert ps.coords[0, 0] == 0.0 and ps.coords[0, 1] == 1.0


class TestWeightVector:
    def test_valid(self):
        wv = WeightVector(np.array([4.0, 4.0]))
        assert wv.d == 2

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.0, -0.5]))

    def test_rejects_empty_or_matrix(self):
        with pytest.raises(ValidationError):
            WeightVector(np.empty(0))
        with pytest.raises(ValidationError):
            WeightVector(np.ones((2, 2)))


class TestSquaredDiscrepancy:
    def test_root_clamps_tiny_negative(self):
        sd = SquaredDiscrepancy(MeasureId.STAR, -1e-15, 4, 2)
        assert sd.root == 0.0
        assert sd.value == -1e-15  # raw value preserved for identity tests

    def test_guard_trips_beyond_slack(self):
        with pytest.raises(NumericGuardError):
            SquaredDiscrepancy(MeasureId.STAR, -10 * EPS_NUM, 4, 2)

    def test_guard_trips_on_non_finite(self):
        with pytest.raises(NumericGuardError):
            SquaredDiscrepancy(MeasureId.STAR, math.nan, 4, 2)

    def test_root_of_positive(self):
        sd = SquaredDiscrepancy(MeasureId.STAR, 0.25, 1, 1)
        assert sd.root == 0.5


class TestReflect:
    def test_full_subset_is_identity(self):
        ps = PointSet(np.array([[0.2, 0.7]]))
        out = reflect(ps, {1, 2})
        np.testing.assert_array_equal(out.coords, [[0.2, 0.7]])

    def test_empty_subset_reflects_everything(self):
        ps = PointSet(np.array([[0.2, 0.7]]))
        out = reflect(ps, set())
        np.testing.assert_allclose(out.coords, [[0.8, 0.3]], rtol=0, atol=1e-15)

    def test_half_is_a_fixed_point(self):
        ps = PointSet(np.array([[0.25, 0.5]]))
        out = reflect(ps, {1})
        np.testing.assert_array_equal(out.coords, [[0.25, 0.5]])

    def test_out_of_range_index(self):
        ps = PointSet(np.array([[0.2, 0.7]]))
        with pytest.raises(ValidationError, match=r"\[3\]"):
            reflect(ps, {3})
        with pytest.raises(ValidationError):
            reflect(ps, {0})

    def test_involution_is_exact(self):
        rng = np.random.Generator(np.random.Philox(5))
        ps = PointSet(rng.random((20, 4)))
        twice = reflect(reflect(ps, {2}), {2})
        np.testing.assert_array_equal(twice.coords, ps.coords)


class TestNearestVertex:
    def test_tie_resolves_upward(self):
        np.testing.assert_array_equal(nearest_vertex([0.5, 0.5]), [1, 1])

    def test_componentwise_rounding(self):
        np.testing.assert_array_equal(nearest_vertex([0.1, 0.9]), [0, 1])

    def test_below_half(self):
        np.testing.assert_array_equal(nearest_vertex([0.49]), [0])

    def test_rejects_outside_cube(self):
        with pytest.raises(ValidationError):
            nearest_vertex([1.2])

    def test_rejects_a_set_of_points(self):
        with pytest.raises(ValidationError, match="single point"):
            nearest_vertex([[0.1, 0.9], [0.6, 0.4]])
