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
    box_membership,
    even_subset_volume,
    greedy_contribution,
    kernel_spec,
    nearest_vertex,
    reflect,
    replicated_point,
    single_point_value,
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

    @pytest.mark.parametrize("keep", [[1.9], [True], ["1"]])
    def test_non_integer_index_is_refused(self, keep):
        # int() would read 1.9 and True as coordinate 1
        with pytest.raises(ValidationError, match="must be integers"):
            reflect(PointSet(np.array([[0.2, 0.7]])), keep)

    @pytest.mark.parametrize("keep", [{1, 2}, [np.int64(2)]])
    def test_integer_indices_are_accepted(self, keep):
        ps = PointSet(np.array([[0.25, 0.75]]))
        out = reflect(ps, keep)
        expected = [[0.25, 0.75]] if 1 in keep else [[0.75, 0.75]]
        np.testing.assert_array_equal(out.coords, expected)

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


class TestSinglePointReaders:
    # every public function that takes one point reads it as one; a 2-d
    # array was flattened into one point of 4 coordinates by all but
    # nearest_vertex
    TWO = [[0.1, 0.2], [0.3, 0.4]]
    CALLS = {
        "nearest_vertex": lambda p: nearest_vertex(p),
        "box_membership_x": lambda p: box_membership("ext", p, [0.5] * 4, [0.6] * 4),
        "box_membership_a": lambda p: box_membership("ext", [0.5] * 4, p, [0.6] * 4),
        "box_membership_b": lambda p: box_membership("ext", [0.5] * 4, [0.4] * 4, p),
        "even_subset_volume": lambda p: even_subset_volume(p),
        "single_point_value": lambda p: single_point_value("star", 4, p),
        "greedy_contribution": lambda p: greedy_contribution(
            kernel_spec("star", 4), PointSet([[0.5] * 4]), p),
        "replicated_point": lambda p: replicated_point(p, 2),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_a_2d_array_is_refused(self, name):
        self.CALLS[name](np.ravel(self.TWO))  # the flattened point is valid
        with pytest.raises(ValidationError, match="single point"):
            self.CALLS[name](self.TWO)
