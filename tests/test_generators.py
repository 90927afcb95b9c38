"""Generators: determinism, Sobol' structure, lattices, grids."""

from __future__ import annotations

import math

import numpy as np
import pytest

from l2disc import (
    DirectionNumbers,
    ValidationError,
    fibonacci_lattice,
    grid,
    iid_uniform,
    kernel_spec,
    replicated_point,
    sobol,
    squared_discrepancy,
)
from l2disc.kernels import b_rows, c_cross


def _blocked_star_squared(coords: np.ndarray, block: int = 1024) -> float:
    """Star squared discrepancy with bounded memory for large n."""
    spec = kernel_spec("star", coords.shape[1])
    n = coords.shape[0]
    acc = spec.a - 2.0 * float(b_rows(spec, coords).sum()) / n
    pair = 0.0
    for lo in range(0, n, block):
        pair += float(c_cross(spec, coords[lo : lo + block], coords).sum())
    return acc + pair / (n * n)


class TestIidUniform:
    def test_deterministic(self):
        a = iid_uniform(3, 2, seed=7)
        b = iid_uniform(3, 2, seed=7)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_seed_matters(self):
        a = iid_uniform(3, 2, seed=7)
        b = iid_uniform(3, 2, seed=8)
        assert not np.array_equal(a.coords, b.coords)

    def test_law_of_large_numbers(self):
        pts = iid_uniform(10_000, 1, seed=101)
        bound = 4 / math.sqrt(12 * 10_000)
        assert abs(float(pts.coords.mean()) - 0.5) < bound

    def test_star_discrepancy_sanity(self):
        pts = iid_uniform(10_000, 2, seed=103)
        value = squared_discrepancy(kernel_spec("star", 2), pts).value
        expected = (2.0**-2 - 3.0**-2) / 10_000
        assert expected / 10 < value < expected * 10

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            iid_uniform(0, 2, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            iid_uniform(3, 2, seed=seed)


class TestSobol:
    def test_first_four_points_d2(self):
        pts = sobol(4, 2)
        expected = {(0.0, 0.0), (0.5, 0.5), (0.25, 0.75), (0.75, 0.25)}
        assert {tuple(row) for row in pts.coords} == expected

    def test_first_point_is_origin(self):
        pts = sobol(1, 5)
        np.testing.assert_array_equal(pts.coords, np.zeros((1, 5)))

    def test_coordinates_are_dyadic(self):
        for n in (5, 16, 33):
            pts = sobol(n, 4)
            denom = 1 << max(1, (n - 1).bit_length())
            scaled = pts.coords * denom
            np.testing.assert_array_equal(scaled, np.round(scaled))

    def test_one_dimensional_prefix_is_van_der_corput(self):
        pts = sobol(8, 1)
        expected = [0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8]
        np.testing.assert_array_equal(pts.coords[:, 0], expected)

    def test_prefix_consistency(self):
        # the first n points do not depend on how many are requested
        small = sobol(16, 3).coords
        large = sobol(64, 3).coords
        np.testing.assert_array_equal(small, large[:16])

    def test_balance_in_each_coordinate(self):
        # any power-of-two prefix is a (0, m, 1)-net per coordinate: every
        # dyadic interval of length 1/n holds exactly one value
        pts = sobol(16, 6)
        for j in range(6):
            cells = np.floor(pts.coords[:, j] * 16).astype(int)
            assert sorted(cells) == list(range(16))

    def test_sixteen_point_star_value_near_published(self):
        root = squared_discrepancy(kernel_spec("star", 2), sobol(16, 2)).root
        assert abs(root - 0.0478) / 0.0478 < 0.05

    def test_dimension_beyond_table(self):
        with pytest.raises(ValidationError, match="dimensions"):
            sobol(8, 17)


class TestDirectionNumbers:
    def test_default_covers_sixteen_dimensions(self):
        assert DirectionNumbers.default().max_dimension == 16

    def test_from_text_with_header(self):
        table = DirectionNumbers.from_text(
            "d s a m_i\n2 1 0 1\n3 2 1 1 3\n", header=True
        )
        assert table.max_dimension == 3
        np.testing.assert_array_equal(
            sobol(4, 2, table).coords, sobol(4, 2).coords
        )

    def test_rejects_even_initial_value(self):
        with pytest.raises(ValidationError, match="odd"):
            DirectionNumbers.from_text("2 1 0 2", header=False)

    def test_rejects_oversized_initial_value(self):
        with pytest.raises(ValidationError):
            DirectionNumbers.from_text("2 2 1 1 5", header=False)

    def test_rejects_out_of_order_rows(self):
        with pytest.raises(ValidationError, match="order"):
            DirectionNumbers.from_text("3 2 1 1 3", header=False)

    def test_rejects_declared_length_mismatch(self):
        with pytest.raises(ValidationError, match="got s=2 with 1 values"):
            DirectionNumbers.from_text("2 2 1 1", header=False)

    @pytest.mark.parametrize("line,match", [
        ("2 1 x 1", "malformed"), ("2 1 0", "too short"),
    ])
    def test_rejects_unparseable_line(self, line, match):
        with pytest.raises(ValidationError, match=match):
            DirectionNumbers.from_text(line, header=False)

    def test_from_file_round_trips_the_default_table(self, tmp_path):
        table = DirectionNumbers.default()
        path = tmp_path / "directions.txt"
        path.write_text("d s a m_i\n" + "".join(
            f"{k + 2} {s} {a} {' '.join(map(str, m))}\n"
            for k, (s, a, m) in enumerate(table.rows)))
        assert DirectionNumbers.from_file(path) == table

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            DirectionNumbers.from_text("", header=False)

    def test_rejects_coefficient_on_degree_one_row(self):
        # a degree-1 polynomial has no interior coefficient bits, so a = 0
        with pytest.raises(ValidationError, match="coefficient 1"):
            DirectionNumbers.from_text("2 1 1 1", header=False)


class TestReplicatedPoint:
    def test_five_copies_of_vertex(self):
        pts = replicated_point((1.0, 1.0), 5)
        np.testing.assert_array_equal(pts.coords, np.ones((5, 2)))

    def test_three_copies_of_center(self):
        pts = replicated_point((0.5, 0.5), 3)
        np.testing.assert_array_equal(pts.coords, np.full((3, 2), 0.5))

    def test_rejects_zero_count(self):
        with pytest.raises(ValidationError):
            replicated_point((0.5,), 0)


class TestFibonacciLattice:
    def test_single_point(self):
        np.testing.assert_array_equal(fibonacci_lattice(1).coords, [[0.0, 0.0]])

    def test_two_points(self):
        pts = fibonacci_lattice(2)
        phi = (1 + math.sqrt(5)) / 2
        np.testing.assert_allclose(
            pts.coords, [[0.0, 0.0], [0.5, phi - 1.0]], rtol=0, atol=1e-15
        )

    def test_beats_iid_on_periodic_discrepancy(self):
        spec = kernel_spec("per", 2)
        lattice_value = squared_discrepancy(spec, fibonacci_lattice(64)).value
        iid_values = [
            squared_discrepancy(spec, iid_uniform(64, 2, seed)).value
            for seed in range(100)
        ]
        assert lattice_value < float(np.mean(iid_values))


class TestGrid:
    def test_two_cells_one_dimension(self):
        np.testing.assert_array_equal(grid(2, 1).coords, [[0.25], [0.75]])

    def test_nine_cell_centers(self):
        pts = grid(3, 2)
        assert pts.n == 9
        centers = {(1 / 6, 1 / 6), (1 / 6, 0.5), (1 / 6, 5 / 6),
                   (0.5, 1 / 6), (0.5, 0.5), (0.5, 5 / 6),
                   (5 / 6, 1 / 6), (5 / 6, 0.5), (5 / 6, 5 / 6)}
        assert {tuple(np.round(r, 12)) for r in pts.coords} == {
            tuple(np.round(c, 12)) for c in centers
        }

    def test_single_cell(self):
        np.testing.assert_array_equal(grid(1, 2).coords, [[0.5, 0.5]])

    def test_row_major_order(self):
        pts = grid(2, 2)
        np.testing.assert_array_equal(
            pts.coords, [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
        )


def test_c_cross_helper_matches_manual():
    # sanity anchor for the row-blocked test-side evaluation
    spec = kernel_spec("star", 2)
    pts = iid_uniform(6, 2, 107)
    full = c_cross(spec, pts.coords, pts.coords)
    blocked = _blocked_star_squared(pts.coords, block=2)
    direct = squared_discrepancy(spec, pts).value
    assert blocked == pytest.approx(direct, abs=1e-15)
    assert full.shape == (6, 6)


@pytest.mark.parametrize("make,args", [
    (sobol, (2.9, 2)),
    (sobol, ("3", 2)),
    (sobol, (4, 2.0)),
    (iid_uniform, (True, 2, 0)),
    (iid_uniform, (3.5, 2, 0)),
    (iid_uniform, (3, "2", 0)),
    (replicated_point, ((0.5, 0.5), 2.5)),
    (replicated_point, ((0.5, 0.5), False)),
    (fibonacci_lattice, (5.7,)),
    (fibonacci_lattice, ("5",)),
    (grid, (2.5, 2)),
    (grid, (3, True)),
    (grid, (0, 2)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_counts_must_be_integers(make, args):
    with pytest.raises(ValidationError, match="must be an integer"):
        make(*args)
