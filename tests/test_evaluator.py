"""Evaluator: closed-form values, reflection identities, gradients, greedy F."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from l2disc import (
    MeasureId,
    NonDifferentiableMeasureError,
    PointSet,
    ValidationError,
    asd_by_reflection,
    gradient,
    greedy_contribution,
    iid_uniform,
    kernel_spec,
    reflect,
    replicated_point,
    squared_discrepancy,
    squared_value,
    value_and_gradient,
)

CONTINUOUS_UNWEIGHTED = ["star", "ext", "per", "ctr", "sym", "mix", "asd"]
REFLECTION_INVARIANT = ["asd", "sym", "ctr", "per", "cad", "mix"]


def _spec(tag, d, gamma=None):
    return kernel_spec(tag, d, gamma=gamma)


class TestSquaredDiscrepancy:
    def test_star_single_point_at_origin(self):
        value = squared_discrepancy(_spec("star", 1), PointSet([[0.0]])).value
        assert value == pytest.approx(1 / 3, rel=1e-14)

    def test_ext_replicated_vertex(self):
        pts = replicated_point((1.0, 1.0), 5)
        value = squared_discrepancy(_spec("ext", 2), pts).value
        assert value == pytest.approx(1 / 144, rel=1e-12)

    def test_asd_replicated_center(self):
        pts = replicated_point((0.5, 0.5), 3)
        value = squared_discrepancy(_spec("asd", 2), pts).value
        expected = 2.0**-2 - 2 * (3 / 8) ** 2 + 3.0**-2
        assert value == pytest.approx(expected, rel=1e-13)

    def test_per_single_point_anywhere(self):
        spec = _spec("per", 1)
        for x in (0.0, 0.21, 0.5, 0.93):
            value = squared_discrepancy(spec, PointSet([[x]])).value
            assert value == pytest.approx(1 / 6, rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="d="):
            squared_discrepancy(_spec("star", 3), PointSet([[0.5, 0.5]]))

    def test_weighted_needs_matching_points(self):
        spec = _spec("sym_weighted", 2, gamma=[4.0, 4.0])
        value = squared_discrepancy(spec, PointSet([[0.5, 0.5]])).value
        assert np.isfinite(value)
        with pytest.raises(ValidationError):
            squared_discrepancy(spec, PointSet([[0.5, 0.5, 0.5]]))


class TestArrayInputValidation:
    # the raw-array paths used by the optimizers validate their input like
    # PointSet does, instead of returning NaN or a number for a bad set
    BAD = {
        "nan": [[0.2, np.nan], [0.5, 0.5]],
        "inf": [[0.2, np.inf], [0.5, 0.5]],
        "below_zero": [[0.2, -1e-9], [0.5, 0.5]],
        "above_one": [[0.2, 1.5], [0.5, 0.5]],
        "one_dim": [0.2, 0.5],
        "no_rows": np.empty((0, 2)),
        "wrong_d": [[0.2, 0.5, 0.1]],
    }

    @pytest.mark.parametrize("fn", [squared_value, value_and_gradient],
                             ids=["squared_value", "value_and_gradient"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejects_bad_coordinates(self, fn, case):
        for tag in ("star", "per"):
            with pytest.raises(ValidationError):
                fn(_spec(tag, 2), np.asarray(self.BAD[case], dtype=np.float64))

    def test_closed_cube_accepted(self):
        coords = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, _ = value_and_gradient(_spec("star", 2), coords)
        assert value == squared_value(_spec("star", 2), coords)


class TestAsdByReflection:
    def test_single_center_point_d1(self):
        value = asd_by_reflection(PointSet([[0.5]])).value
        assert value == pytest.approx(1 / 12, rel=1e-14)

    def test_replicated_center_matches_kernel_form(self):
        pts = replicated_point((0.5, 0.5), 4)
        expected = 2.0**-2 - 2 * (3 / 8) ** 2 + 3.0**-2
        assert asd_by_reflection(pts).value == pytest.approx(expected, rel=1e-13)

    def test_equals_asd_kernel_on_random_sets(self):
        for d, n, seed in [(1, 7, 0), (2, 5, 1), (3, 9, 2), (5, 4, 3)]:
            pts = iid_uniform(n, d, seed)
            direct = squared_discrepancy(_spec("asd", d), pts).value
            averaged = asd_by_reflection(pts).value
            assert abs(direct - averaged) < 1e-12

    def test_refuses_large_d(self):
        pts = PointSet(np.full((1, 21), 0.5))
        with pytest.raises(ValidationError, match="refused"):
            asd_by_reflection(pts)


class TestWeightedSymIdentity:
    def test_scaled_asd_equals_sym_weighted_gamma_four(self):
        for d, n, seed in [(1, 6, 10), (2, 8, 11), (4, 5, 12)]:
            pts = iid_uniform(n, d, seed)
            asd_val = squared_discrepancy(_spec("asd", d), pts).value
            w_val = squared_discrepancy(
                _spec("sym_weighted", d, gamma=[4.0] * d), pts
            ).value
            assert 4.0**d * asd_val == pytest.approx(w_val, rel=1e-12)


class TestInvariances:
    def test_coordinate_permutation(self):
        rng = np.random.Generator(np.random.Philox(21))
        coords = rng.random((9, 3))
        perm = coords[:, [2, 0, 1]]
        for tag in CONTINUOUS_UNWEIGHTED + ["cad"]:
            spec = _spec(tag, 3)
            a = squared_value(spec, coords)
            b = squared_value(spec, perm)
            assert a == pytest.approx(b, abs=1e-14)

    def test_reflection_invariance(self):
        pts = iid_uniform(8, 3, 23)
        subsets = [set(), {1}, {2, 3}, {1, 2, 3}]
        for tag in REFLECTION_INVARIANT:
            spec = _spec(tag, 3)
            base = squared_discrepancy(spec, pts).value
            for u in subsets:
                refl = squared_discrepancy(spec, reflect(pts, u)).value
                assert refl == pytest.approx(base, abs=1e-12)

    def test_star_is_not_reflection_invariant(self):
        spec = _spec("star", 2)
        low = squared_discrepancy(spec, PointSet([[0.1, 0.1]])).value
        high = squared_discrepancy(spec, PointSet([[0.9, 0.9]])).value
        assert abs(low - high) > 1e-3

    def test_per_torus_shift_invariance(self):
        spec = _spec("per", 2)
        pts = iid_uniform(7, 2, 29)
        base = squared_discrepancy(spec, pts).value
        for shift in (0.1, 0.37, 0.9):
            shifted = pts.coords.copy()
            shifted[:, 0] = np.mod(shifted[:, 0] + shift, 1.0)
            moved = squared_value(spec, shifted)
            assert moved == pytest.approx(base, abs=1e-12)


class TestGradient:
    def test_star_single_point_d1(self):
        g = gradient(_spec("star", 1), PointSet([[0.3]]))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(2 * 0.3 - 1, rel=1e-12)

    def test_asd_center_is_critical(self):
        g = gradient(_spec("asd", 1), PointSet([[0.5]]))
        assert g[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_cad_rejected(self):
        with pytest.raises(NonDifferentiableMeasureError):
            gradient(_spec("cad", 2), PointSet([[0.3, 0.3]]))

    def _well_separated_set(self, n, d, seed):
        # interior points with all pairwise per-coordinate gaps > 1e-3 and
        # gaps from 1/2 > 1e-3, so no finite-difference step crosses a kink
        rng = np.random.Generator(np.random.Philox(seed))
        while True:
            coords = 0.05 + 0.9 * rng.random((n, d))
            ok = True
            for j in range(d):
                col = np.sort(coords[:, j])
                if np.min(np.diff(col)) <= 1e-3:
                    ok = False
                    break
                if np.min(np.abs(coords[:, j] - 0.5)) <= 1e-3:
                    ok = False
                    break
            if ok:
                return coords

    @pytest.mark.parametrize("tag", CONTINUOUS_UNWEIGHTED)
    def test_matches_central_finite_differences(self, tag):
        spec = _spec(tag, 2)
        coords = self._well_separated_set(6, 2, 31)
        value, grad = value_and_gradient(spec, coords)
        assert value == pytest.approx(squared_value(spec, coords), abs=1e-15)
        h = 1e-6
        for i in range(coords.shape[0]):
            for j in range(coords.shape[1]):
                up = coords.copy()
                dn = coords.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (squared_value(spec, up) - squared_value(spec, dn)) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_weighted_gradient_matches_finite_differences(self):
        spec = _spec("ctr_weighted", 2, gamma=[4.0, 0.5])
        coords = self._well_separated_set(5, 2, 37)
        grad = gradient(spec, PointSet(coords))
        h = 1e-6
        for i in range(5):
            for j in range(2):
                up = coords.copy()
                dn = coords.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (squared_value(spec, up) - squared_value(spec, dn)) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_peak_memory_is_per_coordinate_factors(self):
        # the leave-one-out pass keeps about 2d + 3 (n, n) arrays alive; a
        # pass over (n, n, d) factor tensors and their scans needs ~5d and fails
        n, d = 256, 8
        spec = _spec("ctr", d)
        coords = iid_uniform(n, d, seed=5).coords
        tracemalloc.start()
        try:
            value_and_gradient(spec, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * d * n * n * 8


class TestGreedyContribution:
    def test_star_hand_value(self):
        f = greedy_contribution(_spec("star", 1), PointSet([[0.5]]), [0.25])
        assert f == pytest.approx(-0.0625, rel=1e-12)

    def test_ctr_center_is_zero_minimum(self):
        spec = _spec("ctr", 2)
        base = PointSet([[0.5, 0.5]])
        assert greedy_contribution(spec, base, [0.5, 0.5]) == pytest.approx(
            0.0, abs=1e-15
        )
        rng = np.random.Generator(np.random.Philox(41))
        for y in rng.random((200, 2)):
            assert greedy_contribution(spec, base, y) >= -1e-15

    def test_affine_relation_star(self):
        spec = _spec("star", 2)
        base = iid_uniform(10, 2, 43)
        rng = np.random.Generator(np.random.Philox(44))
        offsets = []
        for y in rng.random((100, 2)):
            extended = PointSet(np.vstack([base.coords, y[None, :]]))
            full = squared_discrepancy(spec, extended).value
            f = greedy_contribution(spec, base, y)
            offsets.append((base.n + 1) * full - f)
        assert max(offsets) - min(offsets) < 1e-10

    def test_rejects_bad_candidate(self):
        spec = _spec("star", 2)
        base = PointSet([[0.5, 0.5]])
        with pytest.raises(ValidationError):
            greedy_contribution(spec, base, [0.5])
        with pytest.raises(ValidationError):
            greedy_contribution(spec, base, [0.5, 1.5])
