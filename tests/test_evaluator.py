"""Evaluator: closed-form values, reflection identities, gradients, greedy F."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from l2disc import evaluator
from l2disc.kernels import b_rows, c_cross

CONTINUOUS_UNWEIGHTED = ["star", "ext", "per", "ctr", "sym", "mix", "asd"]
CONTINUOUS = CONTINUOUS_UNWEIGHTED + ["ctr_weighted", "sym_weighted"]
REFLECTION_INVARIANT = ["asd", "sym", "ctr", "per", "cad", "mix"]
# columns per segment of the value's summation rule: numpy's pairwise leaf
SEGMENT = 128


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
        # the tiles, one pair of segments each, keep 4d arrays of
        # 128 x 128 floats here, 4 MiB; a pass over (n, n, d) factor tensors
        # and their scans needs ~5d (n, n) arrays and fails
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

    def test_peak_memory_does_not_grow_with_n_squared(self):
        # the tiles keep 4d arrays of 128 x 128 floats alive whatever n is,
        # 4 MiB; one (n, n) pass over the same points peaks at 144 MiB
        n, d = 1024, 8
        spec = _spec("ctr", d)
        coords = iid_uniform(n, d, seed=6).coords
        tracemalloc.start()
        try:
            value_and_gradient(spec, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def _untiled_gradient(spec, coords):
    """The gradient from full (n, n) factors: one tile spanning every point."""
    n, d = coords.shape
    grad = np.empty((n, d))
    cs = [spec.c_col(col[:, None], col[None, :], j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(evaluator._leave_one_out(cs)):
        col = coords[:, j]
        dct = spec.c_dx_col(col[:, None], col, j)
        dct *= exc
        grad[:, j] = dct.sum(axis=1)
    grad *= 2.0 / (n * n)
    bs = [spec.b_col(col, j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(evaluator._leave_one_out(bs)):
        grad[:, j] -= (2.0 / n) * spec.b_prime_col(coords[:, j], j) * exc
    return grad


def _segmented_gradient(spec, coords):
    """The gradient under the segment rule, from full (n, n) matrices
    D_j = dC_j * exc_j: row r of row group G takes, for each 128-column
    segment K, the numpy sum of its D_j entries when K >= G, or their sum
    by a pairwise halving tree when K < G (the column sums of the mirrored
    tile of K's rows), and adds the partials in segment order."""
    n, d = coords.shape
    grad = np.empty((n, d))
    cs = [spec.c_col(col[:, None], col[None, :], j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(evaluator._leave_one_out(cs)):
        col = coords[:, j]
        dct = spec.c_dx_col(col[:, None], col, j) * exc
        for r0 in range(0, n, SEGMENT):
            rows = slice(r0, min(r0 + SEGMENT, n))
            for k0 in range(0, n, SEGMENT):
                block = dct[rows, k0:k0 + SEGMENT].copy()
                if k0 < r0:
                    h = SEGMENT // 2
                    while h:
                        block[:, :h] += block[:, h:2 * h]
                        h //= 2
                    part = block[:, 0]
                else:
                    part = block.sum(axis=1)
                if k0 == 0:
                    grad[rows, j] = part
                else:
                    grad[rows, j] += part
    grad *= 2.0 / (n * n)
    bs = [spec.b_col(col, j) for j, col in enumerate(coords.T)]
    for j, exc in enumerate(evaluator._leave_one_out(bs)):
        grad[:, j] -= (2.0 / n) * spec.b_prime_col(coords[:, j], j) * exc
    return grad


def _unblocked_value(spec, coords):
    """The segment rule on the full (n, n) kernel matrix: row i of row group
    i // 128 adds the numpy sum of each 128-column segment from its group's
    own rightward, each later segment doubled, and fsum adds them all."""
    n = coords.shape[0]
    kernel = c_cross(spec, coords, coords)
    partials = []
    for i, row in enumerate(kernel):
        for k0 in range(i // SEGMENT * SEGMENT, n, SEGMENT):
            total = float(row[k0:k0 + SEGMENT].sum())
            partials.append(total if k0 <= i else 2.0 * total)
    c_sum = math.fsum(partials)
    return spec.a - 2.0 * float(b_rows(spec, coords).sum()) / n + c_sum / (n * n)


class TestTiles:
    # every tile is one pair of 128-point segments: past n = 128 rows are cut
    # into two or three segments, the last one of any width
    @settings(max_examples=30, deadline=None)
    @given(
        tag=st.sampled_from(CONTINUOUS),
        n=st.integers(1, 300),
        d=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="star", n=7, d=5, seed=0)
    @example(tag="ctr_weighted", n=40, d=1, seed=1)
    @example(tag="mix", n=33, d=2, seed=2)
    @example(tag="ctr_weighted", n=129, d=3, seed=3)
    @example(tag="sym", n=300, d=2, seed=4)
    def test_tile_edges_are_invisible(self, tag, n, d, seed):
        gamma = [0.3 + 0.7 * j for j in range(d)] if tag.endswith("_weighted") else None
        spec = _spec(tag, d, gamma=gamma)
        coords = iid_uniform(n, d, seed=seed).coords
        value, grad = value_and_gradient(spec, coords)
        reference = (_untiled_gradient if n <= SEGMENT else _segmented_gradient)(spec, coords)
        assert np.array_equal(grad, reference)
        assert value == squared_value(spec, coords)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 385])
    def test_segment_pairs_visit_each_pair_once_in_row_group_order(self, n):
        # gradient rows add every partial in segment order, starting from
        # -0.0, so the pairs must come row group by row group, diagonal first
        groups = -(-n // SEGMENT)
        pairs = list(evaluator._segment_pairs(n))
        assert [(i0 // SEGMENT, k0 // SEGMENT) for i0, _, k0, _ in pairs] == [
            (g, k) for g in range(groups) for k in range(g, groups)]
        for i0, i1, k0, k1 in pairs:
            assert i0 % SEGMENT == 0 and i1 == min(i0 + SEGMENT, n)
            assert k0 % SEGMENT == 0 and k1 == min(k0 + SEGMENT, n)

    def test_gradient_matches_fsum_reference(self):
        # each entry is a sum over n = 2048 points; numpy's pairwise row sums
        # keep it within 1e-13 of max|grad|, where a sum in point order is not
        n, d = 2048, 2
        spec = _spec("star", d)
        coords = iid_uniform(n, d, seed=2048).coords
        grad = value_and_gradient(spec, coords)[1]
        reference = np.empty((n, d))
        for i, x in enumerate(coords):
            cs = [spec.c_col(x[j], coords[:, j], j) for j in range(d)]
            bs = [spec.b_col(x[j], j) for j in range(d)]
            for j in range(d):
                others = np.prod(cs[:j] + cs[j + 1:], axis=0)
                c_terms = spec.c_dx_col(x[j], coords[:, j], j) * others
                b_term = spec.b_prime_col(x[j], j) * np.prod(bs[:j] + bs[j + 1:])
                reference[i, j] = 2.0 * math.fsum(c_terms.tolist()) / (n * n) - 2.0 * b_term / n
        assert np.max(np.abs(grad - reference)) <= 1e-13 * np.max(np.abs(grad))


class TestBlockedValue:
    # blocks run from one set to several whole sets per tile, on both sides
    # of a set's n^2 floats; no value or gradient may change, the stacked pass
    # values each set as squared_value does, and both functions return the
    # same value.
    # The examples at n > 128 cut rows into two or three segments, the last
    # one 1, 127, 128 or 44 columns wide.
    @settings(max_examples=30, deadline=None)
    @given(
        tag=st.sampled_from([m.value for m in MeasureId]),
        n=st.integers(1, 80),
        d=st.integers(1, 5),
        r=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="cad", n=80, d=3, r=1, seed=0)
    @example(tag="sym_weighted", n=12, d=5, r=4, seed=1)
    @example(tag="mix", n=1, d=2, r=3, seed=2)
    @example(tag="star", n=129, d=2, r=1, seed=3)
    @example(tag="cad", n=129, d=3, r=2, seed=4)
    @example(tag="per", n=255, d=1, r=1, seed=5)
    @example(tag="ctr_weighted", n=255, d=2, r=2, seed=6)
    @example(tag="mix", n=256, d=3, r=1, seed=7)
    @example(tag="ext", n=256, d=2, r=2, seed=8)
    @example(tag="sym", n=257, d=2, r=1, seed=9)
    @example(tag="asd", n=257, d=1, r=2, seed=10)
    @example(tag="sym_weighted", n=300, d=3, r=1, seed=11)
    @example(tag="ctr", n=300, d=2, r=2, seed=12)
    def test_leaf_edges_are_invisible(self, tag, n, d, r, seed):
        gamma = [0.3 + 0.7 * j for j in range(d)] if tag.endswith("_weighted") else None
        spec = _spec(tag, d, gamma=gamma)
        stack = iid_uniform(r * n, d, seed=seed).coords.reshape(r, n, d)
        expected = [_unblocked_value(spec, coords) for coords in stack]
        for block in (1, n - 1, n, n * n - 1, n * n, n * n + 1, 3 * n * n, 37):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluator, "_SUM_BLOCK", max(block, 1))
                assert evaluator._values(spec, stack) == expected
                assert squared_value(spec, stack[0]) == expected[0]
        if spec.continuous:
            value, grad = value_and_gradient(spec, stack[0])
            assert value == expected[0]
            reference = (_untiled_gradient if n <= SEGMENT else _segmented_gradient)(spec, stack[0])
            assert np.array_equal(grad, reference)
            assert np.array_equal(value_and_gradient(spec, stack[0])[1], grad)

    @pytest.mark.parametrize("n", [1, 7, 64, 127, 128])
    def test_one_segment_is_the_whole_row(self, n):
        # at n <= 128 the one segment is the whole row, so every value keeps
        # the bits of summing each row whole, which the pins were recorded on
        coords = iid_uniform(n, 3, seed=n).coords
        for tag in MeasureId:
            gamma = [0.3, 1.7, 4.9] if tag.value.endswith("_weighted") else None
            spec = _spec(tag, 3, gamma=gamma)
            row_sums = c_cross(spec, coords, coords).sum(axis=1)
            whole_rows = (spec.a - 2.0 * float(b_rows(spec, coords).sum()) / n
                          + math.fsum(row_sums.tolist()) / (n * n))
            assert squared_value(spec, coords) == whole_rows
            if spec.continuous:
                assert value_and_gradient(spec, coords)[0] == whole_rows

    @pytest.mark.parametrize("n,d", [(129, 2), (129, 4), (1025, 2), (1025, 4)])
    @pytest.mark.parametrize("tag", [m.value for m in MeasureId])
    def test_matches_fsum_of_every_product(self, tag, n, d):
        # the doubled segments stand for the kernel entries left of the
        # diagonal ones; the value stays within 1e-13 of the size of the
        # terms that cancel, against fsum over all n^2 products
        gamma = [0.3 + 0.7 * j for j in range(d)] if tag.endswith("_weighted") else None
        spec = _spec(tag, d, gamma=gamma)
        coords = iid_uniform(n, d, seed=n * d).coords
        b_terms = b_rows(spec, coords)
        c_terms = c_cross(spec, coords, coords).reshape(-1)
        b_sum, c_sum = math.fsum(b_terms.data), math.fsum(c_terms.data)
        reference = spec.a - 2.0 * b_sum / n + c_sum / (n * n)
        scale = abs(spec.a) + 2.0 * abs(b_sum) / n + abs(c_sum) / (n * n)
        value = squared_value(spec, coords)
        assert abs(value - reference) <= 1e-13 * scale
        if spec.continuous:
            assert value_and_gradient(spec, coords)[0] == value

    @pytest.mark.parametrize("tag,n,d", [("star", 300, 3), ("mix", 1025, 2), ("ctr", 1025, 5)])
    def test_real_block_is_bit_identical(self, tag, n, d):
        # rows of several segments, summed in tiles of the real size
        spec = _spec(tag, d)
        coords = iid_uniform(n, d, seed=n + d).coords
        value = squared_value(spec, coords)
        assert value == _unblocked_value(spec, coords)
        assert value == value_and_gradient(spec, coords)[0]

    def test_peak_memory_does_not_grow_with_n_squared(self):
        # one (128, 128) tile of the kernel matrix is alive at once; the full
        # (n, n) matrix and its factor temporaries peak at 128 MiB here
        spec = _spec("ctr", 4)
        coords = iid_uniform(2048, 4, seed=7).coords
        tracemalloc.start()
        try:
            squared_value(spec, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


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
