"""Construction: greedy extension, L-BFGS-B optimizer, cross-eval."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from l2disc import (
    GreedyConfig,
    NonDifferentiableMeasureError,
    OptimizerConfig,
    PointSet,
    ValidationError,
    cross_evaluate,
    greedy_extend,
    iid_uniform,
    kernel_spec,
    optimize,
    sobol,
    squared_discrepancy,
)
from l2disc import construct
from l2disc.construct import (
    _cross_sums,
    _grid_axis,
    _grid_blocks,
    _grid_points,
    _pattern_search,
    _slot_scores,
)
from l2disc.kernels import b_rows, c_cross

ALL_TAGS = ["star", "ext", "per", "ctr", "cad", "sym", "mix", "asd",
            "ctr_weighted", "sym_weighted"]


def _grid(d, k):
    """Every candidate grid point in scan order, shape (k**d, d)."""
    return _grid_points(_grid_axis(d, k), d, np.arange(k ** d))


def _spec(tag, d):
    gamma = [0.3 + 0.7 * j for j in range(d)] if tag.endswith("_weighted") else None
    return kernel_spec(tag, d, gamma=gamma)


class TestConfigs:
    def test_greedy_defaults_valid(self):
        cfg = GreedyConfig()
        assert cfg.batch == 1 and cfg.grid_k == 65

    def test_greedy_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            GreedyConfig(batch=0)
        with pytest.raises(ValidationError):
            GreedyConfig(grid_k=1)
        with pytest.raises(ValidationError):
            GreedyConfig(refine_shrink=1.0)
        with pytest.raises(ValidationError):
            GreedyConfig(max_refine_evaluations=-1)

    @pytest.mark.parametrize("field,value", [
        ("batch", 1.5), ("grid_k", 5.5), ("max_refine_evaluations", 3.5),
    ])
    def test_greedy_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            GreedyConfig(**{field: value})

    def test_optimizer_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValidationError):
            OptimizerConfig(iterations=0)
        with pytest.raises(ValidationError):
            OptimizerConfig(tolerance=0.0)
        for seed in (-1, 0.5, None):
            with pytest.raises(ValidationError, match="seed"):
                OptimizerConfig(seed=seed)

    @pytest.mark.parametrize("value", [2.5, True, "3", 0])
    @pytest.mark.parametrize("field", ["restarts", "iterations", "patience"])
    def test_optimizer_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0, "1"])
    @pytest.mark.parametrize("config,field", [
        (GreedyConfig, "refine_initial_step"), (GreedyConfig, "refine_min_step"),
        (OptimizerConfig, "tolerance"),
    ])
    def test_steps_and_tolerance_must_be_finite_and_positive(self, config, field,
                                                             value):
        with pytest.raises(ValidationError,
                           match=f"{field} must be finite and positive"):
            config(**{field: value})


class TestGreedyExtend:
    def test_ctr_from_center_degenerates(self):
        spec = kernel_spec("ctr", 2)
        start = PointSet([[0.5, 0.5]])
        cfg = GreedyConfig(grid_k=101)
        final, trace = greedy_extend(spec, start, steps=1, cfg=cfg)
        assert final.n == 2
        np.testing.assert_allclose(final.coords[1], [0.5, 0.5], atol=1e-12)
        assert trace.evaluations > 0

    def test_grid_argmin_matches_brute_force(self):
        spec = kernel_spec("star", 1)
        base = PointSet([[0.5]])
        cfg = GreedyConfig(grid_k=41, max_refine_evaluations=0)
        final, _ = greedy_extend(spec, base, steps=1, cfg=cfg)
        cands = _grid(1, 41)
        best = min(
            cands,
            key=lambda y: squared_discrepancy(
                spec, PointSet(np.vstack([base.coords, y[None, :]]))
            ).value,
        )
        assert final.coords[1, 0] == pytest.approx(best[0], abs=1e-15)

    def test_multiple_steps_track_values(self):
        spec = kernel_spec("star", 2)
        final, trace = greedy_extend(
            spec, sobol(4, 2), steps=3, cfg=GreedyConfig(grid_k=17)
        )
        assert final.n == 7
        assert len(trace.values) == 3
        fresh = squared_discrepancy(spec, final).value
        assert trace.final_value == pytest.approx(fresh, abs=1e-15)

    @pytest.mark.parametrize("tag", ["star", "cad", "sym_weighted"])
    def test_final_value_is_the_last_step_value(self, tag):
        spec = _spec(tag, 2)
        final, trace = greedy_extend(spec, sobol(3, 2), steps=2,
                                     cfg=GreedyConfig(batch=2, grid_k=9))
        fresh = squared_discrepancy(spec, final).value
        assert trace.final_value == trace.values[-1] == fresh

    def test_batch_interaction_beats_doubled_single_candidate(self):
        # batch 2 must account for the within-batch pair term: both slots at
        # the single-best location is worse than the joint optimum it returns
        spec = kernel_spec("star", 1)
        base = PointSet([[0.5]])
        final, trace = greedy_extend(
            spec, base, steps=1, cfg=GreedyConfig(batch=2, grid_k=41)
        )
        assert final.n == 3
        single_best = greedy_extend(
            spec, base, steps=1,
            cfg=GreedyConfig(batch=1, grid_k=41, max_refine_evaluations=0),
        )[0].coords[1, 0]
        doubled = PointSet([[0.5], [single_best], [single_best]])
        assert trace.final_value < squared_discrepancy(spec, doubled).value

    def test_deterministic(self):
        spec = kernel_spec("sym", 2)
        start = iid_uniform(3, 2, 71)
        a, _ = greedy_extend(spec, start, steps=2, cfg=GreedyConfig(grid_k=15))
        b, _ = greedy_extend(spec, start, steps=2, cfg=GreedyConfig(grid_k=15))
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_cad_is_accepted(self):
        spec = kernel_spec("cad", 2)
        final, _ = greedy_extend(
            spec, PointSet([[0.25, 0.25]]), steps=1, cfg=GreedyConfig(grid_k=9)
        )
        assert final.n == 2

    def test_rejects_bad_steps_and_dimension(self):
        spec = kernel_spec("star", 2)
        with pytest.raises(ValidationError):
            greedy_extend(spec, sobol(4, 2), steps=0)
        with pytest.raises(ValidationError):
            greedy_extend(spec, sobol(4, 3), steps=1)
        with pytest.raises(ValidationError, match="steps must be an integer"):
            greedy_extend(spec, sobol(4, 2), steps=1.5)

    def test_candidate_grid_cap(self):
        with pytest.raises(ValidationError):
            _grid_axis(8, 65)


class TestDimensionCheck:
    @pytest.mark.parametrize("construct_run", [
        lambda spec, pts: greedy_extend(spec, pts, steps=1),
        lambda spec, pts: optimize(spec, pts, OptimizerConfig(restarts=1)),
    ], ids=["greedy", "optimize"])
    def test_rejects_set_of_other_d_before_evaluating(self, monkeypatch,
                                                      construct_run):
        def never(*args):
            raise AssertionError("evaluated a set of the wrong dimension")

        monkeypatch.setattr(construct, "squared_discrepancy", never)
        monkeypatch.setattr(construct, "value_and_gradient", never)
        monkeypatch.setattr(construct, "_cross_sums", never)
        with pytest.raises(ValidationError,
                           match="kernel spec is for d=2 but the points have d=3"):
            construct_run(kernel_spec("star", 2), sobol(4, 3))

    def test_cad_is_named_before_the_dimension(self):
        with pytest.raises(NonDifferentiableMeasureError):
            optimize(kernel_spec("cad", 2), sobol(4, 3), OptimizerConfig())


class TestOptimize:
    def test_single_point_star_reaches_center(self):
        spec = kernel_spec("star", 1)
        cfg = OptimizerConfig(restarts=1, iterations=4000, seed=0)
        final, trace = optimize(spec, PointSet([[0.9]]), cfg)
        assert final.coords[0, 0] == pytest.approx(0.5, abs=1e-5)
        assert trace.final_value == pytest.approx(1 / 12, abs=1e-9)

    def test_improves_on_initial_set(self):
        spec = kernel_spec("ext", 2)
        init = iid_uniform(8, 2, 73)
        start_value = squared_discrepancy(spec, init).value
        _, trace = optimize(
            spec, init, OptimizerConfig(restarts=2, iterations=1500, seed=1)
        )
        assert trace.final_value < start_value

    def test_projection_invariant(self):
        spec = kernel_spec("ctr", 2)
        final, _ = optimize(
            spec,
            iid_uniform(6, 2, 79),
            OptimizerConfig(restarts=2, iterations=500, seed=2),
        )
        assert final.coords.min() >= 0.0 and final.coords.max() <= 1.0

    def test_trace_best_values_non_increasing(self):
        spec = kernel_spec("star", 2)
        _, trace = optimize(
            spec,
            iid_uniform(5, 2, 83),
            OptimizerConfig(restarts=1, iterations=800, seed=3),
        )
        best = np.asarray(trace.best_values)
        assert np.all(np.diff(best) <= 0.0)
        assert trace.final_value <= best[0]

    def test_final_value_is_fresh_reverification(self):
        spec = kernel_spec("asd", 2)
        final, trace = optimize(
            spec,
            iid_uniform(5, 2, 89),
            OptimizerConfig(restarts=2, iterations=400, seed=4),
        )
        fresh = squared_discrepancy(spec, final).value
        assert trace.final_value == fresh
        assert 0 <= trace.winner_restart < 2

    @pytest.mark.parametrize("tag", ["star", "ctr", "mix"])
    def test_trace_minimum_is_the_reverified_value(self, tag):
        # the trace values and the fresh re-verification follow one
        # summation rule, so the winner's best iterate re-verifies exactly
        spec = kernel_spec(tag, 2)
        _, trace = optimize(
            spec,
            iid_uniform(24, 2, 7),
            OptimizerConfig(restarts=2, iterations=300, seed=7),
        )
        assert min(trace.values) == trace.final_value

    def test_iterations_cap_evaluations_per_restart(self):
        _, trace = optimize(kernel_spec("star", 2), iid_uniform(8, 2, 61),
                            OptimizerConfig(restarts=3, iterations=7, seed=8))
        assert len(trace.values) <= 7
        assert trace.evaluations <= 3 * 7

    @pytest.mark.parametrize("patience", [1, 3, 10])
    def test_patience_counts_evaluations_without_gain(self, patience):
        # no evaluation gains more than 1.0, so after the first each one
        # counts towards patience
        cfg = OptimizerConfig(restarts=2, tolerance=1.0, patience=patience, seed=9)
        _, trace = optimize(kernel_spec("ext", 2), iid_uniform(8, 2, 67), cfg)
        assert len(trace.values) == 1 + patience
        assert trace.evaluations == 2 * (1 + patience)

    @pytest.mark.parametrize("tag", [t for t in ALL_TAGS if t != "cad"])
    def test_every_evaluation_stays_in_the_box(self, monkeypatch, tag):
        # a start on the box's faces keeps the bounds active; every point
        # handed to value_and_gradient is inside [0, 1], and each call is
        # one of Trace.evaluations
        seen = []

        def recording(spec, x):
            seen.append((x.min(), x.max()))
            return real(spec, x)

        real = construct.value_and_gradient
        monkeypatch.setattr(construct, "value_and_gradient", recording)
        spec = _spec(tag, 2)
        init = PointSet([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0],
                         [0.5, 0.0], [1.0, 0.5]])
        final, trace = optimize(spec, init,
                                OptimizerConfig(restarts=2, iterations=300, seed=10))
        assert len(seen) == trace.evaluations
        assert min(lo for lo, _ in seen) >= 0.0 and max(hi for _, hi in seen) <= 1.0
        assert final.coords.min() >= 0.0 and final.coords.max() <= 1.0
        assert trace.final_value <= squared_discrepancy(spec, init).value

    def test_each_pass_starts_from_the_best_point(self, monkeypatch):
        import scipy.optimize

        evaluated, starts = [], []

        def recording(spec, x):
            value, grad = real(spec, x)
            evaluated.append((value, x.copy()))
            return value, grad

        def minimize(fun, x0, **kwargs):
            starts.append((len(evaluated), x0.copy()))
            return real_minimize(fun, x0, **kwargs)

        real, real_minimize = construct.value_and_gradient, scipy.optimize.minimize
        monkeypatch.setattr(construct, "value_and_gradient", recording)
        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        init = iid_uniform(6, 2, 71)
        optimize(kernel_spec("sym", 2), init,
                 OptimizerConfig(restarts=1, iterations=2000, seed=11))
        assert len(starts) >= 2
        np.testing.assert_array_equal(starts[0][1], init.coords.ravel())
        for count, x0 in starts[1:]:
            values = [value for value, _ in evaluated[:count]]
            np.testing.assert_array_equal(x0, evaluated[values.index(min(values))][1].ravel())

    def test_deterministic_bit_for_bit(self):
        spec = kernel_spec("sym", 2)
        init = iid_uniform(4, 2, 97)
        cfg = OptimizerConfig(restarts=3, iterations=300, seed=5)
        a, ta = optimize(spec, init, cfg)
        b, tb = optimize(spec, init, cfg)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert ta.values == tb.values
        assert ta.final_value == tb.final_value

    def test_cad_rejected(self):
        with pytest.raises(NonDifferentiableMeasureError):
            optimize(kernel_spec("cad", 2), sobol(4, 2), OptimizerConfig())

    def test_weighted_measure_optimizes(self):
        spec = kernel_spec("ctr_weighted", 2, gamma=[2.0, 2.0])
        init = iid_uniform(4, 2, 101)
        start_value = squared_discrepancy(spec, init).value
        _, trace = optimize(
            spec, init, OptimizerConfig(restarts=1, iterations=600, seed=6)
        )
        assert trace.final_value < start_value


class TestCrossEvaluate:
    def test_diagonal_is_exactly_one(self):
        sets = {"star": sobol(8, 2), "ext": iid_uniform(8, 2, 103)}
        ratios = cross_evaluate(sets, ["star", "ext"])
        assert ratios[0, 0] == 1.0 and ratios[1, 1] == 1.0

    def test_entries_match_direct_computation(self):
        sets = {"star": sobol(8, 2), "per": iid_uniform(8, 2, 107)}
        ratios = cross_evaluate(sets, ["star", "per"])
        star = kernel_spec("star", 2)
        expected = (
            squared_discrepancy(star, sets["per"]).root
            / squared_discrepancy(star, sets["star"]).root
        )
        assert ratios[0, 1] == pytest.approx(expected, rel=1e-15)

    def test_missing_measure_rejected(self):
        with pytest.raises(ValidationError):
            cross_evaluate({"star": sobol(4, 2)}, ["star", "ext"])

    def test_dimension_mismatch_rejected(self):
        sets = {"star": sobol(4, 2), "ext": sobol(4, 3)}
        with pytest.raises(ValidationError):
            cross_evaluate(sets, ["star", "ext"])


def _generic_scores(spec, base, chosen, cands, total):
    # the objective increment written for arbitrary candidates, as one
    # (rows, K) cross matrix per term summed down its rows: the expression
    # the grid scorer replaces
    scores = -2.0 * total * b_rows(spec, cands)
    scores = scores + 2.0 * np.sum(c_cross(spec, base, cands), axis=0)
    if chosen.shape[0]:
        scores = scores + 2.0 * np.sum(c_cross(spec, chosen, cands), axis=0)
    return scores + c_cross(spec, cands[:, None], cands[:, None])[:, 0, 0]


def _grid_scores(spec, base, chosen, k, total):
    axis = _grid_axis(spec.d, k)
    return _slot_scores(spec, axis, _cross_sums(spec, axis, base), chosen, total)


def _one_batch_objective(spec, base, batch_pts, total):
    b_sum = float(np.sum(b_rows(spec, batch_pts)))
    cross = float(np.sum(c_cross(spec, base, batch_pts)))
    pair = float(np.sum(c_cross(spec, batch_pts, batch_pts)))
    return -2.0 * total * b_sum + 2.0 * cross + pair


def _sequential_pattern_search(spec, base, start, total, cfg):
    # compass search one trial at a time, the loop the batched sweeps replace
    step = cfg.refine_initial_step
    if step is None:
        step = 1.0 / (cfg.grid_k - 1)
    current = start.copy()
    value = _one_batch_objective(spec, base, current, total)
    evals = 1
    while step >= cfg.refine_min_step and evals < cfg.max_refine_evaluations:
        improved = False
        for m in range(current.shape[0]):
            for j in range(current.shape[1]):
                for direction in (step, -step):
                    if evals >= cfg.max_refine_evaluations:
                        return current, value, evals
                    trial = current.copy()
                    trial[m, j] = min(1.0, max(0.0, trial[m, j] + direction))
                    if trial[m, j] == current[m, j]:
                        continue
                    cand_value = _one_batch_objective(spec, base, trial, total)
                    evals += 1
                    if cand_value < value:
                        current, value = trial, cand_value
                        improved = True
                        break
        if not improved:
            step *= cfg.refine_shrink
    return current, value, evals


class TestSlotScores:
    # a grid line of 31 values (7 at d = 3) leaves a width-1 tail, the
    # column g = 1, at block widths 2 and 3; at these n numpy's pairwise sum
    # of that (n, 1) column differs from the row-order sum, so the sym and
    # mix cases fail if the tail is not merged (star's C(x, 1) is 0, so its
    # cases check the other block edges only)
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("tag,n,d", [("star", 200, 2), ("sym", 150, 3), ("mix", 100, 1)])
    def test_chunks_are_invisible(self, width, tag, n, d):
        k = 7 if d == 3 else 31
        spec = kernel_spec(tag, d)
        base = iid_uniform(n, d, seed=n + d).coords
        chosen = iid_uniform(2, d, seed=1).coords
        total = n + 3
        reference = _generic_scores(spec, base, chosen, _grid(d, k), total)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", width * n)
            scores = _grid_scores(spec, base, chosen, k, total)
        assert np.array_equal(scores, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        d=st.integers(1, 4),
        n=st.integers(1, 80),
        k=st.integers(2, 9),
        n_chosen=st.integers(0, 2),
        block=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="sym_weighted", d=4, n=80, k=9, n_chosen=2, block=2, seed=0)
    @example(tag="cad", d=1, n=1, k=2, n_chosen=0, block=2, seed=1)
    # chunk 1 builds the line prefixes one grid line at a time
    @pytest.mark.parametrize("chunk", [1, construct._PREFIX_FLOATS])
    def test_grid_scores_match_generic_expression(self, chunk, tag, d, n, k, n_chosen,
                                                  block, seed):
        spec = _spec(tag, d)
        base = iid_uniform(n, d, seed=seed).coords
        # grid values among the chosen points make ties of the kink factors
        chosen = _grid(d, k)[seed % k ** d:][:n_chosen]
        total = n + n_chosen + 1
        reference = _generic_scores(spec, base, chosen, _grid(d, k), total)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", block)
            mp.setattr(construct, "_PREFIX_FLOATS", chunk)
            scores = _grid_scores(spec, base, chosen, k, total)
        assert scores.tobytes() == reference.tobytes()

    def test_peak_memory_is_chunk_sized(self):
        # the unchunked (64, 65^3) cross matrix and its temporaries peak at
        # about 404 MiB
        spec = kernel_spec("sym", 3)
        base = iid_uniform(64, 3, seed=67).coords
        tracemalloc.start()
        try:
            _grid_scores(spec, base, np.empty((0, 3)), 65, 65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_greedy_peak_memory_holds_no_candidate_array(self):
        # two 65^3 float vectors (the base sums and one slot's scores) are
        # 4.2 MiB; a (65^3, 3) candidate array alone would be 6.3 MiB
        spec = kernel_spec("sym", 3)
        start = iid_uniform(64, 3, seed=67)
        cfg = GreedyConfig(batch=2, grid_k=65)
        tracemalloc.start()
        try:
            greedy_extend(spec, start, 2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_cross_sums_peak_memory_is_bounded(self):
        # 2048 rows go in groups of 496 (_SUM_BLOCK // 33), each with 16 grid
        # lines per prefix chunk, and peak at about 1.22 MiB; the whole
        # (2048, 33^2) prefix table and the temporary that builds it would
        # take about 36 MiB
        spec = kernel_spec("sym", 3)
        coords = iid_uniform(2048, 3, seed=5).coords
        tracemalloc.start()
        try:
            _cross_sums(spec, _grid_axis(3, 33), coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_last_slot_scores_into_the_base_sums(self):
        # a one-step, one-slot call reads the base sums for the last time
        # while it scores, so it holds one 65^3 float vector (2.1 MiB), not two
        spec = kernel_spec("sym", 3)
        start = iid_uniform(16, 3, seed=67)
        tracemalloc.start()
        try:
            greedy_extend(spec, start, 1, GreedyConfig(batch=1, grid_k=65))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestBatchedSweeps:
    @settings(max_examples=40, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        d=st.integers(1, 3),
        batch=st.integers(1, 3),
        budget=st.sampled_from([0, 1, 7, 50, 2_000]),
        corner=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="star", d=2, batch=2, budget=7, corner=True, seed=0)
    @example(tag="ctr", d=3, batch=1, budget=1, corner=True, seed=1)
    @example(tag="cad", d=1, batch=3, budget=0, corner=False, seed=2)
    def test_matches_sequential_trials(self, tag, d, batch, budget, corner, seed):
        spec = _spec(tag, d)
        base = iid_uniform(12, d, seed=seed).coords
        start = iid_uniform(batch, d, seed=seed + 1).coords
        if corner:
            # every coordinate at 0 or 1, so half of the compass moves clamp
            start = np.round(start)
        cfg = GreedyConfig(batch=batch, grid_k=9, refine_min_step=1e-4,
                           max_refine_evaluations=budget)
        total = 12 + batch
        got = _pattern_search(spec, base, start, total, cfg)
        want = _sequential_pattern_search(spec, base, start, total, cfg)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]

    @settings(max_examples=12, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        d=st.integers(1, 3),
        n=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_running_sums_match_per_step_recomputation(self, tag, d, n, seed):
        spec = _spec(tag, d)
        start = iid_uniform(n, d, seed=seed)
        cfg = GreedyConfig(batch=2, grid_k=9, max_refine_evaluations=60)
        rows = [start.coords]

        def checked(spec, axis, pts, sums=None):
            if sums is None:
                return _cross_sums(spec, axis, pts)
            _cross_sums(spec, axis, pts, sums)
            rows.append(pts)
            assert np.array_equal(sums, _cross_sums(spec, axis, np.vstack(rows)))
            return sums

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_cross_sums", checked)
            greedy_extend(spec, start, 3, cfg)
        assert len(rows) == 3

    # a block of 48 floats splits a 65-point grid line into spans of 16 for
    # the 3 appended rows and of 4 for all 12, both ending in a merged
    # width-1 tail, and a 9-point line into spans of 4 for all 12 rows
    @pytest.mark.parametrize("chunk", [1, construct._PREFIX_FLOATS])
    @pytest.mark.parametrize("block", [48, construct._SUM_BLOCK])
    @pytest.mark.parametrize("k", [2, 9, 65])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_continued_sums_are_bit_exact(self, tag, d, k, block, chunk):
        spec = _spec(tag, d)
        old = iid_uniform(9, d, seed=k + d).coords
        new = iid_uniform(3, d, seed=k + d + 1).coords
        axis = _grid_axis(d, k)
        cands = _grid(d, k)
        generic = np.sum(c_cross(spec, np.vstack([old, new]), cands), axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", block)
            mp.setattr(construct, "_PREFIX_FLOATS", chunk)
            got = _cross_sums(spec, axis, new, _cross_sums(spec, axis, old))
            want = _cross_sums(spec, axis, np.vstack([old, new]))
        assert got.tobytes() == want.tobytes() == generic.tobytes()

    # _SUM_BLOCK // k rows per group: blocks of 2 to 2^13 floats cut bases of
    # up to 300 rows into groups of one row up to the whole base, and blocks
    # under k floats cut grid lines into spans
    @settings(max_examples=40, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        d=st.integers(1, 3),
        n=st.integers(1, 300),
        k=st.integers(2, 17),
        block=st.integers(2, 2**13),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="sym", d=3, n=300, k=17, block=17, seed=0)
    @example(tag="mix", d=2, n=300, k=9, block=9 * 299, seed=1)
    @example(tag="ctr_weighted", d=1, n=257, k=17, block=5, seed=2)
    def test_row_groups_match_generic_sum(self, tag, d, n, k, block, seed):
        group = max(1, block // k)
        assume(-(-n // group) * k ** d // max(2, block // group) <= 2**13)
        spec = _spec(tag, d)
        pts = iid_uniform(n, d, seed=seed).coords
        generic = np.sum(c_cross(spec, pts, _grid(d, k)), axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", block)
            got = _cross_sums(spec, _grid_axis(d, k), pts)
        assert got.tobytes() == generic.tobytes()

    @pytest.mark.parametrize("rows,tail", [(3, (48, 65)), (12, (60, 65))])
    def test_block_of_48_ends_lines_in_a_merged_tail(self, rows, tail):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", 48)
            cols = {(c.start, c.stop) for _, c in _grid_blocks(2, 65, rows)}
        assert tail in cols and (64, 65) not in cols

    # each block starts where the one before it stopped, a block of several
    # lines holds whole lines, and the last stops at k^d: so every scan index
    # appears once, in order
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), k=st.integers(2, 65), rows=st.integers(1, 300),
           block=st.integers(2, 2**14))
    @example(d=3, k=65, rows=16, block=2**14)
    @example(d=4, k=65, rows=1, block=2**14)
    @example(d=2, k=65, rows=300, block=2)
    def test_grid_blocks_cover_the_grid_once_in_order(self, d, k, rows, block):
        assume(k ** d // max(2, block // rows) <= 2**16)  # about 2^16 blocks at most
        stop = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_SUM_BLOCK", block)
            for lines, cols in _grid_blocks(d, k, rows):
                assert 0 <= cols.start and cols.start + 2 <= cols.stop <= k
                assert lines.stop - lines.start == 1 or (cols.start, cols.stop) == (0, k)
                assert lines.start * k + cols.start == stop
                stop = (lines.stop - 1) * k + cols.stop
        assert stop == k ** d

    # bases of up to 80 rows make a trial's n·b cross terms longer than
    # numpy's 8-term unrolled sum, and past its 128-term pairwise block
    @settings(max_examples=30, deadline=None)
    @given(
        tag=st.sampled_from(ALL_TAGS),
        n=st.integers(1, 80),
        d=st.integers(1, 4),
        batch=st.integers(1, 3),
        budget=st.sampled_from([1, 7, 50, 2_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(tag="sym_weighted", n=80, d=4, batch=3, budget=2_000, seed=0)
    @example(tag="ctr_weighted", n=65, d=3, batch=2, budget=2_000, seed=1)
    def test_matches_sequential_trials_at_scale(self, tag, n, d, batch, budget, seed):
        spec = _spec(tag, d)
        base = iid_uniform(n, d, seed=seed).coords
        start = iid_uniform(batch, d, seed=seed + 1).coords
        cfg = GreedyConfig(batch=batch, grid_k=9, refine_min_step=1e-4,
                           max_refine_evaluations=budget)
        got = _pattern_search(spec, base, start, n + batch, cfg)
        want = _sequential_pattern_search(spec, base, start, n + batch, cfg)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]

    @pytest.mark.parametrize("tag", ["star", "mix", "sym_weighted"])
    def test_later_trials_see_moves_made_earlier_in_the_sweep(self, tag):
        # from the all-0 corner the first sweep takes every +step move, so
        # point 0 has moved on each axis before points 1 and 2 are tried on
        # it: their pair terms must use its new coordinate
        spec = _spec(tag, 2)
        base = iid_uniform(20, 2, seed=3).coords
        start = np.zeros((3, 2))
        first = _sequential_pattern_search(
            spec, base, start, 23, GreedyConfig(batch=3, grid_k=9,
                                                max_refine_evaluations=7))
        assert np.array_equal(first[0], start + 0.125)
        for budget in range(40):
            cfg = GreedyConfig(batch=3, grid_k=9, max_refine_evaluations=budget)
            got = _pattern_search(spec, base, start, 23, cfg)
            want = _sequential_pattern_search(spec, base, start, 23, cfg)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]
