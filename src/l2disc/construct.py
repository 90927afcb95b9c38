"""Point-set construction: greedy extension and multi-restart optimization.

Greedy extension appends ``batch`` points per step by minimizing the exact
y-dependent part of the extended set's scaled squared discrepancy,

    G(Y) = -2 (n + b) sum_m prodB(y_m) + 2 sum_i sum_m prodC(x_i, y_m)
             + sum_{m,m'} prodC(y_m, y_m'),

which includes the within-batch pair terms (batch points interact through
C, so G is not a sum of single-point contributions).  Candidates come from
an inclusive uniform grid and the winner is refined by compass pattern
search with a shrinking step, budgeted in evaluations so runs are
deterministic.

The grid is never built as a (k^d, d) array.  Scoring reads a grid point's
factors from per-axis tables (B_j(g), C_j(g, g) and C_j(x_ij, g)) and
multiplies them in coordinate order: the axes before the last once per grid
line, into a line-prefix table built in chunks, then each block of lines is
a copy of its prefixes times a copy of the last axis's table, and one row
sum.  The base sum sum_i prod_j C_j(x_ij, g) is kept for every grid point
across steps: it is built in row groups, each continuing the last, and
continued over the appended points the same way, with the running sums as
each block's first row; the last slot of a call scores into them in place.
Pattern search tables C_j(x_ij, v), B_j(v) and C_j(v, v') once per sweep for
each v = y_mj or y_mj +- step (a sweep moves only coordinates it has passed);
a trial is one index array into the sweep's tables, and only the trials the
one-at-a-time scan would make count.  None of this moves a bit.

Optimization is L-BFGS-B on the box [0, 1]^{nd} with the exact gradient:
restart 0 starts from the caller's set, further restarts from IID uniform
sets drawn from a counter-based generator keyed by (seed, restart).  Every
candidate result is re-verified by a fresh closed-form evaluation before the
winner is chosen (lowest value, then lowest restart index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    MeasureId,
    NonDifferentiableMeasureError,
    PointSet,
    ValidationError,
    check_count,
    check_positive,
    check_seed,
)
from .evaluator import _SUM_BLOCK, _checked_coords, squared_discrepancy, value_and_gradient
from .kernels import KernelSpec, kernel_spec

__all__ = [
    "GreedyConfig",
    "OptimizerConfig",
    "Trace",
    "greedy_extend",
    "optimize",
    "cross_evaluate",
]

#: Candidates whose objective lies within this absolute slack of the grid
#: minimum count as tied and go to the positional tie-break.
_TIE_ATOL = 1e-12

#: Hard cap on grid_k ** d candidate points per greedy slot.
_MAX_GRID_CANDIDATES = 1 << 22

#: Floats per chunk of grid-line prefixes: with its temporary, one sum block.
_PREFIX_FLOATS = _SUM_BLOCK // 2


@dataclass(frozen=True)
class GreedyConfig:
    """Settings for one greedy extension run.

    ``grid_k`` is the number of candidate values per axis, endpoints
    included, so the grid contains the corners and (for odd grid_k) the
    center.  Refinement starts from one grid cell unless
    ``refine_initial_step`` is given and shrinks by ``refine_shrink``
    until ``refine_min_step``; ``max_refine_evaluations`` caps the
    pattern-search objective calls per step.
    """

    batch: int = 1
    grid_k: int = 65
    refine_initial_step: Optional[float] = None
    refine_shrink: float = 0.5
    refine_min_step: float = 1e-6
    max_refine_evaluations: int = 20_000

    def __post_init__(self) -> None:
        check_count("batch", self.batch, 1)
        check_count("grid_k", self.grid_k, 2)
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValidationError(
                f"refine_shrink must lie in (0, 1), got {self.refine_shrink}")
        if self.refine_initial_step is not None:
            check_positive("refine_initial_step", self.refine_initial_step)
        check_positive("refine_min_step", self.refine_min_step)
        check_count("max_refine_evaluations", self.max_refine_evaluations, 0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for multi-restart L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).

    ``iterations`` caps the value+gradient evaluations of each restart.  A
    restart also stops once ``patience`` evaluations in a row fail to
    improve its best squared value by more than ``tolerance``, and after a
    pass of L-BFGS-B that gains no more than ``tolerance``.
    """

    restarts: int = 8
    iterations: int = 20_000
    seed: int = 0
    tolerance: float = 1e-14
    patience: int = 2_000

    def __post_init__(self) -> None:
        check_count("restarts", self.restarts, 1)
        check_count("iterations", self.iterations, 1)
        check_positive("tolerance", self.tolerance)
        check_count("patience", self.patience, 1)
        check_seed(self.seed)


@dataclass(frozen=True)
class Trace:
    """Record of one construction run.

    ``values`` holds the raw squared value recorded at each step
    (greedy) or each evaluation of the winning restart (optimizer);
    ``best_values`` is its running minimum, hence non-increasing.
    ``final_value`` is re-verified by a fresh closed-form evaluation of
    ``final``.  Both constructors build it in one place, ``_trace``.
    """

    values: tuple
    best_values: tuple
    final: PointSet
    final_value: float
    winner_restart: int
    evaluations: int


def _trace(values: Sequence[float], final: PointSet, final_value: float,
           winner_restart: int, evaluations: int) -> Trace:
    """The run's Trace, with ``best_values`` the running minimum of ``values``."""
    best_values = tuple(accumulate(values, min, initial=math.inf))[1:]
    return Trace(values=tuple(values), best_values=best_values, final=final,
                 final_value=final_value, winner_restart=winner_restart,
                 evaluations=evaluations)


# ---------------------------------------------------------------------------
# greedy extension
# ---------------------------------------------------------------------------


def _sweep_tables(spec: KernelSpec, base: np.ndarray, current: np.ndarray,
                  offsets: np.ndarray, axes: np.ndarray) -> tuple:
    """A sweep's (3b, d) values (row u: point u % b moved by offsets[u // b] of
    [0, +step, -step], clamped), C_j(w_j, v_j) (d, n + 3b, 3b) for the rows w of
    [base; values] as in ``_cross_tables``, and B_j(v_j) (d, 3b), on ``axes``."""
    vals = np.minimum(np.maximum(current + offsets, 0.0), 1.0).reshape(-1, spec.d)
    tab = spec.c_col(np.concatenate([base, vals]).T[:, :, None], vals.T[:, None, :], axes)
    return vals, tab, spec.b_col(vals.T, axes[..., 0])


def _objective(cross: np.ndarray, b_tab: np.ndarray, pair: np.ndarray,
               total: int) -> np.ndarray:
    """G(Y) for t batches from per-axis tables stacked axis first, cross
    (d, t, n, b), b_tab (d, t, b), pair (d, t, b, b): the axes multiply in order,
    as in ``c_cross``, and numpy sums each trial's contiguous row as if alone."""
    t = cross.shape[1]
    b_sum = np.multiply.reduce(b_tab).sum(axis=1)
    c_sum = np.multiply.reduce(cross).reshape(t, -1).sum(axis=1)
    p_sum = np.multiply.reduce(pair).reshape(t, -1).sum(axis=1)
    return -2.0 * total * b_sum + 2.0 * c_sum + p_sum


def _grid_axis(d: int, k: int) -> np.ndarray:
    """The k values per axis of the candidate grid, endpoints included."""
    if k ** d > _MAX_GRID_CANDIDATES:
        raise ValidationError(
            f"candidate grid of {k}^{d} points exceeds the "
            f"{_MAX_GRID_CANDIDATES} cap; lower grid_k or d")
    return np.linspace(0.0, 1.0, k)


def _grid_points(axis: np.ndarray, d: int, flat: np.ndarray) -> np.ndarray:
    """The grid points at flat scan indices, shape (t, d); the last axis varies
    fastest, as in a raveled meshgrid(indexing="ij")."""
    idx = np.unravel_index(flat, (axis.size,) * d)
    return np.stack([axis[i] for i in idx], axis=1)


def _candidate_grid(d: int, k: int) -> np.ndarray:
    """Every grid point in scan order, shape (k**d, d)."""
    return _grid_points(_grid_axis(d, k), d, np.arange(k ** d))


def _grid_blocks(d: int, k: int, rows: int):
    """Split the grid in scan order into blocks of about _SUM_BLOCK // rows
    points: whole lines (a_0..a_{d-2} fixed, a_{d-1} running) or, where one
    line is wider, spans of a line.  No block is 1 wide, because numpy sums a
    (rows, 1) column pairwise, not in row order; a width-1 tail joins the
    span before it.  Yields slices of line indices and of the last axis."""
    width, lines = max(2, _SUM_BLOCK // rows), k ** (d - 1)
    per = max(1, width // k)
    spans = [slice(c0, k if c0 + width >= k - 1 else c0 + width)
             for c0 in range(0, max(k - 1, 1), width)]
    for l0 in range(0, lines, per):
        for cols in spans:
            yield slice(l0, min(l0 + per, lines)), cols


def _grid_products(tabs: np.ndarray, lead: int = 0):
    """prod_j tabs[j][:, a_j] for per-axis (rows, k) tables stacked axis first,
    per block of ``_grid_blocks``: yields its flat slice and a (lead + rows,
    width) view of one buffer (width <= _grid_blocks' width + 1), the products
    in the rows after ``lead``.  The axes before the last multiply once per grid
    line, in chunks of whole lines of at most _PREFIX_FLOATS floats.  The last
    axis's table is copied once per call to (rows, lines per block, k), so a
    block is one broadcast copy of its line prefixes and one contiguous product
    by that copy; factors go in coordinate order from 1.0, as c_cross."""
    d, rows, k = tabs.shape
    chunk, end = max(1, _PREFIX_FLOATS // rows), 0
    width = max(2, _SUM_BLOCK // rows)
    buf = np.empty((lead + rows) * (width + 1))
    last = np.repeat(tabs[-1][:, None], max(1, width // k), axis=1)
    for lines, cols in _grid_blocks(d, k, rows):
        if lines.stop > end:  # the next chunk of line prefixes
            start, end = lines.start, min(max(lines.stop, lines.start + chunk), k ** (d - 1))
            idx = np.unravel_index(np.arange(start, end), (k,) * (d - 1)) if d > 1 else ()
            prefix = np.ones((rows, end - start))
            for tab, a in zip(tabs, idx):
                prefix *= tab[:, a]
        shape = (lead + rows, lines.stop - lines.start, cols.stop - cols.start)
        block = buf[:math.prod(shape)].reshape(shape)
        np.copyto(block[lead:], prefix[:, lines.start - start:lines.stop - start, None])
        np.multiply(block[lead:], last[:, :shape[1], cols], out=block[lead:])
        yield (slice(lines.start * k + cols.start, (lines.stop - 1) * k + cols.stop),
               block.reshape(shape[0], -1))


def _cross_tables(spec: KernelSpec, pts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """C_j(p_j, v) for every row p of pts and every value v of axis j, shape
    (d, m, v), in one call, with the point's coordinate first as in c_cross;
    ``values`` is (v,), the same on every axis, or (d, v)."""
    axes = np.arange(spec.d)[:, None, None]
    return spec.c_col(pts.T[:, :, None], values[..., None, :], axes)


def _cross_sums(spec: KernelSpec, axis: np.ndarray, pts: np.ndarray,
                sums: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_i prod_j C_j(p_ij, g_j) for every grid point g, or, given ``sums``,
    those sums continued in place over the rows of pts.  The rows go in groups
    of _SUM_BLOCK // k (at least one), so for k <= _SUM_BLOCK each
    ``_grid_products`` block spans at least one whole grid line; a group after
    the first, or any given ``sums``, continues the sums as row 0 of each
    block.  numpy adds the rows of an (m, width >= 2) block in row order, so
    row groups, block widths, prefix chunks and continuations move no bits."""
    group = max(1, _SUM_BLOCK // axis.size)
    out = np.empty(axis.size ** spec.d) if sums is None else sums
    for r0 in range(0, pts.shape[0], group):
        lead = int(r0 > 0 or sums is not None)
        for flat, block in _grid_products(_cross_tables(spec, pts[r0:r0 + group], axis), lead):
            if lead:
                block[0] = out[flat]
            block.sum(axis=0, out=out[flat])
    return out


def _slot_scores(spec: KernelSpec, axis: np.ndarray, sums: np.ndarray,
                 chosen: np.ndarray, total: int, out=None) -> np.ndarray:
    """Objective increment of every grid point as the next batch point, given
    the base's ``_cross_sums``; each block of rows B, C(g, g), C(chosen, g) adds
    -2·total·B, 2·sums, 2·Σchosen and C(g, g) in order into ``out`` (may be sums)."""
    # the full (d, k) shape, as the unweighted factors ignore j
    grid, axes = np.broadcast_to(axis, (spec.d, axis.size)), np.arange(spec.d)[:, None]
    tabs = np.concatenate([spec.b_col(grid, axes)[:, None], spec.c_col(grid, grid, axes)[:, None],
                           _cross_tables(spec, chosen, axis)], axis=1)
    scores = np.empty(sums.size) if out is None else out
    for flat, block in _grid_products(tabs):
        twice, part = 2.0 * sums[flat], scores[flat]
        np.multiply(-2.0 * total, block[0], out=part)
        part += twice
        if chosen.shape[0]:
            part += 2.0 * block[2:].sum(axis=0)
        part += block[1]
    return scores


def _argmin_tiebreak(axis: np.ndarray, d: int, scores: np.ndarray) -> int:
    """Lowest score; ties go to the grid point closest to the center,
    then to the lowest scan index."""
    lo = float(np.min(scores))
    tied = np.flatnonzero(scores <= lo + _TIE_ATOL)
    if tied.size == 1:
        return int(tied[0])
    dist = np.sum((_grid_points(axis, d, tied) - 0.5) ** 2, axis=1)
    best = tied[dist <= np.min(dist) + _TIE_ATOL]
    return int(best[0])


def _pattern_search(spec: KernelSpec, base: np.ndarray, start: np.ndarray,
                    total: int, cfg: GreedyConfig) -> tuple[np.ndarray, float, int]:
    """Compass search over all batch coordinates jointly, clamped to [0,1].

    A sweep tries +step, then -step, on each coordinate in turn, and goes
    on to the next coordinate after an improving trial; a sweep without
    one shrinks the step.  The rest of a sweep is scored as one batch of
    moves from the current point, cut at the remaining budget; the first
    improving trial in scan order is taken, ``evals`` counts the trials up
    to it, and the sweep goes on from the next coordinate in a new batch.
    """
    step = cfg.refine_initial_step
    if step is None:
        step = 1.0 / (cfg.grid_k - 1)
    budget = cfg.max_refine_evaluations
    current = start.copy()
    (b, d), n = current.shape, base.shape[0]
    axes, rows = np.arange(d)[:, None, None], np.arange(2 * b * d)
    offsets = np.array([0.0, step, -step])[:, None, None]  # shrinks with step
    _, tab, b_tab = _sweep_tables(spec, base, current, offsets, axes)  # u < b: the start
    value = float(_objective(tab[:, None, :n, :b], b_tab[:, None, :b],
                             tab[:, None, n:n + b, :b], total)[0])
    evals = 1
    while step >= cfg.refine_min_step and evals < budget:
        improved = False
        vals, tab, b_tab = _sweep_tables(spec, base, current, offsets, axes)
        pair = tab[:, n:]
        cross = tab[:, :n].swapaxes(1, 2).copy()  # [j, u, i]: trials gather whole rows
        idx = np.repeat(rows[None, None, :b], d, axis=0)  # [j, 0, m]: row of y_mj
        # trials (point, axis, row of vals) in scan order, + before -
        tm, tj, ts = np.nonzero((vals[b:].reshape(2, b, d) != current).transpose(1, 2, 0))
        tu, tc = (ts + 1) * b + tm, tm * d + tj
        after = np.searchsorted(tc, tc, "right").tolist()  # next coordinate's first
        pos = 0
        while pos < len(after) and evals < budget:
            stop = pos + budget - evals
            m, j, u = tm[pos:stop], tj[pos:stop], tu[pos:stop]
            tidx = np.repeat(idx, u.size, axis=1)
            tidx[j, rows[:u.size], m] = u
            values = _objective(cross[axes, tidx].swapaxes(2, 3), b_tab[axes, tidx], pair[
                axes[..., None], tidx[..., None], tidx[..., None, :]], total)
            better = values < value
            k = int(better.argmax())
            evals += k + 1 if better[k] else u.size
            if not better[k]:
                break
            value, improved = float(values[k]), True
            m, j, u = m[k], j[k], u[k]
            idx[j, 0, m], current[m, j] = u, vals[u, j]
            pos = after[pos + k]
        if not improved:
            step *= cfg.refine_shrink
            offsets *= cfg.refine_shrink
    return current, value, evals


def greedy_extend(spec: KernelSpec, points: PointSet, steps: int,
                  cfg: Optional[GreedyConfig] = None) -> tuple[PointSet, Trace]:
    """Extend a set by ``steps`` greedy batches of ``cfg.batch`` points.

    Each step fills its batch slots sequentially by exhaustive grid
    minimization of the batch objective conditioned on the slots chosen
    so far, then refines all batch coordinates jointly by pattern
    search.  Grid ties resolve to the lowest objective, then the
    candidate closest to the center, then scan order.  The search is
    derivative-free, so measures with kinks or jumps are all accepted.
    """
    cfg = cfg or GreedyConfig()
    steps = check_count("steps", steps, 1)
    coords = _checked_coords(spec, points.coords)
    axis = _grid_axis(spec.d, cfg.grid_k)
    sums = _cross_sums(spec, axis, coords)
    values = []
    evals = 0
    for step in range(steps):
        total = coords.shape[0] + cfg.batch
        chosen = np.empty((0, spec.d))
        for slot in range(cfg.batch):
            last = step + 1 == steps and slot + 1 == cfg.batch  # sums' last read
            pick = _argmin_tiebreak(axis, spec.d, _slot_scores(
                spec, axis, sums, chosen, total, sums if last else None))
            evals += sums.size
            chosen = np.vstack([chosen, _grid_points(axis, spec.d, np.array([pick]))])
        chosen, _, used = _pattern_search(spec, coords, chosen, total, cfg)
        evals += used
        if step + 1 < steps:
            _cross_sums(spec, axis, chosen, sums)
        coords = np.vstack([coords, chosen])
        values.append(squared_discrepancy(spec, PointSet(coords)).value)
    trace = _trace(values, PointSet(coords), values[-1], 0, evals)
    return trace.final, trace


# ---------------------------------------------------------------------------
# L-BFGS-B with restarts
# ---------------------------------------------------------------------------

#: L-BFGS-B's tests on the relative reduction and on the projected gradient
_FTOL, _GTOL = 1e-15, 1e-12


class _Stop(Exception):
    """A restart has spent its evaluations or its patience."""


def _restart_start(init: np.ndarray, restart: int, seed: int) -> np.ndarray:
    if restart == 0:
        return init.copy()
    seq = np.random.SeedSequence([seed, restart])
    rng = np.random.Generator(np.random.Philox(seq))
    return rng.random(init.shape)


def _run_restart(spec: KernelSpec, start: np.ndarray, cfg: OptimizerConfig
                 ) -> tuple[np.ndarray, float, list, int]:
    """L-BFGS-B from ``start``, then again from the best point with fresh
    curvature memory while a pass gains more than ``tolerance``: the best
    point evaluated, its value, every evaluated value and their count."""
    from scipy.optimize import Bounds, minimize  # slow to import; only here

    best_x, best_value, path, stalled = start, math.inf, [], 0

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_x, best_value, stalled
        x = np.clip(flat, 0.0, 1.0).reshape(start.shape)  # a step may round past a bound
        value, grad = value_and_gradient(spec, x)
        path.append(value)
        gain = best_value - value
        if gain > 0.0:
            best_x, best_value = x, value
        stalled = 0 if gain > cfg.tolerance else stalled + 1
        if len(path) >= cfg.iterations or stalled >= cfg.patience:
            raise _Stop
        return value, grad.ravel()

    # maxiter and maxfun never end a pass before _Stop does
    options = dict(ftol=_FTOL, gtol=_GTOL, maxiter=cfg.iterations, maxfun=cfg.iterations)
    try:
        while True:
            before = best_value
            minimize(objective, best_x.ravel(), jac=True, method="L-BFGS-B",
                     bounds=Bounds(0.0, 1.0), options=options)
            if before - best_value <= cfg.tolerance:
                break
    except _Stop:
        pass
    return best_x, best_value, path, len(path)


def optimize(spec: KernelSpec, init: PointSet,
             cfg: Optional[OptimizerConfig] = None) -> tuple[PointSet, Trace]:
    """Minimize the squared discrepancy by L-BFGS-B with restarts.

    Restart 0 descends from ``init``; restarts 1..restarts-1 descend
    from IID uniform sets keyed by (seed, restart index).  Each
    restart's best evaluated point is re-verified by a fresh closed-form
    evaluation, and the winner is the lowest re-verified value with
    ties going to the lowest restart index.  Every coordinate stays in
    [0, 1] by L-BFGS-B's bounds.  ``Trace.values`` holds one value per
    value+gradient evaluation of the winning restart.
    """
    cfg = cfg or OptimizerConfig()
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure.value!r} has a discontinuous kernel and "
            "cannot be optimized by gradient descent")
    init_coords = _checked_coords(spec, init.coords)
    winner = None  # (fresh_value, restart, coords, path)
    total_evals = 0
    for r in range(cfg.restarts):
        start = _restart_start(init_coords, r, cfg.seed)
        best_x, _, path, evals = _run_restart(spec, start, cfg)
        total_evals += evals
        fresh = squared_discrepancy(spec, PointSet(best_x)).value
        if winner is None or fresh < winner[0]:
            winner = (fresh, r, best_x, path)
    fresh_value, winner_restart, best_x, path = winner
    trace = _trace(path, PointSet(best_x), fresh_value, winner_restart, total_evals)
    return trace.final, trace


# ---------------------------------------------------------------------------
# cross-evaluation
# ---------------------------------------------------------------------------


def cross_evaluate(sets: Mapping, measures: Sequence) -> np.ndarray:
    """Ratio matrix of root discrepancies across per-measure optimized sets.

    Entry (i, k) is measure_i's root discrepancy of the set optimized
    for measure_k, divided by measure_i's root discrepancy of the set
    optimized for measure_i itself — so the diagonal is exactly 1 and
    entries above 1 quantify how poorly a set transfers to another
    criterion.  All sets must share one dimension count.
    """
    order = [MeasureId.parse(m) for m in measures]
    resolved = {MeasureId.parse(m): ps for m, ps in sets.items()}
    missing = [m.value for m in order if m not in resolved]
    if missing:
        raise ValidationError(f"missing optimized sets for measures {missing}")
    dims = {resolved[m].d for m in order}
    if len(dims) != 1:
        raise ValidationError(
            f"cross-evaluation needs a common dimension, got d={sorted(dims)}")
    d = dims.pop()
    ratios = np.empty((len(order), len(order)))
    for i, evaluated in enumerate(order):
        spec = kernel_spec(evaluated, d)
        roots = {
            m: squared_discrepancy(spec, resolved[m]).root for m in order
        }
        own = roots[evaluated]
        for k, opt_for in enumerate(order):
            ratios[i, k] = roots[opt_for] / own
    return ratios
