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

The grid is never built as a (k^d, d) array.  A grid point's factors take
only the k values per axis, so scoring reads them from per-axis tables
(B_j(g), C_j(g, g) and C_j(x_ij, g)) and multiplies them in coordinate
order, in blocks of whole grid lines.  The base sum sum_i prod_j C_j(x_ij, g)
is kept for every grid point across steps: built once, then continued by one
block sum over the appended points with the running sums as its first row,
which adds the rows in the order numpy's row sum would use, and the last
slot of a call scores into them in place.  Pattern search tables C_j(x_ij, v),
B_j(v) and C_j(v, v') once per sweep for each v = y_mj or y_mj +- step (a
sweep moves only coordinates it has passed); a trial is the current tables
with one axis's entries replaced, and only the trials the one-at-a-time scan
would make count.  None of this moves a bit.

Optimization is projected gradient descent with momentum: restart 0 starts
from the caller's set, further restarts from IID uniform sets drawn from a
counter-based generator keyed by (seed, restart).  Every candidate result
is re-verified by a fresh closed-form evaluation before the winner is
chosen (lowest value, then lowest restart index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .evaluator import _SUM_BLOCK, squared_discrepancy, value_and_gradient
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
    """Settings for multi-restart projected gradient descent.

    The step size starts at ``initial_step`` (default 0.05/sqrt(d)) and
    is multiplied by ``step_decay`` every ``decay_interval`` iterations.
    A restart stops early once ``patience`` consecutive iterations fail
    to improve its best squared value by more than ``tolerance``.
    """

    restarts: int = 8
    iterations: int = 20_000
    initial_step: Optional[float] = None
    step_decay: float = 0.98
    decay_interval: int = 100
    momentum: float = 0.9
    projection: str = "clamp"
    seed: int = 0
    tolerance: float = 1e-14
    patience: int = 2_000

    def __post_init__(self) -> None:
        check_count("restarts", self.restarts, 1)
        check_count("iterations", self.iterations, 1)
        if self.initial_step is not None:
            check_positive("initial_step", self.initial_step)
        if not 0.0 < self.step_decay <= 1.0:
            raise ValidationError(
                f"step_decay must lie in (0, 1], got {self.step_decay}")
        check_count("decay_interval", self.decay_interval, 1)
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if self.projection != "clamp":
            raise ValidationError(
                f"unknown projection rule {self.projection!r}; "
                "only 'clamp' (coordinatewise clip to [0,1]) is supported")
        check_positive("tolerance", self.tolerance)
        check_count("patience", self.patience, 1)
        check_seed(self.seed)


@dataclass(frozen=True)
class Trace:
    """Record of one construction run.

    ``values`` holds the raw squared value recorded at each step
    (greedy) or each iteration of the winning restart (optimizer);
    ``best_values`` is its running minimum, hence non-increasing.
    ``final_value`` is re-verified by a fresh closed-form evaluation of
    ``final``.
    """

    values: tuple
    best_values: tuple
    final: PointSet
    final_value: float
    winner_restart: int
    evaluations: int


def _running_min(values: Sequence[float]) -> tuple:
    best = math.inf
    out = []
    for v in values:
        best = v if v < best else best
        out.append(best)
    return tuple(out)


# ---------------------------------------------------------------------------
# greedy extension
# ---------------------------------------------------------------------------


def _sweep_tables(spec: KernelSpec, base: np.ndarray, current: np.ndarray,
                  step: float) -> tuple:
    """A sweep's (3b, d) values (row u: point u % b as it is, u < b, then +step,
    then -step, clamped), C_j(w_j, v_j) (d, n + 3b, 3b) for the rows w of [base;
    values], w first as in ``c_cross``, and B_j(v_j) (d, 3b), each in one call."""
    moves = current + np.array([0.0, step, -step])[:, None, None]
    vals = np.minimum(np.maximum(moves, 0.0), 1.0).reshape(-1, spec.d)
    tab = _cross_tables(spec, np.concatenate([base, vals]), vals.T)
    return vals, tab, spec.b_col(vals.T, np.arange(spec.d)[:, None])


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
    span before it.  Yields the flat slice, the line indices of the axes
    before the last, and the column slice of the last axis."""
    width = max(2, _SUM_BLOCK // rows)
    lines = k ** (d - 1)
    per = max(1, width // k)
    spans = [(c0, k if c0 + width >= k - 1 else c0 + width)
             for c0 in range(0, max(k - 1, 1), width)]
    for l0 in range(0, lines, per):
        l1 = min(l0 + per, lines)
        idx = np.unravel_index(np.arange(l0, l1), (k,) * (d - 1)) if d > 1 else ()
        for c0, c1 in spans:
            yield slice(l0 * k + c0, (l1 - 1) * k + c1), idx, slice(c0, c1)


def _grid_product(tabs: np.ndarray, idx: tuple, cols: slice) -> np.ndarray:
    """prod_j tabs[j][..., a_j] over one block of ``_grid_blocks``, shape
    (..., width), C-contiguous.  ``tabs`` stacks the per-axis (..., k) tables
    axis first; the factors multiply in coordinate order j = 0..d-1 from 1.0,
    as in ``kernels.c_cross``, so the products carry its bits."""
    prefix = 1.0
    for tab, a in zip(tabs, idx):
        prefix = prefix * tab[..., a]
    out = np.expand_dims(prefix, -1) * tabs[-1][..., None, cols]
    return out.reshape(out.shape[:-2] + (-1,))


def _cross_tables(spec: KernelSpec, pts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """C_j(p_j, v) for every row p of pts and every value v of axis j, shape
    (d, m, v), in one call, with the point's coordinate first as in c_cross;
    ``values`` is (v,), the same on every axis, or (d, v)."""
    axes = np.arange(spec.d)[:, None, None]
    return spec.c_col(pts.T[:, :, None], values[..., None, :], axes)


def _cross_sums(spec: KernelSpec, axis: np.ndarray, pts: np.ndarray,
                sums: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_i prod_j C_j(p_ij, g_j) for every grid point g, or, given ``sums``,
    those sums continued in place over the rows of pts: each block sum then
    has the old sums as its row 0.  numpy adds the rows of an (m, width >= 2)
    block in row order, so block widths and continuations move no bits."""
    tabs = _cross_tables(spec, pts, axis)
    out = np.empty(axis.size ** spec.d) if sums is None else sums
    for flat, idx, cols in _grid_blocks(spec.d, axis.size, pts.shape[0]):
        block = _grid_product(tabs, idx, cols)
        if sums is not None:
            block = np.concatenate([sums[None, flat], block])
        block.sum(axis=0, out=out[flat])
    return out


def _slot_scores(spec: KernelSpec, axis: np.ndarray, sums: np.ndarray,
                 chosen: np.ndarray, total: int, out=None) -> np.ndarray:
    """Objective increment of every grid point as the next batch point, given
    the base's ``_cross_sums``; each block adds -2·total·B, 2·sums,
    2·Σchosen and C(g, g) in that order, into ``out`` (may be ``sums``)."""
    d = spec.d
    # the full (d, k) shape, as the unweighted factors ignore j
    grid, axes = np.broadcast_to(axis, (d, axis.size)), np.arange(d)[:, None]
    b_tabs, diag_tabs = spec.b_col(grid, axes), spec.c_col(grid, grid, axes)
    chosen_tabs = _cross_tables(spec, chosen, axis)
    scores = np.empty(sums.size) if out is None else out
    for flat, idx, cols in _grid_blocks(d, axis.size, max(1, chosen.shape[0])):
        twice = 2.0 * sums[flat]
        part = scores[flat]
        np.multiply(-2.0 * total, _grid_product(b_tabs, idx, cols), out=part)
        part += twice
        if chosen.shape[0]:
            part += 2.0 * _grid_product(chosen_tabs, idx, cols).sum(axis=0)
        part += _grid_product(diag_tabs, idx, cols)
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
    _, tab, b_tab = _sweep_tables(spec, base, current, step)  # u < b: the start
    value = float(_objective(tab[:, None, :n, :b], b_tab[:, None, :b],
                             tab[:, None, n:n + b, :b], total)[0])
    evals = 1
    axes, rows = np.arange(d)[:, None, None], np.arange(2 * b * d)
    while step >= cfg.refine_min_step and evals < budget:
        improved = False
        vals, tab, b_tab = _sweep_tables(spec, base, current, step)
        cross, pair, now = tab[:, :n], tab[:, n:], tab[:, None, :n, :b].copy()
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
            tcross = np.repeat(now, u.size, axis=1)
            tcross[j, rows[:u.size], :, m] = cross[j, :, u]
            values = _objective(tcross, b_tab[axes, tidx], pair[
                axes[..., None], tidx[..., None], tidx[..., None, :]], total)
            better = values < value
            k = int(better.argmax())
            evals += k + 1 if better[k] else u.size
            if not better[k]:
                break
            value, improved = float(values[k]), True
            m, j, u = m[k], j[k], u[k]
            idx[j, 0, m], now[j, 0, :, m], current[m, j] = u, cross[j, :, u], vals[u, j]
            pos = after[pos + k]
        if not improved:
            step *= cfg.refine_shrink
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
    if points.d != spec.d:
        raise ValidationError(
            f"point set has d={points.d} but kernel spec has d={spec.d}")
    coords = np.array(points.coords)
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
    final = PointSet(coords)
    trace = Trace(
        values=tuple(values),
        best_values=_running_min(values),
        final=final,
        final_value=values[-1],
        winner_restart=0,
        evaluations=evals,
    )
    return final, trace


# ---------------------------------------------------------------------------
# projected gradient descent
# ---------------------------------------------------------------------------


def _restart_start(init: np.ndarray, restart: int, seed: int) -> np.ndarray:
    if restart == 0:
        return init.copy()
    seq = np.random.SeedSequence([seed, restart])
    rng = np.random.Generator(np.random.Philox(seq))
    return rng.random(init.shape)


def _run_restart(spec: KernelSpec, start: np.ndarray, cfg: OptimizerConfig
                 ) -> tuple[np.ndarray, float, list, int]:
    step0 = cfg.initial_step
    if step0 is None:
        step0 = 0.05 / math.sqrt(spec.d)
    x = start.copy()
    velocity = np.zeros_like(x)
    best_value = math.inf
    best_x = x.copy()
    path = []
    stalled = 0
    evals = 0
    for it in range(cfg.iterations):
        value, grad = value_and_gradient(spec, x)
        evals += 1
        path.append(value)
        if value < best_value:
            gain = best_value - value
            best_value = value
            best_x = x.copy()
            stalled = 0 if gain > cfg.tolerance else stalled + 1
        else:
            stalled += 1
        if stalled >= cfg.patience:
            break
        step = step0 * cfg.step_decay ** (it // cfg.decay_interval)
        velocity = cfg.momentum * velocity - step * grad
        x = np.clip(x + velocity, 0.0, 1.0)
    return best_x, best_value, path, evals


def optimize(spec: KernelSpec, init: PointSet,
             cfg: Optional[OptimizerConfig] = None) -> tuple[PointSet, Trace]:
    """Minimize the squared discrepancy by momentum PGD with restarts.

    Restart 0 descends from ``init``; restarts 1..restarts-1 descend
    from IID uniform sets keyed by (seed, restart index).  Each
    restart's best iterate is re-verified by a fresh closed-form
    evaluation, and the winner is the lowest re-verified value with
    ties going to the lowest restart index.  Iterates stay in [0,1]^d
    by coordinatewise clamping.
    """
    cfg = cfg or OptimizerConfig()
    if not spec.continuous:
        raise NonDifferentiableMeasureError(
            f"measure {spec.measure.value!r} has a discontinuous kernel and "
            "cannot be optimized by gradient descent")
    if init.d != spec.d:
        raise ValidationError(
            f"point set has d={init.d} but kernel spec has d={spec.d}")
    init_coords = np.array(init.coords)
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
    final = PointSet(best_x)
    trace = Trace(
        values=tuple(path),
        best_values=_running_min(path),
        final=final,
        final_value=fresh_value,
        winner_restart=winner_restart,
        evaluations=total_evals,
    )
    return final, trace


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
