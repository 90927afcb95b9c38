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
    check_seed,
)
from .evaluator import _SUM_BLOCK, squared_discrepancy, value_and_gradient
from .kernels import KernelSpec, b_rows, c_cross, c_diag, kernel_spec

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
        if self.batch < 1:
            raise ValidationError(f"batch must be >= 1, got {self.batch}")
        if self.grid_k < 2:
            raise ValidationError(f"grid_k must be >= 2, got {self.grid_k}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValidationError(
                f"refine_shrink must lie in (0, 1), got {self.refine_shrink}")
        if self.refine_initial_step is not None and self.refine_initial_step <= 0:
            raise ValidationError("refine_initial_step must be positive")
        if self.refine_min_step <= 0:
            raise ValidationError("refine_min_step must be positive")
        if self.max_refine_evaluations < 0:
            raise ValidationError("max_refine_evaluations must be >= 0")


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
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.iterations < 1:
            raise ValidationError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.initial_step is not None and self.initial_step <= 0:
            raise ValidationError("initial_step must be positive")
        if not 0.0 < self.step_decay <= 1.0:
            raise ValidationError(
                f"step_decay must lie in (0, 1], got {self.step_decay}")
        if self.decay_interval < 1:
            raise ValidationError("decay_interval must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if self.projection != "clamp":
            raise ValidationError(
                f"unknown projection rule {self.projection!r}; "
                "only 'clamp' (coordinatewise clip to [0,1]) is supported")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
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


def _batch_objective(spec: KernelSpec, base: np.ndarray,
                     batch_pts: np.ndarray, total: int) -> float:
    """G(Y) for the whole batch against the fixed base points."""
    b_sum = float(np.sum(b_rows(spec, batch_pts)))
    cross = float(np.sum(c_cross(spec, base, batch_pts)))
    pair = float(np.sum(c_cross(spec, batch_pts, batch_pts)))
    return -2.0 * total * b_sum + 2.0 * cross + pair


def _slot_scores(spec: KernelSpec, base: np.ndarray, chosen: np.ndarray,
                 cands: np.ndarray, total: int) -> np.ndarray:
    """Objective increment of each candidate as the next batch point, scored in
    chunks; a width-1 tail joins the chunk before it, as (n, 1) sums pairwise."""
    k = cands.shape[0]
    width = max(2, _SUM_BLOCK // base.shape[0])
    scores = np.empty(k)
    for k0 in range(0, max(k - 1, 1), width):
        k1 = k if k0 + width >= k - 1 else k0 + width
        chunk = cands[k0:k1]
        part = -2.0 * total * b_rows(spec, chunk)
        part = part + 2.0 * np.sum(c_cross(spec, base, chunk), axis=0)
        if chosen.shape[0]:
            part = part + 2.0 * np.sum(c_cross(spec, chosen, chunk), axis=0)
        scores[k0:k1] = part + c_diag(spec, chunk)
    return scores


def _candidate_grid(d: int, k: int) -> np.ndarray:
    if k ** d > _MAX_GRID_CANDIDATES:
        raise ValidationError(
            f"candidate grid of {k}^{d} points exceeds the "
            f"{_MAX_GRID_CANDIDATES} cap; lower grid_k or d")
    axes = [np.linspace(0.0, 1.0, k)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _argmin_tiebreak(cands: np.ndarray, scores: np.ndarray) -> int:
    """Lowest score; ties go to the candidate closest to the center,
    then to the lowest scan index."""
    lo = float(np.min(scores))
    tied = np.flatnonzero(scores <= lo + _TIE_ATOL)
    if tied.size == 1:
        return int(tied[0])
    dist = np.sum((cands[tied] - 0.5) ** 2, axis=1)
    best = tied[dist <= np.min(dist) + _TIE_ATOL]
    return int(best[0])


def _pattern_search(spec: KernelSpec, base: np.ndarray, start: np.ndarray,
                    total: int, cfg: GreedyConfig) -> tuple[np.ndarray, float, int]:
    """Compass search over all batch coordinates jointly, clamped to [0,1]."""
    step = cfg.refine_initial_step
    if step is None:
        step = 1.0 / (cfg.grid_k - 1)
    current = start.copy()
    value = _batch_objective(spec, base, current, total)
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
                    cand_value = _batch_objective(spec, base, trial, total)
                    evals += 1
                    if cand_value < value:
                        current, value = trial, cand_value
                        improved = True
                        break
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
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if points.d != spec.d:
        raise ValidationError(
            f"point set has d={points.d} but kernel spec has d={spec.d}")
    coords = np.array(points.coords)
    cands = _candidate_grid(spec.d, cfg.grid_k)
    values = []
    evals = 0
    for _ in range(steps):
        n = coords.shape[0]
        total = n + cfg.batch
        chosen = np.empty((0, spec.d))
        for _slot in range(cfg.batch):
            scores = _slot_scores(spec, coords, chosen, cands, total)
            evals += cands.shape[0]
            pick = _argmin_tiebreak(cands, scores)
            chosen = np.vstack([chosen, cands[pick]])
        chosen, _, used = _pattern_search(spec, coords, chosen, total, cfg)
        evals += used
        coords = np.vstack([coords, chosen])
        values.append(squared_discrepancy(spec, PointSet(coords)).value)
    final = PointSet(coords)
    final_value = squared_discrepancy(spec, final).value
    trace = Trace(
        values=tuple(values),
        best_values=_running_min(values),
        final=final,
        final_value=final_value,
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
