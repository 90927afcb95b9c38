"""The four workloads: inputs from a seed, the timed call list, output checks.

A workload is a fixed list of public library calls (a "round").  The seed
only changes coordinates and random streams, never sizes, so rounds of
different seeds do the same amount of evaluator work.  Every function is
reached through ``api`` (a dict of name -> callable) so that a traced run
can substitute span-recording wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reference import reference

MEASURES = ("star", "ext", "per", "ctr", "cad", "sym", "mix", "asd",
            "ctr_weighted", "sym_weighted")
CONTINUOUS = tuple(m for m in MEASURES if m != "cad")
GEOMETRIC = ("star", "ext", "per", "ctr", "cad", "sym")
TABLE3 = ("ctr", "sym", "ext", "per", "asd", "star", "mix")

#: Seed whose greedy final values are pinned in expected_greedy.json,
#: which holds what the seed commit of the library produced.
DEFAULT_SEED = 0
PINNED_GREEDY = Path(__file__).resolve().parent / "expected_greedy.json"

#: eval-large: |value - fsum reference| / (magnitude of the cancelling terms).
EVAL_TOL = 1e-13
#: oracle-mc: allowed distance from the closed form, in standard errors.
ORACLE_SIGMAS = 5.0
#: greedy-grid: relative slack when comparing with the pinned final values.
GREEDY_PIN_RTOL = 1e-12


def gamma_for(d: int) -> list:
    """Product weights gamma_j = 1/j used for every weighted measure."""
    return [1.0 / (j + 1) for j in range(d)]


def subseed(seed: int, *keys: int) -> int:
    """A 64-bit stream key derived from the workload seed and call keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 32 | int(state[1])


@dataclass
class Call:
    label: str
    layer: str  # evaluator, construct or oracle: where a failed check counts
    fn: str  # key into api
    args: tuple
    kwargs: dict = field(default_factory=dict)
    work: Any = 0  # work units, or a callable(output) -> work units
    meta: dict = field(default_factory=dict)  # what the check needs


@dataclass
class Workload:
    name: str
    unit: str  # the work unit counted by work_per_s
    calls: list
    warmup: Callable[[], Any]
    check: Callable[[Call, Any], "str | None"]  # error text, or None when correct


def _spec(api, cache, measure, d):
    key = (measure, d)
    if key not in cache:
        gamma = gamma_for(d) if measure.endswith("weighted") else None
        cache[key] = api["kernel_spec"](measure, d, gamma=gamma)
    return cache[key]


# ---------------------------------------------------------------------------
# eval-large: few large closed-form evaluations
# ---------------------------------------------------------------------------


def build_eval_large(api, seed):
    specs = {}
    sets = {}
    for n in (256, 512, 1024, 2048):
        for d in (2, 4, 8):
            sets[n, d] = api["iid_uniform"](n, d, subseed(seed, n, d)).coords
    calls = []

    def add(kind, m, n, d):
        fn = "squared_value" if kind == "value" else "value_and_gradient"
        calls.append(Call(f"{kind} {m} n={n} d={d}", "evaluator", fn,
                          (_spec(api, specs, m, d), sets[n, d]),
                          work=n * n * d, meta={"measure": m, "n": n, "d": d}))

    dims = (2, 4, 8)
    for i, m in enumerate(MEASURES):
        for k, n in enumerate((256, 512, 1024)):
            add("value", m, n, dims[(i + k) % 3])
        add("value", m, 256, dims[(i + 1) % 3])
        add("value", m, 2048, (2, 4)[i % 2])
    for i, m in enumerate(CONTINUOUS):
        add("vg", m, 256, dims[i % 3])
        add("vg", m, 512, (2, 4)[i % 2])
    add("vg", "star", 256, 8)
    add("vg", "ctr", 2048, 8)  # the largest working set: ~1.3 GB of (n, n, d) tensors

    refs = {}

    def check(call, out):
        m, n, d = call.meta["measure"], call.meta["n"], call.meta["d"]
        coords = call.args[1]
        if call.fn == "value_and_gradient":
            value, grad = out
            if grad.shape != (n, d) or not np.all(np.isfinite(grad)):
                return "gradient has the wrong shape or is not finite"
        else:
            value = out
        if (m, n, d) not in refs:  # value and value+gradient calls share a reference
            gamma = gamma_for(d) if m.endswith("weighted") else None
            refs[m, n, d] = reference(m, coords, gamma)
        ref, scale = refs[m, n, d]
        err = abs(value - ref) / scale
        call.meta["err"] = max(err, call.meta.get("err", 0.0))
        if not err <= EVAL_TOL:
            return f"error {err:.3e} of the term magnitude exceeds {EVAL_TOL:g}"
        return None

    warm_spec = _spec(api, specs, "star", 2)
    return Workload("eval-large", "pair-coordinate terms n^2*d", calls,
                    lambda: api["squared_value"](warm_spec, sets[256, 2]), check)


# ---------------------------------------------------------------------------
# pgd-small: thousands of tiny value+gradient calls inside optimize
# ---------------------------------------------------------------------------


def build_pgd_small(api, seed):
    from l2disc import OptimizerConfig, PointSet

    specs = {}
    calls = []
    for i, m in enumerate(TABLE3):
        spec = _spec(api, specs, m, 2)
        for n in (16, 32, 64):
            base = api["sobol"](n, 2).coords
            shift = np.random.Generator(np.random.Philox(subseed(seed, i, n))).random(2)
            init = PointSet(np.mod(base + shift, 1.0))
            if n == 32:  # short patience: restarts stop at data-dependent iterations
                cfg = OptimizerConfig(restarts=2, iterations=120, patience=8,
                                      tolerance=1e-7, seed=subseed(seed, i, n, 1))
            else:
                cfg = OptimizerConfig(restarts=2, iterations=40,
                                      seed=subseed(seed, i, n, 1))
            calls.append(Call(f"optimize {m} n={n}", "construct", "optimize",
                              (spec, init, cfg), work=lambda out: out[1].evaluations))

    def check(call, out):
        spec, init, _ = call.args
        final, trace = out
        if not (np.all(final.coords >= 0.0) and np.all(final.coords <= 1.0)):
            return "optimized points leave [0, 1]^d"
        fresh = api["squared_discrepancy"](spec, final).value
        if trace.final_value != fresh:
            return f"final_value {trace.final_value!r} != fresh {fresh!r}"
        start = api["squared_discrepancy"](spec, init).value
        if not fresh <= start:
            return f"result {fresh!r} is worse than its Sobol start {start!r}"
        return None

    warm_cfg = OptimizerConfig(restarts=1, iterations=2)
    first = calls[0]
    return Workload("pgd-small", "value+gradient evaluations", calls,
                    lambda: api["optimize"](first.args[0], first.args[1], warm_cfg),
                    check)


# ---------------------------------------------------------------------------
# greedy-grid: candidate scoring and pattern search
# ---------------------------------------------------------------------------

#: (measure, d, n0, batch, grid_k, steps)
GREEDY_CASES = (
    ("star", 2, 16, 1, 65, 2),
    ("cad", 2, 64, 2, 65, 1),
    ("ctr_weighted", 3, 16, 1, 33, 1),
    ("sym", 3, 16, 1, 65, 1),  # 65^3 = 274,625 candidates
    ("ext", 4, 16, 2, 9, 1),
    ("asd", 4, 64, 1, 9, 1),
    ("mix", 3, 64, 2, 17, 1),
    ("per", 2, 16, 2, 65, 1),
    ("ctr", 2, 64, 1, 65, 2),
    ("star", 3, 64, 1, 33, 1),
    # A second sym 65^3 grid: the two costliest calls of a round cost the
    # same, so the p95 latency (one call per round beyond it) lands inside
    # that block rather than on the maximum of a cheaper call.
    ("sym", 3, 16, 1, 65, 1),
    ("ctr_weighted", 2, 64, 2, 33, 1),
    ("sym", 2, 16, 2, 33, 2),
    ("ext", 3, 64, 1, 17, 1),
    ("mix", 2, 16, 1, 65, 2),
    ("asd", 3, 16, 2, 17, 1),
    ("per", 4, 64, 1, 9, 1),
    ("star", 4, 16, 1, 13, 1),
    ("cad", 4, 64, 1, 9, 1),
    ("ctr", 3, 16, 2, 13, 1),
)


def build_greedy_grid(api, seed):
    from l2disc import GreedyConfig, PointSet

    pinned = json.loads(PINNED_GREEDY.read_text()) if seed == DEFAULT_SEED else None
    specs = {}
    calls = []
    for i, (m, d, n0, batch, k, steps) in enumerate(GREEDY_CASES):
        init = api["iid_uniform"](n0, d, subseed(seed, i))
        cfg = GreedyConfig(batch=batch, grid_k=k)
        calls.append(Call(f"greedy#{i} {m} d={d} n0={n0} b={batch} k={k} steps={steps}",
                          "construct", "greedy_extend",
                          (_spec(api, specs, m, d), init, steps, cfg),
                          work=lambda out: out[1].evaluations))

    def check(call, out):
        spec, init, steps, cfg = call.args
        final, trace = out
        n0 = init.n
        if not np.array_equal(final.coords[:n0], init.coords):
            return "the input set is not an unchanged prefix"
        if final.n != n0 + steps * cfg.batch or len(trace.values) != steps:
            return "wrong number of appended points or trace values"
        for s, value in enumerate(trace.values):
            prefix = PointSet(final.coords[: n0 + (s + 1) * cfg.batch])
            fresh = api["squared_discrepancy"](spec, prefix).value
            if value != fresh:
                return f"trace value {s} is {value!r}, fresh closed form {fresh!r}"
        if trace.final_value != api["squared_discrepancy"](spec, final).value:
            return "final_value differs from a fresh closed form"
        if pinned is not None:
            want = pinned[call.label]
            if not abs(trace.final_value - want) <= GREEDY_PIN_RTOL * abs(want):
                return f"final value {trace.final_value!r} != pinned {want!r}"
        return None

    warm = calls[0]
    return Workload("greedy-grid", "objective evaluations", calls,
                    lambda: api["greedy_extend"](warm.args[0], warm.args[1], 1,
                                                 GreedyConfig(grid_k=5)),
                    check)


# ---------------------------------------------------------------------------
# oracle-mc: geometric Monte Carlo and IID expectation
# ---------------------------------------------------------------------------

MC_SAMPLES = 8192
IID_REPLICATIONS = 512
#: (measure, n, d) for mc_expected_iid
IID_CASES = (("star", 16, 2), ("mix", 16, 3), ("ctr_weighted", 64, 2),
             ("per", 16, 5), ("sym_weighted", 64, 3), ("asd", 64, 2))


def build_oracle_mc(api, seed):
    from l2disc import expected_iid_squared

    sets = {}
    calls = []
    for n in (16, 64):
        for d in (2, 3, 5):
            sets[n, d] = api["iid_uniform"](n, d, subseed(seed, n, d))
    for i, m in enumerate(GEOMETRIC):
        for n in (16, 64):
            for d in (2, 3) if m == "ext" else (2, 3, 5):
                # Only a 2^-d share of ext's anchor pairs forms a box, and its
                # squared local discrepancy is heavy-tailed: the standard error
                # understates the error at d >= 4 (and at d = 3 below ~3e4
                # anchors), so ext gets 4096 * 2^d anchors and d <= 3.
                samples = 4096 << d if m == "ext" else MC_SAMPLES
                calls.append(Call(f"mc {m} n={n} d={d}", "oracle", "mc_squared_discrepancy",
                                  (m, sets[n, d], samples, subseed(seed, i, n, d)),
                                  work=samples))
    for i, (m, n, d) in enumerate(IID_CASES):
        gamma = gamma_for(d) if m.endswith("weighted") else None
        calls.append(Call(f"iid {m} n={n} d={d}", "oracle", "mc_expected_iid",
                          (m, n, d, IID_REPLICATIONS, subseed(seed, 100 + i)),
                          {"gamma": gamma}, work=IID_REPLICATIONS))

    truth = {}

    def check(call, out):
        if call.label not in truth:
            if call.fn == "mc_expected_iid":
                m, n, d = call.args[:3]
                truth[call.label] = expected_iid_squared(m, n, d, gamma=call.kwargs["gamma"])
            else:
                truth[call.label] = reference(call.args[0], call.args[1].coords)[0]
        value = truth[call.label]
        if out.samples != call.work:
            return "estimate reports the wrong sample count"
        if not (math.isfinite(out.mean) and abs(out.mean - value) <= ORACLE_SIGMAS * out.stderr):
            return (f"estimate {out.mean!r} +- {out.stderr!r} is more than "
                    f"{ORACLE_SIGMAS:g} standard errors from {value!r}")
        return None

    warm = calls[0]
    return Workload("oracle-mc", "MC samples (anchors or replications)", calls,
                    lambda: api["mc_squared_discrepancy"](warm.args[0], warm.args[1], 64, 0),
                    check)


BUILDERS = {
    "eval-large": build_eval_large,
    "pgd-small": build_pgd_small,
    "greedy-grid": build_greedy_grid,
    "oracle-mc": build_oracle_mc,
}
