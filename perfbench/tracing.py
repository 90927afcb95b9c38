"""Spans recorded around the library's public functions, from the outside.

Each wrapped function is named by the module through which its caller
reaches it: the benchmark's own calls go through the defining module
(``l2disc.evaluator.squared_value``), and calls from one library module
into another go through the importing module's global
(``l2disc.construct.value_and_gradient``, ``l2disc.oracle.kernel_spec``).
Private helpers are not wrapped.  Spans (name, key, start, end, parent,
failed, work counters) are kept in memory and summarised at the end.
Start and end are process CPU times, the clock of the end-to-end metrics.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import process_time

# Work counters derived from arguments and results, by span key.


def _pairs(args, out, vg):
    coords = getattr(args[1], "coords", args[1])
    n, d = coords.shape
    return {"pair_terms": n * n * d, "bytes_computed": 8 * n * n * (2 * d if vg else 1)}


def _optimize(args, out):
    return {"evals": out[1].evaluations, "restarts": args[2].restarts}


def _greedy(args, out):
    spec, points, steps, cfg = args
    k = cfg.grid_k ** spec.d
    candidates = steps * cfg.batch * k
    rows = sum(points.n + s * cfg.batch + slot
               for s in range(steps) for slot in range(cfg.batch))
    return {"candidates": candidates, "pattern_evals": out[1].evaluations - candidates,
            "bytes_computed": 8 * k * rows}


def _mc(args, out):
    points, samples = args[1], args[2]
    return {"samples": samples, "bytes_computed": samples * points.n * points.d}


COUNTERS = {
    "evaluator.value": lambda a, o: _pairs(a, o, False),
    "evaluator.vg": lambda a, o: _pairs(a, o, True),
    "construct.optimize": _optimize,
    "construct.greedy": _greedy,
    "oracle.mc": _mc,
    "oracle.iid": lambda a, o: {"replications": a[3]},
}

#: (module, attribute, span key) for every call the benchmark makes itself.
BENCH_ENTRIES = (
    ("l2disc.kernels", "kernel_spec", "kernels"),
    ("l2disc.generators", "sobol", "generators"),
    ("l2disc.generators", "iid_uniform", "generators"),
    ("l2disc.evaluator", "squared_value", "evaluator.value"),
    ("l2disc.evaluator", "squared_discrepancy", "evaluator.value"),
    ("l2disc.evaluator", "value_and_gradient", "evaluator.vg"),
    ("l2disc.construct", "optimize", "construct.optimize"),
    ("l2disc.construct", "greedy_extend", "construct.greedy"),
    ("l2disc.oracle", "mc_squared_discrepancy", "oracle.mc"),
    ("l2disc.oracle", "mc_expected_iid", "oracle.iid"),
)

#: (module, attribute, span key) for calls from one library module into another.
CROSS_ENTRIES = (
    ("l2disc.construct", "value_and_gradient", "evaluator.vg"),
    ("l2disc.construct", "squared_discrepancy", "evaluator.value"),
    ("l2disc.construct", "kernel_spec", "kernels"),
    ("l2disc.oracle", "kernel_spec", "kernels"),
)


def plain_api() -> dict:
    """The benchmark's entry points, unwrapped."""
    return {attr: getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in BENCH_ENTRIES}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []  # [name, key, start, end, parent, failed, work, phase]
        self._stack = []
        self.phase = "setup"

    def _wrap(self, name, key, fn):
        counter = COUNTERS.get(key)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, key, 0.0, 0.0, stack[-1] if stack else -1, False, None, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = process_time()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = process_time()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self, api: dict):
        """Swap wrappers into ``api`` and the library's cross-module globals."""
        saved_api = dict(api)
        saved = []
        try:
            for mod, attr, key in BENCH_ENTRIES:
                api[attr] = self._wrap(f"{mod}.{attr}", key, saved_api[attr])
            for mod, attr, key in CROSS_ENTRIES:
                module = importlib.import_module(mod)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{mod}.{attr}", key, original))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            api.update(saved_api)

    def records(self) -> list:
        return [{"name": s[0], "key": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "failed": s[5], "work": s[6], "phase": s[7]} for s in self.spans]


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

_LAYERS = ("kernels", "generators", "evaluator", "construct", "oracle")


def _phase_totals(spans: list, phase) -> dict:
    """Per-key call count, busy and self time, and work counters."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    out = {}
    for i, s in enumerate(spans):
        if s[7] != phase:
            continue
        t = out.setdefault(s[1], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += s[3] - s[2]
        t["self_s"] += s[3] - s[2] - child_time[i]
        for k, v in (s[6] or {}).items():
            t[k] = t.get(k, 0) + v
    return out


def summarize(spans: list, rounds: list, check_fail: dict, max_rel_err: float) -> dict:
    """Per-layer metrics: the median over traced rounds of each quantity.

    ``kernels`` and ``generators`` also include the set-up phase, where most
    of their calls happen.  ``<layer>.fail`` counts raised spans and failed
    output checks over the whole traced run.
    """
    per_round = [_phase_totals(spans, r) for r in rounds]
    setup = _phase_totals(spans, "setup")

    def med(key, field, with_setup=False):
        base = setup.get(key, {}).get(field, 0) if with_setup else 0
        return base + statistics.median(t.get(key, {}).get(field, 0) for t in per_round)

    m = {}
    for key in ("kernels", "generators"):
        m[f"{key}.calls"] = med(key, "calls", True)
        m[f"{key}.busy_s"] = med(key, "busy_s", True)
    for kind in ("value", "vg"):
        key = f"evaluator.{kind}"
        calls, busy = med(key, "calls"), med(key, "busy_s")
        m[f"{key}.calls"] = calls
        m[f"{key}.busy_s"] = busy
        m[f"{key}.us_per_call"] = 1e6 * busy / calls if calls else 0.0
    for field in ("pair_terms", "bytes_computed"):
        m[f"evaluator.{field}"] = med("evaluator.value", field) + med("evaluator.vg", field)
    m["evaluator.max_rel_err"] = max_rel_err
    for key, fields in (
        ("construct.optimize", ("self_s", "evals", "restarts")),
        ("construct.greedy", ("self_s", "candidates", "pattern_evals", "bytes_computed")),
        ("oracle.mc", ("samples", "bytes_computed")),
        ("oracle.iid", ("replications",)),
    ):
        for field in ("calls", "busy_s") + fields:
            m[f"{key}.{field}"] = med(key, field)
    for layer in _LAYERS:
        raised = sum(s[5] for s in spans if s[1].split(".")[0] == layer)
        m[f"{layer}.fail"] = raised + check_fail.get(layer, 0)
    return m
