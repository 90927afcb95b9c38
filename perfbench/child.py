"""One workload in one fresh, single-threaded process.

Started by run.py with the thread variables pinned.  It times set-up
(imports, kernel specs, inputs, one warm-up call), runs one untimed round of
the workload's fixed call list, then timed rounds until the time budget is
spent, then checks every timed output, and prints one JSON object.  With ``--setup-only`` it stops after
set-up.  With ``--trace 1`` untraced and traced rounds alternate, so the
tracing overhead is measured in the same process.

Times are CPU time of this process (``time.process_time``, user + system
of all its threads).  The process is single-threaded and never waits, so
on a core of its own CPU time equals wall time; on a shared virtual
machine wall time also counts the intervals in which the hypervisor runs
other guests on the core (steal), which can double a round's wall time
and is not the program's.  Wall time is kept in the record beside it.
The time budget ``--seconds`` is wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

cpu = time.process_time

#: Rounds always run, whatever the time budget (per kind, in a traced run).
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
#: Latency percentiles tried from the highest down; the first with at
#: least TAIL_BEYOND calls above it is reported.  The ladder tops out at
#: p95, which every workload reaches in a full run: a higher top rung would
#: be chosen or not depending on how many rounds fit in the time budget,
#: that is, on the machine's speed, and the metric would jump between
#: percentiles from run to run.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value): nearest-rank percentile with >= TAIL_BEYOND calls beyond."""
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 0.0, xs[0]


def run_round(wl, api):
    """One pass over the call list: (cpu duration, cpu latencies, outputs, wall duration)."""
    lat, outs = [], []
    w0 = time.perf_counter()
    t0 = cpu()
    for call in wl.calls:
        fn = api[call.fn]
        c0 = cpu()
        try:
            out = fn(*call.args, **call.kwargs)
        except Exception as exc:  # the benchmark keeps going and counts the call as failed
            out = exc
        lat.append(cpu() - c0)
        outs.append(out)
    return cpu() - t0, lat, outs, time.perf_counter() - w0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    t0 = cpu()
    import numpy
    import l2disc  # noqa: F401  (import time is part of set-up)

    import tracing
    import workloads

    api = tracing.plain_api()
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed(api) if tracer else nullcontext():
        wl = workloads.BUILDERS[args.workload](api, args.seed)
        wl.warmup()
    setup_s = cpu() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_round(wl, api)  # untimed: first-touch page faults and allocator growth
    rounds = []  # (cpu duration, latencies, outputs, wall duration, traced)
    start = time.perf_counter()
    while True:
        if tracer is None:
            rounds.append(run_round(wl, api) + (False,))
            done = len(rounds) >= MIN_ROUNDS
        else:
            # untraced and traced rounds in ABBA order, so drift cancels
            for traced in (False, True) if len(rounds) % 4 == 0 else (True, False):
                if traced:
                    tracer.phase = len(rounds)
                    with tracer.installed(api):
                        rounds.append(run_round(wl, api) + (True,))
                else:
                    rounds.append(run_round(wl, api) + (False,))
            done = len(rounds) >= 2 * MIN_TRACED_PAIRS
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / len(rounds) * (1 if tracer is None else 2) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside set-up and the timed phase.
    attempted = failed = 0
    check_fail = {}
    errors = []
    for _, _, outs, _, _ in rounds:
        for call, out in zip(wl.calls, outs):
            attempted += 1
            if isinstance(out, Exception):
                err = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    err = wl.check(call, out)
                except Exception as exc:  # a check that cannot run counts as a failure
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failed += 1
                check_fail[call.layer] = check_fail.get(call.layer, 0) + 1
                if len(errors) < 5:
                    errors.append(f"{call.label}: {err}")
    max_rel_err = max((c.meta.get("err", 0.0) for c in wl.calls), default=0.0)

    def work(call, out):
        if isinstance(out, Exception):
            return 0
        return call.work(out) if callable(call.work) else call.work

    plain = [r for r in rounds if not r[4]]
    cpu_s = [r[0] for r in plain]
    rates = [sum(work(c, o) for c, o in zip(wl.calls, r[2])) / r[0] for r in plain]
    latencies = [x for r in plain for x in r[1]]
    tail_pct, tail_s = tail(latencies)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "unit": wl.unit,
        "setup_s": setup_s,
        "rounds": len(plain),
        "round_s": [r[0] for r in rounds],
        "calls_per_round": len(wl.calls),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "numpy": numpy.__version__,
        "cpu_s": statistics.median(cpu_s),
        "wall_s": statistics.median(r[3] for r in plain),
        "work_per_s": statistics.median(rates),
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "tail_calls": len(latencies),
        "peak_rss_mb": peak_rss_mb,
        "max_rel_err": max_rel_err,
    }
    if tracer is not None:
        traced_cpu = [r[0] for r in rounds if r[4]]
        layer = tracing.summarize(tracer.spans, [i for i, r in enumerate(rounds) if r[4]],
                                  check_fail, max_rel_err)
        overhead = statistics.median(traced_cpu) - result["cpu_s"]
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / result["cpu_s"]
        result["traced_cpu_s"] = statistics.median(traced_cpu)
        result["per_layer"] = layer
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.records()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
