"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/report.py [--workloads W ...] [--seeds 1 2 ...] [--trace 0 1]
                                [--seconds S] [--json PATH]

For every workload, trace setting and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--json`` the summary is also written as JSON; baseline.json was made
this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", nargs="+", type=int, default=[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        for trace in args.trace:
            results = []
            for seed in args.seeds:
                res = run_once(workload, seed, args.seconds, trace)
                if not res["correct"]:
                    print(f"# {workload} seed={seed}: {res['failed']} of {res['attempted']} calls failed")
                results.append(res)
            s = summarise(results)
            summary.setdefault(workload, {})[f"trace{trace}"] = s
            print(f"\n{workload} (trace {trace}, seeds {args.seeds}, {args.seconds} s per run)")
            print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
            for name, m in s.items():
                bound = bounds.get(name)
                flag = "" if bound is None else f"{bound:6.2f}" + (" !" if m["spread"] > bound / 3 else "")
                print(f"  {name:32s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                      f"{m['spread']:8.4f} {flag} {m['unit']}")
    if args.json:
        Path(args.json).write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                               "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
