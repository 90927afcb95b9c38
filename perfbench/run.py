"""Benchmark entry point for l2disc.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout that holds ``src/l2disc``.  Each workload runs in a
fresh single-threaded child process (thread variables pinned to 1,
``DISC_THREADS`` unset, ``PYTHONPATH=src``).  With ``--trace 0`` the last
line of standard output is the JSON result with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  A run
record goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra set-up-only processes per untraced run, half started before the
#: measuring process and half after it, so the samples straddle the run;
#: set-up is reported as the median over these and the measuring process.
SETUP_REPEATS = 6
#: Workloads run.py accepts besides those in BENCHMARK.json.  pgd-small
#: (optimize: thousands of tiny value+gradient calls) is kept to be run by
#: hand; see perfbench/notes.json for why it is not one of the benchmark's
#: workloads.
EXTRA_WORKLOADS = ("pgd-small",)
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150



def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DISC_THREADS"}
    env.update({k: "1" for k in PINNED_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra: list) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(args, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_vars": {k: "1" for k in PINNED_THREAD_VARS},
        "DISC_THREADS": "unset",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS)
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "l2disc" / "__init__.py").is_file():
        sys.stderr.write(f"no l2disc sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = run_child(args, ["--spans-out", str(out_dir / f"{stem}.spans.json")])
        values = res["per_layer"]
        setups = [res["setup_s"]]
    else:
        half = SETUP_REPEATS // 2
        setups = [run_child(args, ["--setup-only"])["setup_s"] for _ in range(half)]
        res = run_child(args, [])
        setups.append(res["setup_s"])
        setups += [run_child(args, ["--setup-only"])["setup_s"]
                   for _ in range(SETUP_REPEATS - half)]
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": res["cpu_s"],
            "work_per_s": res["work_per_s"],
            "call_p50_ms": res["call_p50_ms"],
            "call_tail_ms": res["call_tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    facts = machine_facts(args, res["numpy"])
    record = {"facts": facts, "child": res, "setups_s": setups, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} nproc={facts['nproc']} "
          f"python={facts['python']} numpy={facts['numpy']} threads pinned to 1")
    print(f"# wall time of a round (not a metric: counts hypervisor steal) "
          f"median {res['wall_s']:.4f} s")
    print(f"# work unit: {res['unit']}; rounds={res['rounds']} x {res['calls_per_round']} calls; "
          f"tail = p{res['tail_percentile']:g} of {res['tail_calls']} calls; "
          f"fail_frac={res['failed'] / res['attempted']:.4g}")
    if args.trace:
        print(f"# traced cpu_s={res['traced_cpu_s']:.4f} untraced cpu_s={res['cpu_s']:.4f}")
    for err in res["errors"]:
        print(f"# FAILED {err}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
