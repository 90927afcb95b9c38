"""Command-line surface: generation, evaluation, analysis, reproduction.

Subcommands
-----------
gen        write a generated point set as CSV
disc       closed-form squared discrepancy of a CSV point set
oracle     Monte-Carlo geometric estimate vs the closed form
pathology  replicated-point pathology table as CSV
greedy     greedy extension of a point set
optimize   multi-restart L-BFGS-B optimization
crosseval  ratio matrix across per-measure optimized sets
tables     reproduce published comparison tables side by side

File formats: point sets are CSV with header ``x1,...,xd`` and one row
per point, 17-significant-digit decimals, rejecting coordinates outside
[0,1] with row/column diagnostics.  Every command writes a run record —
a flat JSON object with sorted keys — next to its primary output
(``<out>.run.json``) and prints it to stdout.  Measured elapsed time
goes to stderr only and is serialized as null, so rerunning a command
with identical flags and seeds reproduces every output file
bit-for-bit (``optimize`` and optimized ``tables``: per numpy and scipy
install).  The DISC_THREADS environment variable is validated (exit 2 on
a non-integer or non-positive value) and has no other effect: evaluation
is single-threaded and deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    BudgetExhaustedError,
    MeasureId,
    NumericGuardError,
    PointSet,
    ValidationError,
    check_positive,
    check_seed,
)
from .construct import (
    GreedyConfig,
    OptimizerConfig,
    cross_evaluate,
    greedy_extend,
    optimize,
)
from .evaluator import squared_discrepancy
from .generators import fibonacci_lattice, grid, iid_uniform, replicated_point, sobol
from .kernels import kernel_spec
from .oracle import mc_squared_discrepancy
from .pathology import PathologyRow, pathology_table, reference_row
from .reference import (
    TABLE3_NS,
    TABLE3_OPT,
    TABLE3_ORDER,
    TABLE3_SOBOL,
    TABLE4_NS,
    TABLE4_OPT,
    TABLE4_ORDER,
)

__all__ = ["main", "RunRecord", "read_points", "write_points"]

_CROSSEVAL_MEASURES = ("star", "ext", "per", "ctr", "sym", "asd")

#: tables --preset: the optimizer budget and the n values of each table
_PRESETS = {
    "smoke": dict(restarts=2, iterations=1_500,
                  table3=(16,), table4=(10, 20), fig2=(16,)),
    "desk": dict(restarts=6, iterations=12_000, table3=(16, 32),
                 table4=tuple(range(10, 61, 10)), fig2=(32, 64)),
    "full": dict(restarts=12, iterations=30_000, table3=TABLE3_NS,
                 table4=TABLE4_NS, fig2=(16, 32, 64, 128, 256)),
}


@dataclass(frozen=True)
class RunRecord:
    """Flat, reproducible description of one command invocation.

    ``elapsed_ms`` is always null in serialized records (timing goes to
    stderr) so output files are bit-identical across reruns.
    """

    command: str
    measure: Optional[str]
    n: Optional[int]
    d: Optional[int]
    gamma: Optional[tuple]
    squared: Optional[float]
    root: Optional[float]
    seeds: tuple
    samples: Optional[int]
    evaluations: Optional[int]
    elapsed_ms: None
    version: str
    extra: Optional[dict] = None

    def to_json(self) -> str:
        payload = asdict(self)
        extra = payload.pop("extra") or {}
        payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _record(command: str, *, measure=None, n=None, d=None, gamma=None,
            squared=None, root=None, seeds=(), samples=None,
            evaluations=None, **extra) -> RunRecord:
    return RunRecord(
        command=command,
        measure=None if measure is None else MeasureId.parse(measure).value,
        n=n, d=d,
        gamma=None if gamma is None else tuple(float(g) for g in gamma),
        squared=squared, root=root,
        seeds=tuple(int(s) for s in seeds),
        samples=samples, evaluations=evaluations,
        elapsed_ms=None, version=__version__,
        extra=extra or None,
    )


def _emit_record(record: RunRecord, out_path: Optional[str],
                 started: float) -> None:
    text = record.to_json()
    if out_path is not None:
        with open(out_path + ".run.json", "w", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)


# ---------------------------------------------------------------------------
# point-set CSV
# ---------------------------------------------------------------------------


def write_points(path: str, points: PointSet) -> None:
    """CSV with header x1..xd and 17-significant-digit coordinates."""
    _write_csv(path, [f"x{j + 1}" for j in range(points.d)], points.coords)


def read_points(path: str) -> PointSet:
    """Parse a point-set CSV, with row/column diagnostics on bad cells."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValidationError(f"{path}: cannot read: {reason}") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty point-set file") from None
    expected = [f"x{j + 1}" for j in range(len(header))]
    if [h.strip() for h in header] != expected:
        raise ValidationError(
            f"{path}: header {header!r} does not match x1..x{len(header)}")
    d = len(header)
    rows = []
    for i, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != d:
            raise ValidationError(
                f"{path}: row {i} has {len(row)} fields, expected {d}")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {i}, column x{j + 1}: "
                    f"not a number: {cell!r}") from None
        rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path}: no points in file")
    try:
        return PointSet(np.asarray(rows, dtype=float))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------


def _parse_floats(flag: str, text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects a comma list of numbers, "
                              f"got {text!r}") from None


def _check_disc_threads() -> None:
    raw = os.environ.get("DISC_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(
            f"DISC_THREADS must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(
            f"DISC_THREADS must be a positive integer, got {cap}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


#: gen kinds: the flags each needs (argparse dests) and its builder
_GENERATORS = {
    "iid": (("n", "d"), lambda a: iid_uniform(a.n, a.d, a.seed)),
    "sobol": (("n", "d"), lambda a: sobol(a.n, a.d)),
    "point": (("point", "n"), lambda a: replicated_point(
        _parse_floats("--point", a.point), a.n)),
    "fib": (("n",), lambda a: fibonacci_lattice(a.n)),
    "grid": (("grid_k", "d"), lambda a: grid(a.grid_k, a.d)),
}


def _cmd_gen(args, started: float) -> int:
    kind = args.kind
    needs, build = _GENERATORS[kind]
    if any(getattr(args, dest) is None for dest in needs):
        flags = " and ".join("--" + dest.replace("_", "-") for dest in needs)
        raise ValidationError(f"gen {kind} needs {flags}")
    points = build(args)
    write_points(args.out, points)
    seeds = (args.seed,) if kind == "iid" else ()
    record = _record("gen", n=points.n, d=points.d, seeds=seeds, kind=kind,
                     out=args.out)
    _emit_record(record, args.out, started)
    return 0


def _cmd_disc(args, started: float) -> int:
    points = read_points(args.in_path)
    gamma = _parse_floats("--gamma", args.gamma)
    spec = kernel_spec(args.measure, points.d, gamma)
    result = squared_discrepancy(spec, points)
    record = _record("disc", measure=args.measure, n=points.n, d=points.d,
                     gamma=gamma, squared=result.value, root=result.root)
    _emit_record(record, args.out, started)
    return 0


def _cmd_oracle(args, started: float) -> int:
    points = read_points(args.in_path)
    # the estimate first, so a measure without geometry is named as such
    estimate = mc_squared_discrepancy(args.measure, points,
                                      samples=args.samples, seed=args.seed)
    closed = squared_discrepancy(kernel_spec(args.measure, points.d), points)
    record = _record(
        "oracle", measure=args.measure, n=points.n, d=points.d,
        squared=closed.value, root=closed.root,
        seeds=(args.seed,), samples=args.samples,
        oracle_mean=estimate.mean, oracle_stderr=estimate.stderr,
        agrees_within_4_stderr=estimate.agrees_with(closed.value),
    )
    _emit_record(record, args.out, started)
    return 0


def _cmd_pathology(args, started: float) -> int:
    if args.d < 1:
        raise ValidationError("pathology needs --d (maximum dimension) >= 1")
    rows = pathology_table(range(1, args.d + 1))
    _write_csv(args.out, [f.name for f in fields(PathologyRow)],
               (astuple(r) for r in rows))
    mismatches = sorted({r.measure.value for r in rows
                         if r.table1_match == "mismatch"})
    record = _record("pathology", d=args.d, out=args.out,
                     rows=len(rows), mismatched_measures=mismatches)
    _emit_record(record, args.out, started)
    return 0


def _cmd_greedy(args, started: float) -> int:
    points = read_points(args.in_path)
    gamma = _parse_floats("--gamma", args.gamma)
    spec = kernel_spec(args.measure, points.d, gamma)
    cfg = GreedyConfig(batch=args.batch, grid_k=args.grid_k)
    _, trace = greedy_extend(spec, points, args.steps, cfg)
    _write_construction(args, gamma, trace, started, steps=args.steps,
                        batch=args.batch, grid_k=args.grid_k)
    return 0


def _write_construction(args, gamma, trace, started: float, **fields) -> float:
    """Write a construction run's set to --out, its trace to
    ``<out>.trace.json`` and its record; returns the root discrepancy."""
    write_points(args.out, trace.final)
    payload = {name: getattr(trace, name) for name in (
        "values", "best_values", "final_value", "winner_restart", "evaluations")}
    with open(args.out + ".trace.json", "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    root = _root(trace)
    record = _record(args.command, measure=args.measure, n=trace.final.n,
                     d=trace.final.d, gamma=gamma, squared=trace.final_value,
                     root=root, evaluations=trace.evaluations, **fields)
    _emit_record(record, args.out, started)
    return root


def _cmd_optimize(args, started: float) -> int:
    if not args.in_path and (args.n is None or args.d is None):
        raise ValidationError("provide --in, or both --n and --d")
    if args.target is not None:
        check_positive("--target", args.target)
    init = read_points(args.in_path) if args.in_path else sobol(args.n, args.d)
    gamma = _parse_floats("--gamma", args.gamma)
    spec = kernel_spec(args.measure, init.d, gamma)
    cfg = OptimizerConfig(restarts=args.restarts, iterations=args.iters,
                          seed=args.seed)
    _, trace = optimize(spec, init, cfg)
    root = _write_construction(args, gamma, trace, started, seeds=(args.seed,),
                               restarts=args.restarts, iterations=args.iters,
                               winner_restart=trace.winner_restart,
                               target=args.target)
    if args.target is not None and root > args.target:
        raise BudgetExhaustedError(
            f"optimized root {root:.6g} missed the requested target "
            f"{args.target:.6g} within {args.restarts} restarts x "
            f"{args.iters} evaluations")
    return 0


def _cmd_crosseval(args, started: float) -> int:
    measures = [m.strip() for m in args.measure.split(",")]
    if len(measures) < 2:
        raise ValidationError("crosseval needs >= 2 comma-separated measures")
    sets = {}
    for m in measures:
        MeasureId.parse(m)
        sets[m] = read_points(os.path.join(args.in_path, f"{m}.csv"))
    ratios = _write_ratios(args.out, sets, measures)
    record = _record("crosseval", d=next(iter(sets.values())).d,
                     measures=measures, out=args.out, min_offdiag=float(
                         ratios[~np.eye(len(measures), dtype=bool)].min()))
    _emit_record(record, args.out, started)
    return 0


# ---------------------------------------------------------------------------
# published-table reproduction
# ---------------------------------------------------------------------------


def _optimized(measure: str, n: int, preset: str, seed: int):
    """The `optimize` trace of n points in d = 2 from Sobol' at the preset's
    budget."""
    cfg = OptimizerConfig(restarts=_PRESETS[preset]["restarts"],
                          iterations=_PRESETS[preset]["iterations"], seed=seed)
    return optimize(kernel_spec(measure, 2), sobol(n, 2), cfg)[1]


def _root(trace) -> float:
    return math.sqrt(max(trace.final_value, 0.0))


def _write_ratios(path: str, sets: dict, measures: list) -> np.ndarray:
    """Write the cross-evaluation ratio matrix of ``sets`` as CSV."""
    ratios = cross_evaluate(sets, measures)
    header = ["evaluated_measure"] + [f"optimized_for_{m}" for m in measures]
    _write_csv(path, header, (
        [m] + list(ratios[i]) for i, m in enumerate(measures)))
    return ratios


def _write_table(out_dir: str, name: str, header: list, rows: list) -> str:
    """Write ``<out_dir>/<name>.csv`` and return its path."""
    path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(path, header, rows)
    return path


def _tables_table1(out_dir: str, preset: str, seed: int) -> list:
    header = ["measure", "d",
              "n_times_expected", "published_n_times_expected",
              "single_value", "published_single_value",
              "threshold", "published_threshold",
              "table1_match", "expected_match", "single_match",
              "threshold_match", "notes"]
    rows = []
    for r in pathology_table(range(1, 11)):
        ref = reference_row(r.measure)
        pub_single = ("" if ref.single_value is None
                      else ref.single_value(r.d))
        rows.append([
            r.measure.value, r.d,
            r.n_times_expected, ref.n_times_expected(r.d),
            r.single_value, pub_single,
            r.threshold, ref.threshold(r.d),
            r.table1_match, r.expected_match, r.single_match,
            r.threshold_match, r.notes])
    return [_write_table(out_dir, "table1", header, rows)]


def _tables_roots(out_dir: str, preset: str, seed: int, name: str, order: tuple,
                  published_opt: dict, published_sobol: Optional[dict] = None) -> list:
    """Table 3 or 4: per measure and n, the optimized root and, for Table 3,
    the Sobol' root, each beside its published value and relative deviation."""
    published = {"opt": published_opt, "sobol": published_sobol}
    columns = [c for c in published if published[c] is not None]
    header = ["measure", "n"] + [h for c in columns for h in (
        f"{c}_root", f"published_{c}", f"{c}_rel_dev")]
    rows = []
    for measure in order:
        for n in _PRESETS[preset][name]:
            row = [measure, n]
            for c in columns:
                root = (_root(_optimized(measure, n, preset, seed)) if c == "opt"
                        else squared_discrepancy(kernel_spec(measure, 2), sobol(n, 2)).root)
                pub = published[c][measure][n]
                row += [root, pub, (root - pub) / pub]
            rows.append(row)
    return [_write_table(out_dir, name, header, rows)]


def _tables_fig2(out_dir: str, preset: str, seed: int) -> list:
    measures = list(_CROSSEVAL_MEASURES)
    paths = []
    for n in _PRESETS[preset]["fig2"]:
        sets = {m: _optimized(m, n, preset, seed).final for m in measures}
        path = os.path.join(out_dir, f"fig2_n{n}.csv")
        _write_ratios(path, sets, measures)
        paths.append(path)
    return paths


#: tables --which: each writer takes (out_dir, preset, seed) and returns
#: the paths it wrote
_TABLES = {
    "table1": _tables_table1,
    "table3": lambda *args: _tables_roots(*args, "table3", TABLE3_ORDER, TABLE3_OPT,
                                          TABLE3_SOBOL),
    "table4": lambda *args: _tables_roots(*args, "table4", TABLE4_ORDER, TABLE4_OPT),
    "fig2": _tables_fig2,
}


def _cmd_tables(args, started: float) -> int:
    os.makedirs(args.out, exist_ok=True)
    outputs = _TABLES[args.which](args.out, args.preset, args.seed)
    record = _record("tables", seeds=(args.seed,), which=args.which,
                     preset=args.preset,
                     outputs=[os.path.basename(p) for p in outputs])
    _emit_record(record, os.path.join(args.out, args.which), started)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2disc",
        description="Unified L2 discrepancy toolkit: closed forms, "
                    "geometric Monte-Carlo oracle, pathology analysis, and "
                    "point-set construction.",
        epilog="DISC_THREADS is validated (exit 2 on a non-integer or "
               "non-positive value) and has no other effect: evaluation is "
               "single-threaded and deterministic.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, measure=False, gamma=False, out_required=True):
        if measure:
            p.add_argument("--measure", required=True,
                           help="measure id, e.g. " + ", ".join(
                               m.value for m in MeasureId))
        if gamma:
            p.add_argument("--gamma", default=None,
                           help="comma list of per-coordinate weights "
                                "(weighted measures only)")
        p.add_argument("--out", required=out_required,
                       help="output path")

    p = sub.add_parser("gen", help="generate a point set CSV")
    p.add_argument("kind", choices=tuple(_GENERATORS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--point", default=None,
                   help="comma list of coordinates for kind=point")
    p.add_argument("--grid-k", type=int, default=None, dest="grid_k",
                   help="points per axis for kind=grid")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("disc", help="closed-form squared discrepancy")
    p.add_argument("--in", dest="in_path", required=True)
    add_common(p, measure=True, gamma=True, out_required=False)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("oracle", help="Monte-Carlo geometric estimate")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, measure=True, out_required=False)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("pathology", help="pathology table CSV for d=1..D")
    p.add_argument("--d", type=int, required=True,
                   help="maximum dimension")
    add_common(p)
    p.set_defaults(func=_cmd_pathology)

    p = sub.add_parser("greedy", help="greedy extension of a point set")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--grid-k", type=int, default=65, dest="grid_k")
    add_common(p, measure=True, gamma=True)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("optimize", help="multi-restart L-BFGS-B optimization")
    p.add_argument("--in", dest="in_path", default=None,
                   help="initial set CSV (default: sobol --n --d)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=20_000,
                   help="value+gradient evaluations per restart")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=float, default=None,
                   help="root-discrepancy target; exit 4 if missed")
    add_common(p, measure=True, gamma=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("crosseval", help="cross-evaluation ratio matrix")
    p.add_argument("--in", dest="in_path", required=True,
                   help="directory of {measure}.csv optimized sets")
    p.add_argument("--measure", required=True,
                   help="comma list of measures (row/column order)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_crosseval)

    p = sub.add_parser("tables", help="reproduce published tables")
    p.add_argument("--which", required=True,
                   choices=tuple(_TABLES))
    p.add_argument("--preset", default="smoke",
                   choices=tuple(_PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _check_disc_threads()
        # before any output, also where the subcommand never draws from it
        check_seed(getattr(args, "seed", 0))
        return args.func(args, started)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # read_points reports its own, so this is a write
        # a full disk fails at flush or close, with no file name
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}cannot write: {exc.strerror}", file=sys.stderr)
        return 2
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
