"""Command-line surface: formats, records, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import l2disc.cli as cli
from l2disc import NumericGuardError, PointSet, ValidationError, iid_uniform
from l2disc.cli import main, read_points, write_points
from l2disc.reference import (
    TABLE3_OPT,
    TABLE3_ORDER,
    TABLE3_SOBOL,
    TABLE4_OPT,
    TABLE4_ORDER,
)

RECORD_FIELDS = {
    "command", "measure", "n", "d", "gamma", "squared", "root",
    "seeds", "samples", "evaluations", "elapsed_ms", "version",
}


def run(args):
    return main([str(a) for a in args])


class TestPointSetCsv:
    def test_round_trip_bit_for_bit(self, tmp_path):
        pts = iid_uniform(20, 3, 109)
        path = tmp_path / "pts.csv"
        write_points(str(path), pts)
        back = read_points(str(path))
        np.testing.assert_array_equal(back.coords, pts.coords)

    def test_header_written(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points(str(path), PointSet([[0.5, 0.25, 0.75]]))
        assert path.read_text().splitlines()[0] == "x1,x2,x3"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.5,0.5\n")
        with pytest.raises(ValidationError, match="header"):
            read_points(str(path))

    def test_rejects_out_of_range_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.5,0.5\n0.5,1.5\n")
        with pytest.raises(ValidationError, match="row 1, column 1"):
            read_points(str(path))

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1\n0.5\noops\n")
        with pytest.raises(ValidationError, match="column x1"):
            read_points(str(path))

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.5\n")
        with pytest.raises(ValidationError, match="fields"):
            read_points(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, reason in (("", "empty point-set file"),
                             ("x1,x2\n", "no points in file")):
            path.write_text(text)
            with pytest.raises(ValidationError, match=reason):
                read_points(str(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("x1,x2\n0.5,0.5\n\n0.25,0.75\n")
        np.testing.assert_array_equal(read_points(str(path)).coords,
                                      [[0.5, 0.5], [0.25, 0.75]])


class TestRunRecords:
    def test_disc_record_has_all_fields(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(6, 2, 113))
        assert run(["disc", "--measure", "star", "--in", src]) == 0
        record = json.loads(capsys.readouterr().out)
        assert RECORD_FIELDS <= set(record)
        assert record["elapsed_ms"] is None
        assert record["root"] == pytest.approx(
            max(record["squared"], 0.0) ** 0.5
        )

    def test_record_written_next_to_output(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["gen", "sobol", "--n", 8, "--d", 2, "--out", out]) == 0
        assert out.exists()
        record = json.loads((tmp_path / "s.csv.run.json").read_text())
        assert record["command"] == "gen"
        assert record["n"] == 8 and record["d"] == 2

    def test_oracle_record_extends_fields(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(4, 2, 127))
        assert run(
            ["oracle", "--measure", "ctr", "--in", src,
             "--samples", 20_000, "--seed", 3]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert {"oracle_mean", "oracle_stderr", "agrees_within_4_stderr"} <= set(record)
        assert record["agrees_within_4_stderr"] is True


class TestSubcommands:
    def test_gen_point_kind(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(
            ["gen", "point", "--point", "0.5,0.5", "--n", 4, "--out", out]
        ) == 0
        pts = read_points(str(out))
        np.testing.assert_array_equal(pts.coords, np.full((4, 2), 0.5))

    def test_gen_grid_kind(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gen", "grid", "--grid-k", 3, "--d", 2, "--out", out]) == 0
        assert read_points(str(out)).n == 9

    def test_pathology_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        assert run(["pathology", "--d", 2, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("measure,d,n_times_expected")
        assert len(lines) == 1 + 2 * 8

    def test_greedy_writes_set_and_trace(self, tmp_path):
        src = tmp_path / "init.csv"
        write_points(str(src), PointSet([[0.5, 0.5]]))
        out = tmp_path / "ext.csv"
        assert run(
            ["greedy", "--measure", "ctr", "--in", src, "--steps", 1,
             "--grid-k", 21, "--out", out]
        ) == 0
        assert read_points(str(out)).n == 2
        trace = json.loads((tmp_path / "ext.csv.trace.json").read_text())
        assert trace["evaluations"] > 0

    def test_optimize_from_generated_init(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run(
            ["optimize", "--measure", "star", "--n", 4, "--d", 2,
             "--restarts", 1, "--iters", 200, "--seed", 9, "--out", out]
        ) == 0
        assert read_points(str(out)).n == 4
        assert (tmp_path / "opt.csv.trace.json").exists()

    def test_crosseval(self, tmp_path):
        for m in ("star", "ext"):
            run(
                ["optimize", "--measure", m, "--n", 4, "--d", 2,
                 "--restarts", 1, "--iters", 150, "--seed", 11,
                 "--out", tmp_path / f"{m}.csv"]
            )
        out = tmp_path / "ratios.csv"
        assert run(
            ["crosseval", "--in", tmp_path, "--measure", "star,ext",
             "--out", out]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "evaluated_measure,optimized_for_star,optimized_for_ext"
        assert lines[1].split(",")[1] == "1"

    def test_tables_table1(self, tmp_path):
        out = tmp_path / "rep"
        assert run(["tables", "--which", "table1", "--out", out]) == 0
        table = (out / "table1.csv").read_text().splitlines()
        assert len(table) == 1 + 10 * 8
        assert (out / "table1.run.json").exists()

    def test_help_says_what_disc_threads_does(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert " ".join(capsys.readouterr().out.split()).endswith(
            "DISC_THREADS is validated (exit 2 on a non-integer or non-positive "
            "value) and has no other effect: evaluation is single-threaded and "
            "deterministic.")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.fixture(scope="module")
def smoke_tables(tmp_path_factory):
    """The numerical-study tables at --preset smoke, written once."""
    out = tmp_path_factory.mktemp("tables")
    for which in ("table3", "table4", "fig2"):
        assert run(["tables", "--which", which, "--preset", "smoke",
                    "--out", out]) == 0
    return out


def _csv_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


class TestPublishedTables:
    # sha256 of each CSV as written with numpy 2.4.6 and scipy 1.17.1; a
    # change to the optimizer, its starts or the smoke preset (ROADMAP
    # item 2) moves these on purpose and re-records them
    PINS = {
        "table3.csv": "36909f3ec77453809b0d6786917d6320c6056536308373877ca74e64f636f341",
        "table4.csv": "6a2eb5a60481a323237ffc2a229b108b47559fc760b4ba30658461898fde0071",
        "fig2_n16.csv": "8c79cdca452128689ca968afd53722a75da56d2c3f6336b44281bddd08e3a01a",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_bytes_are_pinned(self, smoke_tables, name):
        digest = hashlib.sha256((smoke_tables / name).read_bytes()).hexdigest()
        assert digest == self.PINS[name]

    @pytest.mark.parametrize("which,order,ns,columns", [
        ("table3", TABLE3_ORDER, (16,),
         {"opt": TABLE3_OPT, "sobol": TABLE3_SOBOL}),
        ("table4", TABLE4_ORDER, (10, 20), {"opt": TABLE4_OPT}),
    ])
    def test_root_table(self, smoke_tables, which, order, ns, columns):
        header, rows = _csv_rows(smoke_tables / f"{which}.csv")
        assert header == ["measure", "n"] + [
            name for c in columns
            for name in (f"{c}_root", f"published_{c}", f"{c}_rel_dev")]
        assert [(r[0], int(r[1])) for r in rows] == [
            (m, n) for m in order for n in ns]
        for row in rows:
            measure, n = row[0], int(row[1])
            for i, published in enumerate(columns.values()):
                root, pub, dev = map(float, row[2 + 3 * i:5 + 3 * i])
                assert pub == published[measure][n]
                assert dev == (root - pub) / pub

    def test_fig2_matrix(self, smoke_tables):
        header, rows = _csv_rows(smoke_tables / "fig2_n16.csv")
        measures = ["star", "ext", "per", "ctr", "sym", "asd"]
        assert header == ["evaluated_measure"] + [
            f"optimized_for_{m}" for m in measures]
        assert [r[0] for r in rows] == measures
        ratios = np.array([[float(v) for v in r[1:]] for r in rows])
        assert ratios.shape == (6, 6)
        np.testing.assert_array_equal(np.diag(ratios), 1.0)
        assert (ratios[~np.eye(6, dtype=bool)] > 0).all()


class TestDeterminism:
    def test_identical_reruns_are_bit_identical(self, tmp_path, monkeypatch):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(5, 2, 131))
        outputs = []
        for tag, threads in (("a", "1"), ("b", "7")):
            monkeypatch.setenv("DISC_THREADS", threads)
            out = tmp_path / f"o{tag}.csv"
            run(
                ["optimize", "--measure", "sym", "--in", src,
                 "--restarts", 2, "--iters", 120, "--seed", 13, "--out", out]
            )
            outputs.append(
                (
                    out.read_bytes(),
                    (tmp_path / f"o{tag}.csv.run.json").read_bytes(),
                    (tmp_path / f"o{tag}.csv.trace.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_gen_iid_reruns_identical(self, tmp_path):
        for tag in ("a", "b"):
            run(["gen", "iid", "--n", 9, "--d", 3, "--seed", 17,
                 "--out", tmp_path / f"{tag}.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestExitCodes:
    def test_validation_error_is_two(self, tmp_path):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(3, 2, 137))
        assert run(["disc", "--measure", "nope", "--in", src]) == 2

    def test_bad_csv_is_two(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("x1\n1.7\n")
        assert run(["disc", "--measure", "star", "--in", src]) == 2

    def test_bad_gamma_is_two(self, tmp_path):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(3, 2, 139))
        assert run(
            ["disc", "--measure", "sym_weighted", "--gamma", "4,oops",
             "--in", src]
        ) == 2

    def test_bad_point_names_its_flag(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["gen", "point", "--point", "abc", "--n", 2, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --point expects a comma list")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "iid", "--n", 3, "--d", 2, "--seed", -1],
        ["optimize", "--measure", "star", "--n", 3, "--d", 2, "--iters", 5,
         "--seed", -2],
        ["tables", "--which", "table1", "--seed", -3],
    ])
    def test_negative_seed_is_two(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a nonnegative integer")
        assert not out.exists()

    @pytest.mark.parametrize("argv,flags", [
        (["gen", "iid", "--n", 3], "--n and --d"),
        (["gen", "sobol", "--d", 2], "--n and --d"),
        (["gen", "point", "--n", 3], "--point and --n"),
        (["gen", "fib"], "--n"),
        (["gen", "grid", "--d", 2], "--grid-k and --d"),
    ])
    def test_gen_kind_names_its_missing_flags(self, tmp_path, capsys, argv,
                                              flags):
        out = tmp_path / "g.csv"
        assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: gen {argv[1]} needs {flags}\n"
        assert not out.exists()

    def test_oracle_names_missing_geometry(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(3, 2, 141))
        assert run(["oracle", "--measure", "ctr_weighted", "--in", src]) == 2
        err = capsys.readouterr().err
        assert "no geometric set definition" in err
        assert "gamma" not in err

    @pytest.mark.parametrize("name,make,reason", [
        ("missing.csv", lambda path: None, "No such file or directory"),
        ("folder", lambda path: path.mkdir(), "Is a directory"),
        ("binary.csv", lambda path: path.write_bytes(b"x1\n\xff\xfe0.5\n"),
         "can't decode"),
    ], ids=["missing", "directory", "undecodable"])
    def test_unreadable_input_is_two(self, tmp_path, capsys, name, make, reason):
        src = tmp_path / name
        make(src)
        assert run(["disc", "--measure", "star", "--in", src]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and reason in err

    @pytest.mark.parametrize("argv,target,reason", [
        (["gen", "sobol", "--n", 4, "--d", 2], "nodir/x.csv", "No such file or directory"),
        (["pathology", "--d", 2], "nodir/p.csv", "No such file or directory"),
        (["tables", "--which", "table1"], "taken", "File exists"),
    ], ids=["gen", "pathology", "tables"])
    def test_unwritable_output_is_two(self, tmp_path, capsys, argv, target, reason):
        (tmp_path / "taken").write_text("")
        out = tmp_path / target
        assert run(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: cannot write: {reason}\n"
        assert captured.out == ""

    def test_failed_write_without_a_path_is_two(self, tmp_path, capsys, monkeypatch):
        # a full disk fails at flush or close, with no file name on the error
        def full(path, points):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_points", full)
        assert run(["gen", "fib", "--n", 5, "--out", tmp_path / "f.csv"]) == 2
        assert capsys.readouterr().err == "error: cannot write: No space left on device\n"

    @pytest.mark.parametrize("argv,message", [
        (["crosseval", "--measure", "star"],
         "crosseval needs >= 2 comma-separated measures"),
        (["crosseval", "--measure", "star,asd"],
         "{asd}: cannot read: No such file or directory"),
        (["pathology", "--d", 0], "pathology needs --d (maximum dimension) >= 1"),
    ], ids=["crosseval-one-measure", "crosseval-missing-set", "pathology-d0"])
    def test_unusable_request_is_one_error_line(self, tmp_path, capsys, argv,
                                                message):
        write_points(str(tmp_path / "star.csv"), iid_uniform(3, 2, 157))
        if argv[0] == "crosseval":
            argv = argv + ["--in", tmp_path]
        out = tmp_path / "r.csv"
        assert run(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        asd = tmp_path / "asd.csv"
        assert captured.err == f"error: {message.format(asd=asd)}\n"
        assert captured.out == "" and not out.exists()

    def test_bad_disc_threads_is_two(self, tmp_path, monkeypatch):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(3, 2, 149))
        for raw in ("many", "0"):
            monkeypatch.setenv("DISC_THREADS", raw)
            assert run(["disc", "--measure", "star", "--in", src]) == 2

    def test_numeric_guard_is_three(self, tmp_path, monkeypatch):
        src = tmp_path / "p.csv"
        write_points(str(src), iid_uniform(3, 2, 151))

        def explode(spec, points):
            raise NumericGuardError("negative squared value")

        monkeypatch.setattr(cli, "squared_discrepancy", explode)
        assert run(["disc", "--measure", "star", "--in", src]) == 3

    def test_missed_target_is_four(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(
            ["optimize", "--measure", "star", "--n", 4, "--d", 2,
             "--restarts", 1, "--iters", 60, "--seed", 19,
             "--target", 1e-6, "--out", out]
        ) == 4
        # outputs are still written before the budget verdict
        assert out.exists() and (tmp_path / "o.csv.run.json").exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-1"])
    def test_bad_target_is_two_before_any_work(self, tmp_path, capsys, monkeypatch,
                                               target):
        def refuse(*args, **kwargs):
            raise AssertionError("optimize ran")

        monkeypatch.setattr(cli, "optimize", refuse)
        out = tmp_path / "o.csv"
        assert run(["optimize", "--measure", "star", "--n", 4, "--d", 2,
                    "--target", target, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --target must be finite and positive, got {float(target)!r}\n")
        assert captured.out == "" and not out.exists()
        assert not (tmp_path / "o.csv.run.json").exists()

    def test_missing_required_input_is_two(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["optimize", "--measure", "star", "--out", out]) == 2
        assert not out.exists()


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S)
    return [line for line in block.group(1).splitlines()
            if line.startswith("l2disc ")]


def test_readme_has_cli_examples():
    assert len(_readme_cli_lines()) == 8


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_parses(line):
    cli._build_parser().parse_args(shlex.split(line)[1:])
