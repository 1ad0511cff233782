"""CLI surface: subcommands, file formats, exit codes, reproducibility."""

import csv
import json
import os
import warnings

import numpy as np
import pytest

from ipscale.cli import main


def run_cli(*args) -> int:
    return main(list(args))


def read_csv_dict(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_2x2_inputs(tmp_path, counts=(10, 20, 50, 20)):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "factors": [{"name": "row", "levels": 2}, {"name": "col", "levels": 2}],
        "order": 1}))
    cpath = tmp_path / "counts.csv"
    with open(cpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "col", "count"])
        for (r, c), n in zip([(1, 1), (1, 2), (2, 1), (2, 2)], counts):
            w.writerow([r, c, n])
    return str(schema), str(cpath)


def files_equal(a, b) -> bool:
    return open(a, "rb").read() == open(b, "rb").read()


class TestFit:
    def test_independence_table(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        out = tmp_path / "out"
        code = run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "ips", "--eps-tol", "1e-10", "--out-dir", str(out))
        assert code == 0
        mu = [float(r["mu"]) for r in read_csv_dict(out / "mu.csv")]
        assert np.allclose(mu, [18.0, 12.0, 42.0, 28.0], atol=1e-6)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["termination"] == "tol_reached"
        assert "g_squared" in summary and "pearson_x2" in summary
        trace = read_csv_dict(out / "trace.csv")
        assert trace[0]["rel_gradient"] == "1"
        assert "est_error" not in trace[0]

    def test_block_solver_reports_its_newton_steps(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        out = tmp_path / "out"
        code = run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "b-ips", "--eps-tol", "1e-10", "--out-dir", str(out))
        assert code == 0
        flags = json.loads((out / "summary.json").read_text())["flags"]
        assert flags["line_search_failures"] == 0
        assert isinstance(flags["newton_steps"], int) and flags["newton_steps"] > 0

    def test_parallel_solver_reports_no_failed_block_solves(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        out = tmp_path / "out"
        code = run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "mm-parallel", "--out-dir", str(out))
        assert code == 0
        flags = json.loads((out / "summary.json").read_text())["flags"]
        assert flags["block_step_failures"] == 0

    @pytest.mark.parametrize("solver", ["ips", "newton"])
    def test_overflowing_start_exits_3(self, tmp_path, solver):
        # every input is finite, but the mean at the start overflows: the
        # run ends diverged on its start record, before any step
        dpath, npath, qpath = (tmp_path / name for name in ("design.csv", "n.csv", "q.csv"))
        dpath.write_text("row,col,value\n0,0,1\n0,1,1\n1,0,1\n2,0,1\n2,1,1\n")
        npath.write_text("row,count\n0,3\n1,4\n2,5\n")
        qpath.write_text("row,offset\n0,1e308\n1,1\n2,1e308\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("fit", "--design", str(dpath), "--counts-vec", str(npath),
                           "--offset", str(qpath), "--solver", solver, "--out-dir", str(out))
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "diverged"
        assert summary["iterations"] == 0
        # the unfitted mean's statistics are not reported
        assert summary["g_squared"] is None and summary["pearson_x2"] is None

    def test_randomized_solver_lists_pinned_coordinates_as_integers(self, tmp_path):
        # the second column's cells hold no counts: its coefficient is pinned at -250
        schema, counts = write_2x2_inputs(tmp_path, counts=(10, 0, 50, 0))
        out = tmp_path / "out"
        code = run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "a-ips", "--seed", "3", "--out-dir", str(out))
        assert code == 0
        pinned = json.loads((out / "summary.json").read_text())["flags"]["divergent_coordinates"]
        assert pinned == [2] and all(type(j) is int for j in pinned)

    def test_seeded_runs_identical(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run_cli("fit", "--counts", counts, "--schema", schema,
                           "--solver", "a-ips", "--seed", "7", "--out-dir", str(out))
            assert code == 0
            outs.append(out)
        for name in ("beta.csv", "mu.csv", "trace.csv"):
            assert files_equal(outs[0] / name, outs[1] / name), name

    def test_zero_penalty_matches_plain_solver(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        o1, o2 = tmp_path / "p", tmp_path / "l"
        assert run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "ips", "--out-dir", str(o1)) == 0
        assert run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "l1-ips", "--lambda", "0", "--out-dir", str(o2)) == 0
        for name in ("beta.csv", "mu.csv", "trace.csv"):
            assert files_equal(o1 / name, o2 / name), name

    def test_lambda_rejected_for_an_unpenalized_solver(self, tmp_path, capsys):
        dpath, npath = tmp_path / "d.csv", tmp_path / "n.csv"
        dpath.write_text("row,col,value\n0,0,1\n1,0,1\n2,0,1\n3,0,1\n1,1,1\n2,2,1\n3,2,1\n")
        npath.write_text("row,count\n0,3\n1,4\n2,5\n3,2\n")
        inputs = ["--design", str(dpath), "--counts-vec", str(npath)]
        out = tmp_path / "q"
        assert run_cli("fit", *inputs, "--solver", "q-ips", "--lambda", "5",
                       "--out-dir", str(out)) == 1
        assert "lambda" in capsys.readouterr().err
        assert not (out / "beta.csv").exists()
        assert run_cli("fit", *inputs, "--solver", "ridge-q-ips", "--lambda", "5",
                       "--out-dir", str(tmp_path / "r")) == 0

    def test_malformed_counts_reports_line(self, tmp_path, capsys):
        schema, counts = write_2x2_inputs(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("row,col,count\n1,1,10\n1,x,3\n")
        code = run_cli("fit", "--counts", str(bad), "--schema", schema,
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "bad.csv:3" in capsys.readouterr().err

    def test_iteration_cap_gives_exit_3(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        code = run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "ips", "--eps-tol", "1e-14", "--max-iters", "2",
                       "--out-dir", str(tmp_path / "o"))
        assert code == 3

    def test_triplet_design_with_offset(self, tmp_path):
        dpath = tmp_path / "design.csv"
        with open(dpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "value"])
            for i in range(4):
                w.writerow([i, 0, 1])
            w.writerow([1, 1, 1])
            w.writerow([2, 1, 1])
        npath = tmp_path / "n.csv"
        with open(npath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "count"])
            for i, v in enumerate([3.0, 0.0, 5.0, 2.0]):
                w.writerow([i, v])
        qpath = tmp_path / "q.csv"
        with open(qpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "offset"])
            for i, v in enumerate([1.0, 0.0, 1.0, 1.0]):
                w.writerow([i, v])
        out = tmp_path / "o"
        code = run_cli("fit", "--design", str(dpath), "--counts-vec", str(npath),
                       "--offset", str(qpath), "--eps-tol", "1e-10", "--out-dir", str(out))
        assert code == 0
        mu = [float(r["mu"]) for r in read_csv_dict(out / "mu.csv")]
        assert len(mu) == 4
        assert mu[1] == 0.0  # dropped zero-offset row re-expanded as zero

    def test_negative_triplet_index_rejected(self, tmp_path, capsys):
        dpath = tmp_path / "design.csv"
        dpath.write_text("row,col,value\n0,0,1\n1,0,1\n2,0,1\n-1,1,1\n")
        npath = tmp_path / "n.csv"
        npath.write_text("row,count\n0,3\n1,4\n2,5\n")
        code = run_cli("fit", "--design", str(dpath), "--counts-vec", str(npath),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "design.csv:5" in capsys.readouterr().err

    def test_repeated_triplet_entry_rejected(self, tmp_path, capsys):
        dpath = tmp_path / "design.csv"
        dpath.write_text("row,col,value\n0,0,1\n1,0,1\n2,0,1\n1,1,1\n1,1,1\n")
        npath = tmp_path / "n.csv"
        npath.write_text("row,count\n0,3\n1,4\n2,5\n")
        code = run_cli("fit", "--design", str(dpath), "--counts-vec", str(npath),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "entry (1, 1)" in capsys.readouterr().err

    def test_missing_inputs_rejected(self, tmp_path):
        assert run_cli("fit", "--out-dir", str(tmp_path)) == 1

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        schema, counts = write_2x2_inputs(tmp_path)
        assert run_cli("fit", "--counts", counts, "--schema", schema, "--bogus", "1") == 1


class TestRake:
    def write_margins(self, tmp_path, rows, cols):
        rpath = tmp_path / "rows.csv"
        with open(rpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "target"])
            for lev, t in enumerate(rows, start=1):
                w.writerow([lev, t])
        cpath = tmp_path / "cols.csv"
        with open(cpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["col", "target"])
            for lev, t in enumerate(cols, start=1):
                w.writerow([lev, t])
        return str(rpath), str(cpath)

    def write_seed(self, tmp_path, values):
        spath = tmp_path / "seed.csv"
        with open(spath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "value"])
            for (r, c), v in zip([(1, 1), (1, 2), (2, 1), (2, 2)], values):
                w.writerow([r, c, v])
        return str(spath)

    def test_uniform_seed_gives_independence_table(self, tmp_path):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [1, 1, 1, 1])
        rows, cols = self.write_margins(tmp_path, [3, 1], [2, 2])
        out = tmp_path / "o"
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols, "--out-dir", str(out))
        assert code == 0
        adj = [float(r["value"]) for r in read_csv_dict(out / "adjusted.csv")]
        assert np.allclose(adj, [1.5, 1.5, 0.5, 0.5], atol=1e-10)

    def test_seed_margins_are_fixed_point(self, tmp_path):
        schema, _ = write_2x2_inputs(tmp_path)
        table = [4.0, 6.0, 2.0, 8.0]
        seed = self.write_seed(tmp_path, table)
        rows, cols = self.write_margins(tmp_path, [10, 10], [6, 14])
        out = tmp_path / "o"
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols, "--out-dir", str(out))
        assert code == 0
        adj = [float(r["value"]) for r in read_csv_dict(out / "adjusted.csv")]
        assert np.allclose(adj, table, rtol=1e-12)

    def test_inconsistent_totals_exit_3(self, tmp_path, capsys):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [1, 1, 1, 1])
        rows, cols = self.write_margins(tmp_path, [3, 1], [2, 3])  # totals 4 vs 5
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols,
                       "--max-iters", "2000", "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "residual" in capsys.readouterr().err

    def test_structural_zero_seed_cells_stay_zero(self, tmp_path):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [1, 1, 1, 0])
        rows, cols = self.write_margins(tmp_path, [3, 1], [3, 1])
        out = tmp_path / "o"
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols, "--out-dir", str(out))
        assert code == 0
        adj = [float(r["value"]) for r in read_csv_dict(out / "adjusted.csv")]
        assert adj[3] == 0.0

    def test_margin_wiped_out_by_zero_structure_exits_3(self, tmp_path, capsys):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [1, 1, 0, 0])  # row 2 structurally zero
        rows, cols = self.write_margins(tmp_path, [3, 1], [2, 2])
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols,
                       "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "zero structure" in capsys.readouterr().err

    def test_all_zero_seed_exits_3(self, tmp_path, capsys):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [0, 0, 0, 0])
        rows, cols = self.write_margins(tmp_path, [3, 1], [2, 2])
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", rows, "--margin", cols, "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "zero structure" in capsys.readouterr().err

    def test_repeated_margin_exits_1(self, tmp_path, capsys):
        # an input error, even when the seed's zero cells also empty a margin cell
        schema, _ = write_2x2_inputs(tmp_path)
        for values in ([1, 1, 1, 1], [1, 1, 0, 0]):
            seed = self.write_seed(tmp_path, values)
            rows, _ = self.write_margins(tmp_path, [3, 1], [2, 2])
            code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                           "--margin", rows, "--margin", rows, "--out-dir", str(tmp_path / "o"))
            assert code == 1
            assert "duplicate margin subsets" in capsys.readouterr().err

    def test_missing_margin_cell_rejected(self, tmp_path):
        schema, _ = write_2x2_inputs(tmp_path)
        seed = self.write_seed(tmp_path, [1, 1, 1, 1])
        rpath = tmp_path / "rows.csv"
        rpath.write_text("row,target\n1,3\n")  # level 2 missing
        cpath = tmp_path / "cols.csv"
        cpath.write_text("col,target\n1,2\n2,2\n")
        code = run_cli("rake", "--schema", schema, "--seed-table", seed,
                       "--margin", str(rpath), "--margin", str(cpath),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1


# Each file breaks one rule that every keyed CSV (counts, seed table, margin,
# vector) obeys; the command must exit 1 and name the offending line.
BAD_KEYED_INPUTS = {
    "repeated seed cell": ("rake", "seed.csv",
                           "row,col,value\n1,1,1\n1,2,1\n2,1,1\n2,2,1\n2,2,5\n", "seed.csv:6"),
    "margin level 0": ("rake", "rows.csv", "row,target\n0,1\n1,3\n2,1\n", "rows.csv:2"),
    "margin level m+1": ("rake", "rows.csv", "row,target\n1,3\n2,1\n3,0\n", "rows.csv:4"),
    "nan margin target": ("rake", "rows.csv", "row,target\n1,nan\n2,1\n", "rows.csv:2"),
    "inf margin target": ("rake", "rows.csv", "row,target\n1,3\n2,inf\n", "rows.csv:3"),
    "repeated counts-vec row": ("fit-vec", "n.csv", "row,count\n0,3\n1,4\n1,5\n2,5\n", "n.csv:4"),
    "counts level out of range": ("fit", "counts.csv", "row,col,count\n1,1,10\n1,3,20\n",
                                  "counts.csv:3"),
}

GOOD_KEYED_INPUTS = {
    "seed.csv": "row,col,value\n1,1,1\n1,2,1\n2,1,1\n2,2,1\n",
    "rows.csv": "row,target\n1,3\n2,1\n",
    "cols.csv": "col,target\n1,2\n2,2\n",
    "design.csv": "row,col,value\n0,0,1\n1,0,1\n2,0,1\n",
    "n.csv": "row,count\n0,3\n1,4\n2,5\n",
}


@pytest.mark.parametrize("case", sorted(BAD_KEYED_INPUTS))
def test_bad_keyed_input_rejected_with_line(tmp_path, capsys, case):
    command, name, text, where = BAD_KEYED_INPUTS[case]
    schema, counts = write_2x2_inputs(tmp_path)
    for fname, good in GOOD_KEYED_INPUTS.items():
        (tmp_path / fname).write_text(good)
    (tmp_path / name).write_text(text)
    argv = {
        "rake": ["rake", "--schema", schema, "--seed-table", "seed.csv",
                 "--margin", "rows.csv", "--margin", "cols.csv"],
        "fit": ["fit", "--counts", counts, "--schema", schema],
        "fit-vec": ["fit", "--design", "design.csv", "--counts-vec", "n.csv"],
    }[command]
    argv = [str(tmp_path / a) if a in GOOD_KEYED_INPUTS else a for a in argv]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 1
    assert where in capsys.readouterr().err


# Input files that cannot be opened, decoded or parsed: each is an input
# error naming the file, never an internal error.
UNREADABLE_INPUTS = {
    "missing schema": ("fit-schema", "nope.json", None),
    "malformed schema": ("fit-schema", "bad.json", b"{bad"),
    "missing design": ("fit-design", "nope.csv", None),
    "non-UTF-8 design": ("fit-design", "bad.csv", b"row,col,value\n0,0,\xff\n"),
    "missing spec": ("bench", "nope.json", None),
    "malformed spec": ("bench", "bad.json", b"{bad"),
    "missing rake schema": ("rake", "nope.json", None),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_exits_1_naming_the_file(tmp_path, capsys, case):
    command, name, content = UNREADABLE_INPUTS[case]
    _, counts = write_2x2_inputs(tmp_path)
    for fname, good in GOOD_KEYED_INPUTS.items():
        (tmp_path / fname).write_text(good)
    bad = tmp_path / name
    if content is not None:
        bad.write_bytes(content)
    argv = {
        "fit-schema": ["fit", "--counts", counts, "--schema", str(bad)],
        "fit-design": ["fit", "--design", str(bad), "--counts-vec", str(tmp_path / "n.csv")],
        "bench": ["bench", "--spec", str(bad)],
        "rake": ["rake", "--schema", str(bad), "--seed-table", str(tmp_path / "seed.csv"),
                 "--margin", str(tmp_path / "rows.csv")],
    }[command]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "internal error" not in err


# Keyed CSVs holding bytes that are not UTF-8: an input error naming the
# file and the line of the first bad byte, however far the decoder read ahead.
NON_UTF8_KEYED_INPUTS = {
    "grouped counts": ("fit", "counts.csv",
                       b"row,col,count\n1,1,10\n1,2,\xff\n2,1,50\n2,2,20\n", "counts.csv:3"),
    "seed table": ("rake", "seed.csv", b"row,col,value\n1,1,1\n1,2,1\n2,1,1\n2,2,\xfe1\n",
                   "seed.csv:5"),
    "margin header": ("rake", "rows.csv", b"r\xffow,target\n1,3\n2,1\n", "rows.csv:1"),
    "count vector": ("fit-vec", "n.csv", b"row,count\n0,3\n1,4\n2,5\xc3\n", "n.csv:4"),
    # a valid U+FFFD (EF BF BD) on an earlier line is not the bad byte
    "replacement character first": ("rake", "cols.csv",
                                    b"col,target\n1,\xef\xbf\xbd2\n2,\xff2\n", "cols.csv:3"),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_KEYED_INPUTS))
def test_non_utf8_keyed_input_exits_1_naming_the_line(tmp_path, capsys, case):
    command, name, content, where = NON_UTF8_KEYED_INPUTS[case]
    schema, counts = write_2x2_inputs(tmp_path)
    for fname, good in GOOD_KEYED_INPUTS.items():
        (tmp_path / fname).write_text(good)
    (tmp_path / name).write_bytes(content)
    argv = {
        "rake": ["rake", "--schema", schema, "--seed-table", "seed.csv",
                 "--margin", "rows.csv", "--margin", "cols.csv"],
        "fit": ["fit", "--counts", counts, "--schema", schema],
        "fit-vec": ["fit", "--design", "design.csv", "--counts-vec", "n.csv"],
    }[command]
    argv = [str(tmp_path / a) if a in GOOD_KEYED_INPUTS else a for a in argv]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert where in err and "internal error" not in err


# Well-formed JSON of the wrong shape is an input error, never an internal one.
WRONG_SHAPE_JSON = {
    "spec is a list": ("bench", b"[1]"),
    "spec seed is text": ("bench", b'{"scenario": "general", "seed": "x"}'),
    "spec replications is null": ("bench", b'{"scenario": "general", "replications": null}'),
    "spec replications is fractional": ("bench", b'{"scenario": "general", "replications": 2.5}'),
    "spec seed is fractional": ("bench", b'{"scenario": "general", "seed": 1.5}'),
    "spec max_iters is true": ("bench", b'{"scenario": "general", "max_iters": true}'),
    "schema is a list": ("fit", b"[1]"),
    "schema levels is text": ("fit", b'{"factors": [{"name": "row", "levels": "x"}]}'),
    "schema factors is a number": ("fit", b'{"factors": 5}'),
    "schema order is text": ("fit", b'{"factors": [{"name": "row", "levels": 2}], "order": "x"}'),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPE_JSON))
def test_wrong_shape_json_exits_1(tmp_path, capsys, case):
    command, content = WRONG_SHAPE_JSON[case]
    _, counts = write_2x2_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {"bench": ["bench", "--spec", str(bad)],
            "fit": ["fit", "--counts", counts, "--schema", str(bad)]}[command]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 1
    assert "internal error" not in capsys.readouterr().err


class TestPath:
    def test_path_outputs(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        out = tmp_path / "o"
        code = run_cli("path", "--counts", counts, "--schema", schema,
                       "--grid-size", "10", "--out-dir", str(out))
        assert code == 0
        rows = read_csv_dict(out / "path.csv")
        assert len(rows) == 10
        assert [r["lambda"] for r in rows] == sorted(
            (r["lambda"] for r in rows), key=float, reverse=True)
        assert int(rows[0]["support_size"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == 1

    def test_small_penalty_deviance_matches_fit(self, tmp_path):
        schema, counts = write_2x2_inputs(tmp_path)
        o1, o2 = tmp_path / "f", tmp_path / "p"
        assert run_cli("fit", "--counts", counts, "--schema", schema,
                       "--solver", "ips", "--eps-tol", "1e-10", "--out-dir", str(o1)) == 0
        assert run_cli("path", "--counts", counts, "--schema", schema,
                       "--grid-size", "8", "--min-ratio", "1e-8",
                       "--eps-tol", "1e-10", "--out-dir", str(o2)) == 0
        fit_summary = json.loads((o1 / "summary.json").read_text())
        path_rows = read_csv_dict(o2 / "path.csv")
        assert float(path_rows[-1]["deviance"]) == pytest.approx(
            fit_summary["g_squared"], abs=1e-6)


class TestBenchAndGen:
    def test_bench_writes_roster_traces(self, tmp_path):
        out = tmp_path / "b"
        code = run_cli("bench", "nonneg-small", "--scale", "0.15",
                       "--replications", "2", "--roster", "gis,q-ips",
                       "--seed", "3", "--out-dir", str(out))
        assert code == 0
        names = sorted(os.listdir(out))
        assert "trace_gis.csv" in names and "trace_q_ips.csv" in names
        assert "summary.csv" in names
        rows = read_csv_dict(out / "trace_gis.csv")
        assert float(rows[0]["rel_grad"]) == 1.0
        assert "est_err" in rows[0]

    def test_bench_deterministic(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            assert run_cli("bench", "nonneg-small", "--scale", "0.15",
                           "--replications", "2", "--roster", "gis",
                           "--seed", "3", "--out-dir", str(out)) == 0
            outs.append(out)
        assert files_equal(outs[0] / "trace_gis.csv", outs[1] / "trace_gis.csv")
        assert files_equal(outs[0] / "summary.csv", outs[1] / "summary.csv")

    def test_unknown_scenario_lists_names(self, tmp_path, capsys):
        code = run_cli("bench", "nope", "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "table-moderate" in err

    def test_gen_deterministic(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            assert run_cli("gen", "general", "--n", "60", "--p", "6",
                           "--seed", "1", "--out-dir", str(out)) == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            assert files_equal(outs[0] / name, outs[1] / name), name

    def test_gen_writes_instance_files(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("gen", "table-moderate", "--scale", "0.2", "--seed", "2",
                       "--out-dir", str(out)) == 0
        names = sorted(os.listdir(out))
        assert any(n.endswith("_design.csv") for n in names)
        assert any(n.endswith("_counts.csv") for n in names)
        assert any(n.endswith("_beta_true.csv") for n in names)
