"""The four workloads: inputs, timed rounds, output checks and traced replay.

Each workload's inputs come from the harness scenario's design and true
coefficients at a fixed structure seed, with the Poisson counts drawn from
the benchmark seed.  Time to tolerance varies up to fourfold between
coefficient draws (ips on the 0.7-scale table: 1223 to 6359 sweeps over six
draws), which no run length averages out; redrawing only the counts keeps
every seed the same problem family.  The program receives only the
generated inputs: solvers run with their default seed.

A round runs every operation of the workload once.  An operation is one
CLI command, or one ``solve`` call, together with the check of its output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

EPS_TOL = 1e-4
STRUCTURE_SEED = 0
PATH_GRID = 5
PATH_EPS = 1e-8            # the path command's own default tolerance
DENSE_SHAPE = (5000, 251)  # general scenario; 250 slopes give b-ips two blocks
RAKE_FACTORS, RAKE_LEVELS = 6, 7
RAKE_SEED_ZEROS = 0.02
BLOCK = 200



def child_env() -> dict:
    """The program's environment: sources from this checkout, BLAS threads as set by run.py."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=stream))


@dataclass
class Op:
    name: str
    wall: float
    cpu: float
    rss_mb: float
    failed: bool
    errors: list = field(default_factory=list)
    out_dir: Path | None = None
    beta: np.ndarray | None = None


def run_program(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one program process to its end: (exit code, wall s, CPU s, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_cli(name: str, args: list[str], work: Path) -> Op:
    out = work / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    code, wall, cpu, rss = run_program(
        [sys.executable, "-m", "ipscale.cli", *args, "--out-dir", str(out)], work / f"{name}.log")
    errors = [] if code == 0 else [f"{name}: exit code {code}: "
                                   + (work / f"{name}.log").read_text()[-400:]]
    return Op(name, wall, cpu, rss, failed=code != 0, errors=errors, out_dir=out)


def per_call_us(tracer, name: str, fn, min_seconds=0.05, batches=3) -> float:
    """Median over batches of the mean per-call time, in microseconds."""
    fn()
    vals = []
    for _ in range(batches):
        n, t0 = 0, time.perf_counter()
        with tracer.span(name):
            while n < 3 or time.perf_counter() - t0 < min_seconds:
                fn()
                n += 1
        vals.append((time.perf_counter() - t0) / n * 1e6)
    return float(np.median(vals))


# -- shared replay pieces -----------------------------------------------------------


def solver_calls(tracer, inst, variants, eps_tol) -> dict:
    """Time each solve to its end and with max_iters=1; record its counts."""
    from ipscale import SolverConfig, solve

    fits = {}
    for v in variants:
        with tracer.span("solvers.first_iter", variant=v):
            solve(inst, SolverConfig(variant=v, eps_tol=eps_tol, max_iters=1))
        with tracer.span("solvers.solve", variant=v) as attrs:
            res = solve(inst, SolverConfig(variant=v, eps_tol=eps_tol))
            attrs.update(iters=res.trace.final().iteration,
                         work_s=res.trace.final().work_seconds,
                         divergent_coords=len(res.flags["divergent_coordinates"]))
            # only b-ips counts line-search failures and only q-ips restarts
            attrs.update({c: res.flags[c] for c in ("line_search_failures", "momentum_restarts")
                          if c in res.flags})
        fits[v] = res
    return fits


def solver_metrics(tracer, metrics: dict) -> None:
    """Per-variant and whole-layer solver metrics from the recorded spans."""
    solves = tracer.find("solvers.solve")
    firsts: dict[str, list[float]] = {}
    for s in tracer.find("solvers.first_iter"):
        firsts.setdefault(s["attrs"]["variant"], []).append(s["end"] - s["start"])
    firsts = {v: float(np.mean(t)) for v, t in firsts.items()}
    agg = {"fit_s": 0.0, "iters": 0, "work_s": 0.0,
           "line_search_failures": 0, "momentum_restarts": 0, "divergent_coords": 0}
    for s in solves:
        a, v, wall = s["attrs"], s["attrs"]["variant"], s["end"] - s["start"]
        key = f"solvers.{v}"
        metrics[f"{key}.fit_s"] = metrics.get(f"{key}.fit_s", 0.0) + wall
        metrics[f"{key}.iters"] = metrics.get(f"{key}.iters", 0) + a["iters"]
        metrics[f"{key}.work_s"] = metrics.get(f"{key}.work_s", 0.0) + a["work_s"]
        metrics[f"{key}.first_iter_s"] = firsts[v]
        for c in ("line_search_failures", "momentum_restarts", "divergent_coords"):
            if c in a:
                metrics[f"{key}.{c}"] = metrics.get(f"{key}.{c}", 0) + a[c]
                agg[c] += a[c]
        agg["fit_s"] += wall
        agg["iters"] += a["iters"]
        agg["work_s"] += a["work_s"]
    agg["first_iter_s"] = sum(firsts.values())
    for v in {s["attrs"]["variant"] for s in solves}:
        key = f"solvers.{v}"
        metrics[f"{key}.s_per_iter"] = metrics[f"{key}.fit_s"] / max(metrics[f"{key}.iters"], 1)
        metrics[f"{key}.wall_per_work"] = metrics[f"{key}.fit_s"] / metrics[f"{key}.work_s"]
    for k, v in agg.items():
        metrics[f"solvers.{k}"] = v
    metrics["solvers.s_per_iter"] = agg["fit_s"] / max(agg["iters"], 1)
    metrics["solvers.wall_per_work"] = agg["fit_s"] / agg["work_s"]


def layer_micro(tracer, inst, beta, metrics: dict) -> None:
    """Per-call costs of the design and model primitives on this workload's instance."""
    from ipscale import Coefficients, bohning_bound, gradient, reparam_gradient, reparam_objective

    X = inst.design
    b, slope = np.asarray(beta), np.asarray(beta[1:])
    v = np.ones(X.n_rows)
    cols = np.arange(1, 1 + min(BLOCK, X.n_cols - 1))
    w = inst.offset / inst.offset.sum()
    metrics["design.matvec_us"] = per_call_us(tracer, "design.matvec", lambda: X.matvec(b))
    metrics["design.rmatvec_us"] = per_call_us(tracer, "design.rmatvec", lambda: X.rmatvec(v))
    metrics["design.slope_matvec_us"] = per_call_us(
        tracer, "design.slope_matvec", lambda: X.slope_matvec(slope))
    metrics["design.slope_rmatvec_us"] = per_call_us(
        tracer, "design.slope_rmatvec", lambda: X.slope_rmatvec(v))
    metrics["design.submatrix_us"] = per_call_us(tracer, "design.submatrix", lambda: X.submatrix(cols))
    metrics["design.weighted_gram_ms"] = per_call_us(
        tracer, "design.weighted_gram", lambda: X.weighted_gram(w)) / 1e3
    c = Coefficients.from_beta(inst, b)
    metrics["model.gradient_us"] = per_call_us(tracer, "model.gradient", lambda: gradient(inst, c))
    metrics["model.reparam_gradient_us"] = per_call_us(
        tracer, "model.reparam_gradient", lambda: reparam_gradient(inst, slope))
    metrics["model.reparam_objective_us"] = per_call_us(
        tracer, "model.reparam_objective", lambda: reparam_objective(inst, slope))
    with tracer.span("model.bohning_bound"):
        bohning_bound(inst)
    metrics["model.bohning_bound_s"] = tracer.seconds("model.bohning_bound")


def pos_neg_parts(tracer, X, metrics) -> None:
    """First (uncached) split of a design into dense positive and negative parts."""
    with tracer.span("design.pos_neg_parts"):
        X.pos_neg_parts()
    metrics["design.pos_neg_parts_s"] = tracer.seconds("design.pos_neg_parts")


def gen_instance(tracer, spec):
    from ipscale import harness

    with tracer.span("harness.gen_instance"):
        return harness.gen_instance(spec)


def resample_counts(base, seed: int, stream: int) -> np.ndarray:
    mu_star = np.exp(base.design.matvec(base.beta_true))
    return _rng(seed, stream).poisson(mu_star).astype(np.float64)


def output_mb(dirs) -> float:
    return sum(f.stat().st_size for d in dirs for f in Path(d).iterdir()) / 1e6


# -- table workloads -------------------------------------------------------------------


class CliWorkload:
    """A workload whose operations are ``ipscale`` CLI commands."""

    def command(self, op_name: str) -> str:
        """The command an operation runs, as named in the cli.cmd_s metrics."""
        return op_name

    def run_round(self, work: Path, inp, tracer=None) -> list[Op]:
        ops = []
        for name, args in self.commands(work, inp):
            with tracer.operation(name) if tracer else nullcontext():
                ops.append(run_cli(name, args, work))
        return ops


def _table_schema():
    from ipscale import TableSchema

    # the harness's full-scale moderate table: 10^4 cells, 523 columns
    return TableSchema(factors=tuple((f"f{k + 1}", 10) for k in range(4)), interaction_order=2)


def _table_base(tracer, scenario):
    from ipscale import harness

    return gen_instance(tracer, harness.ExperimentSpec(scenario, seed=STRUCTURE_SEED))


def _write_grouped_counts(path, names, cells, counts):
    np.savetxt(path, np.column_stack([cells, counts]), delimiter=",",
               fmt=["%d"] * len(names) + ["%.17g"], header=",".join(names + ["count"]),
               comments="")


def _read_grouped_counts(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :-1].astype(np.int64), data[:, -1]


class TableCD(CliWorkload):
    """Grouped counts plus a schema through ``ipscale fit`` (ips, a-ips) and
    ``ipscale path``: the per-coordinate closed-form loop does the work."""

    name = "table-cd"

    def setup(self, work: Path, seed: int, tracer) -> dict:
        schema = _table_schema()
        names = [n for n, _ in schema.factors]
        cells = checks.table_cells(tuple(m for _, m in schema.factors))
        schema.save(work / "schema.json")
        inp = {"schema": work / "schema.json", "names": names, "cells": cells,
               "levels": tuple(m for _, m in schema.factors)}
        for key, scenario, stream in (("fit", "table-moderate", 1), ("path", "l1-path", 2)):
            base = _table_base(tracer, scenario)
            counts = resample_counts(base, seed, stream)
            _write_grouped_counts(work / f"{key}_counts.csv", names, cells, counts)
            inp[f"{key}_counts"] = counts
        return inp

    def reference(self, inp) -> dict:
        labels = checks.table_labels(inp["names"], inp["levels"], 2)
        X = checks.design_from_labels(labels, inp["names"], inp["cells"])
        return {"labels": labels, "X": X, "fit": checks.reference(X, inp["fit_counts"])}

    def commands(self, work, inp) -> list[tuple[str, list[str]]]:
        base = ["--schema", str(inp["schema"])]
        fit = ["fit", "--counts", str(work / "fit_counts.csv"), *base, "--eps-tol", str(EPS_TOL)]
        return [
            ("fit-ips", [*fit, "--solver", "ips"]),
            ("fit-a-ips", [*fit, "--solver", "a-ips"]),
            ("path", ["path", "--counts", str(work / "path_counts.csv"), *base,
                      "--grid-size", str(PATH_GRID), "--eps-tol", str(PATH_EPS)]),
        ]

    def check(self, op: Op, inp, ref) -> list[str]:
        if op.name == "path":
            rows, selected, lam = checks.read_path(op.out_dir)
            return checks.check_path(ref["X"], ref["labels"], inp["path_counts"], rows,
                                     selected, lam, eps_tol=PATH_EPS)
        return check_cli_fit(op, ref["X"], inp["fit_counts"], ref["fit"], ref["labels"])

    def replay(self, work, inp, tracer, metrics) -> None:
        from ipscale import ProblemInstance, TableSchema, harness
        from ipscale.design import build_design_for_cells

        for op, args in self.commands(work, inp):
            counts_path = args[args.index("--counts") + 1]
            with tracer.operation(op):
                schema = TableSchema.load(inp["schema"])
                levels, counts = _read_grouped_counts(counts_path)
                with tracer.span("design.build_design_for_cells"):
                    X, _ = build_design_for_cells(schema, levels)
                with tracer.span("model.from_counts"):
                    inst = ProblemInstance.from_counts(X, counts)
                if op == "path":
                    with tracer.span("harness.l1_path"):
                        harness.l1_path(inst, grid_size=PATH_GRID, eps_tol=PATH_EPS)
                else:
                    variant = args[args.index("--solver") + 1]
                    fits = solver_calls(tracer, inst, [variant], EPS_TOL)
                    fit_inst = inst
        metrics["harness.l1_path_s"] = tracer.seconds("harness.l1_path")
        metrics["harness.l1_path.s_per_point"] = metrics["harness.l1_path_s"] / PATH_GRID
        metrics["design.build_s"] = tracer.seconds("design.build_design_for_cells")
        metrics["model.instance_s"] = tracer.seconds("model.from_counts")
        layer_micro(tracer, fit_inst, fits[variant].beta, metrics)
        pos_neg_parts(tracer, fit_inst.design, metrics)


class TableProfiled(CliWorkload):
    """The same table as a triplet CSV plus a count vector through
    ``ipscale fit`` with the intercept-profiled b-ips and q-ips.

    b-ips fits three count draws from the seed.  q-ips fits the scenario's
    own counts (structure seed 0): its sweep count to 1e-4 jumps between
    modes from one draw to the next (1511, 1625, 2033 and 2837 sweeps seen),
    which would make this workload's time a lottery over draws.
    """

    name = "table-profiled"
    fits = (("b-ips", "0"), ("b-ips", "1"), ("b-ips", "2"), ("q-ips", "scenario"))
    draws = tuple(dict.fromkeys(d for _, d in fits))

    def setup(self, work: Path, seed: int, tracer) -> dict:
        from ipscale import write_triplet_csv

        base = _table_base(tracer, "table-moderate")
        # the draws share the design, so it is written once
        inp = {"design": work / "table_design.csv"}
        write_triplet_csv(base.design, inp["design"])
        for draw in self.draws:
            counts = base.counts if draw == "scenario" else resample_counts(base, seed, 10 + int(draw))
            path = work / f"table{draw}_counts.csv"
            np.savetxt(path, np.column_stack([np.arange(counts.size), counts]), delimiter=",",
                       fmt=["%d", "%.17g"], header="row,count", comments="")
            inp[draw] = {"counts_vec": path, "counts": counts}
        return inp

    def reference(self, inp) -> dict:
        t = np.loadtxt(inp["design"], delimiter=",", skiprows=1)
        X = sp.csc_array((t[:, 2], (t[:, 0].astype(np.int64), t[:, 1].astype(np.int64))))
        return {"X": X, "fit": {d: checks.reference(X, inp[d]["counts"]) for d in self.draws}}

    def commands(self, work, inp):
        return [(f"fit-{v}-{d}", ["fit", "--design", str(inp["design"]), "--counts-vec",
                                  str(inp[d]["counts_vec"]), "--eps-tol", str(EPS_TOL),
                                  "--solver", v])
                for v, d in self.fits]

    def command(self, op_name: str) -> str:
        return op_name.rsplit("-", 1)[0]

    def check(self, op, inp, ref):
        d = op.name.rsplit("-", 1)[1]
        return check_cli_fit(op, ref["X"], inp[d]["counts"], ref["fit"][d], None)

    def replay(self, work, inp, tracer, metrics) -> None:
        from ipscale import ProblemInstance, read_triplet_csv

        for op, args in self.commands(work, inp):
            d = op.rsplit("-", 1)[1]
            with tracer.operation(op):
                with tracer.span("design.read_triplet_csv"):
                    X = read_triplet_csv(inp["design"])
                counts = np.loadtxt(inp[d]["counts_vec"], delimiter=",", skiprows=1, ndmin=2)[:, 1]
                with tracer.span("model.from_counts"):
                    inst = ProblemInstance.from_counts(X, counts)
                variant = args[args.index("--solver") + 1]
                fits = solver_calls(tracer, inst, [variant], EPS_TOL)
        n_reads = len(tracer.find("design.read_triplet_csv"))
        metrics["design.read_triplet_s"] = tracer.seconds("design.read_triplet_csv") / n_reads
        tracemalloc.start()
        read_triplet_csv(inp["design"])
        metrics["design.read_triplet_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        metrics["design.build_s"] = tracer.seconds("design.read_triplet_csv")
        metrics["model.instance_s"] = tracer.seconds("model.from_counts")
        layer_micro(tracer, inst, fits[variant].beta, metrics)
        pos_neg_parts(tracer, X, metrics)


def check_cli_fit(op: Op, X, counts, ref, labels) -> list[str]:
    summary = json.loads((op.out_dir / "summary.json").read_text())
    got_labels, beta = checks.read_beta_csv(op.out_dir / "beta.csv")
    errs = []
    if summary["termination"] != "tol_reached":
        errs.append(f"{op.name}: termination {summary['termination']}")
    if labels is not None and got_labels != labels:
        errs.append(f"{op.name}: beta.csv columns differ from the schema's model columns")
    return errs + checks.check_fit(X, counts, beta, summary["variant"], EPS_TOL, ref)


# -- dense general design ----------------------------------------------------------------


class DenseGeneral:
    """The signed dense Gaussian design through ``ipscale.solve`` with
    mm-general, b-ips and q-ips; no CSC code and no coordinate loop run."""

    name = "dense-general"
    variants = ("mm-general", "b-ips", "q-ips")

    def setup(self, work: Path, seed: int, tracer) -> dict:
        from ipscale import harness

        base = gen_instance(tracer, harness.ExperimentSpec(
            "general", n_rows=DENSE_SHAPE[0], n_cols=DENSE_SHAPE[1], seed=STRUCTURE_SEED))
        counts = resample_counts(base, seed, 3)
        np.savez(work / "dense.npz", X=base.design.dense, counts=counts)
        return {"npz": work / "dense.npz", "X": base.design.dense, "counts": counts}

    def reference(self, inp) -> dict:
        return {"fit": checks.reference(inp["X"], inp["counts"])}

    def run_round(self, work: Path, inp, tracer=None) -> list[Op]:
        out = work / "solve.npz"
        with tracer.operation("worker") if tracer else nullcontext():
            code, _, _, rss = run_program(
                [sys.executable, str(HERE / "solve_worker.py"), str(inp["npz"]), str(out),
                 str(EPS_TOL), *self.variants], work / "worker.log")
        if code != 0:
            err = (work / "worker.log").read_text()[-400:]
            return [Op(v, 0.0, 0.0, rss, True, [f"{v}: worker exit {code}: {err}"])
                    for v in self.variants]
        report = json.loads((work / "worker.log").read_text().strip().splitlines()[-1])
        betas = np.load(out)
        ops = []
        for i, call in enumerate(report["calls"]):
            # instance construction is charged to the first call
            wall = call["wall"] + (report["build"][0] if i == 0 else 0.0)
            cpu = call["cpu"] + (report["build"][1] if i == 0 else 0.0)
            errs = [] if call["termination"] == "tol_reached" else [
                f"{call['variant']}: termination {call['termination']}"]
            ops.append(Op(call["variant"], wall, cpu, rss, False, errs, beta=betas[call["variant"]]))
        return ops

    def check(self, op, inp, ref):
        return op.errors + checks.check_fit(inp["X"], inp["counts"], op.beta, op.name,
                                            EPS_TOL, ref["fit"])

    def replay(self, work, inp, tracer, metrics) -> None:
        from ipscale import DesignMatrix, ProblemInstance

        with tracer.operation("solve"):
            with tracer.span("design.from_dense"):
                X = DesignMatrix.from_dense(inp["X"])
            with tracer.span("model.from_counts"):
                inst = ProblemInstance.from_counts(X, inp["counts"])
            fits = solver_calls(tracer, inst, self.variants, EPS_TOL)
        metrics["design.build_s"] = tracer.seconds("design.from_dense")
        metrics["model.instance_s"] = tracer.seconds("model.from_counts")
        layer_micro(tracer, inst, fits["q-ips"].beta, metrics)
        pos_neg_parts(tracer, DesignMatrix.from_dense(inp["X"]), metrics)


# -- raking ----------------------------------------------------------------------------------


class RakeLarge(CliWorkload):
    """``ipscale rake`` of a six-factor seed table to its 15 two-way margins:
    CSV parsing, cell-index conversion, design build and output writing."""

    name = "rake-large"

    def setup(self, work: Path, seed: int, tracer) -> dict:
        from ipscale import TableSchema

        shape = (RAKE_LEVELS,) * RAKE_FACTORS
        names = [f"f{k + 1}" for k in range(RAKE_FACTORS)]
        schema = TableSchema(factors=tuple((n, RAKE_LEVELS) for n in names), interaction_order=1)
        schema.save(work / "schema.json")
        rng = _rng(seed, 4)
        seed_table = rng.gamma(2.0, 1.0, shape)
        seed_table[rng.random(shape) < RAKE_SEED_ZEROS] = 0.0
        # targets are the margins of an independent positive table, so they agree
        source = rng.gamma(2.0, 1.0, shape)
        cells = checks.table_cells(shape)
        keep = seed_table.ravel() > 0
        np.savetxt(work / "seed.csv", np.column_stack([cells[keep], seed_table.ravel()[keep]]),
                   delimiter=",", fmt=["%d"] * RAKE_FACTORS + ["%.17g"],
                   header=",".join(names + ["value"]), comments="")
        margins, paths = {}, []
        grid = checks.table_cells((RAKE_LEVELS, RAKE_LEVELS))
        for j in range(RAKE_FACTORS):
            for k in range(j + 1, RAKE_FACTORS):
                other = tuple(a for a in range(RAKE_FACTORS) if a not in (j, k))
                target = source.sum(axis=other)
                margins[(j, k)] = target
                path = work / f"margin_{j + 1}_{k + 1}.csv"
                np.savetxt(path, np.column_stack([grid, target.ravel()]), delimiter=",",
                           fmt=["%d", "%d", "%.17g"], header=f"{names[j]},{names[k]},target",
                           comments="")
                paths.append(path)
        return {"schema": work / "schema.json", "seed_csv": work / "seed.csv", "margin_paths": paths,
                "seed_table": seed_table, "margins": margins, "shape": shape}

    def reference(self, inp) -> dict:
        return {"table": checks.ipf(inp["seed_table"], inp["margins"])}

    def commands(self, work, inp):
        args = ["rake", "--schema", str(inp["schema"]), "--seed-table", str(inp["seed_csv"])]
        for p in inp["margin_paths"]:
            args += ["--margin", str(p)]
        return [("rake", args)]

    def check(self, op, inp, ref):
        adjusted = checks.read_adjusted(op.out_dir / "adjusted.csv", inp["shape"])
        return checks.check_rake(adjusted, inp["seed_table"], inp["margins"], ref["table"])

    def replay(self, work, inp, tracer, metrics) -> None:
        from ipscale import ProblemInstance, TableSchema, build_raking_design

        with tracer.operation("rake"):
            schema = TableSchema.load(inp["schema"])
            data = np.loadtxt(inp["seed_csv"], delimiter=",", skiprows=1)
            offset = np.zeros(schema.n_cells)
            with tracer.span("design.cell_index"):
                for rec in data:
                    offset[schema.cell_index(rec[:-1])] = rec[-1]
            subsets = [(j, k) for j in range(RAKE_FACTORS) for k in range(j + 1, RAKE_FACTORS)]
            with tracer.span("design.build_raking_design"):
                X = build_raking_design(schema, subsets)
            s = np.concatenate([[inp["margins"][subsets[0]].sum()],
                                *[inp["margins"][sub].ravel() for sub in subsets]])
            with tracer.span("model.from_suff_stats"):
                inst = ProblemInstance.from_suff_stats(X, s, offset=offset)
            fits = solver_calls(tracer, inst, ["ips"], 1e-10)
            with tracer.span("design.cell_levels"):
                for i in range(schema.n_cells):
                    schema.cell_levels(i)
        metrics["design.cell_index_s"] = tracer.seconds("design.cell_index")
        metrics["design.cell_levels_s"] = tracer.seconds("design.cell_levels")
        metrics["design.build_s"] = tracer.seconds("design.build_raking_design")
        metrics["model.instance_s"] = tracer.seconds("model.from_suff_stats")
        layer_micro(tracer, inst, fits["ips"].beta, metrics)


WORKLOADS = {w.name: w for w in (TableCD(), TableProfiled(), DenseGeneral(), RakeLarge())}
