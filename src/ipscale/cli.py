"""Command-line front end: fit, rake, path, bench, gen.

Exit codes form a stable scripting contract: 0 success, 1 input error,
2 internal error, 3 non-convergence or infeasible targets.

All CSV outputs carry a header row and serialize numbers with 17
significant digits so round-trips are lossless.  Trace and report files
use the deterministic work clock, so identical seeds give byte-identical
files; measured wall time lives in ``summary.json``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness, model as mdl
from ._io import read_csv_columns, read_csv_header, record_line, write_csv, write_json
from .design import (
    DesignError,
    EmptyColumnError,
    TableSchema,
    build_design_for_cells,
    build_raking_design,
    read_triplet_csv,
)
from .harness import HarnessError
from .model import ModelError, ProblemInstance
from .solvers import (
    DIVERGED,
    TOL_REACHED,
    FitResult,
    SolverConfig,
    SolverError,
    _VARIANTS,
    solve,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_NOT_CONVERGED = 3


class InputError(ValueError):
    """Malformed input file or inconsistent command-line request."""


# -- input readers ------------------------------------------------------------


def _key_text(names, levels) -> str:
    return ", ".join(f"{n}={int(v)}" for n, v in zip(names, levels))


def _read_keyed_csv(path, keys, value_name: str, base: int):
    """Records keyed by integer columns, each with one value.

    ``keys`` lists ``(column, n_levels)`` pairs; a key column holds levels
    ``base .. base + n_levels - 1``.  Returns the key levels (one row per
    record), the values and each record's row-major flat index over the
    keys, all in file order.  Every key must be in range and listed at most
    once, and every value must be finite and non-negative.
    """
    names = [n for n, _ in keys]
    header = read_csv_header(path, InputError)
    try:
        cols = [header.index(n) for n in names]
        val_col = header.index(value_name)
    except ValueError as exc:
        raise InputError(
            f"{path}:1: header must contain {names + [value_name]}: {exc}") from exc
    key_cols, (values,) = read_csv_columns(path, InputError, cols, [val_col])
    if not len(values):
        raise InputError(f"{path}: no data rows")
    levels = np.column_stack(key_cols)
    flat = np.zeros(len(values), dtype=np.int64)
    for k, (name, m) in enumerate(keys):
        outside = np.flatnonzero((levels[:, k] < base) | (levels[:, k] >= base + m))
        if outside.size:
            i = outside[0]
            raise InputError(f"{path}:{record_line(path, i)}: {name} level "
                             f"{levels[i, k]} out of range {base}..{base + m - 1}")
        flat = flat * m + (levels[:, k] - base)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        first = np.flatnonzero(flat == flat[i])[0]
        raise InputError(f"{path}:{record_line(path, i)}: {_key_text(names, levels[i])} "
                         f"repeats line {record_line(path, first)}")
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        i = bad[0]
        raise InputError(f"{path}:{record_line(path, i)}: {value_name} {values[i]} "
                         "must be finite and non-negative")
    return levels, values, flat


def _read_complete_csv(path, keys, value_name: str, base: int):
    """A keyed CSV that must list every key: its values in file order, and
    in row-major key order."""
    _, values, flat = _read_keyed_csv(path, keys, value_name, base)
    sizes = [m for _, m in keys]
    n_keys = int(np.prod(sizes))
    if len(flat) != n_keys:
        missing = np.setdiff1d(np.arange(n_keys), flat)[0]
        key = np.array(np.unravel_index(missing, sizes)) + base
        raise InputError(f"{path}: no record for {_key_text([n for n, _ in keys], key)}")
    dense = np.empty(n_keys)
    dense[flat] = values
    return values, dense


def _read_margin_csv(path, schema: TableSchema) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Margin targets: header = subset factor names + 'target'.

    Returns the subset, its targets over its cells in row-major order, and
    their total summed in file order.
    """
    header = read_csv_header(path, InputError)  # the header names the subset
    subset_names = [h for h in header if h != "target"]
    index = {n: k for k, (n, _) in enumerate(schema.factors)}
    if "target" not in header:
        raise InputError(f"{path}:1: header needs a 'target' column")
    if not subset_names:
        raise InputError(f"{path}:1: header needs at least one factor column")
    for h in subset_names:
        if h not in index:
            raise InputError(f"{path}:1: unknown factor {h!r}")
    subset = tuple(sorted(index[h] for h in subset_names))
    values, targets = _read_complete_csv(path, [schema.factors[k] for k in subset], "target", 1)
    return subset, targets, sum(values.tolist())


# -- output writers -----------------------------------------------------------


def _write_trace_csv(path, res: FitResult) -> None:
    records = res.trace.records
    columns = {
        "iteration": np.array([r.iteration for r in records], dtype=np.int64),
        "time_s": np.array([r.work_seconds for r in records], dtype=np.float64),
        "objective": np.array([r.objective for r in records], dtype=np.float64),
        "rel_gradient": np.array([r.rel_gradient for r in records], dtype=np.float64),
    }
    if records[0].est_error is not None:
        columns["est_error"] = np.array([r.est_error for r in records], dtype=np.float64)
    write_csv(path, list(columns), list(columns.values()))


def _write_summary(path, res: FitResult, inst: ProblemInstance, extra: dict | None = None) -> None:
    out = {
        "schema": 1,
        "variant": res.variant,
        "termination": res.termination,
        "objective": res.trace.final().objective,
        "rel_gradient": res.trace.final().rel_gradient,
        "iterations": res.trace.final().iteration,
        "wall_seconds": res.wall_seconds,
        "work_seconds": res.trace.final().work_seconds,
        "flags": res.flags,
    }
    if inst.counts is not None:
        fitted = res.termination != DIVERGED  # a diverged mean may have overflowed
        out["g_squared"] = mdl.g_squared(inst.counts, res.mu) if fitted else None
        out["pearson_x2"] = mdl.pearson_x2(inst.counts, res.mu) if fitted else None
    if extra:
        out.update(extra)
    write_json(path, out)


def _exit_for(res: FitResult) -> int:
    if res.termination == TOL_REACHED:
        return EXIT_OK
    return EXIT_NOT_CONVERGED


# -- shared flags --------------------------------------------------------------


def _add_input_flags(sp: argparse.ArgumentParser) -> None:
    """The model inputs of ``fit`` and ``path``, and their output directory."""
    sp.add_argument("--counts", help="grouped counts CSV (factor levels + count)")
    sp.add_argument("--schema", help="table schema JSON")
    sp.add_argument("--design", help="design triplet CSV (row,col,value)")
    sp.add_argument("--counts-vec", help="count vector CSV (row,count)")
    sp.add_argument("--offset", help="offset vector CSV (row,offset)")
    sp.add_argument("--out-dir", default=".", help="output directory")


def _add_solver_flags(sp: argparse.ArgumentParser, default_eps: float = 1e-4) -> None:
    sp.add_argument("--solver", default="ips", choices=sorted(_VARIANTS),
                    help="solver variant (default: ips)")
    sp.add_argument("--eps-tol", type=float, default=default_eps,
                    help=f"relative-gradient tolerance (default: {default_eps:g})")
    sp.add_argument("--t-max", type=float, default=600.0,
                    help="wall-clock limit in seconds (default: 600)")
    sp.add_argument("--max-iters", type=int, default=100_000,
                    help="iteration cap (default: 100000)")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0,
                    help="penalty weight for l1-ips / ridge-q-ips (default: 0)")
    sp.add_argument("--block-sizes", default=None,
                    help="comma-separated block sizes (default: blocks of 200)")
    sp.add_argument("--w-choice", default="bohning", choices=["bohning", "spectral"],
                    help="curvature bound used by q-ips (default: bohning)")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed; all randomness flows from it (default: 0)")


def _config_from_args(args) -> SolverConfig:
    blocks = None
    if args.block_sizes:
        try:
            blocks = tuple(int(t) for t in args.block_sizes.split(","))
        except ValueError as exc:
            raise InputError(f"bad --block-sizes: {exc}") from exc
    return SolverConfig(
        variant=args.solver,
        eps_tol=args.eps_tol,
        t_max_secs=args.t_max,
        max_iters=args.max_iters,
        lam=args.lam,
        block_sizes=blocks,
        w_choice=args.w_choice,
        seed=args.seed,
    )


def _load_fit_inputs(args) -> tuple[ProblemInstance, list[str]]:
    if args.counts and args.schema:
        schema = TableSchema.load(args.schema)
        levels, counts = _read_keyed_csv(args.counts, schema.factors, "count", 1)[:2]
        X, dropped = build_design_for_cells(schema, levels)
        inst = ProblemInstance.from_counts(X, counts)
        return inst, dropped
    if args.design and args.counts_vec:
        X = read_triplet_csv(args.design)
        rows = [("row", X.n_rows)]
        counts = _read_complete_csv(args.counts_vec, rows, "count", 0)[1]
        offset = _read_complete_csv(args.offset, rows, "offset", 0)[1] if args.offset else None
        inst = ProblemInstance.from_counts(X, counts, offset=offset)
        return inst, []
    raise InputError("need either --counts with --schema, or --design with --counts-vec")


# -- subcommands ---------------------------------------------------------------


def cmd_fit(args) -> int:
    inst, dropped = _load_fit_inputs(args)
    cfg = _config_from_args(args)
    res = solve(inst, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "beta.csv"), ["column_label", "estimate"],
              [inst.design.column_labels, res.beta])
    mu = inst.expand_mu(res.mu)
    write_csv(os.path.join(args.out_dir, "mu.csv"), ["row", "mu"], [np.arange(len(mu)), mu])
    _write_trace_csv(os.path.join(args.out_dir, "trace.csv"), res)
    _write_summary(os.path.join(args.out_dir, "summary.json"), res, inst,
                   extra={"dropped_columns": dropped} if dropped else None)
    return _exit_for(res)


def cmd_rake(args) -> int:
    schema = TableSchema.load(args.schema)
    values, flat = _read_keyed_csv(args.seed_table, schema.factors, "value", 1)[1:]
    seed_table = np.zeros(schema.n_cells)
    seed_table[flat] = values
    if not args.margin:
        raise InputError("need at least one --margin file")
    margins = [_read_margin_csv(m, schema) for m in args.margin]
    # The seed's zero cells stay zero, so the design holds its positive cells only.
    positive = np.flatnonzero(seed_table > 0)
    try:
        X = build_raking_design(schema, [subset for subset, _, _ in margins],
                                schema.level_grid()[:, positive].T)
    except EmptyColumnError as exc:
        # a margin cell wiped out by the seed's zero structure can never match
        print(f"rake: infeasible zero structure: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    # Target statistics in design-column order: the intercept's target is the
    # first margin's total (the fitted table mass must match it), then each
    # margin's cells in the row-major order the raking design uses.
    s = np.concatenate([[margins[0][2]], *(targets for _, targets, _ in margins)])
    inst = ProblemInstance.from_suff_stats(X, s, offset=seed_table[positive])
    cfg = _config_from_args(args)
    res = solve(inst, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    adjusted = np.zeros(schema.n_cells)
    adjusted[positive] = res.mu
    # each level column indexes its factor's level names: no int is formatted per cell
    levels = [([str(v) for v in range(1, m + 1)], grid - 1)
              for (_, m), grid in zip(schema.factors, schema.level_grid())]
    write_csv(os.path.join(args.out_dir, "adjusted.csv"), [n for n, _ in schema.factors] + ["value"],
              [*levels, adjusted])

    fitted, target = inst.design.rmatvec(res.mu)[1:], s[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(target > 0, np.abs(fitted - target) / target,
                       np.where(fitted == 0.0, 0.0, np.inf))
    k = int(np.argmax(rel))  # the first largest residual, or the first nan
    worst = float(rel[k])
    worst_label = X.column_labels[k + 1] if worst != 0.0 else ""
    write_csv(os.path.join(args.out_dir, "residuals.csv"),
              ["column_label", "target", "fitted", "rel_residual"],
              [X.column_labels[1:], target, fitted, rel])
    matched = bool(worst <= 1e-8)
    _write_summary(os.path.join(args.out_dir, "summary.json"), res, inst,
                   extra={"margins_matched": matched, "worst_rel_residual": worst,
                          "worst_margin": worst_label})
    if not matched:
        print(f"rake: margins not matched; worst relative residual {worst:.3e} "
              f"at {worst_label}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return _exit_for(res)


def cmd_path(args) -> int:
    inst, _dropped = _load_fit_inputs(args)
    result = harness.l1_path(inst, grid_size=args.grid_size, min_ratio=args.min_ratio,
                             gamma=args.gamma, eps_tol=args.eps_tol,
                             max_iters=args.max_iters, t_max_secs=args.t_max)
    os.makedirs(args.out_dir, exist_ok=True)
    pts = result.points
    write_csv(os.path.join(args.out_dir, "path.csv"),
              ["lambda", "support_size", "deviance", "ebic"],
              [np.array([pt.lam for pt in pts], dtype=np.float64),
               np.array([pt.support_size for pt in pts], dtype=np.int64),
               np.array([pt.deviance for pt in pts], dtype=np.float64),
               np.array([pt.ebic for pt in pts], dtype=np.float64)])
    sel = result.selected
    chosen = np.flatnonzero(sel.beta != 0.0)
    write_csv(os.path.join(args.out_dir, "selected.csv"), ["lambda", "column_label", "estimate"],
              [np.full(len(chosen), sel.lam), [inst.design.column_labels[j] for j in chosen],
               sel.beta[chosen]])
    write_json(os.path.join(args.out_dir, "summary.json"),
               {"schema": 1, "selected_lambda": sel.lam, "selected_support_size": sel.support_size,
                "selected_ebic": sel.ebic, "grid_size": len(result.points)})
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.spec:
        spec = harness.ExperimentSpec.load(args.spec)
    else:
        if not args.scenario:
            raise InputError("need a scenario name or --spec file")
        scale = 1.0 if args.full_scale else args.scale
        spec = harness.ExperimentSpec(
            scenario=args.scenario,
            replications=args.replications,
            scale_factor=scale,
            roster=tuple(args.roster.split(",")),
            seed=args.seed,
            eps_tol=args.eps_tol,
            t_max_secs=args.t_max,
            table_setting=args.setting,
        )
    report = harness.run_experiment(spec, wall_clock=args.wall_clock, jobs=args.jobs)
    written = report.write(args.out_dir)
    for path in written:
        print(path)
    for solver, rep, err in report.failures:
        print(f"bench: {solver} failed on replication {rep}: {err}", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = harness.ExperimentSpec(
        scenario=args.scenario,
        scale_factor=args.scale,
        seed=args.seed,
        table_setting=args.setting,
        n_rows=args.n,
        n_cols=args.p,
    )
    inst = harness.gen_instance(spec, replication=0)
    written = harness.export_instance(inst, args.out_dir, name=args.scenario.replace("-", "_"))
    for path in written:
        print(path)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipscale",
        description="Iterative proportional scaling solvers for Poisson log-affine models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write beta/mu/trace/summary")
    _add_input_flags(fit)
    _add_solver_flags(fit)
    fit.set_defaults(func=cmd_fit)

    rake = sub.add_parser("rake", help="adjust a seed table to prescribed margins")
    rake.add_argument("--schema", required=True, help="table schema JSON")
    rake.add_argument("--seed-table", required=True,
                      help="seed table CSV (factor levels + value); missing cells are 0")
    rake.add_argument("--margin", action="append", default=[],
                      help="margin target CSV (subset factor levels + target); repeatable")
    rake.add_argument("--out-dir", default=".", help="output directory")
    _add_solver_flags(rake, default_eps=1e-10)
    rake.set_defaults(func=cmd_rake)

    path = sub.add_parser("path", help="l1 solution path with EBIC selection")
    _add_input_flags(path)
    path.add_argument("--grid-size", type=int, default=50, help="penalty grid size (default 50)")
    path.add_argument("--min-ratio", type=float, default=1e-3,
                      help="smallest penalty as a fraction of lambda_max (default 1e-3)")
    path.add_argument("--gamma", type=float, default=1.0, help="EBIC gamma (default 1)")
    path.add_argument("--eps-tol", type=float, default=1e-8)
    path.add_argument("--t-max", type=float, default=600.0)
    path.add_argument("--max-iters", type=int, default=50_000)
    path.set_defaults(func=cmd_path)

    bench = sub.add_parser("bench", help="replicate a benchmark scenario at desk scale")
    bench.add_argument("scenario", nargs="?", default=None,
                       help=f"one of {', '.join(harness.SCENARIOS)}")
    bench.add_argument("--spec", default=None,
                       help="experiment spec JSON (overrides the other flags)")
    bench.add_argument("--roster", default="ips,a-ips", help="comma-separated solver list")
    bench.add_argument("--replications", type=int, default=20)
    bench.add_argument("--scale", type=float, default=0.3,
                       help="desk-scale shrink factor in (0,1] (default 0.3)")
    bench.add_argument("--full-scale", action="store_true",
                       help="run the scenario at its full published size")
    bench.add_argument("--setting", type=int, default=1, choices=[1, 2],
                       help="coefficient sparsity setting for table scenarios")
    bench.add_argument("--eps-tol", type=float, default=1e-4)
    bench.add_argument("--t-max", type=float, default=600.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=1, help="concurrent replications")
    bench.add_argument("--wall-clock", action="store_true",
                       help="report measured wall time instead of the deterministic work clock")
    bench.add_argument("--out-dir", default=".", help="output directory")
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate and export a synthetic instance")
    gen.add_argument("scenario", help=f"one of {', '.join(harness.SCENARIOS)}")
    gen.add_argument("--n", type=int, default=None, help="rows (Gaussian scenarios)")
    gen.add_argument("--p", type=int, default=None, help="columns incl. intercept (Gaussian)")
    gen.add_argument("--scale", type=float, default=1.0, help="table shrink factor")
    gen.add_argument("--setting", type=int, default=1, choices=[1, 2])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".", help="output directory")
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags; the scripting contract says 1
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, DesignError, ModelError, SolverError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - the CLI maps anything else to exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
