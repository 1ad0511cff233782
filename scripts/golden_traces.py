#!/usr/bin/env python3
"""Write golden fit records for every solver variant, for diffing refactors.

Usage: python scripts/golden_traces.py OUT_DIR [--src DIR]

``ipscale`` is imported from DIR (default: the ``src/`` of the checkout
that holds this script), put first on ``sys.path``; the script stops with
an error if the package comes from anywhere else, and names DIR on stderr
only, so the output files do not depend on it.

Fits each variant with a fixed seed on small harness instances (one of
them the table model on a seeded subset of its cells, one a table whose
terms have 8 and 64 columns, one the table model with sampling zeros that
drive three coordinates to the clamp), at record_every 1 and 5, and
writes one text file per fit: the termination, the flags, the
coefficients and every trace record except its wall seconds.  The table
and general instances are fitted a second time on their design after a
triplet CSV round trip (``write_triplet_csv`` to a temporary directory,
then ``read_triplet_csv``), so the reader is covered too; a
``*-design.txt`` file records what the reader returned.  Floats are
written with ``float.hex``, so two runs agree exactly when their files are
byte-identical (``diff -r OLD NEW``).  A variant that rejects an
instance writes the error message instead.

It then runs the CLI on small seeded inputs that it writes itself: ``fit``
on a grouped table and on a triplet design with an offset, ``rake``,
``path``, ``bench`` and ``gen``.  Each command's output files are copied to
``cli-<name>/`` with its exit code, except the measured wall time:
``wall_times.json`` and the ``wall_seconds`` line of ``summary.json``.

Last, ``designs.txt`` pins the table builders at full scale: for
``build_table_design`` on the 10^4 x 523 and 10^5 x 8146 tables, the
7^6-cell raking design with its 15 two-way margins, and
``build_design_for_cells`` on a seeded half of the 10^4 x 523 table's cells,
it records the shape, the kind, and a sha256 of the column labels and of
each CSC array (``data``, ``indices``, ``indptr``) with its dtype.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

# ipscale is imported inside the functions, after main has put --src first on sys.path


def _load_ipscale(src: Path) -> None:
    """Import ipscale from src and nowhere else."""
    if not (src / "ipscale" / "__init__.py").is_file():
        sys.exit(f"golden_traces: no ipscale sources under {src}")
    sys.path.insert(0, str(src))
    import ipscale

    if not Path(ipscale.__file__).resolve().is_relative_to(src):
        sys.exit(f"golden_traces: ipscale was imported from {ipscale.__file__}, not {src}")
    print(f"golden_traces: ipscale from {src}", file=sys.stderr, flush=True)


def _fmt(v) -> str:
    if v is None:
        return "None"
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, (list, tuple, set, np.ndarray)):
        return " ".join(_fmt(x) for x in v)
    return repr(v)


def _triplet_roundtrip(inst, tmp: Path):
    """The instance refitted on its design as read back from a triplet CSV."""
    from ipscale import ProblemInstance, read_triplet_csv, write_triplet_csv

    X = inst.design
    path = tmp / "design.csv"
    write_triplet_csv(X, path)
    Y = read_triplet_csv(path, n_rows=X.n_rows, n_cols=X.n_cols, labels=X.column_labels)
    return ProblemInstance.from_counts(Y, inst.counts, inst.offset, inst.beta_true)


def _design_text(X) -> str:
    arr = X.toarray()
    rows, cols = np.nonzero(arr)
    return "\n".join([
        f"kind {X.kind}",
        f"shape {X.n_rows} {X.n_cols}",
        f"row_sum_max {_fmt(X.row_sum_max)}",
        f"has_intercept {X.has_intercept}",
        f"labels {' '.join(X.column_labels)}",
        *(f"entry {i} {j} {_fmt(arr[i, j])}" for i, j in zip(rows, cols)),
    ]) + "\n"


def _observed_cells(table):
    """The 0.3-scale table model on a seeded two thirds of its 3^4 cells: the
    columns of one term then have unequal supports, so the disjoint runs of
    l1-ips and x2-ips vary in length and support size."""
    from ipscale import ProblemInstance, TableSchema
    from ipscale.design import build_design_for_cells

    schema = TableSchema(tuple((f"f{k}", 3) for k in range(1, 5)), 2)
    rng = np.random.Generator(np.random.Philox(7))
    cells = np.sort(rng.choice(schema.n_cells, size=2 * schema.n_cells // 3, replace=False))
    X, _ = build_design_for_cells(schema, schema.level_grid()[:, cells].T)
    return ProblemInstance.from_counts(X, table.counts[cells])


def _sampling_zeros(table):
    """The 0.3-scale table model with the counts on the supports of columns
    3, p-5 and p-1 set to 0: those coordinates have no finite optimum, so
    the coordinate, surrogate and scaling variants pin them at the clamp."""
    from ipscale import ProblemInstance

    X = table.design
    counts = table.counts.copy()
    for j in (3, X.n_cols - 5, X.n_cols - 1):
        counts[X.columns()[j][0]] = 0.0
    return ProblemInstance.from_counts(X, counts)


def _long_runs():
    """Three 9-level factors with their two-way terms: the main-effect runs
    (8 columns) and the interaction runs (64) are long enough for l1-ips and
    x2-ips to update each run at once."""
    from ipscale import ProblemInstance, TableSchema, build_table_design

    schema = TableSchema(tuple((f"g{k}", 9) for k in range(1, 4)), 2)
    rng = np.random.Generator(np.random.Philox(13))
    counts = rng.poisson(rng.gamma(2.0, 3.0, size=schema.n_cells)) + 1.0
    return ProblemInstance.from_counts(build_table_design(schema), counts)


def _instances(tmp: Path) -> dict:
    from ipscale import SolverConfig, harness, solve

    table = harness.gen_instance(harness.ExperimentSpec("table-moderate", scale_factor=0.3))
    general = harness.gen_instance(harness.ExperimentSpec("general", scale_factor=0.01))
    optimum = solve(table, SolverConfig(variant="b-ips", eps_tol=1e-10)).beta
    return {
        "table": (table, None),
        "table-observed": (_observed_cells(table), None),
        "table-long-runs": (_long_runs(), None),
        "table-zeros": (_sampling_zeros(table), None),
        # every variant started at a converged optimum: exercises the fixed-point exit
        "table-warm": (table, optimum),
        "nonneg": (harness.gen_instance(harness.ExperimentSpec("nonneg-small", scale_factor=0.1)), None),
        "general": (general, None),
        "table-triplet": (_triplet_roundtrip(table, tmp), None),
        "general-triplet": (_triplet_roundtrip(general, tmp), None),
    }


def _fit_text(inst, variant: str, beta_init, record_every: int) -> str:
    from ipscale import SolverConfig, SolverError, harness, solve

    lam = 0.0
    if variant == "l1-ips":
        lam = 0.1 * harness.lambda_max(inst)
    elif variant == "ridge-q-ips":
        lam = 1.0
    cfg = SolverConfig(variant=variant, eps_tol=1e-6, max_iters=2000, t_max_secs=1e9,
                       lam=lam, seed=0, beta_init=beta_init, record_every=record_every)
    try:
        res = solve(inst, cfg)
    except SolverError as exc:
        return f"error {exc}\n"
    lines = [f"termination {res.termination}"]
    lines += [f"flag {k} {_fmt(v)}" for k, v in sorted(res.flags.items())]
    lines.append(f"beta {_fmt(res.beta)}")
    for r in res.trace.records:
        lines.append(f"record {r.iteration} {_fmt(float(r.work_units))} {_fmt(r.objective)} "
                     f"{_fmt(r.rel_gradient)} {_fmt(r.est_error)}")
    return "\n".join(lines) + "\n"


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cli_inputs(work: Path) -> None:
    """Schema, grouped counts, rake seed and margins, and an offset vector."""
    rng = np.random.Generator(np.random.Philox(11))
    sizes = (3, 4, 2)
    (work / "schema.json").write_text(json.dumps({
        "factors": [{"name": n, "levels": m} for n, m in zip("abc", sizes)], "order": 2}))
    cells = np.indices(sizes).reshape(len(sizes), -1).T + 1
    counts = rng.poisson(8.0, size=len(cells)) + 1
    # two cells unobserved, two rows swapped out of row-major order
    rows = [[*c, n] for c, n in zip(cells.tolist(), counts.tolist())][2:]
    rows[0], rows[5] = rows[5], rows[0]
    _write_rows(work / "counts.csv", ["a", "b", "c", "count"], rows)
    # cells 5 and 17 absent, cell 10 listed as 0: zeros that leave every margin cell reachable
    seed = rng.gamma(2.0, size=len(cells))
    seed[10] = 0.0
    _write_rows(work / "seed.csv", ["a", "b", "c", "value"],
                [[*c, repr(v)] for k, (c, v) in enumerate(zip(cells.tolist(), seed.tolist()))
                 if k not in (5, 17)])
    target = rng.gamma(2.0, size=sizes)
    # the first margin lists (c, a): neither its column nor its row order is row-major
    ca = target.sum(axis=1)
    _write_rows(work / "m_ca.csv", ["c", "a", "target"],
                [[k + 1, i + 1, repr(float(ca[i, k]))] for k in range(2) for i in range(3)])
    ab = target.sum(axis=2)
    _write_rows(work / "m_ab.csv", ["a", "b", "target"],
                [[i + 1, j + 1, repr(float(ab[i, j]))] for i in range(3) for j in range(4)])
    offset = rng.uniform(0.5, 2.0, size=60)
    _write_rows(work / "offset.csv", ["row", "offset"],
                [[i, repr(v)] for i, v in enumerate(offset.tolist())])


def _cli_runs(work: Path) -> dict:
    """Each CLI command by name, in run order (``gen`` feeds ``fit-triplet``)."""
    table = ["--counts", str(work / "counts.csv"), "--schema", str(work / "schema.json")]
    return {
        "gen": ["gen", "general", "--n", "60", "--p", "6", "--seed", "1"],
        "fit-table": ["fit", *table, "--solver", "a-ips", "--seed", "3", "--eps-tol", "1e-8"],
        "fit-triplet": ["fit", "--design", str(work / "gen" / "general_design.csv"),
                        "--counts-vec", str(work / "gen" / "general_counts.csv"),
                        "--offset", str(work / "offset.csv"), "--solver", "q-ips"],
        "rake": ["rake", "--schema", str(work / "schema.json"),
                 "--seed-table", str(work / "seed.csv"),
                 "--margin", str(work / "m_ca.csv"), "--margin", str(work / "m_ab.csv")],
        "path": ["path", *table, "--grid-size", "3"],
        "bench": ["bench", "nonneg-small", "--scale", "0.15", "--replications", "1",
                  "--roster", "gis,q-ips", "--seed", "3"],
    }


def _copy_cli_outputs(src: Path, dst: Path, code: int) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    (dst / "exit_code.txt").write_text(f"{code}\n")
    for f in sorted(src.iterdir()) if src.is_dir() else []:
        if f.name == "wall_times.json":
            continue
        if f.name == "summary.json":
            lines = f.read_text().splitlines(keepends=True)
            (dst / f.name).write_text(
                "".join(ln for ln in lines if not ln.lstrip().startswith('"wall_seconds"')))
        else:
            shutil.copyfile(f, dst / f.name)


def _run_cli(out: Path) -> None:
    from ipscale.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _cli_inputs(work)
        for name, argv in _cli_runs(work).items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*argv, "--out-dir", str(work / name)])
            _copy_cli_outputs(work / name, out / f"cli-{name}", code)
            print(out / f"cli-{name}", flush=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _design_digest(name: str, X, dropped=None) -> list[str]:
    labels = "\n".join(X.column_labels).encode()
    lines = [f"{name} shape {X.n_rows} {X.n_cols}", f"{name} kind {X.kind}",
             f"{name} labels {_sha256(labels)}"]
    if dropped is not None:
        lines.append(f"{name} dropped {dropped}")
    for part in ("data", "indices", "indptr"):
        arr = getattr(X.matrix, part)
        lines.append(f"{name} {part} {arr.dtype} {_sha256(arr.tobytes())}")
    return lines


def _write_designs(path: Path) -> None:
    """Digests of the full-scale table designs: the moderate and large table
    models, the 7^6 raking design and the moderate model on half its cells."""
    from ipscale import TableSchema, build_raking_design, build_table_design
    from ipscale.design import build_design_for_cells

    moderate = TableSchema(tuple((f"f{k}", 10) for k in range(1, 5)), 2)
    large = TableSchema(tuple((f"f{k}", 10) for k in range(1, 6)), 3)
    rake = TableSchema(tuple((f"f{k}", 7) for k in range(1, 7)), 1)
    rng = np.random.Generator(np.random.Philox(5))
    half = rng.choice(moderate.n_cells, size=moderate.n_cells // 2, replace=False)
    levels = np.array([moderate.cell_levels(i) for i in half.tolist()])
    observed, dropped = build_design_for_cells(moderate, levels)
    lines = [
        *_design_digest("table-moderate", build_table_design(moderate)),
        *_design_digest("table-large", build_table_design(large)),
        *_design_digest("rake-large", build_raking_design(
            rake, [(j, k) for j in range(6) for k in range(j + 1, 6)])),
        *_design_digest("table-moderate-half", observed, dropped),
    ]
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="directory to import ipscale from (default: this checkout's src/)")
    args = ap.parse_args()
    _load_ipscale(args.src.resolve())
    from ipscale.solvers import _VARIANTS

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        instances = _instances(Path(tmp))
    for name, (inst, beta_init) in instances.items():
        if name.endswith("-triplet"):
            (out / f"{name}-design.txt").write_text(_design_text(inst.design))
        for variant in _VARIANTS:
            for every in (1, 5):
                path = out / f"{name}-{variant}-every{every}.txt"
                path.write_text(_fit_text(inst, variant, beta_init, every))
                print(path, flush=True)
    _run_cli(out)
    _write_designs(out / "designs.txt")
    print(out / "designs.txt", flush=True)


if __name__ == "__main__":
    main()
