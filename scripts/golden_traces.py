#!/usr/bin/env python3
"""Write golden fit records for every solver variant, for diffing refactors.

Usage: python scripts/golden_traces.py OUT_DIR

Fits each variant with a fixed seed on small harness instances, at
record_every 1 and 5, and writes one text file per fit: the termination,
the flags, the coefficients and every trace record except its wall
seconds.  The table and general instances are fitted a second time on
their design after a triplet CSV round trip (``write_triplet_csv`` to a
temporary directory, then ``read_triplet_csv``), so the reader is covered
too; a ``*-design.txt`` file records what the reader returned.  Floats
are written with ``float.hex``, so two runs agree exactly when their files
are byte-identical (``diff -r OLD NEW``).  A variant that rejects an
instance writes the error message instead.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from ipscale import (ProblemInstance, SolverConfig, SolverError, harness, read_triplet_csv, solve,
                     write_triplet_csv)
from ipscale.solvers import _VARIANTS


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


def _instances(tmp: Path) -> dict:
    table = harness.gen_instance(harness.ExperimentSpec("table-moderate", scale_factor=0.3))
    general = harness.gen_instance(harness.ExperimentSpec("general", scale_factor=0.01))
    optimum = solve(table, SolverConfig(variant="b-ips", eps_tol=1e-10)).beta
    return {
        "table": (table, None),
        # every variant started at a converged optimum: exercises the fixed-point exit
        "table-warm": (table, optimum),
        "nonneg": (harness.gen_instance(harness.ExperimentSpec("nonneg-small", scale_factor=0.1)), None),
        "general": (general, None),
        "table-triplet": (_triplet_roundtrip(table, tmp), None),
        "general-triplet": (_triplet_roundtrip(general, tmp), None),
    }


def _fit_text(inst, variant: str, beta_init, record_every: int) -> str:
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


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    out = Path(sys.argv[1])
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


if __name__ == "__main__":
    main()
