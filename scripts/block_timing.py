#!/usr/bin/env python3
"""Time the two block solvers, b-ips and mm-parallel, from two source trees.

Usage: python scripts/block_timing.py PARENT_SRC CHANGE_SRC [--pairs N] [--seed S]
           [--workload W ...]

Each run is a fresh process that imports ``ipscale`` from one ``src``
directory, with one BLAS thread, and fits in process:

* ``b-ips``: the three table-profiled count draws of the benchmark (the
  10^4 x 523 table model, structure seed 0, draws 0-2 of seed S) to
  eps_tol 1e-4;
* ``mm-parallel-moderate``: 8 mm-parallel steps on that table's own counts;
* ``mm-parallel-large``: 3 mm-parallel steps on table-large (10^5 x 8146).

The instance is built before the clock starts.  For every pair the two sides
run one after the other, the parent first in even pairs and the change first
in odd ones.  After the pairs, one more run per side traces its allocations
with ``tracemalloc``.  For each workload and side the script prints the
median wall seconds with the quartiles, the traced peak, and a digest of
every fit's coefficients and trace (objective and relative gradient per
record), so equal digests mean bit-identical iterates.  For b-ips it also
prints the Newton steps of the three fits and the median seconds per step:
each step takes one block Gram, so the per-Gram saving reads off the
difference between the sides.  For mm-parallel it prints the block solves
that failed (the ``block_step_failures`` flag, summed over the fits).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("b-ips", "mm-parallel-moderate", "mm-parallel-large")
SIDES = ("parent", "change")


def _child(workload: str, seed: int, trace: bool) -> dict:
    """Run one workload with the ipscale on sys.path; wall seconds, peak,
    digest, Newton steps and failed block solves."""
    import tracemalloc

    from ipscale import ProblemInstance, SolverConfig, harness, solve

    if workload == "b-ips":
        base = harness.gen_instance(harness.ExperimentSpec("table-moderate", seed=0))
        mu_star = np.exp(base.design.matvec(base.beta_true))
        insts = [ProblemInstance.from_counts(base.design, np.random.Generator(
            np.random.Philox(key=seed, counter=10 + d)).poisson(mu_star).astype(np.float64))
            for d in range(3)]
        cfg = SolverConfig(variant="b-ips", eps_tol=1e-4)
    else:
        scenario, steps = {"mm-parallel-moderate": ("table-moderate", 8),
                           "mm-parallel-large": ("table-large", 3)}[workload]
        insts = [harness.gen_instance(harness.ExperimentSpec(scenario, seed=0))]
        cfg = SolverConfig(variant="mm-parallel", eps_tol=1e-12, max_iters=steps)
    if trace:
        tracemalloc.start()
    t0 = time.perf_counter()
    results = [solve(inst, cfg) for inst in insts]
    wall = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] if trace else None
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.beta.tobytes())
        digest.update(np.array([(r.objective, r.rel_gradient) for r in res.trace.records]).tobytes())
    steps = sum(res.flags.get("newton_steps", 0) for res in results)
    failures = sum(res.flags.get("block_step_failures", 0) for res in results)
    return {"wall": wall, "peak": peak, "digest": digest.hexdigest()[:16], "newton_steps": steps,
            "block_step_failures": failures}


def _run(src: Path, workload: str, seed: int, trace: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, __file__, "--child", workload, "--seed", str(seed)]
    out = subprocess.run(cmd + (["--trace"] if trace else []), env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.child, args.seed, args.trace)))
        return 0
    if args.parent is None or args.change is None:
        ap.error("PARENT_SRC and CHANGE_SRC are required")
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload or WORKLOADS:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(_run(srcs[side], workload, args.seed, False))
        for side in SIDES:
            walls = [r["wall"] for r in runs[side]]
            q1, med, q3 = np.percentile(walls, [25, 50, 75])
            traced = _run(srcs[side], workload, args.seed, True)
            digests = {r["digest"] for r in runs[side] + [traced]}
            steps, failures = runs[side][0]["newton_steps"], runs[side][0]["block_step_failures"]
            if workload != "b-ips":
                counts = f"  {failures} failed block solves"
            elif steps:
                counts = f"  {steps} Newton steps, median {med / steps * 1e3:.3f} ms/step"
            else:
                counts = ""
            print(f"{workload:22s} {side:6s} median {med:7.3f} s (quartiles {q1:.3f}-{q3:.3f}, "
                  f"{len(walls)} runs)  peak {traced['peak'] / 1e6:6.1f} MB  "
                  f"digest {','.join(sorted(digests))}{counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
