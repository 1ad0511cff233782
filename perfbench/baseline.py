"""Per-variant wall seconds, iterations, work-clock seconds and their ratio.

    python3 perfbench/baseline.py

Regenerates the ROADMAP baseline table: the full-scale moderate table of the
harness (scenario table-moderate, seed 0, replication 0), each variant run
in process to eps_tol = 1e-4 with one BLAS thread.  mm-binary runs to its
100000-iteration cap and takes over a minute.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ipscale import SolverConfig, harness, solve  # noqa: E402

VARIANTS = ("ips", "a-ips", "b-ips", "q-ips", "mm-binary")


def main() -> int:
    inst = harness.gen_instance(harness.ExperimentSpec("table-moderate", seed=0))
    print("| variant | wall s | iters | work-clock s | wall/work | termination |")
    print("|---|---:|---:|---:|---:|---|")
    for v in VARIANTS:
        t0 = time.perf_counter()
        res = solve(inst, SolverConfig(variant=v, eps_tol=1e-4))
        wall = time.perf_counter() - t0
        work = res.trace.final().work_seconds
        print(f"| {v} | {wall:.2f} | {res.trace.final().iteration} | {work:.2f} | "
              f"{wall / work:.2f} | {res.termination} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
