"""Run the dense-general library calls in a process of their own.

    python3 perfbench/solve_worker.py INPUTS.npz OUT.npz EPS_TOL VARIANT...

Loads the design array and counts, builds the instance through the public
API and calls ``ipscale.solve`` once per variant.  The timed phase (instance
construction plus the solves) excludes interpreter start and the load of
the inputs.  Prints one JSON line of per-call wall and CPU seconds; the
fitted coefficients go to OUT.npz.
"""

import json
import sys
import time

import numpy as np

from ipscale import DesignMatrix, ProblemInstance, SolverConfig, solve


def main(argv) -> int:
    inputs, out, eps_tol, variants = argv[0], argv[1], float(argv[2]), argv[3:]
    data = np.load(inputs)
    X_arr, counts = data["X"], data["counts"]
    calls = []
    t0, c0 = time.perf_counter(), time.process_time()
    inst = ProblemInstance.from_counts(DesignMatrix.from_dense(X_arr), counts)
    build = (time.perf_counter() - t0, time.process_time() - c0)
    betas = {}
    for v in variants:
        t0, c0 = time.perf_counter(), time.process_time()
        res = solve(inst, SolverConfig(variant=v, eps_tol=eps_tol))
        calls.append({"variant": v, "wall": time.perf_counter() - t0,
                      "cpu": time.process_time() - c0, "termination": res.termination,
                      "iterations": res.trace.final().iteration})
        betas[v] = res.beta
    np.savez(out, **betas)
    print(json.dumps({"build": build, "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
