"""Time-to-tolerance benchmark for ipscale.

    python3 perfbench/run.py --workload table-cd --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics (set-up, wall, CPU and
peak memory of the timed phase); with ``--trace 1`` it reports the
per-layer metrics of a traced run and writes its spans under
``perfbench/_out/``.  The last line of standard output is one JSON object.
See perfbench/README.md.
"""

import os

# One BLAS thread (never more than nproc) for this process and every process
# it starts, set before numpy loads: steadier timings on a small shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, span_cost  # noqa: E402

# Set-up runs at least this often and this long; the median is reported, so
# a short set-up is not at the mercy of one slow repeat.
SETUP_REPEATS, SETUP_SECONDS = 7, 3.0
OUT = wl.HERE / "_out"

# BENCHMARK.json names every metric and its unit, and the run length.  The
# traced run reports every per-layer metric on every workload, 0 where the
# workload does not run that layer.
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def load_program():
    """Import ipscale from this checkout's src/ and nowhere else."""
    if not (wl.SRC / "ipscale" / "cli.py").is_file():
        sys.exit(f"perfbench: no ipscale sources under {wl.SRC}")
    sys.path.insert(0, str(wl.SRC))
    import ipscale

    if not os.path.realpath(ipscale.__file__).startswith(os.path.realpath(wl.SRC)):
        sys.exit(f"perfbench: ipscale was imported from {ipscale.__file__}, not {wl.SRC}")


def run_round(w, work, inp, ref, tracer=None) -> list:
    """Every operation of the workload once, each checked after it ran."""
    ops = w.run_round(work, inp, tracer)
    for op in ops:
        if not op.failed:
            op.errors = w.check(op, inp, ref)
    return ops


def round_stats(ops) -> dict:
    return {"wall": sum(o.wall for o in ops), "cpu": sum(o.cpu for o in ops),
            "rss": max(o.rss_mb for o in ops)}


def cli_import_s() -> float:
    code = ("import time; t = time.perf_counter(); import ipscale.cli; "
            "print(time.perf_counter() - t)")
    vals = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], env=wl.child_env(), cwd=wl.ROOT,
                             capture_output=True, text=True, check=True)
        vals.append(float(out.stdout))
    return statistics.median(vals)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = wl.WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(w, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, work, seed, seconds, trace) -> dict:
    tracer = Tracer()
    setups = []
    while not setups or not trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
        t0 = time.perf_counter()
        with tracer.span("setup"):
            inp = w.setup(work, seed, tracer)
        setups.append(time.perf_counter() - t0)
    ref = w.reference(inp)

    all_ops, rounds = [], []
    t_start = time.perf_counter()
    while True:
        ops = run_round(w, work, inp, ref, tracer if trace else None)
        all_ops += ops
        rounds.append(round_stats(ops))
        if trace or time.perf_counter() - t_start >= seconds:
            break
    layers = traced_layers(w, work, inp, tracer, ops, seed) if trace else {}

    errors = [e for o in all_ops for e in o.errors]
    for e in errors:
        print(f"perfbench: {w.name}: {e}", file=sys.stderr)
    result = {
        "correct": not any(o.errors for o in all_ops if not o.failed),
        "attempted": len(all_ops),
        "failed": sum(o.failed for o in all_ops),
    }
    if trace:
        unlisted = sorted(set(layers) - set(PER_LAYER))
        if unlisted:
            sys.exit(f"perfbench: metrics missing from BENCHMARK.json per_layer: {unlisted}")
        result["metrics"] = {k: {"value": layers.get(k, 0.0), "unit": u}
                             for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "peak_rss_mb": max(r["rss"] for r in rounds),
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return result


def traced_layers(w, work, inp, tracer, traced_ops, seed) -> dict:
    """Per-layer metrics from the traced round and the in-process replay.

    A traced round differs from an untraced one by less than round-to-round
    noise, so the overhead reported is the tracer's own cost: the spans
    recorded in the timed round times the measured cost of one span.
    """
    n_timed = sum(s["name"].startswith("op.") for s in tracer.spans)
    metrics = {"trace.overhead_s": n_timed * span_cost(), "cli.import_s": cli_import_s()}
    gen = tracer.seconds("harness.gen_instance")
    if gen:
        metrics["harness.gen_instance_s"] = gen
    cli = isinstance(w, wl.CliWorkload)
    if cli:
        for op in traced_ops:
            key = f"cli.cmd_s.{w.command(op.name)}"
            metrics[key] = metrics.get(key, 0.0) + op.wall
        metrics["cli.output_mb"] = wl.output_mb(op.out_dir for op in traced_ops)
    w.replay(work, inp, tracer, metrics)
    wl.solver_metrics(tracer, metrics)
    if cli:
        for op in traced_ops:
            # the command's own solve time comes from its summary.json; the
            # path command reports none, so its replayed l1_path stands in
            solve_s = json.loads((op.out_dir / "summary.json").read_text()).get("wall_seconds", 0.0)
            public = solve_s + sum(s["end"] - s["start"] for s in tracer.spans
                                   if s["op"] == op.name and s["parent"] is not None
                                   and s["name"] not in ("solvers.first_iter", "solvers.solve")
                                   and tracer.spans[s["parent"]]["name"] == f"op.{op.name}")
            key = f"cli.rest_s.{w.command(op.name)}"
            metrics[key] = metrics.get(key, 0.0) + op.wall - public
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{w.name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": w.name, "seed": seed, "blas_threads": BLAS_THREADS,
                   "metrics": metrics, "self_seconds": tracer.self_seconds(),
                   "spans": tracer.spans}, fh, indent=1, default=float)
    for k in sorted(metrics):
        print(f"{w.name}  {k} = {metrics[k]:.6g}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running commands are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    load_program()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}  {shown}")
        print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
