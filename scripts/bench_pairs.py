#!/usr/bin/env python3
"""Run the benchmark on two checkouts in interleaved pairs and write the record.

Usage: python scripts/bench_pairs.py PARENT CHANGE OUT.json
           [--workload W ...] [--seeds FIRST LAST] [--traced W ...]
           [--claim WORKLOAD/METRIC ...]

PARENT and CHANGE are two checkouts of this repository, each with its own
``perfbench/`` and ``src/``.  The workloads are those given by ``--workload``,
by default every workload that PARENT's ``BENCHMARK.json`` lists.  For
every workload and seed, the script runs
``perfbench/run.py --workload W --seed S --trace 0`` in both, the parent
first on odd seeds and the change first on even ones, and keeps the JSON
result line of each run.  Then it makes one traced run (``--trace 1``,
first seed) per side of each ``--traced`` workload.  OUT.json holds every
run and, per workload and end-to-end metric, each side's median and
quartiles, the number of pairs the change won (ties count for neither) and
the parent's interquartile range, the spread a claimed gain must exceed.

The end-to-end metrics, whether lower or higher is better, and their
bounds are read from the same file.  OUT.json also holds a
verdict per workload and metric, which the script prints:

* ``gain`` for a claimed metric (``--claim``) that the change won in at least
  9 of 10 pairs, with a median gap larger than the parent's IQR;
* ``no gain`` for a claimed metric that misses either test;
* ``unresolved`` for any other metric whose parent IQR exceeds its bound,
  relative to the parent median, so that its runs cannot show a change;
* ``worse`` when its median is worse than the parent's by more than the bound;
* ``ok`` otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {"pairs": len(pairs), "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}}
    for m in metrics:
        val = {s: np.array([p[s]["metrics"][m["name"]]["value"] for p in pairs]) for s in SIDES}
        q = {s: np.percentile(v, [25, 50, 75]).tolist() for s, v in val.items()}
        sign = 1.0 if m["better"] == "lower" else -1.0
        out[m["name"]] = {
            "parent_q1_median_q3": q["parent"], "change_q1_median_q3": q["change"],
            "change_over_parent": q["change"][1] / q["parent"][1],
            "change_better_in": int(np.sum(sign * (val["parent"] - val["change"]) > 0)),
            "parent_iqr": q["parent"][2] - q["parent"][0]}
    return out


def _verdict(s: dict, metric: dict, claimed: bool, pairs: int) -> str:
    parent, change = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if claimed:
        won = s["change_better_in"] >= 0.9 * pairs
        return "gain" if won and sign * (parent - change) > s["parent_iqr"] else "no gain"
    if s["parent_iqr"] > metric["bound"] * abs(parent):
        return "unresolved"
    return "worse" if sign * (change - parent) > metric["bound"] * abs(parent) else "ok"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--workload", action="append", default=None,
                    help="workload to run; repeat for several (default: every workload "
                         "in PARENT's BENCHMARK.json)")
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    ap.add_argument("--traced", action="append", default=[])
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC")
    args = ap.parse_args()
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    names = {m["name"] for m in metrics}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claims = {tuple(c.split("/", 1)) for c in args.claim}
    for c in claims:
        if len(c) != 2 or c[0] not in workloads or c[1] not in names:
            ap.error(f"--claim {'/'.join(c)}: not a WORKLOAD/METRIC of this run")
    record = {"pairs": [], "traced": [], "summary": {}, "claims": sorted(args.claim),
              "verdicts": {}}
    for w in workloads:
        pairs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"workload": w, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(getattr(args, side), w, seed, 0)
            print(w, seed, {s: pair[s]["metrics"]["wall_s"]["value"] for s in order}, flush=True)
            pairs.append(pair)
        record["pairs"] += pairs
        summary = record["summary"][w] = _summary(pairs, metrics)
        record["verdicts"][w] = {
            m["name"]: _verdict(summary[m["name"]], m, (w, m["name"]) in claims, len(pairs))
            for m in metrics}
    for w in args.traced:
        for side in ("parent", "change"):
            record["traced"].append({"workload": w, "seed": args.seeds[0], "side": side,
                                     "result": _run(getattr(args, side), w, args.seeds[0], 1)})
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for w, verdicts in record["verdicts"].items():
        for name, verdict in verdicts.items():
            s = record["summary"][w][name]
            print(f"{w} {name}: {verdict} (change/parent {s['change_over_parent']:.3f}, "
                  f"change better in {s['change_better_in']}/{record['summary'][w]['pairs']}, "
                  f"parent IQR {s['parent_iqr']:.4g})")


if __name__ == "__main__":
    main()
