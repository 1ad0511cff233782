#!/usr/bin/env python3
"""Run the benchmark on two checkouts in interleaved pairs and write the record.

Usage: python scripts/bench_pairs.py PARENT CHANGE OUT.json
           [--workload W ...] [--seeds FIRST LAST] [--traced W ...]

PARENT and CHANGE are two checkouts of this repository, each with its own
``perfbench/`` and ``src/``.  For every workload and seed, the script runs
``perfbench/run.py --workload W --seed S --trace 0`` in both, the parent
first on odd seeds and the change first on even ones, and keeps the JSON
result line of each run.  Then it makes one traced run (``--trace 1``,
first seed) per side of each ``--traced`` workload.  OUT.json holds every
run and, per workload and end-to-end metric, each side's median and
quartiles, the number of pairs the change won (ties count for neither) and
the parent's interquartile range, the spread a claimed gain must exceed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _summary(pairs: list[dict]) -> dict:
    out = {"pairs": len(pairs), "correct": all(p[s]["correct"] for p in pairs
                                               for s in ("parent", "change")),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}}
    for m in METRICS:
        val = {s: np.array([p[s]["metrics"][m]["value"] for p in pairs])
               for s in ("parent", "change")}
        q = {s: np.percentile(v, [25, 50, 75]).tolist() for s, v in val.items()}
        out[m] = {"parent_q1_median_q3": q["parent"], "change_q1_median_q3": q["change"],
                  "change_over_parent": q["change"][1] / q["parent"][1],
                  "change_lower_in": int(np.sum(val["change"] < val["parent"])),
                  "parent_iqr": q["parent"][2] - q["parent"][0]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    ap.add_argument("--traced", action="append", default=[])
    args = ap.parse_args()
    record = {"pairs": [], "traced": [], "summary": {}}
    for w in args.workload or ["table-cd"]:
        pairs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"workload": w, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(getattr(args, side), w, seed, 0)
            print(w, seed, {s: pair[s]["metrics"]["wall_s"]["value"] for s in order}, flush=True)
            pairs.append(pair)
        record["pairs"] += pairs
        record["summary"][w] = _summary(pairs)
    for w in args.traced:
        for side in ("parent", "change"):
            record["traced"].append({"workload": w, "seed": args.seeds[0], "side": side,
                                     "result": _run(getattr(args, side), w, args.seeds[0], 1)})
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
