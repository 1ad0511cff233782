#!/usr/bin/env python3
"""Say which fields moved between two ``golden_traces.py`` output directories.

Usage: python scripts/golden_diff.py OLD NEW [--expect GLOB ...]

Compares every file under OLD and NEW by its path relative to the
directory.  For each fit record file that differs it prints what moved:
the termination, each flag, the coefficients (how many and by how much),
the record count and, over the records both files hold, each per-record
field (iteration, work, objective, rel_gradient, est_error) with the
number of records in which it moved.  Any other file that differs (CLI
outputs, ``designs.txt``, ``*-design.txt``) is reported by its count of
changed lines.

A differing file is expected when its relative path matches one of the
``--expect`` globs (``fnmatch`` rules, so ``*`` also crosses ``/``).  The
exit status is 1 when a file outside those globs differs or a file exists
on one side only, and 0 otherwise.
"""

import argparse
import fnmatch
import sys
from pathlib import Path

RECORD_FIELDS = ("iteration", "work", "objective", "rel_gradient", "est_error")


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _parse_fit(text: str) -> dict | None:
    """The fields of a fit record file, or None for any other file."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("termination "):
        return None
    fit = {"termination": lines[0].split(" ", 1)[1], "flags": {}, "beta": [], "records": []}
    for ln in lines[1:]:
        kind, _, rest = ln.partition(" ")
        if kind == "flag":
            name, _, value = rest.partition(" ")
            fit["flags"][name] = value
        elif kind == "beta":
            fit["beta"] = rest.split()
        elif kind == "record":
            fit["records"].append(rest.split())
    return fit


def _float(s: str) -> float:
    return float.fromhex(s) if "0x" in s else float(s)


def _fit_changes(old: dict, new: dict) -> list[str]:
    out = []
    if old["termination"] != new["termination"]:
        out.append(f"termination {old['termination']} -> {new['termination']}")
    for name in sorted(old["flags"].keys() | new["flags"].keys()):
        a, b = old["flags"].get(name, "(absent)"), new["flags"].get(name, "(absent)")
        if a != b:
            out.append(f"flag {name} {a or '(empty)'} -> {b or '(empty)'}")
    if old["beta"] != new["beta"]:
        if len(old["beta"]) != len(new["beta"]):
            out.append(f"beta length {len(old['beta'])} -> {len(new['beta'])}")
        else:
            moved = [(_float(a), _float(b)) for a, b in zip(old["beta"], new["beta"]) if a != b]
            gap = max(abs(a - b) for a, b in moved)
            out.append(f"beta {len(moved)} of {len(old['beta'])} entries moved, max |diff| {gap:.3g}")
    n_old, n_new = len(old["records"]), len(new["records"])
    if n_old != n_new:
        out.append(f"records {n_old} -> {n_new}, final iteration "
                   f"{old['records'][-1][0]} -> {new['records'][-1][0]}")
    for k, field in enumerate(RECORD_FIELDS):
        moved = sum(a[k] != b[k] for a, b in zip(old["records"], new["records"]))
        if moved:
            out.append(f"record {field} moved in {moved} of {min(n_old, n_new)} shared records")
    return out


def _text_changes(old: str, new: str) -> list[str]:
    a, b = old.splitlines(), new.splitlines()
    moved = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return [f"{moved} of {max(len(a), len(b))} lines differ"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--expect", action="append", default=[], metavar="GLOB",
                    help="relative path glob of files allowed to differ (repeatable)")
    args = ap.parse_args()
    old_files, new_files = _files(args.old), _files(args.new)
    one_side = sorted(old_files ^ new_files)
    for name in one_side:
        print(f"{name}: only in {'OLD' if name in old_files else 'NEW'}  UNEXPECTED")
    identical = expected = unexpected = 0
    for name in sorted(old_files & new_files):
        a, b = (args.old / name).read_bytes(), (args.new / name).read_bytes()
        if a == b:
            identical += 1
            continue
        ok = any(fnmatch.fnmatch(name, g) for g in args.expect)
        expected += ok
        unexpected += not ok
        ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
        fa, fb = _parse_fit(ta), _parse_fit(tb)
        changes = _fit_changes(fa, fb) if fa and fb else _text_changes(ta, tb)
        print(f"{name}:{'' if ok else '  UNEXPECTED'}")
        for line in changes:
            print(f"    {line}")
    print(f"golden_diff: {identical} identical, {expected} differ as expected, "
          f"{unexpected} differ unexpectedly, {len(one_side)} on one side only")
    return 1 if unexpected or one_side else 0


if __name__ == "__main__":
    sys.exit(main())
