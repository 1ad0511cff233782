"""The benchmark's checkers accept the program's output and reject perturbed copies.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from ipscale import SolverConfig, TableSchema, cli, harness, solve  # noqa: E402

NAMES = ["f1", "f2", "f3"]
LEVELS = (4, 4, 4)


def _table_instance(scenario="table-moderate"):
    inst = harness.gen_instance(harness.ExperimentSpec(scenario, scale_factor=0.4, seed=3))
    cells = checks.table_cells((4, 4, 4, 4))
    labels = checks.table_labels(["f1", "f2", "f3", "f4"], (4, 4, 4, 4), 2)
    X = checks.design_from_labels(labels, ["f1", "f2", "f3", "f4"], cells)
    assert labels == inst.design.column_labels
    return inst, X, labels


@pytest.mark.parametrize("variant", ["ips", "q-ips"])
def test_fit_check_rejects_perturbed_beta(variant):
    inst, X, _ = _table_instance()
    ref = checks.reference(X, inst.counts)
    res = solve(inst, SolverConfig(variant=variant, eps_tol=1e-4))
    assert checks.check_fit(X, inst.counts, res.beta, variant, 1e-4, ref) == []
    bad = res.beta.copy()
    bad[5] += 1e-2
    errs = checks.check_fit(X, inst.counts, bad, variant, 1e-4, ref)
    assert any("relative gradient" in e for e in errs)


def test_fit_check_rejects_a_wrong_reference_gap():
    inst, X, _ = _table_instance()
    ref = checks.reference(X, inst.counts)
    res = solve(inst, SolverConfig(variant="ips", eps_tol=1e-4))
    far = dict(ref, f=ref["f"] + 1.0)  # a reference objective above the fit's
    assert any("objective gap" in e for e in checks.check_fit(X, inst.counts, res.beta, "ips", 1e-4, far))


def _path_outputs():
    inst, X, labels = _table_instance("l1-path")
    result = harness.l1_path(inst, grid_size=4, eps_tol=1e-8)
    rows = np.array([[p.lam, p.support_size, p.deviance, p.ebic] for p in result.points])
    sel = result.selected
    selected = {lab: b for lab, b in zip(labels, sel.beta) if b != 0.0}
    return X, labels, inst.counts, rows, selected, sel.lam


def test_path_check_accepts_the_path_and_rejects_a_shifted_row():
    X, labels, counts, rows, selected, lam = _path_outputs()
    assert checks.check_path(X, labels, counts, rows, selected, lam) == []
    shifted = rows.copy()
    shifted[2, 3] += 1.0
    assert checks.check_path(X, labels, counts, shifted, selected, lam) != []
    top = rows.copy()
    top[0, 0] *= 1.001
    assert checks.check_path(X, labels, counts, top, selected, lam) != []


def test_path_check_rejects_a_perturbed_selection():
    X, labels, counts, rows, selected, lam = _path_outputs()
    moved = dict(selected)
    key = next(k for k in moved if k != "(intercept)")
    moved[key] *= 1.01
    assert any("KKT" in e for e in checks.check_path(X, labels, counts, rows, moved, lam))


def _rake(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    seed = rng.gamma(2.0, 1.0, LEVELS)
    seed[0, 1, 2] = 0.0
    source = rng.gamma(2.0, 1.0, LEVELS)
    TableSchema(factors=tuple((n, m) for n, m in zip(NAMES, LEVELS))).save(tmp_path / "schema.json")
    cells = checks.table_cells(LEVELS)
    np.savetxt(tmp_path / "seed.csv", np.column_stack([cells, seed.ravel()]), delimiter=",",
               fmt=["%d"] * 3 + ["%.17g"], header="f1,f2,f3,value", comments="")
    margins, args = {}, []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        margins[(j, k)] = source.sum(axis=3 - j - k)
        path = tmp_path / f"m{j}{k}.csv"
        np.savetxt(path, np.column_stack([checks.table_cells((4, 4)), margins[(j, k)].ravel()]),
                   delimiter=",", fmt=["%d", "%d", "%.17g"],
                   header=f"{NAMES[j]},{NAMES[k]},target", comments="")
        args += ["--margin", str(path)]
    code = cli.main(["rake", "--schema", str(tmp_path / "schema.json"), "--seed-table",
                     str(tmp_path / "seed.csv"), *args, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    adjusted = checks.read_adjusted(tmp_path / "out" / "adjusted.csv", LEVELS)
    return adjusted, seed, margins, checks.ipf(seed, margins)


def test_rake_check_rejects_a_perturbed_table(tmp_path):
    adjusted, seed, margins, ref = _rake(tmp_path)
    assert checks.check_rake(adjusted, seed, margins, ref) == []
    bumped = adjusted.copy()
    bumped[1, 1, 1] *= 1.001
    assert checks.check_rake(bumped, seed, margins, ref) != []
    filled = adjusted.copy()
    filled[0, 1, 2] = 1e-3
    assert any("zero cell" in e for e in checks.check_rake(filled, seed, margins, ref))
