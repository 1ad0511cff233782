"""Shared instance builders and the acceptance-verdict summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from ipscale.design import DesignMatrix, TableSchema, build_table_design
from ipscale.model import ProblemInstance

# Verdict lines registered by the acceptance module; echoed in a terminal
# summary section so they are visible without -s.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_binary_design(rng, n_rows: int, n_cols: int) -> DesignMatrix:
    """Random binary design with an intercept column, no zero rows/columns."""
    arr = np.zeros((n_rows, n_cols))
    arr[:, 0] = 1.0
    for j in range(1, n_cols):
        col = (rng.random(n_rows) < 0.4).astype(float)
        while col.sum() == 0:
            col = (rng.random(n_rows) < 0.4).astype(float)
        arr[:, j] = col
    labels = ["(intercept)"] + [f"b{j}" for j in range(1, n_cols)]
    return DesignMatrix.from_dense(arr, labels)


def _counts_for(rng, design: DesignMatrix, beta_scale: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    beta_star = rng.normal(0.0, beta_scale, size=design.n_cols)
    beta_star[0] = 1.0
    mu_star = np.exp(design.matvec(beta_star))
    counts = rng.poisson(mu_star).astype(float) + 1.0  # all counts >= 1
    return counts, beta_star


def random_run_design(rng, n_rows: int = 24, n_blocks: int = 5) -> DesignMatrix:
    """Random binary design with an intercept, built from blocks of columns
    that are disjoint with one support size, disjoint with unequal support
    sizes, or random and overlapping, so that its disjoint runs vary in
    length and support size (n_rows >= 10)."""
    cols = [np.ones(n_rows, dtype=bool)]
    for _ in range(n_blocks):
        kind, k = int(rng.integers(3)), int(rng.integers(1, 5))
        perm = rng.permutation(n_rows)
        if kind == 0:  # disjoint, one size
            cuts = np.arange(k + 1) * int(rng.integers(1, n_rows // k + 1))
        elif kind == 1:  # disjoint, sizes 1..k in random order
            cuts = np.concatenate([[0], np.cumsum(rng.permutation(k) + 1)])
        for i in range(k):
            col = np.zeros(n_rows, dtype=bool)
            if kind == 2:  # overlapping
                col[rng.random(n_rows) < 0.4] = True
                col[perm[i]] = True
            else:
                col[perm[cuts[i]:cuts[i + 1]]] = True
            cols.append(col)
    return DesignMatrix.from_dense(np.array(cols, dtype=float).T)


def random_binary_instance(seed: int, n_rows: int = 50, n_cols: int = 8) -> ProblemInstance:
    rng = make_rng(seed)
    X = random_binary_design(rng, n_rows, n_cols)
    counts, beta_star = _counts_for(rng, X)
    return ProblemInstance.from_counts(X, counts, beta_true=beta_star)


def random_nonneg_instance(seed: int, n_rows: int = 50, n_cols: int = 7) -> ProblemInstance:
    rng = make_rng(seed)
    arr = np.hstack([np.ones((n_rows, 1)), rng.uniform(0.0, 0.6, size=(n_rows, n_cols - 1))])
    X = DesignMatrix.from_dense(arr)
    counts, beta_star = _counts_for(rng, X, beta_scale=0.5)
    return ProblemInstance.from_counts(X, counts, beta_true=beta_star)


def random_general_instance(seed: int, n_rows: int = 50, n_cols: int = 7) -> ProblemInstance:
    rng = make_rng(seed)
    arr = np.hstack([np.ones((n_rows, 1)), rng.normal(0.0, 0.4, size=(n_rows, n_cols - 1))])
    X = DesignMatrix.from_dense(arr)
    counts, beta_star = _counts_for(rng, X, beta_scale=0.5)
    return ProblemInstance.from_counts(X, counts, beta_true=beta_star)


def table_instance_2x2(counts=(10, 20, 50, 20)) -> ProblemInstance:
    schema = TableSchema(factors=(("row", 2), ("col", 2)), interaction_order=1)
    X = build_table_design(schema)
    return ProblemInstance.from_counts(X, np.asarray(counts, dtype=float))


def table_instance_3x3x3(seed: int = 7) -> ProblemInstance:
    """Random 3x3x3 table under the all-two-way association model."""
    rng = make_rng(seed)
    schema = TableSchema(factors=(("a", 3), ("b", 3), ("c", 3)), interaction_order=2)
    X = build_table_design(schema)
    counts = rng.poisson(8.0, size=X.n_rows).astype(float) + 1.0
    return ProblemInstance.from_counts(X, counts)


def oracle_beta(inst: ProblemInstance) -> np.ndarray:
    """Dense-Newton reference solution.

    Newton sits at the optimum well before 200 iterations; the cap only
    guards against spinning at the float-noise gradient floor.
    """
    from ipscale.solvers import SolverConfig, newton_fit

    return newton_fit(inst, SolverConfig(variant="newton", eps_tol=1e-12, max_iters=200)).beta


@pytest.fixture
def inst_2x2() -> ProblemInstance:
    return table_instance_2x2()
