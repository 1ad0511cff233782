"""Synchronized multiplicative updates and their surrogate bounds."""

import gc
import weakref
from functools import cached_property

import numpy as np
import pytest
from scipy.optimize import brentq

from ipscale import model as mdl
from ipscale.design import ColumnBlock, DesignMatrix, TableSchema, build_table_design
from ipscale.model import Coefficients, ProblemInstance
from ipscale.solvers import (
    SolverConfig,
    SolverError,
    _MMFamily,
    gis_fit,
    mm_binary_fit,
    mm_general_fit,
    mm_parallel_fit,
    solve,
)
from ipscale.surrogates import (
    surrogate_block,
    surrogate_rowsum,
    surrogate_signed,
    surrogate_uniform,
)

from conftest import (
    oracle_beta,
    make_rng,
    random_binary_instance,
    random_general_instance,
    random_nonneg_instance,
)


def nll(inst, beta):
    return mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, beta))


def mm_family(inst, variant, beta0=None, **cfg):
    """The variant's family at beta0 (default 0), not yet stepped."""
    return _MMFamily(inst, SolverConfig(variant=variant, beta_init=beta0, **cfg), variant)


def one_step(inst, variant, beta0=None, **cfg):
    """The variant's family after one step from beta0 (default 0)."""
    fam = mm_family(inst, variant, beta0, **cfg)
    fam.step()
    return fam


class TestStepSizes:
    def test_single_column_design_steps_coincide(self):
        X = DesignMatrix.from_dense(np.ones((5, 1)))
        inst = ProblemInstance.from_counts(X, [2.0, 3.0, 1.0, 4.0, 2.0])
        expected = np.log(inst.counts.sum() / 5.0)
        c1 = one_step(inst, "mm-binary").c
        c2 = one_step(inst, "gis").c
        assert c1.beta[0] == pytest.approx(expected, rel=1e-14)
        assert c2.beta[0] == pytest.approx(expected, rel=1e-14)

    def test_table_2x2x100_step_ratio(self):
        # main-effects model on a 2 x 2 x 100 table: p = 102 columns but
        # max row sum R = 4, so the row-sum step is 25.5x more aggressive
        schema = TableSchema(factors=(("a", 2), ("b", 2), ("c", 100)), interaction_order=1)
        X = build_table_design(schema)
        assert X.n_cols == 102
        assert X.row_sum_max == 4.0
        rng = make_rng(0)
        counts = rng.poisson(3.0, size=X.n_rows).astype(float) + 1.0
        inst = ProblemInstance.from_counts(X, counts)
        cb = one_step(inst, "mm-binary").c
        cg = one_step(inst, "gis").c
        ratio = cg.beta / cb.beta
        assert np.allclose(ratio[np.abs(cb.beta) > 1e-12], 102.0 / 4.0, rtol=1e-10)

    def test_zero_statistic_clamps(self):
        arr = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(arr), [0.0, 0.0, 4.0])
        fam = one_step(inst, "mm-binary")
        assert fam.c.beta[1] == -250.0
        assert 1 in fam.divergent
        res = solve(inst, SolverConfig(variant="mm-binary", max_iters=1))
        assert res.beta[1] == -250.0
        assert res.flags["divergent_coordinates"] == [1]


class TestGeneralDesignStep:
    def test_reduces_to_rowsum_step_on_nonnegative(self):
        inst = random_nonneg_instance(31, n_rows=30, n_cols=5)
        ca = one_step(inst, "gis").c
        cb = one_step(inst, "mm-general").c
        assert np.allclose(ca.beta, cb.beta, rtol=1e-13, atol=1e-15)

    def test_balanced_positive_negative_mass_is_stationary(self):
        # column [1, -1] with equal mean mass on both rows and zero statistic:
        # the update's quadratic root is exactly 1, so the step is zero
        arr = np.array([[1.0, 1.0], [1.0, -1.0]])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(arr), [1.0, 1.0])
        c = one_step(inst, "mm-general").c
        assert c.beta[1] == 0.0

    def test_root_matches_scalar_root_finder(self):
        inst = random_general_instance(32, n_rows=25, n_cols=6)
        R = inst.design.row_sum_max
        Xp, Xn = inst.design.pos_neg_parts()
        beta0 = make_rng(5).normal(0, 0.3, size=6)
        c = Coefficients.from_beta(inst, beta0)
        a = Xp.T @ c.mu
        b = inst.suff_stats.copy()
        cc = Xn.T @ c.mu
        delta = one_step(inst, "mm-general", beta0).c.beta - c.beta
        for j in range(6):
            root = brentq(lambda d: -b[j] + a[j] * np.exp(R * d) - cc[j] * np.exp(-R * d),
                          -50, 50, xtol=1e-14)
            assert delta[j] == pytest.approx(root, abs=1e-9)

    def test_stationarity_residual_after_each_step(self):
        inst = random_general_instance(33, n_rows=30, n_cols=6)
        R = inst.design.row_sum_max
        Xp, Xn = inst.design.pos_neg_parts()
        fam = mm_family(inst, "mm-general")
        c = fam.c
        for _ in range(10):
            a = Xp.T @ c.mu
            b = inst.suff_stats
            cc = Xn.T @ c.mu
            before = c.beta.copy()
            fam.step()
            delta = c.beta - before
            resid = np.abs(-b + a * np.exp(R * delta) - cc * np.exp(-R * delta))
            assert np.all(resid <= 1e-10 * (a + np.abs(b) + cc))

    def test_upward_divergence_clamps(self):
        # a = 0 with b > 0: no finite stationary point, coordinate goes to +clamp
        arr = np.array([[1.0, -1.0], [1.0, 0.0]])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(arr), [2.0, 1.0])
        fam = mm_family(inst, "mm-general")
        fam.c.mu = np.array([0.0, 1.0])  # kill the negative column's mean mass
        fam.step()
        assert fam.c.beta[1] == -250.0 or fam.c.beta[1] == 250.0
        assert 1 in fam.divergent

    def test_signed_parts_live_for_one_fit(self, monkeypatch):
        # the dense parts of a signed design belong to the fit, not to the design
        inst = random_general_instance(34, n_rows=40, n_cols=6)
        X = inst.design
        assert X.kind == "general"
        taken, real = [], DesignMatrix.pos_neg_parts

        def pos_neg_parts(self):
            parts = real(self)
            taken.extend(weakref.ref(a) for a in parts)
            return parts

        monkeypatch.setattr(DesignMatrix, "pos_neg_parts", pos_neg_parts)
        res = solve(inst, SolverConfig(variant="mm-general", max_iters=5))
        assert len(taken) == 2
        copies = [name for name, value in vars(X).items()
                  for a in (value if isinstance(value, (tuple, list)) else [value])
                  if isinstance(a, np.ndarray) and a.size == X.matrix.size
                  and not np.shares_memory(a, X.matrix)]
        assert copies == []
        del res
        gc.collect()
        assert [ref() for ref in taken] == [None, None]


class TestParallelBlocks:
    def test_singleton_blocks_solve_per_coordinate_equations(self):
        for make in (random_nonneg_instance, random_binary_instance):
            inst = make(34, n_rows=25, n_cols=5)
            rowsum = inst.design.abs_row_sums()
            c0 = Coefficients.from_beta(inst, np.zeros(5))
            stepped = one_step(inst, "mm-parallel", block_sizes=(1,) * 5).c
            X = inst.design.toarray()
            for j in range(5):
                s_j = inst.suff_stats[j]

                def eq(d):
                    return float((X[:, j] * c0.mu * np.exp(rowsum * d)).sum()) - s_j

                root = brentq(eq, -40, 40, xtol=1e-13)
                assert stepped.beta[j] == pytest.approx(root, abs=1e-8), (inst.design.kind, j)

    def test_whole_vector_block_identity_design_one_step(self):
        n = np.array([2.0, 5.0, 1.0, 3.0])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(4)), n)
        c = one_step(inst, "mm-parallel", block_sizes=(4,)).c
        assert np.allclose(c.mu, n, rtol=1e-12)

    def test_objective_non_increasing_across_fit(self):
        inst = random_nonneg_instance(35, n_rows=30, n_cols=6)
        cfg = SolverConfig(variant="mm-parallel", eps_tol=1e-8, block_sizes=(3, 3))
        res = mm_parallel_fit(inst, cfg)
        obj = res.trace.objectives()
        assert np.all(np.diff(obj) <= 1e-9 * (1.0 + np.abs(obj[:-1])))

    def test_rejects_general_design(self):
        inst = random_general_instance(36)
        with pytest.raises(SolverError, match="non-negative"):
            mm_parallel_fit(inst, SolverConfig(variant="mm-parallel"))

    @pytest.mark.parametrize("variant, make, match", [
        ("mm-parallel", random_general_instance, "mm-parallel requires a non-negative design"),
        ("gis", random_general_instance, "gis requires a non-negative design"),
        ("mm-binary", random_nonneg_instance, "mm-binary requires a binary design"),
        ("iis", random_general_instance, "iis requires a non-negative design"),
    ])
    def test_design_kind_checked_before_set_up(self, monkeypatch, variant, make, match):
        inst = make(36)
        built = []
        monkeypatch.setattr(DesignMatrix, "column_block", lambda self, cols: built.append(cols))
        monkeypatch.setattr(DesignMatrix, "slope_matvec", lambda self, v: built.append(v))
        monkeypatch.setattr(Coefficients, "from_beta",
                            classmethod(lambda cls, inst, beta: built.append(beta)))
        with pytest.raises(SolverError, match=match):
            solve(inst, SolverConfig(variant=variant))
        assert built == []

    def test_healthy_fit_reports_no_failed_block_solves(self):
        inst = random_nonneg_instance(35, n_rows=30, n_cols=6)
        res = mm_parallel_fit(inst, SolverConfig(variant="mm-parallel", block_sizes=(3, 3)))
        assert res.termination == "tol_reached"
        assert res.flags["block_step_failures"] == 0
        fam = mm_family(inst, "mm-parallel")
        assert fam.flags["block_step_failures"] == 0  # reported before the first step

    def test_failed_subproblems_end_as_diverged(self):
        # every block's first Newton step overflows, so no step is accepted:
        # the unchanged coefficients are a stall, not a fixed point
        from ipscale import harness

        inst = harness.gen_instance(harness.ExperimentSpec("nonneg-large", scale_factor=0.2))
        res = mm_parallel_fit(inst, SolverConfig(variant="mm-parallel"))
        assert res.termination == "diverged"
        assert not res.converged
        assert res.flags["block_step_failures"] > 0

    def test_each_block_built_once_per_fit(self, monkeypatch):
        inst = random_binary_instance(38, n_rows=30, n_cols=6)
        built, real = [], DesignMatrix.column_block

        def column_block(self, cols):
            built.append(tuple(cols))
            return real(self, cols)

        monkeypatch.setattr(DesignMatrix, "column_block", column_block)
        res = mm_parallel_fit(inst, SolverConfig(variant="mm-parallel", eps_tol=1e-12,
                                                 max_iters=5, block_sizes=(2, 3, 1)))
        assert res.trace.final().iteration == 5
        assert built == [(0, 1), (2, 3, 4), (5,)]

    def test_each_block_copied_row_major_once_per_fit(self, monkeypatch):
        inst = random_binary_instance(38, n_rows=30, n_cols=6)
        copied, grams = [], []
        real_copy, real_gram = ColumnBlock._row_major.func, ColumnBlock.gram

        def row_major(self):
            copied.append(self.shape[1])
            return real_copy(self)

        def gram(self, w):
            grams.append(self.shape[1])
            return real_gram(self, w)

        patched = cached_property(row_major)
        patched.__set_name__(ColumnBlock, "_row_major")
        monkeypatch.setattr(ColumnBlock, "_row_major", patched)
        monkeypatch.setattr(ColumnBlock, "gram", gram)
        res = mm_parallel_fit(inst, SolverConfig(variant="mm-parallel", eps_tol=1e-12,
                                                 max_iters=5, block_sizes=(2, 3, 1)))
        assert res.trace.final().iteration == 5
        assert sorted(copied) == [1, 2, 3]
        assert all(grams.count(g) >= 5 for g in (1, 2, 3))

    def test_block_sizes_must_partition(self):
        inst = random_nonneg_instance(37, n_cols=5)
        with pytest.raises(SolverError, match="sum to"):
            mm_parallel_fit(inst, SolverConfig(variant="mm-parallel", block_sizes=(2, 2)))


class TestSurrogateBounds:
    def check_majorization(self, inst, surrogate, n_samples=300, blocks=None, seed=40):
        rng = make_rng(seed)
        p = inst.n_cols
        for _ in range(n_samples):
            ref = rng.normal(0.0, 0.5, size=p)
            beta = ref + rng.normal(0.0, 0.5, size=p)
            args = (inst, beta, ref) if blocks is None else (inst, beta, ref, blocks)
            g_val = surrogate(*args)
            l_val = nll(inst, beta)
            scale = 1.0 + abs(nll(inst, ref))
            assert g_val >= l_val - 1e-9 * scale
        ref = rng.normal(0.0, 0.5, size=p)
        args = (inst, ref, ref) if blocks is None else (inst, ref, ref, blocks)
        assert abs(surrogate(*args) - nll(inst, ref)) <= 1e-12 * (1.0 + abs(nll(inst, ref)))

    def test_uniform_weight_bound_binary(self):
        self.check_majorization(random_binary_instance(41, 20, 5), surrogate_uniform)

    def test_rowsum_bound_nonnegative(self):
        self.check_majorization(random_nonneg_instance(42, 20, 5), surrogate_rowsum)

    def test_signed_bound_general(self):
        self.check_majorization(random_general_instance(43, 20, 5), surrogate_signed)

    def test_block_bound_nonnegative(self):
        blocks = [np.array([0, 1]), np.array([2, 3, 4])]
        self.check_majorization(random_nonneg_instance(44, 20, 5), surrogate_block,
                                blocks=blocks)

    def test_descent_chain(self):
        inst = random_binary_instance(45, 25, 6)
        fam = mm_family(inst, "mm-binary")
        prev = nll(inst, fam.c.beta)
        for _ in range(50):
            fam.step()
            cur = nll(inst, fam.c.beta)
            assert cur <= prev + 1e-9 * (1.0 + abs(prev))
            prev = cur


class TestMmFitsReachOracle:
    def test_binary_variants(self):
        inst = random_binary_instance(46, 30, 6)
        oracle_b = oracle_beta(inst)
        for fit in (mm_binary_fit, gis_fit, mm_general_fit):
            res = fit(inst, SolverConfig(variant="mm-binary", eps_tol=1e-9,
                                         max_iters=200_000))
            assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6, fit.__name__

    def test_nonneg_variants(self):
        inst = random_nonneg_instance(47, 30, 6)
        oracle_b = oracle_beta(inst)
        for fit in (gis_fit, mm_general_fit, mm_parallel_fit):
            res = fit(inst, SolverConfig(variant="gis", eps_tol=1e-9, max_iters=200_000))
            assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6, fit.__name__

    def test_general_variant(self):
        inst = random_general_instance(48, 30, 6)
        oracle_b = oracle_beta(inst)
        res = mm_general_fit(inst, SolverConfig(variant="mm-general", eps_tol=1e-9,
                                                max_iters=200_000))
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6

    def test_binary_design_required_for_binary_step(self):
        inst = random_nonneg_instance(49)
        with pytest.raises(SolverError, match="binary"):
            mm_binary_fit(inst, SolverConfig(variant="mm-binary"))
