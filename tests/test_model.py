"""Objective, gradients, profiled objective, fit statistics, curvature bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ipscale import model as mdl
from ipscale.design import DesignMatrix, TableSchema, build_table_design
from ipscale.model import Coefficients, ModelError, ProblemInstance

from conftest import make_rng, random_binary_instance, random_general_instance, table_instance_2x2


def fd_gradient(f, x, h_scale=1e-6):
    """Central finite differences with coordinate-relative steps."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        h = h_scale * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


class TestNegLogLikelihood:
    def test_zero_beta_unit_offset(self):
        X = DesignMatrix.from_dense(np.eye(4))
        inst = ProblemInstance.from_counts(X, [3.0, 1.0, 2.0, 5.0])
        c = Coefficients.from_beta(inst, np.zeros(4))
        assert mdl.neg_log_likelihood(inst, c) == pytest.approx(4.0, abs=1e-15)

    def test_scalar_instance(self):
        X = DesignMatrix.from_dense([[1.0]])
        inst = ProblemInstance.from_counts(X, [2.0])
        c = Coefficients.from_beta(inst, np.array([np.log(2.0)]))
        # independent one-liner: -n*beta + q*exp(beta)
        expected = -2.0 * np.log(2.0) + 1.0 * np.exp(np.log(2.0))
        assert mdl.neg_log_likelihood(inst, c) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(2.0 - 2.0 * np.log(2.0))

    def test_saturated_fit_is_minimum(self):
        rng = make_rng(0)
        X = DesignMatrix.from_dense(np.eye(5))
        n = rng.integers(1, 10, size=5).astype(float)
        inst = ProblemInstance.from_counts(X, n)
        sat = Coefficients.from_beta(inst, np.log(n))
        l_sat = mdl.neg_log_likelihood(inst, sat)
        assert l_sat == pytest.approx(n.sum() - float(n @ np.log(n)), rel=1e-12)
        for _ in range(100):
            beta = rng.normal(0.0, 2.0, size=5)
            l = mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, beta))
            assert l >= l_sat - 1e-9

    def test_overflow_returns_inf(self):
        X = DesignMatrix.from_dense([[1.0]])
        inst = ProblemInstance.from_counts(X, [2.0])
        c = Coefficients.from_beta(inst, np.array([800.0]))
        assert mdl.neg_log_likelihood(inst, c) == np.inf

    def test_convex_along_random_segments(self):
        inst = random_binary_instance(21, n_rows=30, n_cols=6)
        rng = make_rng(4)
        for _ in range(100):
            b1 = rng.normal(0.0, 1.0, size=6)
            b2 = rng.normal(0.0, 1.0, size=6)
            t = rng.random()
            lm = mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, t * b1 + (1 - t) * b2))
            l1 = mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, b1))
            l2 = mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, b2))
            assert lm <= t * l1 + (1 - t) * l2 + 1e-9


class TestGradient:
    def test_zero_at_saturated_fit(self):
        X = DesignMatrix.from_dense(np.eye(3))
        inst = ProblemInstance.from_counts(X, [2.0, 4.0, 1.0])
        c = Coefficients.from_beta(inst, np.log(inst.counts))
        assert np.allclose(mdl.gradient(inst, c), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        inst = random_general_instance(33, n_rows=40, n_cols=7)
        rng = make_rng(8)

        def f(beta):
            return mdl.neg_log_likelihood(inst, Coefficients.from_beta(inst, beta))

        for _ in range(50):
            beta = rng.normal(0.0, 0.8, size=7)
            g = mdl.gradient(inst, Coefficients.from_beta(inst, beta))
            g_fd = fd_gradient(f, beta)
            assert np.max(np.abs(g - g_fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_intercept_component(self):
        inst = random_binary_instance(5)
        beta = make_rng(2).normal(size=inst.n_cols) * 0.3
        c = Coefficients.from_beta(inst, beta)
        g = mdl.gradient(inst, c)
        assert g[0] == pytest.approx(c.mu.sum() - inst.counts.sum(), rel=1e-12)


class TestProfiledObjective:
    def test_uniform_predictor(self):
        inst = random_binary_instance(14, n_rows=24, n_cols=5)
        L0 = mdl.reparam_objective(inst, np.zeros(4))
        assert L0 == pytest.approx(inst.counts.sum() * np.log(24), rel=1e-12)

    def test_intercept_profiling_identity(self):
        inst = random_binary_instance(15, n_rows=30, n_cols=6)
        rng = make_rng(15)
        total = inst.total_count
        const = total * (1.0 - np.log(total))
        for _ in range(20):
            slope = rng.normal(0.0, 0.7, size=5)
            L = mdl.reparam_objective(inst, slope)
            b0 = mdl.optimal_intercept(inst, slope)
            c = Coefficients.from_beta(inst, np.concatenate(([b0], slope)))
            l = mdl.neg_log_likelihood(inst, c)
            assert abs(l - (L + const)) <= 1e-9 * (1.0 + abs(L))

    def test_profiled_gradient_matches_fd(self):
        inst = random_general_instance(16, n_rows=30, n_cols=6)
        rng = make_rng(16)
        for _ in range(50):
            slope = rng.normal(0.0, 0.7, size=5)
            g = mdl.reparam_gradient(inst, slope)
            g_fd = fd_gradient(lambda sl: mdl.reparam_objective(inst, sl), slope)
            assert np.max(np.abs(g - g_fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_uniform_slope_gradient_closed_form(self):
        inst = random_binary_instance(17, n_rows=20, n_cols=5)
        g = mdl.reparam_gradient(inst, np.zeros(4))
        s = inst.suff_stats
        expected = -s[1:] + (inst.total_count / inst.n_rows) * inst.design.col_sums()[1:]
        assert np.allclose(g, expected, rtol=1e-12)

    def test_offset_scale_invariance(self):
        rng = make_rng(18)
        arr = np.hstack([np.ones((20, 1)), rng.uniform(0, 1, size=(20, 4))])
        X = DesignMatrix.from_dense(arr)
        n = rng.poisson(3.0, size=20) + 1.0
        q = rng.uniform(0.5, 2.0, size=20)
        a = ProblemInstance.from_counts(X, n, offset=q)
        b = ProblemInstance.from_counts(X, n, offset=10.0 * q)
        slope = rng.normal(size=4) * 0.5
        assert np.allclose(mdl.reparam_gradient(a, slope), mdl.reparam_gradient(b, slope),
                           rtol=1e-12, atol=1e-12)

    def test_requires_intercept(self):
        X = DesignMatrix.from_dense(np.eye(3))
        inst = ProblemInstance.from_counts(X, [1.0, 2.0, 3.0])
        with pytest.raises(ModelError, match="intercept"):
            mdl.reparam_objective(inst, np.zeros(2))


class TestOptimalIntercept:
    def test_direct_formula(self):
        rng = make_rng(19)
        arr = np.hstack([np.ones((10, 1)), (rng.random((10, 3)) < 0.5).astype(float)])
        arr[0, 1:] = 1.0  # avoid zero rows/cols
        X = DesignMatrix.from_dense(arr)
        counts = np.full(10, 10.0)
        inst = ProblemInstance.from_counts(X, counts)
        assert mdl.optimal_intercept(inst, np.zeros(3)) == pytest.approx(np.log(10.0), rel=1e-14)

    def test_total_mass_matched(self):
        inst = random_binary_instance(20, n_rows=25, n_cols=6)
        rng = make_rng(20)
        for _ in range(20):
            slope = rng.normal(0.0, 0.8, size=5)
            b0 = mdl.optimal_intercept(inst, slope)
            c = Coefficients.from_beta(inst, np.concatenate(([b0], slope)))
            assert c.mu.sum() == pytest.approx(inst.counts.sum(), rel=1e-12)
            g = mdl.gradient(inst, c)
            assert abs(g[0]) <= 1e-9 * inst.counts.sum()


class TestFitStatistics:
    def test_perfect_fit_zero(self):
        n = np.array([3.0, 5.0, 2.0])
        assert mdl.g_squared(n, n) == 0.0
        assert mdl.pearson_x2(n, n) == 0.0

    def test_hand_checked_values(self):
        n = np.array([2.0, 0.0])
        mu = np.array([1.0, 1.0])
        assert mdl.g_squared(n, mu) == pytest.approx(4.0 * np.log(2.0), rel=1e-14)
        assert mdl.pearson_x2(n, mu) == pytest.approx(2.0, rel=1e-14)

    def test_g_squared_nonnegative_for_matched_totals(self):
        rng = make_rng(22)
        for _ in range(100):
            n = rng.poisson(4.0, size=12).astype(float)
            if not np.any(n > 0):
                continue
            mu = rng.uniform(0.1, 5.0, size=12)
            mu *= n.sum() / mu.sum()
            assert mdl.g_squared(n, mu) >= 0.0

    def test_zero_mu_with_positive_count_is_inf(self):
        assert mdl.g_squared(np.array([1.0]), np.array([0.0])) == np.inf
        assert mdl.pearson_x2(np.array([1.0]), np.array([0.0])) == np.inf

    @given(
        arrays(np.int64, 8, elements=st.integers(0, 50)),
        arrays(np.float64, 8, elements=st.floats(0.01, 50.0, allow_subnormal=False)),
    )
    def test_g_squared_nonnegative_property(self, counts, raw_mu):
        # information inequality: matching the totals makes the statistic >= 0
        counts = counts.astype(np.float64)
        if not np.any(counts > 0):
            return
        mu = raw_mu * counts.sum() / raw_mu.sum()
        assert mdl.g_squared(counts, mu) >= -1e-9 * (1.0 + counts.sum())


class TestCurvatureBounds:
    def test_bohning_one_column(self):
        X = DesignMatrix.from_dense(np.array([[1.0, 1.0], [1.0, -1.0]]))
        inst = ProblemInstance.from_counts(X, [1.0, 1.0])
        W = mdl.bohning_bound(inst)
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_spectral_identity_slopes(self):
        X = DesignMatrix.from_dense(np.array([
            [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        inst = ProblemInstance.from_counts(X, [2.0, 2.0, 2.0])
        # slope block is [[1,0],[0,1],[0,0]]: spectral norm 1, total count 6
        assert mdl.spectral_bound(inst) == pytest.approx(3.0, rel=1e-12)

    def test_bohning_dominates_sampled_hessians(self):
        inst = random_binary_instance(23, n_rows=20, n_cols=6)
        W = mdl.bohning_bound(inst)
        worst = mdl.validate_curvature_bound(inst, W, n_weights=200, n_vectors=20, seed=1)
        assert worst >= -1e-9

    def test_spectral_dominates_sampled_hessians(self):
        inst = random_general_instance(24, n_rows=20, n_cols=5)
        w = mdl.spectral_bound(inst)
        worst = mdl.validate_curvature_bound(inst, w, n_weights=100, n_vectors=10, seed=2)
        assert worst >= -1e-9

    def test_block_hessian_psd(self):
        inst = random_general_instance(25, n_rows=25, n_cols=6)
        rng = make_rng(25)
        for _ in range(20):
            slope = rng.normal(0.0, 0.5, size=5)
            cols = rng.choice(5, size=3, replace=False)
            H = mdl.reparam_hessian(inst, slope, cols=cols)
            vals = np.linalg.eigvalsh(H)
            assert vals.min() >= -1e-9 * max(1.0, vals.max())


    def test_block_hessian_matches_dense_formula(self):
        table = TableSchema(factors=(("a", 3), ("b", 4), ("c", 2)), interaction_order=2)
        rng = make_rng(27)
        binary = ProblemInstance.from_counts(
            build_table_design(table), rng.poisson(5.0, size=table.n_cells) + 1.0)
        for inst in (binary, random_general_instance(27, n_rows=25, n_cols=6)):
            assert inst.design.kind in ("binary", "general")
            p1 = inst.n_cols - 1
            slope = rng.normal(0.0, 0.5, size=p1)
            cols = rng.choice(p1, size=4, replace=False)
            Xk = inst.design.toarray()[:, cols + 1]
            w = np.exp(inst.design.slope_matvec(slope))
            w /= w.sum()
            u = Xk.T @ w
            want = inst.total_count * (Xk.T @ (w[:, None] * Xk) - np.outer(u, u))
            got = mdl.reparam_hessian(inst, slope, cols=cols)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), inst.design.kind

    def test_spectral_matches_dense_norm(self):
        table = TableSchema(factors=(("a", 3), ("b", 4), ("c", 2)), interaction_order=2)
        binary = ProblemInstance.from_counts(
            build_table_design(table), make_rng(28).poisson(5.0, size=table.n_cells) + 1.0)
        for inst in (binary, random_general_instance(28, n_rows=30, n_cols=6)):
            Xs = inst.design.toarray()[:, 1:]
            want = 0.5 * inst.total_count * float(np.linalg.norm(Xs, 2)) ** 2
            assert mdl.spectral_bound(inst) == pytest.approx(want, rel=1e-12), inst.design.kind


class TestInstanceConstruction:
    def test_zero_offset_rows_dropped_and_reexpanded(self):
        X = DesignMatrix.from_dense(np.array([
            [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
        q = np.array([1.0, 0.0, 2.0, 1.0])
        n = np.array([1.0, 0.0, 3.0, 2.0])
        inst = ProblemInstance.from_counts(X, n, offset=q)
        assert inst.n_rows == 3
        assert np.array_equal(inst.kept_rows, [0, 2, 3])
        mu = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(inst.expand_mu(mu), [1.0, 0.0, 2.0, 3.0])

    def test_positive_count_at_zero_offset_rejected(self):
        X = DesignMatrix.from_dense(np.ones((3, 1)))
        with pytest.raises(ModelError, match="zero-offset"):
            ProblemInstance.from_counts(X, [1.0, 2.0, 3.0], offset=[1.0, 0.0, 1.0])

    def test_all_zero_counts_rejected(self):
        X = DesignMatrix.from_dense(np.ones((3, 1)))
        with pytest.raises(ModelError):
            ProblemInstance.from_counts(X, [0.0, 0.0, 0.0])

    def test_suff_stats_cached_exactly(self):
        inst = random_binary_instance(26)
        assert np.array_equal(inst.suff_stats, inst.design.rmatvec(inst.counts))

    def test_coefficients_consistency_and_resync(self):
        inst = table_instance_2x2()
        c = Coefficients.from_beta(inst, np.array([0.5, -0.2, 0.3]))
        assert c.drift(inst) <= 1e-12
        c.mu = c.mu * 1.0001  # inject drift
        assert c.drift(inst) > 1e-8
        c.resync(inst)
        assert c.drift(inst) <= 1e-12
