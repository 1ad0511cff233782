"""Intercept-profiled solvers: 1-D scaling solves, momentum, block Newton."""

import time

import numpy as np
import pytest

from ipscale import harness
from ipscale import model as mdl
from ipscale import solvers
from ipscale.design import DesignMatrix, TableSchema, build_raking_design, build_table_design
from ipscale.harness import ExperimentSpec
from ipscale.model import ProblemInstance
from ipscale.solvers import (
    ConvergenceTrace,
    SolverConfig,
    SolverError,
    _BipsFamily,
    _QipsFamily,
    _block_newton_profiled,
    bips_fit,
    check_stop,
    iis_fit,
    momentum_sequence,
    newton_fit,
    normalized_scaling_sequence,
    profiled_scaling_sequence,
    qips_fit,
    solve,
    solve_scaling_equation,
)
from ipscale.surrogates import surrogate_quadratic

from conftest import (oracle_beta, make_rng, random_binary_instance, random_general_instance,
                      random_nonneg_instance, table_instance_3x3x3)


def nonneg_instance_20x6(seed: int = 50) -> ProblemInstance:
    rng = make_rng(seed)
    arr = np.hstack([np.ones((20, 1)), rng.uniform(0.05, 0.8, size=(20, 5))])
    X = DesignMatrix.from_dense(arr)
    beta_star = np.concatenate(([0.5], rng.normal(0.0, 0.5, size=5)))
    mu_star = np.exp(X.matvec(beta_star))
    counts = rng.poisson(mu_star).astype(float) + 1.0
    return ProblemInstance.from_counts(X, counts, beta_true=beta_star)


class TestScalingEquation:
    def test_constant_row_sums_closed_form(self):
        rng = make_rng(51)
        R = 1.7
        a = rng.uniform(0.1, R - 0.1, size=12)
        arr = np.column_stack([np.ones(12), a, R - a])
        X = DesignMatrix.from_dense(arr)
        counts = rng.poisson(5.0, size=12) + 1.0
        inst = ProblemInstance.from_counts(X, counts)
        mu_ring = np.ones(12)  # slope = 0, q = 1
        total = inst.counts.sum()
        k = total / mu_ring.sum()
        for j in (1, 2):
            col = arr[:, j]
            rhs = float(inst.suff_stats[j])
            d, clamped, _ = solve_scaling_equation(col * mu_ring, np.full(12, R), rhs, k, 250.0)
            closed = np.log(rhs * mu_ring.sum() / (total * float(col @ mu_ring))) / R
            assert not clamped
            assert d == pytest.approx(closed, abs=1e-10)

    def test_zero_target_clamps_down(self):
        d, clamped, _ = solve_scaling_equation(np.array([1.0]), np.array([1.0]), 0.0, 1.0, 250.0)
        assert d == -250.0 and clamped

    def test_residual_tolerance(self):
        rng = make_rng(52)
        for _ in range(50):
            coef = rng.uniform(0.1, 2.0, size=8)
            expo = rng.uniform(0.2, 3.0, size=8)
            rhs = float(rng.uniform(0.5, 30.0))
            scale = float(rng.uniform(0.2, 5.0))
            d, clamped, _ = solve_scaling_equation(coef, expo, rhs, scale, 250.0)
            if not clamped:
                resid = scale * float((coef * np.exp(expo * d)).sum()) - rhs
                assert abs(resid) <= 1e-12 * rhs


class TestScalingRecursions:
    def test_profiled_and_normalized_sequences_coincide(self):
        inst = nonneg_instance_20x6()
        a = profiled_scaling_sequence(inst, 10)
        b = normalized_scaling_sequence(inst, 10)
        for sa, sb in zip(a, b):
            assert np.max(np.abs(sa - sb)) <= 1e-10

    @pytest.mark.parametrize("k", range(1, 11))
    def test_profiled_sequence_is_the_iis_iterates(self, k):
        inst = nonneg_instance_20x6(seed=58)
        res = iis_fit(inst, SolverConfig(variant="iis", eps_tol=1e-300, max_iters=k))
        assert res.termination == "iter_limit" and res.trace.final().iteration == k
        assert profiled_scaling_sequence(inst, k)[k].tobytes() == res.beta[1:].tobytes()

    def test_normalized_means_stay_normalized(self):
        inst = nonneg_instance_20x6(seed=53)
        slopes = normalized_scaling_sequence(inst, 6)
        X = inst.design
        for sl in slopes:
            mu = inst.offset * np.exp(X.slope_matvec(sl))
            mu_bar = mu / mu.sum()
            assert mu_bar.sum() == pytest.approx(1.0, abs=1e-12)

    def test_iis_fit_matches_oracle(self):
        inst = nonneg_instance_20x6(seed=54)
        oracle_b = oracle_beta(inst)
        res = iis_fit(inst, SolverConfig(variant="iis", eps_tol=1e-9, max_iters=100_000))
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6

    def test_iis_objective_non_increasing(self):
        inst = random_nonneg_instance(55, 25, 6)
        res = iis_fit(inst, SolverConfig(variant="iis", eps_tol=1e-8))
        obj = res.trace.objectives()
        assert np.all(np.diff(obj) <= 1e-9 * (1.0 + np.abs(obj[:-1])))

    @pytest.mark.parametrize("variant", ["iis", "q-ips", "b-ips", "ips"])
    def test_variant_lists_the_slope_it_pins(self, variant):
        # the last column's cells have tiny offsets: its coefficient, started
        # next to the bound, is pushed past +250 and pinned there
        X = DesignMatrix.from_dense(np.array([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], float))
        inst = ProblemInstance.from_counts(X, [1.0, 20.0, 1.0, 20.0],
                                           offset=np.array([1.0, 1e-110, 1.0, 1e-110]))
        res = solve(inst, SolverConfig(variant=variant, beta_init=np.array([0.0, 0.0, 249.5]),
                                       max_iters=200))
        assert res.beta[2] == 250.0
        assert res.flags["divergent_coordinates"] == [2]

    def test_iis_rejects_signed_designs(self):
        inst = random_general_instance(56)
        with pytest.raises(SolverError, match="non-negative"):
            iis_fit(inst, SolverConfig(variant="iis"))


class TestMomentumSolver:
    def test_momentum_sequence_values(self):
        th = momentum_sequence(2)
        assert th[0] == 1.0
        assert th[1] == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)
        assert th[2] == pytest.approx(0.4558867801028666, abs=1e-15)
        longer = momentum_sequence(50)
        assert np.all(np.diff(longer) < 0.0) and np.all(longer > 0.0)

    def test_reaches_oracle_both_bounds(self):
        inst = random_general_instance(57, 30, 6)
        oracle_b = oracle_beta(inst)
        for w in ("bohning", "spectral"):
            res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-9,
                                              w_choice=w, max_iters=200_000))
            assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6, w

    def test_ridge_at_zero_penalty_is_bit_identical(self):
        inst = random_general_instance(58, 25, 5)
        a = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8))
        b = qips_fit(inst, SolverConfig(variant="ridge-q-ips", lam=0.0, eps_tol=1e-8))
        assert np.array_equal(a.beta, b.beta)
        assert all(x.objective == y.objective and x.rel_gradient == y.rel_gradient
                   for x, y in zip(a.trace.records, b.trace.records))

    def test_ridge_stationarity(self):
        inst = random_general_instance(59, 30, 6)
        lam = 0.37
        res = qips_fit(inst, SolverConfig(variant="ridge-q-ips", lam=lam, eps_tol=1e-10,
                                          max_iters=300_000))
        g = mdl.reparam_gradient(inst, res.beta[1:]) + lam * res.beta[1:]
        assert np.max(np.abs(g)) <= 1e-6 * (1.0 + inst.total_count)

    def test_quadratic_bound_majorizes_profile(self):
        inst = random_general_instance(60, 20, 5)
        W = mdl.bohning_bound(inst)
        rng = make_rng(60)
        for _ in range(200):
            ref = rng.normal(0.0, 0.5, size=4)
            slope = ref + rng.normal(0.0, 0.5, size=4)
            q_val = surrogate_quadratic(inst, slope, ref, W)
            l_val = mdl.reparam_objective(inst, slope)
            assert q_val >= l_val - 1e-9 * (1.0 + abs(l_val))

    def test_momentum_not_necessarily_monotone_but_converges(self):
        inst = random_general_instance(61, 25, 5)
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8, max_iters=200_000))
        assert res.converged

    @pytest.mark.parametrize("variant, lam", [("q-ips", 0.0), ("ridge-q-ips", 0.5)])
    def test_gradient_restart_cuts_the_oscillation(self, variant, lam):
        # restarting only after five objective increases in a row took 2542
        # steps here; the gradient test restarts as soon as the momentum
        # points uphill
        inst = harness.gen_instance(ExperimentSpec("general", n_rows=500, n_cols=21, seed=3))
        res = qips_fit(inst, SolverConfig(variant=variant, lam=lam, eps_tol=1e-6))
        assert res.termination == "tol_reached"
        assert res.trace.final().iteration <= 600
        assert res.flags["momentum_restarts"] >= 1

    @pytest.mark.parametrize("make", [
        lambda: table_instance_3x3x3(),
        lambda: random_general_instance(75, 60, 9),
    ], ids=["binary", "signed"])
    def test_linear_predictors_follow_the_coefficients(self, make):
        inst = make()
        X = inst.design
        fam = _QipsFamily(inst, SolverConfig(variant="q-ips"), "q-ips")
        for _ in range(63):
            fam.step()
        for z, coef in ((fam.z_slope, fam.slope), (fam.z_eta, fam.eta_aux)):
            fresh = X.slope_matvec(coef)
            assert np.max(np.abs(z - fresh)) <= 1e-12 * np.max(np.abs(fresh))
        assert np.array_equal(fam.mu_ring, inst.offset * np.exp(fam.z_slope))
        fam.resync()
        assert np.array_equal(fam.z_slope, X.slope_matvec(fam.slope))
        assert np.array_equal(fam.z_eta, X.slope_matvec(fam.eta_aux))
        assert np.array_equal(fam.mu_ring, inst.offset * np.exp(fam.z_slope))

    def test_bohning_bound_dominates_when_counts_too_small(self):
        # total count below the row count: the bound still dominates the
        # profiled curvature, and q-ips converges under it
        X = DesignMatrix.from_dense(np.array(
            [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        inst = ProblemInstance.from_counts(X, [1.0, 0.0, 0.0, 1.0])
        assert inst.total_count < inst.n_rows
        W = mdl.bohning_bound(inst)
        assert mdl.validate_curvature_bound(inst, W, 50, 10, 0) >= -1e-12
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-6, max_iters=2000))
        assert res.termination == "tol_reached"
        assert res.trace.final().rel_gradient <= 1e-6

    @pytest.mark.parametrize("margins", [[["a"]], [["a"], ["b"]]])
    def test_singular_bohning_bound(self, margins):
        # the indicators of a raking margin sum to the intercept column, so
        # the bound is singular along that direction
        schema = TableSchema(factors=(("a", 3), ("b", 4)))
        inst = ProblemInstance.from_counts(build_raking_design(schema, margins),
                                           make_rng(5).poisson(4.0, size=12) + 1.0)
        assert inst.total_count > inst.n_rows
        assert np.linalg.eigvalsh(mdl.bohning_bound(inst))[0] <= 1e-12 * inst.total_count
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8))
        assert res.termination == "tol_reached"
        assert res.trace.final().rel_gradient <= 1e-8
        assert res.flags["w_ridge_repaired"]

    def test_wall_clock_counts_the_bound_set_up(self, monkeypatch):
        # the bound is built with the family, before the first step: the
        # final record and the time limit both count it
        real = mdl.bohning_bound

        def slow_bound(inst):
            time.sleep(0.3)
            return real(inst)

        monkeypatch.setattr(mdl, "bohning_bound", slow_bound)
        inst = table_instance_3x3x3()
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8))
        assert res.trace.records[0].wall_seconds == 0.0
        assert res.wall_seconds >= 0.3
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8, t_max_secs=0.2))
        assert res.termination == "time_limit"
        assert res.trace.final().iteration == 1


class TestBlockSolver:
    def test_single_block_is_full_newton(self):
        inst = random_general_instance(62, 30, 6)
        oracle_b = oracle_beta(inst)
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-10,
                                          block_sizes=(5,), seed=0))
        assert res.trace.final().iteration <= 10
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-8

    def test_multi_block_matches_oracle(self):
        inst = random_general_instance(63, 40, 9)
        oracle_b = oracle_beta(inst)
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-9,
                                          block_sizes=(3, 3, 2), seed=1))
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6

    @pytest.mark.parametrize("make, block_sizes, seed", [
        (lambda: table_instance_3x3x3(), (8, 5, 4, 1), 3),
        (lambda: table_instance_3x3x3(seed=11), (1, 9, 8), 4),
        (lambda: random_binary_instance(67, 60, 9), (3, 4, 1), 5),
        (lambda: random_binary_instance(68, 80, 13), (1, 5, 6), 6),
    ])
    def test_binary_multi_block_matches_oracle(self, make, block_sizes, seed):
        # binary designs take the pair-index Gram of their column blocks
        inst = make()
        assert inst.design.kind == "binary"
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-11,
                                          block_sizes=block_sizes, seed=seed))
        assert res.termination == "tol_reached"
        assert np.max(np.abs(res.beta - oracle_beta(inst))) <= 1e-8

    @pytest.mark.parametrize("levels, block_sizes", [
        ((2, 3, 4), (8, 5, 3, 1)),
        ((4, 4, 3), (12, 10, 6, 1)),
    ])
    def test_tol_reached_means_eps_tol_reached(self, levels, block_sizes):
        X = build_table_design(TableSchema(factors=tuple(zip("abc", levels)),
                                           interaction_order=2))
        counts = make_rng(68).poisson(6.0, size=X.n_rows).astype(float) + 1.0
        inst = ProblemInstance.from_counts(X, counts)
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-11,
                                          block_sizes=block_sizes, seed=3))
        assert res.termination == "tol_reached"
        assert res.trace.final().rel_gradient <= 1e-11
        assert np.max(np.abs(res.beta - oracle_beta(inst))) <= 1e-8

    @pytest.mark.parametrize("make", [
        lambda: random_binary_instance(71, 60, 9),
        lambda: random_binary_instance(72, 90, 14),
        lambda: random_general_instance(73, 60, 9),
        lambda: random_general_instance(74, 80, 13),
    ], ids=["binary-9", "binary-14", "signed-9", "signed-13"])
    @pytest.mark.parametrize("layout", [
        lambda m: (m,),
        lambda m: (m - m // 2, m // 2),
        lambda m: (2, m - 5, 3),
    ], ids=["one", "halves", "three"])
    def test_tol_reached_run_meets_eps_tol(self, make, layout):
        # a fixed-point exit above eps_tol would report tol_reached falsely
        inst = make()
        cfg = SolverConfig(variant="b-ips", eps_tol=1e-11, block_sizes=layout(inst.n_cols - 1),
                           seed=1)
        res = bips_fit(inst, cfg)
        assert res.termination == "tol_reached"
        assert res.trace.final().rel_gradient <= cfg.eps_tol

    def test_sweep_reuses_the_gradient_of_the_record_before_it(self, monkeypatch):
        calls = []
        product = DesignMatrix.slope_rmatvec

        def counted(self, v):
            calls.append(1)
            return product(self, v)

        monkeypatch.setattr(DesignMatrix, "slope_rmatvec", counted)
        inst = random_general_instance(64, 30, 7)
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-8, block_sizes=(2, 2, 2),
                                          seed=2, record_every=1))
        assert res.trace.final().iteration >= 3
        assert len(calls) == len(res.trace.records)

    def test_objective_non_increasing_per_block(self, monkeypatch):
        # the objective before each block solve, and after the last sweep
        inst = random_general_instance(64, 30, 7)
        cfg = SolverConfig(variant="b-ips", block_sizes=(2, 2, 2), seed=2)
        fam = solvers._BipsFamily(inst, cfg, "b-ips")
        vals, solve_block = [], solvers._block_newton_profiled

        def spy(*args):
            vals.append(fam.objective())
            return solve_block(*args)

        monkeypatch.setattr(solvers, "_block_newton_profiled", spy)
        for _ in range(20):
            fam.step()
        vals.append(fam.objective())
        assert len(vals) == 61
        assert vals[-1] < vals[0]
        assert np.all(np.diff(vals) <= 1e-9 * (1.0 + np.abs(vals[:-1])))

    def test_block_sizes_validated(self):
        inst = random_general_instance(65, 20, 6)
        with pytest.raises(SolverError, match="sum to"):
            bips_fit(inst, SolverConfig(variant="b-ips", block_sizes=(2, 2)))

    def test_seeded_blocking_deterministic(self):
        inst = random_general_instance(66, 25, 7)
        cfg = SolverConfig(variant="b-ips", eps_tol=1e-8, seed=9, block_sizes=(3, 3))
        r1 = bips_fit(inst, cfg)
        r2 = bips_fit(inst, cfg)
        assert np.array_equal(r1.beta, r2.beta)
        assert [r.objective for r in r1.trace.records] == [r.objective for r in r2.trace.records]

    def test_intercept_required(self):
        X = DesignMatrix.from_dense(np.eye(4))
        inst = ProblemInstance.from_counts(X, [1.0, 2.0, 3.0, 1.0])
        with pytest.raises(SolverError, match="intercept"):
            bips_fit(inst, SolverConfig(variant="b-ips"))


class TestInnerStop:
    """b-ips solves each block only to the forcing tolerance of its sweep."""

    def _block(self, inst, cols):
        Xk = inst.design.column_block(cols)
        mu_ring = inst.offset * np.exp(inst.design.slope_matvec(np.full(inst.n_cols - 1, 0.1)))
        sk = inst.suff_stats[cols]
        gk = -sk + inst.total_count * (Xk.rmatvec(mu_ring) / mu_ring.sum())
        return Xk, sk, mu_ring, float(np.max(np.abs(gk)))

    def test_block_meeting_tol_takes_no_step(self):
        inst = table_instance_3x3x3()
        assert inst.design.kind == "binary"
        Xk, sk, mu_ring, gmax = self._block(inst, np.arange(1, 9))
        grams, gram = [], Xk.gram
        Xk.gram = lambda w: grams.append(w) or gram(w)
        flags = {"newton_steps": 0}
        d, mu_new, _, failed = _block_newton_profiled(
            Xk, sk, mu_ring, inst.total_count, gmax, flags)
        assert np.array_equal(d, np.zeros(8)) and not failed
        assert mu_new.tobytes() == mu_ring.tobytes()
        assert flags["newton_steps"] == 0
        # no Gram is taken, so the block's row-major copy is never made
        assert grams == [] and "_row_major" not in Xk.__dict__

    def test_block_above_tol_steps_until_it_meets_it(self):
        inst = table_instance_3x3x3()
        Xk, sk, mu_ring, gmax = self._block(inst, np.arange(1, 9))
        flags = {"newton_steps": 0}
        d, mu_new, _, failed = _block_newton_profiled(
            Xk, sk, mu_ring, inst.total_count, 0.5 * gmax, flags)
        gk = -sk + inst.total_count * (Xk.rmatvec(mu_new) / mu_new.sum())
        assert not failed and flags["newton_steps"] >= 1
        assert np.max(np.abs(gk)) <= 0.5 * gmax
        assert "_row_major" in Xk.__dict__

    def _optimum(self, inst, block_sizes=None):
        """b-ips's own fixed point: eps_tol below the rounding floor of the
        relative gradient leaves only the fixed-point exit."""
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-16, max_iters=1000,
                                          block_sizes=block_sizes))
        assert res.termination == "tol_reached" and res.trace.final().step_outcome
        return res

    @pytest.mark.parametrize("block_sizes", [None, (8, 5, 4, 1)])
    def test_sweep_that_moves_nothing_is_at_the_floor(self, block_sizes):
        inst = table_instance_3x3x3()
        opt = self._optimum(inst, block_sizes).beta
        fam = _BipsFamily(inst, SolverConfig(variant="b-ips", beta_init=opt,
                                             block_sizes=block_sizes), "b-ips")
        before = fam.slope.copy()
        assert fam.step() == "tol_reached"
        assert np.array_equal(fam.slope, before)
        assert fam.grad_norm() <= fam.floor
        assert fam.flags["newton_steps"] == 0

    def test_warm_start_at_the_optimum_counts_no_newton_step(self):
        inst = table_instance_3x3x3()
        cold = self._optimum(inst)
        assert cold.flags["newton_steps"] > 0
        warm = bips_fit(inst, SolverConfig(variant="b-ips", beta_init=cold.beta))
        assert warm.flags["newton_steps"] == 0


class TestSparseBinaryStorage:
    """The profiled solvers on contingency tables exercise the sparse paths."""

    def _table(self):
        from conftest import table_instance_3x3x3

        return table_instance_3x3x3(seed=31)

    def test_momentum_solver_on_sparse_table(self):
        inst = self._table()
        assert inst.design.csc is not None
        target = oracle_beta(inst)
        res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8, max_iters=300_000))
        assert np.max(np.abs(res.beta - target)) <= 1e-6

    def test_block_solver_on_sparse_table(self):
        from ipscale.design import TableSchema, build_table_design

        schema = TableSchema(factors=(("a", 3), ("b", 3), ("c", 3)), interaction_order=1)
        X = build_table_design(schema)
        counts = make_rng(32).poisson(8.0, size=X.n_rows).astype(float) + 1.0
        inst = ProblemInstance.from_counts(X, counts)
        assert inst.design.csc is not None
        target = oracle_beta(inst)
        res = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-9, seed=3,
                                          block_sizes=(4, 2)))
        assert np.max(np.abs(res.beta - target)) <= 1e-6

    def test_scaling_solver_on_sparse_table(self):
        inst = self._table()
        target = oracle_beta(inst)
        res = iis_fit(inst, SolverConfig(variant="iis", eps_tol=1e-9, max_iters=300_000))
        assert np.max(np.abs(res.beta - target)) <= 1e-6

    def test_parallel_blocks_on_sparse_table(self):
        from ipscale.solvers import mm_parallel_fit

        inst = self._table()
        target = oracle_beta(inst)
        res = mm_parallel_fit(inst, SolverConfig(variant="mm-parallel", eps_tol=1e-9,
                                                 block_sizes=(10, 9), max_iters=300_000))
        assert np.max(np.abs(res.beta - target)) <= 1e-6


class TestNewtonBaseline:
    def test_saturated_identity_design_fast(self):
        n = np.array([2.0, 5.0, 1.0, 3.0])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(4)), n)
        res = newton_fit(inst, SolverConfig(variant="newton", eps_tol=1e-10))
        assert res.trace.final().iteration <= 5
        assert np.allclose(res.mu, n, rtol=1e-9)

    def test_two_phase_contraction(self):
        # once inside the fast phase, the gradient collapses to the float
        # noise floor within a handful of iterations
        inst = random_general_instance(67, 60, 8)
        res = newton_fit(inst, SolverConfig(variant="newton", eps_tol=1e-12, max_iters=200))
        rel = res.trace.rel_gradients()
        entered = np.nonzero(rel < 1e-3)[0]
        assert len(entered) > 0
        k = entered[0]
        assert k >= 2  # a damped phase precedes the fast one
        assert rel[k:k + 5].min() <= 1e-10

    def test_dimension_guard(self):
        inst = random_general_instance(68, 10, 4)
        cfg = SolverConfig(variant="newton")
        import ipscale.solvers as sv
        old = sv.NEWTON_MAX_P
        sv.NEWTON_MAX_P = 3
        try:
            with pytest.raises(SolverError, match="p <="):
                newton_fit(inst, cfg)
        finally:
            sv.NEWTON_MAX_P = old

    def test_records_on_cadence_and_stops_at_first_firing_record(self):
        inst = random_general_instance(67, 60, 8)
        cfg = SolverConfig(variant="newton", eps_tol=1e-10, record_every=3)
        res = newton_fit(inst, cfg)
        its = [r.iteration for r in res.trace.records]
        assert len(its) >= 3
        assert all(i % 3 == 0 for i in its[:-1])
        fires = [check_stop(ConvergenceTrace(res.trace.records[:k + 1]), cfg)
                 for k in range(len(its))]
        assert fires == [False] * (len(its) - 1) + [True]
        assert res.converged


def test_duplicated_slope_column_repairs_the_factorization():
    # an exact copy of a slope column makes the curvature bound, the block
    # Hessian and the full Hessian singular: the Cholesky factorization needs
    # its ridge, and the flat direction does not stop any solver
    rng = make_rng(0)
    arr = np.hstack([np.ones((40, 1)), rng.uniform(0.0, 1.0, size=(40, 5))])
    X = DesignMatrix.from_dense(np.hstack([arr, arr[:, [2]]]))
    inst = ProblemInstance.from_counts(X, rng.poisson(5.0, size=40).astype(float) + 1.0)
    res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8))
    assert res.flags["w_ridge_repaired"]
    assert res.converged and res.trace.final().rel_gradient <= 1e-8
    for fit, variant in ((bips_fit, "b-ips"), (newton_fit, "newton")):
        res = fit(inst, SolverConfig(variant=variant, eps_tol=1e-8))
        assert res.converged and res.trace.final().rel_gradient <= 1e-8, variant


def test_copied_slope_column_rounding_to_a_positive_pivot_gets_the_ridge():
    # with philox_rng(4) the bound's last pivot rounds to 2.3e-13 against a
    # diagonal near 1.8e3: the factorization succeeds, but the matrix is singular
    rng = make_rng(4)
    arr = np.hstack([np.ones((40, 1)), rng.uniform(0.0, 1.0, size=(40, 5))])
    X = DesignMatrix.from_dense(np.hstack([arr, arr[:, [2]]]))
    inst = ProblemInstance.from_counts(X, rng.poisson(5.0, size=40).astype(float) + 1.0)
    res = qips_fit(inst, SolverConfig(variant="q-ips", eps_tol=1e-8, max_iters=20000))
    assert res.flags["w_ridge_repaired"]
    assert res.converged and res.trace.final().rel_gradient <= 1e-8
