"""Cyclic and randomized coordinate scaling, Pearson variant, stopping rule."""

import numpy as np
import pytest

from ipscale import model as mdl
from ipscale import solvers
from ipscale.design import DesignMatrix
from ipscale.model import ProblemInstance
from ipscale.solvers import (
    ConvergenceTrace,
    SolverConfig,
    SolverError,
    TraceRecord,
    _stop_reason,
    _VARIANTS,
    a_ips_fit,
    bips_fit,
    check_stop,
    ips_fit,
    solve,
    x2_ips_fit,
)

from conftest import oracle_beta, make_rng, table_instance_2x2, table_instance_3x3x3


def traces_equal(a: ConvergenceTrace, b: ConvergenceTrace) -> bool:
    if len(a.records) != len(b.records) or a.termination != b.termination:
        return False
    return all(
        ra.iteration == rb.iteration
        and ra.objective == rb.objective
        and ra.rel_gradient == rb.rel_gradient
        and ra.work_units == rb.work_units
        for ra, rb in zip(a.records, b.records)
    )


class TestIps:
    def test_identity_design_one_sweep_exact(self):
        rng = make_rng(1)
        n = rng.integers(1, 9, size=6).astype(float)
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(6)), n)
        res = ips_fit(inst, SolverConfig(variant="ips", max_iters=1, eps_tol=1e-300))
        assert np.array_equal(res.mu, n)

    def test_2x2_independence_closed_form(self):
        inst = table_instance_2x2()
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-12))
        assert np.allclose(res.mu, [18.0, 12.0, 42.0, 28.0], atol=1e-8)
        assert res.converged

    def test_three_way_matches_newton_and_margins(self):
        inst = table_instance_3x3x3()
        cfg = SolverConfig(variant="ips", eps_tol=1e-10, max_iters=200_000)
        res = ips_fit(inst, cfg)
        oracle_b = oracle_beta(inst)
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6
        for j in range(inst.n_cols):
            fitted = inst.design.col_dot(j, res.mu)
            assert abs(fitted - inst.suff_stats[j]) <= 1e-8 * inst.suff_stats[j]

    def test_rejects_non_binary_design(self):
        rng = make_rng(3)
        arr = np.hstack([np.ones((10, 1)), rng.uniform(0, 1, (10, 2))])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(arr), np.ones(10))
        with pytest.raises(SolverError, match="mm-general"):
            ips_fit(inst, SolverConfig(variant="ips"))

    def test_zero_statistic_clamps_coordinate(self):
        # column 1 covers only rows with zero counts: its MLE runs to -inf
        arr = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(arr), [0.0, 0.0, 3.0, 5.0])
        res = ips_fit(inst, SolverConfig(variant="ips", max_iters=5))
        assert res.beta[1] == -250.0
        assert 1 in res.flags["divergent_coordinates"]

    def test_objective_never_increases(self):
        inst = table_instance_3x3x3(seed=9)
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-8))
        obj = res.trace.objectives()
        assert np.all(np.diff(obj) <= 1e-9 * (1.0 + np.abs(obj[:-1])))

    def test_g2_monotone_with_intercept_first(self):
        inst = table_instance_3x3x3(seed=10)
        cfg = SolverConfig(variant="ips", eps_tol=1e-8, track_g2=True)
        res = ips_fit(inst, cfg)
        g2 = res.diagnostics["g2_after_intercept"]
        assert len(g2) > 2
        assert np.all(np.diff(g2) <= 1e-9 * (1.0 + np.abs(g2[:-1])))

    def test_raking_matches_classical_ratio_loop(self):
        # independent oracle: the textbook two-way raking iteration on the
        # table array, against IPS driven by margin statistics only
        rng = make_rng(77)
        seed_table = rng.uniform(0.5, 3.0, size=(3, 4))
        row_t = rng.uniform(5.0, 15.0, size=3)
        col_t = rng.uniform(1.0, 10.0, size=4)
        col_t *= row_t.sum() / col_t.sum()
        ref = seed_table.copy()
        for _ in range(500):
            ref *= (row_t / ref.sum(axis=1))[:, None]
            ref *= col_t / ref.sum(axis=0)
        from ipscale.design import TableSchema, build_raking_design

        schema = TableSchema(factors=(("r", 3), ("c", 4)), interaction_order=1)
        X = build_raking_design(schema, [["r"], ["c"]])
        s = np.concatenate(([row_t.sum()], row_t, col_t))
        inst = ProblemInstance.from_suff_stats(X, s, offset=seed_table.ravel())
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-13, max_iters=100_000))
        assert np.max(np.abs(res.mu - ref.ravel())) <= 1e-8 * ref.max()

    def test_raking_fixed_point_from_suff_stats(self):
        # when every target is already matched, a sweep changes nothing
        inst0 = table_instance_2x2()
        q = np.array([18.0, 12.0, 42.0, 28.0])
        s = inst0.design.rmatvec(q)
        inst = ProblemInstance.from_suff_stats(inst0.design, s, offset=q)
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-12))
        assert res.trace.records[0].rel_gradient == 0.0
        assert np.array_equal(res.mu, q)
        assert np.array_equal(res.beta, np.zeros(3))


class TestAIps:
    def test_identity_permutation_matches_ips_bitwise(self):
        inst = table_instance_3x3x3(seed=11)
        cfg = SolverConfig(variant="ips", eps_tol=1e-8)
        base = ips_fit(inst, cfg)
        cfg2 = SolverConfig(variant="a-ips", eps_tol=1e-8)
        degenerate = a_ips_fit(inst, cfg2, _perm_fn=lambda rng, p: np.arange(p))
        assert np.array_equal(base.beta, degenerate.beta)
        assert traces_equal(base.trace, degenerate.trace)

    def test_same_seed_identical_traces(self):
        inst = table_instance_3x3x3(seed=12)
        cfg = SolverConfig(variant="a-ips", eps_tol=1e-8, seed=7)
        r1 = a_ips_fit(inst, cfg)
        r2 = a_ips_fit(inst, cfg)
        assert np.array_equal(r1.beta, r2.beta)
        assert traces_equal(r1.trace, r2.trace)

    def test_different_seed_changes_path(self):
        inst = table_instance_3x3x3(seed=12)
        r1 = a_ips_fit(inst, SolverConfig(variant="a-ips", eps_tol=1e-8, seed=1))
        r2 = a_ips_fit(inst, SolverConfig(variant="a-ips", eps_tol=1e-8, seed=2))
        assert not traces_equal(r1.trace, r2.trace)

    def test_reaches_same_optimum_as_ips(self):
        inst = table_instance_3x3x3(seed=13)
        oracle_b = oracle_beta(inst)
        res = a_ips_fit(inst, SolverConfig(variant="a-ips", eps_tol=1e-10, seed=3,
                                           max_iters=200_000))
        assert np.max(np.abs(res.beta - oracle_b)) <= 1e-6


class TestPearsonVariant:
    def test_fixed_point_when_mean_equals_counts(self):
        # mu == n exactly (beta = 0, q = 1, unit counts): every step ratio is 1
        n = np.ones(4)
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(4)), n)
        cfg = SolverConfig(variant="x2-ips", max_iters=1, eps_tol=1e-300)
        res = x2_ips_fit(inst, cfg)
        assert np.array_equal(res.beta, np.zeros(4))
        # approximate fixed point for general counts
        n2 = np.array([2.0, 5.0, 1.0, 7.0])
        inst2 = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(4)), n2)
        cfg2 = SolverConfig(variant="x2-ips", max_iters=1, eps_tol=1e-300,
                            beta_init=np.log(n2))
        res2 = x2_ips_fit(inst2, cfg2)
        assert np.max(np.abs(res2.beta - np.log(n2))) <= 1e-12

    def test_stationarity_residuals_at_convergence(self):
        inst = table_instance_2x2()
        res = x2_ips_fit(inst, SolverConfig(variant="x2-ips", eps_tol=1e-12))
        resid = inst.design.rmatvec(res.mu - inst.counts**2 / res.mu)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_objective_monotone_per_sweep(self):
        inst = table_instance_3x3x3(seed=14)
        res = x2_ips_fit(inst, SolverConfig(variant="x2-ips", eps_tol=1e-9))
        obj = res.trace.objectives()
        assert np.all(np.diff(obj) <= 1e-9 * (1.0 + np.abs(obj[:-1])))

    def test_beats_likelihood_fit_on_pearson_statistic(self):
        inst = table_instance_2x2()
        lik = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-12))
        pea = x2_ips_fit(inst, SolverConfig(variant="x2-ips", eps_tol=1e-12))
        assert mdl.pearson_x2(inst.counts, pea.mu) <= mdl.pearson_x2(inst.counts, lik.mu) + 1e-10

    def test_zero_counts_allowed(self):
        inst = table_instance_2x2(counts=(0.0, 20.0, 50.0, 20.0))
        res = x2_ips_fit(inst, SolverConfig(variant="x2-ips", eps_tol=1e-10))
        assert np.isfinite(res.trace.final().objective)


class TestCheckStop:
    def _trace(self, rel, wall=0.1, it=5, g0=1.0):
        tr = ConvergenceTrace(g0_norm=g0)
        tr.records.append(TraceRecord(it, wall, 0.0, 1.0, rel))
        return tr

    def test_not_stopped_when_gradient_unchanged(self):
        cfg = SolverConfig(variant="ips", eps_tol=1e-4)
        assert not check_stop(self._trace(rel=1.0), cfg)

    def test_zero_initial_gradient_stops_immediately(self):
        # unit counts with beta = 0 give mu = n exactly, so g0 = 0 exactly
        n = np.ones(3)
        inst = ProblemInstance.from_counts(DesignMatrix.from_dense(np.eye(3)), n)
        res = ips_fit(inst, SolverConfig(variant="ips"))
        assert res.termination == "tol_reached"
        assert res.trace.final().iteration == 0
        assert res.trace.final().rel_gradient == 0.0
        assert check_stop(res.trace, SolverConfig(variant="ips"))

    def test_boundary_equality_is_inclusive(self):
        cfg = SolverConfig(variant="ips", eps_tol=1e-4)
        assert check_stop(self._trace(rel=1e-4), cfg)
        assert not check_stop(self._trace(rel=1.0000001e-4), cfg)

    def test_iteration_cap(self):
        cfg = SolverConfig(variant="ips", eps_tol=1e-12, max_iters=5)
        assert check_stop(self._trace(rel=0.5, it=5), cfg)

    def test_time_cap(self):
        cfg = SolverConfig(variant="ips", eps_tol=1e-12, t_max_secs=0.05)
        assert check_stop(self._trace(rel=0.5, wall=0.06), cfg)

    @pytest.mark.parametrize("obj, rel", [
        (np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_non_finite_record_diverges(self, obj, rel):
        cfg = SolverConfig(variant="ips")
        tr = ConvergenceTrace(g0_norm=1.0)
        tr.records.append(TraceRecord(5, 0.1, 0.0, obj, rel))
        assert check_stop(tr, cfg)
        assert _stop_reason(tr.final(), cfg) == "diverged"


class TestDriverContract:
    """Every variant stops on the first record the stopping rule fires on."""

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_final_record_is_the_first_stop(self, variant, record_every):
        inst = table_instance_3x3x3()
        cfg = SolverConfig(variant=variant, eps_tol=1e-6, max_iters=3000,
                           lam=2.0 if variant in ("l1-ips", "ridge-q-ips") else 0.0,
                           record_every=record_every)
        res = solve(inst, cfg)
        *earlier, final = res.trace.records
        assert check_stop(res.trace, cfg)
        assert res.termination == _stop_reason(final, cfg)
        assert not any(_stop_reason(r, cfg) for r in earlier)

    def test_warm_start_at_own_optimum_stops_after_one_sweep(self):
        # g0 is already at the float floor, so only the fixed-point exit can
        # end this run before the iteration cap
        inst = table_instance_3x3x3()
        opt = bips_fit(inst, SolverConfig(variant="b-ips", eps_tol=1e-10)).beta
        cfg = SolverConfig(variant="b-ips", beta_init=opt, max_iters=500)
        res = bips_fit(inst, cfg)
        assert res.termination == "tol_reached"
        assert res.trace.final().iteration == 1
        # the block solves stop on their gradient test: a true fixed point
        assert res.flags["line_search_failures"] == 0
        assert check_stop(res.trace, cfg)

    def test_failed_block_solves_end_as_diverged(self, monkeypatch):
        # every block's line search fails, so the sweep leaves the slopes
        # unchanged: a stall, not a fixed point
        monkeypatch.setattr(solvers, "_block_newton_profiled",
                            lambda Xk, sk, mu_ring, *_: (np.zeros(len(sk)), mu_ring, 0.0, True))
        inst = table_instance_3x3x3()
        cfg = SolverConfig(variant="b-ips", max_iters=500)
        res = bips_fit(inst, cfg)
        assert res.termination == "diverged"
        assert res.trace.final().iteration == 1
        assert res.flags["line_search_failures"] > 0
        assert check_stop(res.trace, cfg)


class TestTraceContract:
    def test_first_record_normalized(self):
        inst = table_instance_2x2()
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-6))
        first = res.trace.records[0]
        assert first.iteration == 0
        assert first.rel_gradient == 1.0
        assert first.work_units == 0.0

    def test_wall_seconds_nondecreasing_and_work_increasing(self):
        inst = table_instance_3x3x3(seed=15)
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-8))
        wall = np.array([r.wall_seconds for r in res.trace.records])
        work = np.array([r.work_units for r in res.trace.records])
        assert np.all(np.diff(wall) >= 0.0)
        assert np.all(np.diff(work) > 0.0)

    def test_est_error_present_only_with_truth(self):
        inst = table_instance_2x2()
        res = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-6))
        assert res.trace.records[0].est_error is None
