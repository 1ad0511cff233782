"""Cyclic and randomized coordinate scaling, Pearson variant, stopping rule."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipscale import harness
from ipscale import model as mdl
from ipscale import solvers
from ipscale.design import DesignMatrix, TableSchema, build_table_design
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
    gis_fit,
    iis_fit,
    ips_fit,
    l1_ips_fit,
    mm_binary_fit,
    mm_general_fit,
    mm_parallel_fit,
    newton_fit,
    qips_fit,
    solve,
    x2_ips_fit,
)

from conftest import (oracle_beta, make_rng, random_run_design, table_instance_2x2,
                      table_instance_3x3x3)


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


def table_with_sampling_zeros() -> ProblemInstance:
    """The 0.3-scale moderate table (3^4 cells, 33 columns) with no counts on
    the supports of columns 3, p-5 and p-1."""
    table = harness.gen_instance(harness.ExperimentSpec("table-moderate", scale_factor=0.3))
    X, counts = table.design, table.counts.copy()
    for j in (3, X.n_cols - 5, X.n_cols - 1):
        counts[X.col_support(j)] = 0.0
    return ProblemInstance.from_counts(X, counts)


class TestSamplingZeros:
    def test_pearson_variant_converges_where_zero_cell_means_underflow(self):
        # ips pins the coordinates of the empty columns at -250, where the means
        # of the cells under two of them underflow to 0; a zero count must then
        # add nothing to the Pearson numerator sum n^2 / mu, not 0/0
        inst = table_with_sampling_zeros()
        res = x2_ips_fit(inst, SolverConfig(variant="x2-ips", eps_tol=1e-8))
        assert res.termination == "tol_reached"
        obj = res.trace.objectives()
        assert np.all(np.diff(obj) <= 1e-9 * (1.0 + np.abs(obj[:-1])))
        lik = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-8))
        assert res.flags["divergent_coordinates"] == lik.flags["divergent_coordinates"]
        assert np.array_equal(np.abs(res.beta) >= 250.0, np.abs(lik.beta) >= 250.0)


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

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_overflowing_start_ends_diverged_at_once(self, variant):
        # every input is finite, but the mean at the start overflows, so the
        # start's gradient does: the start record itself ends the run
        X = DesignMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
        offset_start = ProblemInstance.from_counts(X, [3.0, 4.0, 5.0],
                                                   offset=[1e308, 1.0, 1e308])
        table = table_instance_3x3x3()
        for inst, beta0 in ((offset_start, None), (table, np.full(table.n_cols, 250.0))):
            with np.errstate(over="ignore", invalid="ignore"):
                res = solve(inst, SolverConfig(variant=variant, beta_init=beta0))
            assert res.termination == "diverged"
            assert [r.iteration for r in res.trace.records] == [0]

    @pytest.mark.parametrize("limit, termination", [
        ({"max_iters": 0}, "iter_limit"), ({"t_max_secs": 0.0}, "time_limit"),
        ({"eps_tol": 1.0}, "tol_reached"),
    ])
    def test_start_record_meets_the_stopping_rule(self, limit, termination):
        res = ips_fit(table_instance_3x3x3(), SolverConfig(variant="ips", **limit))
        assert res.termination == termination
        assert [r.iteration for r in res.trace.records] == [0]

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


def per_coordinate_sweep(fam) -> bool:
    """Reference l1-ips / x2-ips sweep: one column at a time, scalar updates."""
    beta, mu, s, B, lam = fam.c.beta, fam.c.mu, fam.inst.suff_stats, mdl.BETA_CLAMP, fam.lam
    X = fam.inst.design
    changed = False
    for j in range(X.n_cols):
        supp = X.col_support(j)
        mu_j = mu[supp]
        den = np.add.reduce(mu_j)
        if fam.pearson:
            nsq = fam.nsq[supp]  # a zero count adds 0, even where its mean underflowed
            num = np.add.reduce(np.where(nsq > 0.0, nsq / mu_j, 0.0))
            ok = num > 0.0 and den > 0.0 and np.isfinite(num)
            b_new = beta[j] + 0.5 * np.log(num / den) if ok else (-B if num <= 0.0 else B)
            clamped = not (ok and -B <= b_new <= B)
        elif lam > 0.0 and j != 0:
            delta = s[j] - np.exp(-beta[j]) * den
            num = s[j] - lam * np.sign(delta)
            if abs(delta) <= lam:
                b_new = 0.0
            elif num <= 0.0 or den <= 0.0:
                b_new = -B if num <= 0.0 else B
            else:
                b_new = min(max(beta[j] + np.log(num / den), -B), B)
            clamped = not -B < b_new < B
        else:
            ok = s[j] > 0.0 and den > 0.0
            b_new = beta[j] + np.log(s[j] / den) if ok else (-B if s[j] <= 0.0 else B)
            clamped = not (ok and -B <= b_new <= B)
        b_new = min(max(b_new, -B), B)
        if clamped:
            fam.divergent.add(j)
        d = b_new - beta[j]
        if d != 0.0:
            mu_j *= np.exp(d)
            mu[supp] = mu_j
            beta[j] = b_new
            changed = True
        if fam.track_g2 and j == 0:
            fam.diagnostics["g2_after_intercept"].append(mdl.g_squared(fam.inst.counts, mu))
    return changed


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes()


class TestRunSweeps:
    """l1-ips and x2-ips sweep long disjoint runs at once and the columns
    between them one at a time; the result must be the per-coordinate
    loop's, bit for bit."""

    # the random designs' runs are 1-4 columns long: a shortest vectorized run
    # of 2 or 3 mixes both paths, the default sends every column through the loop
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**16), st.sampled_from(["l1-ips", "x2-ips"]),
           st.one_of(st.just(0.0), st.floats(0.01, 1.2)), st.integers(1, 40),
           st.integers(1, 3), st.booleans(), st.sampled_from([2, 3, solvers._MIN_RUN]))
    def test_run_sweep_matches_per_coordinate_loop(self, seed, variant, frac, iters, every,
                                                   warm, min_run):
        rng = make_rng(seed)
        X = random_run_design(rng, n_rows=int(rng.integers(10, 40)),
                              n_blocks=int(rng.integers(1, 7)))
        counts = rng.poisson(rng.uniform(0.1, 6.0, size=X.n_rows)).astype(float)
        counts[0] += 1.0
        inst = ProblemInstance.from_counts(X, counts)
        lam = frac * harness.lambda_max(inst) if variant == "l1-ips" else 0.0
        # a warm start with signed zeros: an unmoved -0.0 must stay -0.0
        beta0 = rng.choice([-0.0, 0.0, 0.3, -0.2], size=X.n_cols) if warm else None
        cfg = SolverConfig(variant=variant, lam=lam, eps_tol=1e-13, max_iters=iters,
                           record_every=every, beta_init=beta0, track_g2=True)
        with mock.patch.object(solvers, "_MIN_RUN", min_run):
            runs = solvers.solve(inst, cfg)
        with mock.patch.object(solvers._CDFamily, "_run_sweep", per_coordinate_sweep):
            ref = solvers.solve(inst, cfg)
        assert _same_bits(runs.beta, ref.beta)
        assert _same_bits(runs.mu, ref.mu)
        assert runs.termination == ref.termination
        assert runs.flags == ref.flags
        assert _same_bits(runs.diagnostics["g2_after_intercept"],
                          ref.diagnostics["g2_after_intercept"])
        assert len(runs.trace.records) == len(ref.trace.records)
        for ra, rb in zip(runs.trace.records, ref.trace.records):
            assert (ra.iteration, ra.step_outcome) == (rb.iteration, rb.step_outcome)
            assert _same_bits([ra.work_units, ra.objective, ra.rel_gradient],
                              [rb.work_units, rb.objective, rb.rel_gradient])

    def test_ips_and_a_ips_keep_the_per_coordinate_loop(self):
        inst = table_instance_3x3x3()
        for variant in ("ips", "a-ips"):
            fam = solvers._CDFamily(inst, SolverConfig(variant=variant), variant)
            assert fam.runs is None

    @given(st.integers(0, 2**16), st.integers(10, 40), st.integers(1, 7), st.integers(2, 5))
    def test_sweep_plan_keeps_the_long_runs(self, seed, n_rows, n_blocks, min_run):
        X = random_run_design(make_rng(seed), n_rows, n_blocks)
        runs = X.disjoint_runs()
        with mock.patch.object(solvers, "_MIN_RUN", min_run):
            plan = solvers._sweep_plan(runs)
        assert [a for a, _, _ in plan] == sorted(a for a, _, _ in plan)
        assert plan[0][0] == 0 and plan[-1][1] == X.n_cols
        assert all(b == a2 for (_, b, _), (a2, _, _) in zip(plan, plan[1:]))
        assert [R for _, _, R in plan if R is not None] == [R for _, R in runs if len(R) >= min_run]
        assert all(R is None or b - a == len(R) for a, b, R in plan)
        # the columns between two long runs form one segment
        assert not any(R1 is None and R2 is None for (_, _, R1), (_, _, R2) in zip(plan, plan[1:]))

    def test_moderate_table_sweeps_its_two_way_and_main_effect_terms_at_once(self):
        schema = TableSchema(tuple((f"f{k}", 10) for k in range(1, 5)), 2)
        inst = ProblemInstance.from_counts(build_table_design(schema),
                                           np.ones(schema.n_cells))
        fam = solvers._CDFamily(inst, SolverConfig(variant="l1-ips"), "l1-ips")
        assert [(a, b, R is None) for a, b, R in fam.runs] == [(0, 1, True)] + [
            (a, b, False) for a, b in zip([1, 10, 19, 28, *range(37, 523, 81)],
                                          [10, 19, 28, 37, *range(118, 524, 81)])]


class TestL1ThresholdUpdate:
    def test_array_form_has_the_scalar_bits(self):
        rng = make_rng(5)
        beta = rng.choice([-0.0, 0.0, 0.7, -1.3, 40.0, -40.0], size=400)
        s = rng.choice([0.0, 1.0, 2.0, 3.5, 10.0], size=400)
        den = rng.choice([0.0, 1e-300, 0.5, 2.0, 7.25, np.inf], size=400)
        for lam in (0.0, 1.0, 2.0, 3.5):
            with np.errstate(all="ignore"):
                got = solvers.l1_threshold_update(np.arange(400), beta, s, den, lam)
                want = [solvers.l1_threshold_update(j, beta[j], s[j], den[j], lam)
                        for j in range(400)]
            assert _same_bits(got, np.array(want, dtype=float))


class TestOneDispatcher:
    """solve picks the family; each *_fit fits the variant it is named after."""

    FITS = {"ips": ips_fit, "a-ips": a_ips_fit, "x2-ips": x2_ips_fit, "l1-ips": l1_ips_fit,
            "mm-binary": mm_binary_fit, "gis": gis_fit, "mm-general": mm_general_fit,
            "mm-parallel": mm_parallel_fit, "iis": iis_fit, "q-ips": qips_fit,
            "b-ips": bips_fit, "newton": newton_fit}

    @pytest.mark.parametrize("variant", sorted(FITS))
    def test_fit_runs_its_own_variant_under_another_variants_config(self, variant):
        inst = table_instance_3x3x3()
        other = "newton" if variant != "newton" else "ips"
        res = self.FITS[variant](inst, SolverConfig(variant=other, eps_tol=1e-8, max_iters=50))
        ref = solve(inst, SolverConfig(variant=variant, eps_tol=1e-8, max_iters=50))
        assert res.variant == variant
        assert np.array_equal(res.beta, ref.beta) and np.array_equal(res.mu, ref.mu)
        assert traces_equal(res.trace, ref.trace)

    def test_qips_fit_given_an_ips_config_fits_q_ips(self):
        inst = table_instance_3x3x3()
        res = qips_fit(inst, SolverConfig(variant="ips"))
        ref = solve(inst, SolverConfig(variant="q-ips"))
        assert res.variant == "q-ips"
        assert np.array_equal(res.beta, ref.beta)
        assert traces_equal(res.trace, ref.trace)

    def test_qips_fit_keeps_a_ridge_config(self):
        inst = table_instance_3x3x3()
        cfg = SolverConfig(variant="ridge-q-ips", lam=2.0, eps_tol=1e-8)
        res = qips_fit(inst, cfg)
        assert res.variant == "ridge-q-ips"
        assert np.array_equal(res.beta, solve(inst, cfg).beta)
        assert not np.array_equal(res.beta, qips_fit(inst, SolverConfig(eps_tol=1e-8)).beta)

    @pytest.mark.parametrize("variant", sorted(set(_VARIANTS) - {"l1-ips", "ridge-q-ips"}))
    def test_penalty_rejected_for_unpenalized_variants(self, variant):
        with pytest.raises(SolverError, match="lambda"):
            SolverConfig(variant=variant, lam=5.0)
        SolverConfig(variant=variant, lam=0.0)

    @pytest.mark.parametrize("field, value, match", [
        ("eps_tol", float("nan"), "eps_tol"),
        ("t_max_secs", float("nan"), "t_max_secs"),
        ("lam", float("nan"), "lambda"),
        ("lam", float("inf"), "lambda"),
        ("lam", float("-inf"), "lambda"),
    ])
    def test_non_number_settings_rejected(self, field, value, match):
        # nan passes every comparison-based check, and an infinite penalty no fit can use
        with pytest.raises(SolverError, match=match):
            SolverConfig(variant="l1-ips", **{field: value})

    def test_infinite_tolerance_and_time_limit_accepted(self):
        SolverConfig(eps_tol=float("inf"), t_max_secs=float("inf"))

    def test_ips_fit_refuses_a_penalized_config(self):
        with pytest.raises(SolverError, match="lambda"):
            ips_fit(table_instance_3x3x3(), SolverConfig(variant="l1-ips", lam=1.0))
