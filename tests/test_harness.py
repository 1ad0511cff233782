"""Instance generators, benchmark protocol, penalty path with EBIC."""

import os

import numpy as np
import pytest

from ipscale import harness
from ipscale.design import DesignMatrix
from ipscale.harness import ExperimentSpec, HarnessError
from ipscale.model import ProblemInstance
from ipscale.solvers import SolverConfig, ips_fit, l1_ips_fit

from conftest import make_rng


class TestGenerators:
    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(scenario="table-moderate", scale_factor=0.3, seed=5)
        a = harness.gen_instance(spec, 0)
        b = harness.gen_instance(spec, 0)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.beta_true, b.beta_true)
        c = harness.gen_instance(spec, 1)
        assert not np.array_equal(a.counts, c.counts)

    def test_moderate_table_full_scale_dimensions(self):
        spec = ExperimentSpec(scenario="table-moderate", scale_factor=1.0, seed=0)
        inst = harness.gen_table_instance(spec, 0)
        assert inst.n_rows == 10_000
        assert inst.n_cols == 523
        assert np.count_nonzero(inst.beta_true[1:]) == 10
        assert inst.beta_true[0] == 2.0

    def test_setting_two_adds_twenty_coordinates(self):
        spec = ExperimentSpec(scenario="table-moderate", scale_factor=1.0, seed=0,
                              table_setting=2)
        inst = harness.gen_table_instance(spec, 0)
        assert np.count_nonzero(inst.beta_true[1:]) == 30

    def test_poisson_sampling_sanity_flat_truth(self):
        # flat truth: counts are unit-mean Poisson, so the sample mean sits
        # within five standard errors of one
        rng = make_rng(3)
        X = DesignMatrix.from_dense(
            np.hstack([np.ones((10_000, 1)), (rng.random((10_000, 3)) < 0.5).astype(float)]))
        inst = harness._sample_counts(rng, X, np.zeros(4))
        assert abs(inst.counts.mean() - 1.0) <= 5.0 / np.sqrt(10_000)

    def test_ar1_lag_one_correlation(self):
        rng = make_rng(4)
        x = harness.ar1_rows(rng, 5000, 6, rho=0.8)
        for j in range(5):
            c = np.corrcoef(x[:, j], x[:, j + 1])[0, 1]
            assert abs(c - 0.8) <= 0.05

    def test_nonneg_pipeline_stage_properties(self):
        rng = make_rng(5)
        proto = harness.ar1_rows(rng, 400, 8)
        shifted = harness.shift_nonnegative(proto)
        assert shifted.min() == 0.0
        scaled = harness.scale_to_max(shifted, 50.0)
        assert scaled.max() == pytest.approx(1.0 / 50.0, rel=1e-12)
        assert scaled.min() == 0.0
        jittered = harness.jitter_rows(rng, scaled)
        assert jittered.min() == 0.0
        assert np.all(jittered >= scaled - 1e-15)

    def test_large_table_scenario_scales(self):
        spec = ExperimentSpec(scenario="table-large", scale_factor=0.3, seed=1)
        inst = harness.gen_instance(spec, 0)
        assert inst.n_rows == 3**5
        assert inst.design.kind == "binary"
        assert inst.beta_true[0] == 5.0

    def test_nonneg_instance_is_nonneg_kind(self):
        spec = ExperimentSpec(scenario="nonneg-small", scale_factor=0.2, seed=1)
        inst = harness.gen_gaussian_instance(spec, 0)
        assert inst.design.kind == "non_negative"
        assert inst.design.has_intercept

    def test_general_instance_keeps_mixed_signs(self):
        spec = ExperimentSpec(scenario="general", n_rows=300, n_cols=20, seed=2)
        inst = harness.gen_gaussian_instance(spec, 0)
        slopes = inst.design.toarray()[:, 1:]
        assert (slopes > 0).any() and (slopes < 0).any()
        assert np.abs(slopes).max() == pytest.approx(1.0 / 100.0, rel=1e-12)

    def test_overflowing_truth_rejected(self):
        spec = ExperimentSpec(scenario="general", n_rows=50, n_cols=4, seed=3)
        inst_rng = make_rng(0)
        X = harness.gen_gaussian_instance(spec, 0).design
        with pytest.raises(HarnessError, match="overflow"):
            harness._sample_counts(inst_rng, X, np.array([50.0, 0.0, 0.0, 0.0]))


class TestSpecFromDict:
    @pytest.mark.parametrize("d", [[1], "general", None, {"scenario": "general", "seed": "x"},
                                   {"scenario": "general", "eps_tol": [1e-4]},
                                   {"scenario": "general", "n_rows": "many"},
                                   {"scenario": "general", "roster": 5},
                                   {"scenario": "general", "colour": "red"},
                                   {"scenario": "general", "replications": 2.5},
                                   {"scenario": "general", "replications": 2.0},
                                   {"scenario": "general", "seed": 1.5},
                                   {"scenario": "general", "n_rows": 40.0},
                                   {"scenario": "general", "table_setting": True},
                                   {"scenario": "general", "eps_tol": False}])
    def test_wrong_shape_is_a_harness_error(self, d):
        with pytest.raises(HarnessError):
            ExperimentSpec.from_dict(d)

    def test_round_trip(self):
        spec = ExperimentSpec(scenario="general", n_rows=40, n_cols=5, seed=9)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unlimited_time_round_trips_through_its_file(self, tmp_path):
        # JSON holds no inf, so the file says null, which reads back as no limit
        spec = ExperimentSpec(scenario="general", n_rows=40, n_cols=5, t_max_secs=float("inf"))
        spec.save(tmp_path / "spec.json")
        assert '"t_max_secs": null' in (tmp_path / "spec.json").read_text()
        assert ExperimentSpec.load(tmp_path / "spec.json") == spec


class TestRunExperiment:
    def _spec(self, **kw):
        base = dict(scenario="nonneg-small", replications=3, scale_factor=0.15,
                    roster=("gis", "q-ips"), seed=11, eps_tol=1e-4)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_report_structure(self):
        report = harness.run_experiment(self._spec())
        assert set(report.curves) == {"gis", "q-ips"}
        for solver, curve in report.curves.items():
            assert curve["rel_grad"][0] == pytest.approx(1.0)
            assert curve["est_err"] is not None
            assert len(curve["time_s"]) == 101
        assert all(sm.n_ok == 3 for sm in report.summaries)

    def test_written_files_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        harness.run_experiment(self._spec()).write(d1)
        harness.run_experiment(self._spec()).write(d2)
        for name in sorted(os.listdir(d1)):
            if name.endswith(".csv"):  # wall_times.json is measured, not seeded
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_spec_json_roundtrip(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_report_echoes_spec_json(self, tmp_path):
        report = harness.run_experiment(self._spec(replications=1))
        written = report.write(tmp_path)
        assert str(tmp_path / "spec.json") in written
        assert ExperimentSpec.load(tmp_path / "spec.json") == self._spec(replications=1)

    def test_concurrent_replications_match_serial(self, tmp_path):
        spec = self._spec(roster=("gis",))
        serial = harness.run_experiment(spec, jobs=1)
        parallel = harness.run_experiment(spec, jobs=2)
        np.testing.assert_array_equal(serial.curves["gis"]["rel_grad"],
                                      parallel.curves["gis"]["rel_grad"])

    def test_failed_replications_are_counted(self):
        # iis rejects signed designs, so on the general scenario it fails loudly
        spec = ExperimentSpec(scenario="general", replications=2, n_rows=80, n_cols=6,
                              roster=("mm-general", "iis"), seed=4)
        report = harness.run_experiment(spec)
        assert len(report.failures) == 2
        iis_summary = [sm for sm in report.summaries if sm.solver == "iis"][0]
        assert iis_summary.n_ok == 0 and iis_summary.n_failed == 2
        ok = [sm for sm in report.summaries if sm.solver == "mm-general"][0]
        assert ok.n_ok == 2


class TestPenaltyPath:
    def _instance(self, seed=21, scale=0.25):
        spec = ExperimentSpec(scenario="table-moderate", scale_factor=scale, seed=seed)
        return harness.gen_table_instance(spec, 0)

    def test_lambda_max_gives_empty_support(self):
        inst = self._instance(scale=0.3)
        lam_max = harness.lambda_max(inst)
        res = l1_ips_fit(inst, SolverConfig(variant="l1-ips", lam=1.01 * lam_max,
                                            eps_tol=1e-10))
        assert np.count_nonzero(res.beta[1:]) == 0
        res2 = l1_ips_fit(inst, SolverConfig(variant="l1-ips", lam=0.95 * lam_max,
                                             eps_tol=1e-10))
        assert np.count_nonzero(res2.beta[1:]) >= 1

    def test_path_structure_and_support_growth(self):
        inst = self._instance()
        result = harness.l1_path(inst, grid_size=20, min_ratio=1e-3, eps_tol=1e-8)
        lams = result.lambda_grid
        assert np.all(np.diff(lams) < 0.0)
        assert result.points[0].support_size == 0
        sizes = np.array([pt.support_size for pt in result.points])
        grows = np.diff(sizes) >= 0
        assert grows.mean() >= 0.9  # non-decreasing as the penalty shrinks
        assert 0 <= result.selected_index < 20
        assert result.selected.ebic == min(pt.ebic for pt in result.points)

    def test_path_kkt_residuals_every_point(self):
        from ipscale.solvers import l1_kkt_residuals

        inst = self._instance(seed=22)
        result = harness.l1_path(inst, grid_size=10, min_ratio=1e-2, eps_tol=1e-9)
        for pt in result.points:
            beta = pt.beta
            mu = inst.offset * np.exp(inst.design.matvec(beta))
            resid = l1_kkt_residuals(inst, beta, mu, pt.lam)
            assert np.max(resid) <= 1e-6 * (1.0 + inst.counts.sum())

    def test_small_penalty_endpoint_matches_plain_fit(self):
        inst = self._instance(seed=23)
        result = harness.l1_path(inst, grid_size=8, min_ratio=1e-8, eps_tol=1e-8)
        plain = ips_fit(inst, SolverConfig(variant="ips", eps_tol=1e-8, max_iters=200_000))
        assert np.max(np.abs(result.points[-1].beta - plain.beta)) <= 1e-4

    def test_deviance_column_is_fit_statistic(self):
        from ipscale.model import g_squared

        inst = self._instance(seed=24)
        result = harness.l1_path(inst, grid_size=6, min_ratio=1e-2)
        pt = result.points[-1]
        mu = inst.offset * np.exp(inst.design.matvec(pt.beta))
        assert pt.deviance == pytest.approx(g_squared(inst.counts, mu), rel=1e-9)

    def test_counts_required(self):
        inst0 = self._instance()
        synth = ProblemInstance.from_suff_stats(inst0.design, inst0.suff_stats)
        with pytest.raises(HarnessError, match="count"):
            harness.l1_path(synth)


class TestExport:
    def test_export_roundtrip(self, tmp_path):
        from ipscale.design import read_triplet_csv

        spec = ExperimentSpec(scenario="general", n_rows=40, n_cols=5, seed=9)
        inst = harness.gen_instance(spec, 0)
        files = harness.export_instance(inst, tmp_path, name="t")
        assert len(files) == 4
        X = read_triplet_csv(tmp_path / "t_design.csv")
        assert np.array_equal(X.toarray(), inst.design.toarray())
