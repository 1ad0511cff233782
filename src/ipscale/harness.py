"""Synthetic instances, benchmark protocol, and the l1 path with EBIC tuning.

Scenario generators follow the shared recipe: draw a design, draw true
coefficients, set mu* = q o exp(X beta*) with q = 1, and sample counts
n_i ~ Poisson(mu*_i) independently.  Gaussian designs start from rows with
AR(1) correlation rho = 0.8 and then run a scenario-specific pipeline of
shift-to-nonnegative, scale-to-max, and row jitter steps.

Benchmarks average per-solver trace curves across replications on a common
time grid.  The default clock is the solvers' deterministic work counter so
report files are byte-reproducible; pass ``wall_clock=True`` for measured
wall-time curves (not reproducible across runs).
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import model as mdl
from ._io import fmt, read_json, write_csv, write_json
from .design import DesignMatrix, TableSchema, build_table_design, write_triplet_csv
from .model import ProblemInstance, philox_rng
from .solvers import FitResult, SolverConfig, l1_ips_fit, solve

SCENARIOS = (
    "table-moderate", "table-large", "nonneg-small", "nonneg-large", "general", "l1-path",
)

AR1_RHO = 0.8

# Points of the common time grid that run_experiment averages traces on.
GRID_POINTS = 101


class HarnessError(ValueError):
    """Bad experiment specification or infeasible generated instance."""


_INT_FIELDS = ("replications", "seed", "max_iters", "table_setting", "n_rows", "n_cols")
_REAL_FIELDS = ("scale_factor", "eps_tol", "t_max_secs")


@dataclass
class ExperimentSpec:
    scenario: str
    replications: int = 20
    scale_factor: float = 1.0
    roster: tuple[str, ...] = ("ips", "a-ips")
    seed: int = 0
    eps_tol: float = 1e-4
    t_max_secs: float = 600.0
    max_iters: int = 100_000
    table_setting: int = 1
    n_rows: int | None = None
    n_cols: int | None = None

    def __post_init__(self):
        for names, kind, what in ((_INT_FIELDS, numbers.Integral, "an integer"),
                                  (_REAL_FIELDS, numbers.Real, "a number")):
            for name in names:
                value = getattr(self, name)
                if value is None and name in ("n_rows", "n_cols"):
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise HarnessError(f"{name} must be {what}, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise HarnessError(f"unknown scenario {self.scenario!r}; one of {SCENARIOS}")
        if self.replications < 1:
            raise HarnessError("replications must be >= 1")
        if not self.roster:
            raise HarnessError("solver roster is empty")
        self.roster = tuple(self.roster)
        if not 0 < self.scale_factor <= 1:
            raise HarnessError("scale_factor must be in (0, 1]")
        if self.table_setting not in (1, 2):
            raise HarnessError("table_setting must be 1 or 2")

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self), "roster": list(self.roster)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise HarnessError(f"malformed experiment spec: expected an object, got {d!r:.40}")
        fields = {k: v for k, v in d.items() if k != "schema"}
        if fields.get("t_max_secs", 0) is None:  # how JSON holds inf: no time limit
            fields["t_max_secs"] = np.inf
        try:
            return cls(**fields)
        except TypeError as exc:
            raise HarnessError(f"malformed experiment spec: {exc}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        return cls.from_dict(read_json(path, HarnessError))


def _instance_rng(spec: ExperimentSpec, replication: int) -> np.random.Generator:
    return philox_rng(spec.seed * 1_000_003 + replication)


# -- design pipelines ---------------------------------------------------------


def ar1_rows(rng: np.random.Generator, n: int, d: int, rho: float = AR1_RHO) -> np.ndarray:
    """Rows drawn from N(0, [rho^|j-k|]) via the recursive construction."""
    z = rng.standard_normal((n, d))
    x = np.empty((n, d))
    x[:, 0] = z[:, 0]
    c = np.sqrt(1.0 - rho * rho)
    for j in range(1, d):
        x[:, j] = rho * x[:, j - 1] + c * z[:, j]
    return x


def shift_nonnegative(x: np.ndarray) -> np.ndarray:
    """Subtract the global minimum so the smallest entry becomes zero."""
    return x - x.min()


def scale_to_max(x: np.ndarray, divisor: float) -> np.ndarray:
    """Divide by divisor * max|entry|, bounding the magnitude at 1/divisor."""
    m = np.abs(x).max()
    if m == 0.0:
        raise HarnessError("cannot scale an all-zero design")
    return x / (divisor * m)


def jitter_rows(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Multiply each row by 1 + |z_i|, z_i standard normal, to break the
    near-equal row sums of the iid construction."""
    return x * (1.0 + np.abs(rng.standard_normal(x.shape[0])))[:, None]


def _mixture(rng: np.random.Generator, size: int, means: tuple[float, float]) -> np.ndarray:
    pick = rng.random(size) < 0.5
    draws = rng.standard_normal(size)
    return np.where(pick, means[0] + draws, means[1] + draws)


def _sample_counts(rng: np.random.Generator, design: DesignMatrix,
                   beta_true: np.ndarray) -> ProblemInstance:
    eta = design.matvec(beta_true)
    if eta.max() > 42.0:
        raise HarnessError(
            f"generated mean overflows Poisson sampling (max log-mean {eta.max():.1f}); "
            "reduce the scale or coefficient magnitudes")
    mu_star = np.exp(eta)
    counts = rng.poisson(mu_star).astype(np.float64)
    if not np.any(counts > 0):
        counts[int(np.argmax(mu_star))] = 1.0
    return ProblemInstance.from_counts(design, counts, beta_true=beta_true)


def _scaled_support(full_count: int, slope_dim: int, full_slope_dim: int) -> int:
    """Shrink a nonzero-coordinate count proportionally to the slope size."""
    return min(full_count, max(1, int(round(full_count * slope_dim / full_slope_dim))))


def _table_schema(n_factors: int, levels: int, order: int, scale: float) -> TableSchema:
    lv = max(2, int(round(levels * scale)))
    return TableSchema(
        factors=tuple((f"f{k + 1}", lv) for k in range(n_factors)),
        interaction_order=order,
    )


def gen_table_instance(spec: ExperimentSpec, replication: int = 0) -> ProblemInstance:
    """Contingency-table scenario: sparse true coefficients, Poisson counts."""
    rng = _instance_rng(spec, replication)
    if spec.scenario in ("table-moderate", "l1-path"):
        schema = _table_schema(4, 10, 2, spec.scale_factor)
        design = build_table_design(schema)
        p = design.n_cols
        beta = np.zeros(p)
        beta[0] = 2.0
        # the sparsity pattern shrinks with the design so desk-scale runs
        # keep a sparse truth and sane cell means
        k_last = _scaled_support(10, p - 1, 522)
        beta[p - k_last:] = _mixture(rng, k_last, (1.0, 3.0))
        if spec.table_setting == 2 or spec.scenario == "l1-path":
            pool = np.arange(1, p - k_last)
            extra = min(_scaled_support(20, p - 1, 522), len(pool))
            chosen = rng.choice(pool, size=extra, replace=False)
            beta[chosen] = _mixture(rng, extra, (1.0, 3.0))
    elif spec.scenario == "table-large":
        schema = _table_schema(5, 10, 3, spec.scale_factor)
        design = build_table_design(schema)
        p = design.n_cols
        beta = np.zeros(p)
        beta[0] = 5.0
        k_last = _scaled_support(2000, p - 1, 8145)
        beta[p - k_last:] = 1.0 + rng.standard_normal(k_last)
    else:
        raise HarnessError(f"{spec.scenario} is not a table scenario")
    return _sample_counts(rng, design, beta)


def gen_gaussian_instance(spec: ExperimentSpec, replication: int = 0) -> ProblemInstance:
    """Gaussian-design scenarios with the shift/scale/jitter pipeline."""
    rng = _instance_rng(spec, replication)
    if spec.scenario == "nonneg-small":
        n_default, p_default, divisor = 1000, 100, 50.0
        beta0 = 1.0
    elif spec.scenario == "nonneg-large":
        n_default, p_default, divisor = 20000, 2000, 20.0
        beta0 = 10.0
    elif spec.scenario == "general":
        n_default, p_default, divisor = 50000, 1000, 100.0
        beta0 = 10.0
    else:
        raise HarnessError(f"{spec.scenario} is not a Gaussian scenario")
    n = spec.n_rows if spec.n_rows is not None else max(50, int(round(n_default * spec.scale_factor)))
    p = spec.n_cols if spec.n_cols is not None else max(5, int(round(p_default * spec.scale_factor)))
    if p < 2:
        raise HarnessError("need at least an intercept plus one slope column")
    proto = ar1_rows(rng, n, p - 1)
    if spec.scenario in ("nonneg-small", "nonneg-large"):
        slope_mat = jitter_rows(rng, scale_to_max(shift_nonnegative(proto), divisor))
    else:
        slope_mat = scale_to_max(proto, divisor)
    design = DesignMatrix.from_dense(
        np.hstack([np.ones((n, 1)), slope_mat]),
        labels=["(intercept)"] + [f"g{j}" for j in range(1, p)],
    )
    beta = np.empty(p)
    beta[0] = beta0
    beta[1:] = _mixture(rng, p - 1, (10.0, -10.0))
    return _sample_counts(rng, design, beta)


def gen_instance(spec: ExperimentSpec, replication: int = 0) -> ProblemInstance:
    if spec.scenario in ("table-moderate", "table-large", "l1-path"):
        return gen_table_instance(spec, replication)
    return gen_gaussian_instance(spec, replication)


# -- benchmark protocol -------------------------------------------------------


@dataclass
class SolverSummary:
    solver: str
    n_ok: int
    n_failed: int
    mean_final_rel_grad: float
    mean_final_est_err: float | None
    mean_wall_seconds: float
    mean_work_seconds: float
    terminations: dict


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    curves: dict          # solver -> dict(time_s=..., rel_grad=..., est_err=... or None)
    summaries: list[SolverSummary]
    failures: list[tuple[str, int, str]]

    def write(self, out_dir: str) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        spath = os.path.join(out_dir, "spec.json")
        self.spec.save(spath)
        written.append(spath)
        for solver, curve in self.curves.items():
            path = os.path.join(out_dir, f"trace_{solver.replace('-', '_')}.csv")
            cols = [c for c in ("time_s", "rel_grad", "est_err") if curve[c] is not None]
            write_csv(path, cols, [np.asarray(curve[c], dtype=np.float64) for c in cols])
            written.append(path)
        # summary.csv carries only seed-reproducible quantities; measured wall
        # times go to a json sidecar that is not byte-stable across runs
        spath = os.path.join(out_dir, "summary.csv")
        sms = self.summaries
        write_csv(spath, ["solver", "n_ok", "n_failed", "mean_final_rel_grad",
                          "mean_final_est_err", "mean_work_seconds", "terminations"],
                  [[sm.solver for sm in sms],
                   np.array([sm.n_ok for sm in sms], dtype=np.int64),
                   np.array([sm.n_failed for sm in sms], dtype=np.int64),
                   np.array([sm.mean_final_rel_grad for sm in sms], dtype=np.float64),
                   ["" if sm.mean_final_est_err is None else fmt(sm.mean_final_est_err)
                    for sm in sms],
                   np.array([sm.mean_work_seconds for sm in sms], dtype=np.float64),
                   [";".join(f"{k}:{v}" for k, v in sorted(sm.terminations.items()))
                    for sm in sms]])
        written.append(spath)
        wpath = os.path.join(out_dir, "wall_times.json")
        write_json(wpath, {sm.solver: sm.mean_wall_seconds for sm in self.summaries})
        written.append(wpath)
        return written


def _solver_config(spec: ExperimentSpec, solver: str, replication: int, p: int) -> SolverConfig:
    return SolverConfig(
        variant=solver,
        eps_tol=spec.eps_tol,
        t_max_secs=spec.t_max_secs,
        max_iters=spec.max_iters,
        seed=spec.seed + replication,
        record_every=1 if p <= 1000 else 5,
    )


def _run_replication(spec: ExperimentSpec, replication: int) -> list[tuple[str, FitResult | None, str]]:
    inst = gen_instance(spec, replication)
    out = []
    for solver in spec.roster:
        cfg = _solver_config(spec, solver, replication, inst.n_cols)
        try:
            out.append((solver, solve(inst, cfg), ""))
        except Exception as exc:  # a crashed replication is reported, not fatal
            out.append((solver, None, f"{type(exc).__name__}: {exc}"))
    return out


def run_experiment(spec: ExperimentSpec, wall_clock: bool = False,
                   jobs: int = 1) -> ExperimentReport:
    """Run the roster over replications and average traces on a time grid."""
    per_rep: list[list[tuple[str, FitResult | None, str]]] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            per_rep = list(ex.map(_run_replication, [spec] * spec.replications,
                                  range(spec.replications)))
    else:
        per_rep = [_run_replication(spec, r) for r in range(spec.replications)]

    failures: list[tuple[str, int, str]] = []
    by_solver: dict[str, list[FitResult]] = {s: [] for s in spec.roster}
    for rep, results in enumerate(per_rep):
        for solver, res, err in results:
            if res is None:
                failures.append((solver, rep, err))
            else:
                by_solver[solver].append(res)

    def times_of(res: FitResult) -> np.ndarray:
        if wall_clock:
            return np.array([r.wall_seconds for r in res.trace.records])
        return np.array([r.work_seconds for r in res.trace.records])

    curves = {}
    summaries = []
    for solver in spec.roster:
        fits = by_solver[solver]
        if not fits:
            summaries.append(SolverSummary(solver, 0, spec.replications, np.nan, None,
                                           np.nan, np.nan, {}))
            continue
        horizon = max(times_of(r)[-1] for r in fits)
        grid = np.linspace(0.0, horizon, GRID_POINTS)
        rel = np.zeros(GRID_POINTS)
        have_est = all(r.trace.records[0].est_error is not None for r in fits)
        est = np.zeros(GRID_POINTS) if have_est else None
        for res in fits:
            t = times_of(res)
            rg = res.trace.rel_gradients()
            rel += np.interp(grid, t, rg)
            if have_est:
                ee = np.array([r.est_error for r in res.trace.records])
                est += np.interp(grid, t, ee)
        rel /= len(fits)
        if have_est:
            est /= len(fits)
        curves[solver] = {"time_s": grid, "rel_grad": rel, "est_err": est}
        terms: dict[str, int] = {}
        for res in fits:
            terms[res.termination] = terms.get(res.termination, 0) + 1
        summaries.append(SolverSummary(
            solver=solver,
            n_ok=len(fits),
            n_failed=spec.replications - len(fits),
            mean_final_rel_grad=float(np.mean([r.trace.final().rel_gradient for r in fits])),
            mean_final_est_err=(float(np.mean([r.trace.final().est_error for r in fits]))
                                if have_est else None),
            mean_wall_seconds=float(np.mean([r.wall_seconds for r in fits])),
            mean_work_seconds=float(np.mean([r.trace.final().work_seconds for r in fits])),
            terminations=terms,
        ))
    return ExperimentReport(spec=spec, curves=curves, summaries=summaries, failures=failures)


# -- l1 path with EBIC tuning -------------------------------------------------


@dataclass
class PathPoint:
    lam: float
    support_size: int
    deviance: float
    ebic: float
    beta: np.ndarray


@dataclass
class PathResult:
    lambda_grid: np.ndarray
    points: list[PathPoint]
    selected_index: int

    @property
    def selected_lambda(self) -> float:
        return float(self.lambda_grid[self.selected_index])

    @property
    def selected(self) -> PathPoint:
        return self.points[self.selected_index]


def lambda_max(inst: ProblemInstance) -> float:
    """Smallest penalty with an empty support: the largest absolute slope
    statistic at the intercept-only fit."""
    if not inst.design.has_intercept:
        raise HarnessError("l1 path needs an intercept as design column 0")
    total = inst.total_count
    mu0 = inst.offset * (total / float(inst.offset.sum()))
    g = inst.design.rmatvec(mu0) - inst.suff_stats
    return float(np.max(np.abs(g[1:])))


def l1_path(inst: ProblemInstance, grid_size: int = 50, min_ratio: float = 1e-3,
            gamma: float = 1.0, eps_tol: float = 1e-8, max_iters: int = 50_000,
            t_max_secs: float = 600.0) -> PathResult:
    """Warm-started l1 fits over a log-spaced decreasing penalty grid.

    EBIC(lam) = 2 l(beta) + k log N + 2 gamma k log(p-1), k the support size
    excluding the intercept; the smallest-EBIC point is selected.
    """
    if grid_size < 1:
        raise HarnessError("empty penalty grid")
    if inst.counts is None:
        raise HarnessError("l1 path needs the full count vector")
    lam_hi = lambda_max(inst)
    if lam_hi <= 0.0:
        raise HarnessError("the intercept-only fit is already stationary; empty grid")
    # nudge the top of the grid by one part in 1e9 so the empty-support
    # property at the boundary survives round-off in the tie-break
    grid = np.geomspace(lam_hi * (1.0 + 1e-9), lam_hi * min_ratio, grid_size)
    n_rows = inst.n_rows
    p = inst.n_cols
    warm = np.zeros(p)
    points = []
    for lam in grid:
        cfg = SolverConfig(variant="l1-ips", lam=float(lam), eps_tol=eps_tol,
                           max_iters=max_iters, t_max_secs=t_max_secs, beta_init=warm)
        res = l1_ips_fit(inst, cfg)
        warm = res.beta
        k = int(np.count_nonzero(res.beta[1:]))
        nll = -float(inst.suff_stats @ res.beta) + float(res.mu.sum())
        ebic = 2.0 * nll + k * np.log(n_rows) + 2.0 * gamma * k * np.log(max(p - 1, 1))
        points.append(PathPoint(lam=float(lam), support_size=k,
                                deviance=mdl.g_squared(inst.counts, res.mu),
                                ebic=float(ebic), beta=res.beta.copy()))
    best = int(np.argmin([pt.ebic for pt in points]))
    return PathResult(lambda_grid=grid, points=points, selected_index=best)


# -- instance export / grouped-counts loading ---------------------------------


def export_instance(inst: ProblemInstance, out_dir: str, name: str = "instance") -> list[str]:
    """Write design (triplet CSV), counts, and true coefficients if present."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    dpath = os.path.join(out_dir, f"{name}_design.csv")
    write_triplet_csv(inst.design, dpath)
    written.append(dpath)
    if inst.counts is not None:
        cpath = os.path.join(out_dir, f"{name}_counts.csv")
        write_csv(cpath, ["row", "count"], [np.arange(len(inst.counts)), inst.counts])
        written.append(cpath)
    if inst.beta_true is not None:
        bpath = os.path.join(out_dir, f"{name}_beta_true.csv")
        write_csv(bpath, ["column_label", "value"],
                  [inst.design.column_labels, np.asarray(inst.beta_true, dtype=np.float64)])
        written.append(bpath)
    mpath = os.path.join(out_dir, f"{name}_meta.json")
    write_json(mpath, {"schema": 1, "n_rows": inst.n_rows, "n_cols": inst.n_cols,
                       "kind": inst.design.kind})
    written.append(mpath)
    return written
