"""Iterative solvers for Poisson log-affine maximum likelihood.

All fitters share one contract: they take a :class:`ProblemInstance` and a
:class:`SolverConfig`, maintain the fitted mean multiplicatively alongside
the coefficients, record a convergence trace, and stop when the relative
gradient  ||g_t||_inf / ||g_0||_inf  drops to ``eps_tol`` (inclusive) or a
time/iteration limit is hit.  A step that leaves the iterate unchanged is
an exact fixed point and ends the run as converged, unless its subproblem
failed.  A non-finite objective or gradient, or such a failed step, ends
the run with the ``diverged`` termination.  :func:`solve` picks the
variant's family; a family supplies only its state and its step, and one
outer loop (:func:`_drive`) runs them all.

The bookkeeping around a step exists once.  No coefficient leaves the box
+-BETA_CLAMP, and every variant lists each coordinate it pins there in
``flags["divergent_coordinates"]``: the closed form
beta + power * log(num / den) (:func:`_scaling_update`, with one scalar
copy in the coordinate loop) pins and lists for ips, a-ips, x2-ips,
mm-binary and gis, :func:`_clamp` for mm-general, mm-parallel, iis, q-ips
and b-ips, and the l1 threshold and newton's line search pin their own
steps.  A step that needs the gradient at its start (b-ips, newton)
reads the one the record just before it computed (``record_grad``).

Variants
--------
ips          cyclic coordinate descent with the closed-form binary update
a-ips        same, with a fresh random coordinate permutation per sweep
x2-ips       cyclic descent minimizing the Pearson chi-square statistic
mm-binary    synchronized multiplicative update with step 1/p (binary)
gis          synchronized update with step 1/R, R = max row sum (non-negative)
mm-general   per-coordinate quadratic-in-exp closed form for signed designs
mm-parallel  block-separable surrogate, all blocks updated at once
iis          intercept-profiled scaling with one 1-D solve per coordinate
q-ips        fixed quadratic curvature bound plus momentum with gradient
             restart on the profiled objective, carrying its linear
             predictors (ridge-q-ips adds an l2 penalty on the slopes)
b-ips        randomized block coordinate descent with a dense Newton subsolver
newton       dense Newton with Armijo backtracking (baseline / oracle)
l1-ips       cyclic soft-thresholded scaling for the l1-penalized objective

Traces carry both measured wall seconds and a deterministic work counter
(nominal floating-point operations; serialized as seconds at 1e9 units/s)
so that trace files are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as mdl
from .design import KIND_BINARY, KIND_GENERAL
from .model import BETA_CLAMP, Coefficients, ProblemInstance, philox_rng

TOL_REACHED = "tol_reached"
TIME_LIMIT = "time_limit"
ITER_LIMIT = "iter_limit"
DIVERGED = "diverged"

WORK_UNITS_PER_SECOND = 1e9

# Stopping rule of the inner Newton solves: mm-parallel's gradient tolerance
# (relative to the subproblem's scale), and the iteration cap of mm-parallel and b-ips.
INNER_TOL = 1e-10
INNER_MAX_ITERS = 50

# Forcing term of b-ips's block solves: a block stops once its gradient is at
# most BIPS_FORCING times the sweep's starting gradient, or at the rounding
# floor BIPS_FLOOR_ULPS * eps * (1 + total).
BIPS_FORCING = 0.5
BIPS_FLOOR_ULPS = 64.0

# Stopping rule of the 1-D scaling equations of iis: residual tolerance
# (relative to the right-hand side) and iteration cap.
SCALING_REL_TOL = 1e-12
SCALING_MAX_ITERS = 200

class SolverError(ValueError):
    """Solver contract violation (wrong design kind, bad config, ...)."""


@dataclass
class SolverConfig:
    variant: str = "ips"
    eps_tol: float = 1e-4
    t_max_secs: float = 600.0
    max_iters: int = 100_000
    lam: float = 0.0
    block_sizes: tuple[int, ...] | None = None
    w_choice: str = "bohning"  # or "spectral"
    seed: int = 0
    beta_init: np.ndarray | None = None
    record_every: int = 1
    track_g2: bool = False

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise SolverError(f"unknown variant {self.variant!r}; one of {_VARIANTS}")
        if not self.eps_tol > 0:  # a nan fails too
            raise SolverError("eps_tol must be positive")
        if math.isnan(self.t_max_secs):
            raise SolverError("t_max_secs must be a number, not nan")
        if not 0 <= self.lam < math.inf:
            raise SolverError("lambda must be finite and non-negative")
        if self.lam > 0 and self.variant not in ("l1-ips", "ridge-q-ips"):
            raise SolverError(f"lambda applies only to l1-ips and ridge-q-ips, not {self.variant}")
        if self.w_choice not in ("bohning", "spectral"):
            raise SolverError("w_choice must be 'bohning' or 'spectral'")
        if self.record_every < 1:
            raise SolverError("record_every must be >= 1")


@dataclass
class TraceRecord:
    iteration: int
    wall_seconds: float
    work_units: float
    objective: float
    rel_gradient: float
    est_error: float | None = None
    # the termination called for by the step before this record leaving the
    # iterate unchanged (see _step_outcome); "" when the step moved it
    step_outcome: str = ""

    @property
    def work_seconds(self) -> float:
        return self.work_units / WORK_UNITS_PER_SECOND


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)
    termination: str = ""
    g0_norm: float = 0.0

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def rel_gradients(self) -> np.ndarray:
        return np.array([r.rel_gradient for r in self.records])

    def final(self) -> TraceRecord:
        return self.records[-1]


@dataclass
class FitResult:
    variant: str
    beta: np.ndarray
    mu: np.ndarray
    trace: ConvergenceTrace
    flags: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def termination(self) -> str:
        return self.trace.termination

    @property
    def converged(self) -> bool:
        return self.trace.termination == TOL_REACHED

    @property
    def wall_seconds(self) -> float:
        return self.trace.final().wall_seconds


def _stop_reason(rec: TraceRecord, cfg: SolverConfig) -> str:
    """The stopping rule: the termination a record calls for, or "" to go on.

    After the gradient, time and iteration tests, a record whose step left
    the iterate unchanged ends the run with that step's outcome.
    """
    if not (math.isfinite(rec.objective) and math.isfinite(rec.rel_gradient)):
        return DIVERGED
    if rec.rel_gradient <= cfg.eps_tol:
        return TOL_REACHED
    if rec.wall_seconds >= cfg.t_max_secs:
        return TIME_LIMIT
    if rec.iteration >= cfg.max_iters:
        return ITER_LIMIT
    return rec.step_outcome


def _step_outcome(moved: bool, failed: bool = False) -> str:
    """What a step says about the run: "" when it moved the iterate.

    An unchanged iterate is an exact fixed point of the update map, where
    the relative-gradient test can never fire if g0 was measured at the same
    state, so it ends the run as converged; when a subproblem of the step
    failed, it is a stall and ends the run as diverged.
    """
    if moved:
        return ""
    return DIVERGED if failed else TOL_REACHED


def check_stop(trace: ConvergenceTrace, cfg: SolverConfig) -> bool:
    """Whether the stopping rule fires on the latest record (relative gradient is inclusive)."""
    return bool(trace.records) and bool(_stop_reason(trace.final(), cfg))


def _est_error(beta: np.ndarray, beta_true: np.ndarray | None) -> float | None:
    if beta_true is None:
        return None
    denom = float(beta_true @ beta_true)
    if denom == 0.0:
        return None
    diff = beta - beta_true
    return float(diff @ diff) / denom


def _init_beta(cfg: SolverConfig, p: int) -> np.ndarray:
    if cfg.beta_init is None:
        return np.zeros(p)
    b = np.asarray(cfg.beta_init, dtype=np.float64).copy()
    if b.shape != (p,):
        raise SolverError(f"beta_init must have length {p}")
    return np.clip(b, -BETA_CLAMP, BETA_CLAMP)


def _init_slope(cfg: SolverConfig, p: int) -> np.ndarray:
    """Slope start for intercept-profiled variants; accepts p or p-1 length."""
    if cfg.beta_init is None:
        return np.zeros(p - 1)
    b = np.asarray(cfg.beta_init, dtype=np.float64)
    if b.shape == (p - 1,):
        return np.clip(b.copy(), -BETA_CLAMP, BETA_CLAMP)
    if b.shape == (p,):
        return np.clip(b[1:].copy(), -BETA_CLAMP, BETA_CLAMP)
    raise SolverError(f"beta_init must have length {p} or {p - 1}")


def _clamp(values: np.ndarray, divergent: set, coords=None) -> np.ndarray:
    """values pinned to +-BETA_CLAMP, listing in ``divergent`` each entry it
    pinned (NaN included): entry k as coordinate k, or as coords[k]."""
    pinned = np.clip(values, -BETA_CLAMP, BETA_CLAMP)
    hit = np.flatnonzero(pinned != values)
    if len(hit):
        divergent.update((hit if coords is None else coords[hit]).tolist())
    return pinned


# ---------------------------------------------------------------------------
# The shared outer loop and the two kinds of iterate it drives
# ---------------------------------------------------------------------------


class _Family:
    """State and step of one solver family, run by :func:`_drive`.

    A family exposes ``beta`` and ``mu`` and defines ``objective``,
    ``grad_norm``, ``resync`` (rebuild the mean from the coefficients) and
    ``step``.  ``step()`` performs one outer iteration, adds its work units
    to ``work`` (which starts with the family's set-up cost) and returns its
    :func:`_step_outcome`.  ``flags`` and the lists in ``diagnostics`` go
    into the result.  The base ``grad_norm`` keeps its gradient in
    ``record_grad``, which :func:`_drive` clears after every step, so a step
    that finds it set starts where the latest record was taken.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        self.inst, self.cfg, self.variant = inst, cfg, variant
        self.work = 0.0
        self.record_grad: np.ndarray | None = None
        self.divergent: set[int] = set()
        self.flags: dict = {}
        self.diagnostics: dict[str, list] = {}


def _drive(fam: _Family, t0: float) -> FitResult:
    """The outer loop of every variant, and its trace.

    Records the start, which the stopping rule tests like every later
    record, then steps until the rule fires on a record: one on the
    ``record_every`` cadence, one after a step that changed nothing, or one
    taken once out of time between records.  The
    mean is rebuilt every 64 iterations against multiplicative drift.
    ``t0`` is the wall clock before the family was built, so the later
    records and the time limit count its set-up, as the work clock does;
    the start record reads 0 s.
    """
    inst, cfg = fam.inst, fam.cfg
    trace = ConvergenceTrace()
    record_work = inst.design.nnz + inst.n_cols

    def record(iteration: int, step_outcome: str = "") -> None:
        obj, gnorm, est = fam.objective(), fam.grad_norm(), _est_error(fam.beta, inst.beta_true)
        rec = TraceRecord(iteration, time.perf_counter() - t0, fam.work, obj,
                          gnorm / trace.g0_norm, est, step_outcome)
        trace.records.append(rec)
        trace.termination = _stop_reason(rec, cfg)

    obj, g0 = fam.objective(), fam.grad_norm()
    trace.g0_norm = g0
    # g0 / g0: 1 at a regular start, nan (so diverged) where the start's
    # gradient overflows; a start at a zero gradient has converged
    start = TraceRecord(0, 0.0, 0.0, obj, 0.0 if g0 == 0.0 else g0 / g0,
                        _est_error(fam.beta, inst.beta_true))
    trace.records.append(start)
    trace.termination = _stop_reason(start, cfg)
    it = 0
    # every record below but a cadence one ends the run: a step outcome, or
    # a wall time past the limit, always gives a termination
    while not trace.termination:
        outcome = fam.step()
        fam.record_grad = None
        it += 1
        if outcome:
            record(it, outcome)
            continue
        if it % 64 == 0:
            fam.resync()
        if it % cfg.record_every == 0 or it >= cfg.max_iters:
            fam.work += record_work
            record(it)
        elif time.perf_counter() - t0 >= cfg.t_max_secs:
            record(it)
    return FitResult(variant=fam.variant, beta=fam.beta, mu=fam.mu, trace=trace,
                     flags={"divergent_coordinates": sorted(map(int, fam.divergent)), **fam.flags},
                     diagnostics={k: np.array(v) for k, v in fam.diagnostics.items()})


class _RawState(_Family):
    """Coefficients with their mean q o exp(X beta), on the raw objective."""

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        super().__init__(inst, cfg, variant)
        self.c = Coefficients.from_beta(inst, _init_beta(cfg, inst.n_cols))

    @property
    def beta(self) -> np.ndarray:
        return self.c.beta

    @property
    def mu(self) -> np.ndarray:
        return self.c.mu

    def objective(self) -> float:
        return mdl.neg_log_likelihood(self.inst, self.c)

    def grad_norm(self) -> float:
        self.record_grad = mdl.gradient(self.inst, self.c)
        return float(np.max(np.abs(self.record_grad)))

    def resync(self) -> None:
        self.c.resync(self.inst)


class _ProfiledState(_Family):
    """Slopes with the un-normalized mean mu_ring = q o exp(Xs slope).

    The intercept is profiled out: it is recovered in closed form, and the
    objective is l at the profiled-optimal intercept, which differs from
    the slope objective by a data-only constant.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        super().__init__(inst, cfg, variant)
        if not inst.design.has_intercept:
            raise SolverError(f"{variant} needs an intercept as design column 0")
        self.slope = _init_slope(cfg, inst.n_cols)
        self.coords = np.arange(1, inst.n_cols)  # the design column of each slope
        self.total = inst.total_count
        self.s_slope = inst.suff_stats[1:]
        self.resync()

    @property
    def beta(self) -> np.ndarray:
        b0 = np.log(self.total) - np.log(float(self.mu_ring.sum()))
        return np.concatenate(([b0], self.slope))

    @property
    def mu(self) -> np.ndarray:
        return self.total * self.mu_ring / float(self.mu_ring.sum())

    def objective(self) -> float:
        return -float(self.s_slope @ self.slope) + self.total * np.log(float(self.mu_ring.sum())) \
            + self.total * (1.0 - np.log(self.total))

    def grad(self) -> np.ndarray:
        return -self.s_slope + (self.total / float(self.mu_ring.sum())) \
            * self.inst.design.slope_rmatvec(self.mu_ring)

    def grad_norm(self) -> float:
        self.record_grad = self.grad()
        return float(np.max(np.abs(self.record_grad)))

    def resync(self) -> None:
        self.mu_ring = self.inst.offset * np.exp(self.inst.design.slope_matvec(self.slope))


# ---------------------------------------------------------------------------
# Cyclic coordinate descent family: ips, a-ips, x2-ips, l1-ips
# ---------------------------------------------------------------------------


class _CDFamily(_RawState):
    """One cyclic (or, for a-ips, freshly permuted) sweep of closed-form
    coordinate updates per step.

    l1-ips and x2-ips sweep the design's disjoint runs
    (:meth:`DesignMatrix.disjoint_runs`): the columns of a run have disjoint
    supports of one size, so their updates commute and one vectorized update
    of the run gives the bits of the per-coordinate loop.  A vectorized
    update has a fixed cost of a dozen or so numpy calls, so runs shorter
    than ``_MIN_RUN`` columns, and every column of ips and a-ips, are updated
    one coordinate at a time.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str, perm_fn=None):
        X = inst.design
        pearson = variant == "x2-ips"
        lam = cfg.lam if variant == "l1-ips" else 0.0
        if X.kind != KIND_BINARY:
            raise SolverError(
                f"{variant} uses the closed-form binary update; "
                "use the mm-general variant for non-binary designs")
        if pearson and inst.counts is None:
            raise SolverError("x2-ips needs the full count vector")
        if lam > 0 and not X.has_intercept:
            raise SolverError("l1-ips needs an intercept as design column 0")
        super().__init__(inst, cfg, variant)
        p = X.n_cols
        self.pearson, self.lam = pearson, lam
        self.power = 0.5 if pearson else 1.0  # of the closed form beta + power * log(num / den)
        self.nsq = inst.counts * inst.counts if pearson else None
        self.supports = [rows for rows, _ in X.columns()]
        self.runs = _sweep_plan(X.disjoint_runs()) if variant in ("l1-ips", "x2-ips") else None
        rng = philox_rng(cfg.seed)
        perm = perm_fn or (lambda rng, p: rng.permutation(p))
        self.order = (lambda: perm(rng, p)) if variant == "a-ips" else (lambda: range(p))
        self.track_g2 = bool(cfg.track_g2 and inst.counts is not None and X.has_intercept)
        if self.track_g2:
            self.diagnostics["g2_after_intercept"] = []
        self.sweep_work = (3.0 if pearson else 2.0) * X.nnz + 3.0 * X.n_rows

    def objective(self) -> float:
        if self.pearson:
            return mdl.pearson_x2(self.inst.counts, self.c.mu)
        val = super().objective()
        if self.lam > 0:
            val += self.lam * float(np.abs(self.c.beta[1:]).sum())
        return val

    def grad_norm(self) -> float:
        if self.pearson:
            with np.errstate(divide="ignore"):
                resid = self.c.mu - _pearson_ratio(self.nsq, self.c.mu)
            return float(np.max(np.abs(self.inst.design.rmatvec(resid))))
        if self.lam > 0:
            return float(np.max(l1_kkt_residuals(self.inst, self.c.beta, self.c.mu, self.lam)))
        return super().grad_norm()

    def step(self) -> str:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            changed = self._coordinate_sweep(self.order()) if self.runs is None else self._run_sweep()
        if changed:
            self.work += self.sweep_work
        return _step_outcome(changed)

    def _coordinate_sweep(self, order) -> bool:
        beta, mu, s, B, lam = self.c.beta, self.c.mu, self.inst.suff_stats, BETA_CLAMP, self.lam
        nsq, power, supports, divergent = self.nsq, self.power, self.supports, self.divergent
        log, exp, add, inf = np.log, np.exp, np.add.reduce, math.inf
        track = self.track_g2 and order[0] == 0
        changed = False
        for j in order:
            supp = supports[j]
            mu_j = mu[supp]
            den = add(mu_j)
            if lam > 0.0 and j != 0:
                b_new = l1_threshold_update(j, beta[j], s[j], den, lam, B)
                if not -B < b_new < B:  # clamped, or NaN
                    divergent.add(j)
            else:  # the scalar form of _scaling_update
                num = s[j] if nsq is None else add(_pearson_ratio(nsq[supp], mu_j))
                if 0.0 < num < inf and den > 0.0:
                    b_new = beta[j] + power * log(num / den)
                    if not -B <= b_new <= B:  # also catches NaN and inf
                        b_new = min(max(b_new, -B), B)
                        divergent.add(j)
                else:
                    b_new = -B if num <= 0.0 else B
                    divergent.add(j)
            d = b_new - beta[j]
            if d != 0.0:
                mu_j *= exp(d)
                mu[supp] = mu_j
                beta[j] = b_new
                changed = True
            if track:
                self.diagnostics["g2_after_intercept"].append(mdl.g_squared(self.inst.counts, mu))
                track = False
        return changed

    def _run_sweep(self) -> bool:
        """One cyclic sweep: each run of at least ``_MIN_RUN`` columns at
        once, the columns between them one at a time.  Each row sum of the
        C-contiguous gather ``mu[R]`` adds the same numbers in the same order
        as the per-coordinate ``np.add.reduce(mu[supp])``."""
        beta, mu, s, B, lam = self.c.beta, self.c.mu, self.inst.suff_stats, BETA_CLAMP, self.lam
        add = np.add.reduce
        changed = False
        for a, b, R in self.runs:
            if R is None:
                changed |= self._coordinate_sweep(range(a, b))
                continue
            M = mu[R]
            den = add(M, axis=1)
            beta_r = beta[a:b]
            if lam > 0.0:  # a long run never holds the intercept, which overlaps every column
                b_new = l1_threshold_update(range(a, b), beta_r, s[a:b], den, lam, B)
                clamped = ~((-B < b_new) & (b_new < B))  # clamped, or NaN
            else:
                num = s[a:b] if self.nsq is None else add(_pearson_ratio(self.nsq[R], M), axis=1)
                b_new, clamped = _scaling_update(beta_r, num, den, self.power)
            d = b_new - beta_r
            moved = d != 0.0
            if moved.any():
                M *= np.exp(d)[:, None]
                mu[R] = M
                np.copyto(beta_r, b_new, where=moved)  # an unmoved -0.0 stays -0.0
                changed = True
            if clamped.any():
                self.divergent.update((a + np.flatnonzero(clamped)).tolist())
        return changed


# Shortest run updated at once.  On 10^4-row designs with column supports of
# 100 and 1000 rows, one vectorized update of a run of 2 columns cost 1.5-2.3
# times its scalar updates, of 8 columns 0.7-1.1 times, of 16 columns 0.4-0.6.
_MIN_RUN = 8


def _sweep_plan(runs) -> list[tuple[int, int, np.ndarray | None]]:
    """The disjoint runs as (first, end, R) sweep segments: each run of at
    least ``_MIN_RUN`` columns keeps its row indices R; each stretch of
    shorter runs between them becomes one segment with R None."""
    plan = []
    for a, R in runs:
        b = a + len(R)
        if len(R) >= _MIN_RUN:
            plan.append((a, b, R))
        elif plan and plan[-1][2] is None:
            plan[-1] = (plan[-1][0], b, None)
        else:
            plan.append((a, b, None))
    return plan


def _scaling_update(beta: np.ndarray, num: np.ndarray, den: np.ndarray, power: float):
    """The closed-form update beta + power * log(num / den), elementwise,
    clamped to +-BETA_CLAMP, and the mask of the coordinates it clamped.

    A coordinate whose ratio is not positive and finite goes to the bound
    its numerator points to.
    """
    B = BETA_CLAMP
    b_new = beta + power * np.log(num / den)
    inside = (-B <= b_new) & (b_new <= B)  # false for NaN and inf
    ok = (num > 0.0) & (den > 0.0) & np.isfinite(num)
    b_new = np.where(ok, np.minimum(np.maximum(b_new, -B), B), np.where(num <= 0.0, -B, B))
    return b_new, ~(ok & inside)


def _pearson_ratio(nsq: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """n^2 / mu elementwise, 0 where n = 0: a zero count adds nothing to the
    Pearson numerator, even where its mean has underflowed to 0."""
    return np.divide(nsq, mu, out=np.zeros(mu.shape), where=nsq > 0.0)


def ips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    return _fit(inst, cfg, "ips")


def a_ips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None, *, _perm_fn=None) -> FitResult:
    return _fit(inst, cfg, "a-ips", perm_fn=_perm_fn)


def x2_ips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    return _fit(inst, cfg, "x2-ips")


def l1_ips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    return _fit(inst, cfg, "l1-ips")


def l1_threshold_update(j, beta_j, s_j, col_mu_sum, lam: float, clamp: float = BETA_CLAMP):
    """Soft-thresholded coordinate update for a penalized binary column.

    Returns the new beta_j given the current column statistics; the zero
    branch is taken on ties |delta| = lam.  ``j`` names the coordinate.  With
    arrays of coordinates and statistics of one shape the update is
    elementwise, with the bits of the scalar update at each element; the
    scalar update stays scalar code, which is several times faster on one
    coordinate.
    """
    delta = s_j - np.exp(-beta_j) * col_mu_sum
    if not isinstance(delta, np.ndarray):
        if lam > 0.0 and abs(delta) <= lam:
            return 0.0
        num = s_j - lam * np.sign(delta)
        if num <= 0.0 or col_mu_sum <= 0.0:
            return -clamp if num <= 0.0 else clamp
        return float(min(max(beta_j + np.log(num / col_mu_sum), -clamp), clamp))
    num = s_j - lam * np.sign(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_new = np.minimum(np.maximum(beta_j + np.log(num / col_mu_sum), -clamp), clamp)
    b_new = np.where(num <= 0.0, -clamp, np.where(col_mu_sum <= 0.0, clamp, b_new))
    if lam > 0.0:
        b_new = np.where(np.abs(delta) <= lam, 0.0, b_new)
    return b_new


def l1_kkt_residuals(inst: ProblemInstance, beta: np.ndarray, mu: np.ndarray,
                     lam: float) -> np.ndarray:
    """Per-coordinate stationarity residuals of the l1-penalized objective."""
    g = inst.design.rmatvec(mu) - inst.suff_stats
    res = np.abs(g).copy()
    slope = beta[1:]
    act = np.nonzero(slope != 0.0)[0] + 1
    res[act] = np.abs(g[act] + lam * np.sign(beta[act]))
    zer = np.nonzero(slope == 0.0)[0] + 1
    res[zer] = np.maximum(0.0, np.abs(g[zer]) - lam)
    return res


# ---------------------------------------------------------------------------
# Synchronized multiplicative (surrogate-based) family
# ---------------------------------------------------------------------------


def _auto_blocks(total: int, block_sizes, *, what: str) -> list[np.ndarray]:
    """Consecutive index blocks of 0..total-1: the given sizes, or blocks of 200."""
    if block_sizes is None:
        sizes = [min(200, total - off) for off in range(0, total, 200)]
    else:
        sizes = list(block_sizes)
        if sum(sizes) != total or any(g <= 0 for g in sizes):
            raise SolverError(f"block sizes must be positive and sum to {total} for {what}")
    return np.split(np.arange(total), np.cumsum(sizes)[:-1]) if sizes else []


def _surrogate_block_newton(Xk, sk, mu, r):
    """Minimize -sk^T d + sum_i (mu_i / r_i) exp(r_i (Xk d)_i) over the
    block's :class:`~ipscale.design.ColumnBlock` ``Xk``; returns (d, healthy)."""
    g = len(sk)
    base = mu / r
    d = np.zeros(g)
    z = np.zeros(len(mu))
    f = float(base.sum())
    f0 = f
    scale = INNER_TOL * (1.0 + float(np.abs(sk).max(initial=0.0)) + f0)

    def trial(t, direction):
        z_try = z + t * Xk.matvec(direction)
        with np.errstate(over="ignore"):
            return -float(sk @ (d + t * direction)) + float((base * np.exp(r * z_try)).sum()), z_try

    converged = False
    for _ in range(INNER_MAX_ITERS):
        w = mu * np.exp(r * z)
        gk = -sk + Xk.rmatvec(w)
        if float(np.max(np.abs(gk))) <= scale:
            converged = True
            break
        H = Xk.gram(w * r)
        step = _armijo(gk, H, f, trial, 30)
        if step is None:
            break
        t, direction, f, z = step
        d = d + t * direction
    if converged:
        return d, True
    if not d.any():
        # no Newton step was accepted: a failed subproblem, not a zero step
        return d, False
    # fallback mandated for a stalled subproblem: halve, retry once, then flag
    d_half = 0.5 * d
    with np.errstate(over="ignore"):
        f_half = -float(sk @ d_half) + float((base * np.exp(r * Xk.matvec(d_half))).sum())
    if np.isfinite(f_half) and f_half <= f0:
        return d_half, True
    return np.zeros(g), False


class _MMFamily(_RawState):
    """One synchronized surrogate step of all coordinates per iteration.

    Each variant works out a pinned target for every coordinate from the
    current mean, and the mean is then rescaled once for the whole step:

    * mm-binary and gis: the closed form beta + power * log(X^T n / X^T mu),
      with power 1/p on a binary design and 1/R, R = max row sum, on a
      non-negative one (Darroch & Ratcliff 1972);
    * mm-general: per-coordinate exact minimization of the signed-design
      surrogate (Lange, Hunter & Yang 2000), see :meth:`_general_delta`;
    * mm-parallel: every block minimizes its own term of the separable
      non-negative surrogate, from the shared current mean, by damped
      Newton; each failed block solve is counted in
      ``flags["block_step_failures"]``.

    The design kind is checked before any set-up; mm-parallel builds each
    block's :class:`~ipscale.design.ColumnBlock`, mm-general X+ and X-, once per fit.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        X = inst.design
        if variant == "mm-binary" and X.kind != KIND_BINARY:
            raise SolverError("mm-binary requires a binary design")
        if variant in ("gis", "mm-parallel") and X.kind == KIND_GENERAL:
            raise SolverError(f"{variant} requires a non-negative design")
        super().__init__(inst, cfg, variant)
        # of the closed form of mm-binary and gis
        self.power = 1.0 / (X.n_cols if variant == "mm-binary" else X.row_sum_max)
        if variant == "mm-parallel":
            self.blocks = [(cols, X.column_block(cols))
                           for cols in _auto_blocks(X.n_cols, cfg.block_sizes, what="mm-parallel")]
            self.flags["block_step_failures"] = 0
        self.parts = X.pos_neg_parts() if variant == "mm-general" else None
        N, p = X.n_rows, X.n_cols
        self.step_work = 4.0 * X.nnz + 4.0 * N if variant != "mm-general" else 4.0 * N * p + 4.0 * N

    def step(self) -> str:
        X, beta, mu = self.inst.design, self.c.beta, self.c.mu
        failures = 0
        if self.variant == "mm-general":
            target = _clamp(beta + self._general_delta(), self.divergent)
        elif self.variant == "mm-parallel":
            delta, failures = self._parallel_delta()
            self.flags["block_step_failures"] += failures
            target = _clamp(beta + delta, self.divergent)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                target, pinned = _scaling_update(beta, self.inst.suff_stats, X.rmatvec(mu), self.power)
            self.divergent.update(np.flatnonzero(pinned).tolist())
        moved = not np.array_equal(target, beta)
        with np.errstate(over="ignore"):
            mu *= np.exp(X.matvec(target - beta))
        beta[:] = target
        self.work += self.step_work
        return _step_outcome(moved, failures > 0)

    def _general_delta(self) -> np.ndarray:
        """The signed-design step: for each column, with a = <x_j+, mu>,
        b = <x_j, n>, c = <x_j-, mu>, solve a*u^2 - b*u - c = 0 for
        u = exp(R * delta_j) and take the positive root; the boundary cases
        push the coordinate to the clamp."""
        X = self.inst.design
        R = X.row_sum_max
        Xp, Xn = self.parts
        a = Xp.T @ self.c.mu
        b = self.inst.suff_stats
        cc = Xn.T @ self.c.mu
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            root = (b + np.sqrt(b * b + 4.0 * a * cc)) / (2.0 * a)
        delta = np.empty_like(b)
        pos = a > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            delta[pos] = np.log(root[pos]) / R
        zero_a = ~pos
        neg_b = zero_a & (b < 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta[neg_b] = np.log(cc[neg_b] / (-b[neg_b])) / R
        # a = 0 with b > 0, or a = b = 0 with mass on the negative part: the
        # surrogate has no finite stationary point and the coordinate diverges up.
        up = zero_a & ((b > 0.0) | ((b == 0.0) & (cc > 0.0)))
        delta[up] = np.inf
        rest = zero_a & ~neg_b & ~up
        delta[rest] = 0.0
        return delta

    def _parallel_delta(self) -> tuple[np.ndarray, int]:
        """The step of every block, each from the current mean, and the
        number of block solves that failed."""
        X, mu = self.inst.design, self.c.mu
        rowsum = X.abs_row_sums()
        delta = np.zeros(X.n_cols)
        failures = 0
        for cols, Xk in self.blocks:
            rows_k = Xk.matvec(np.ones(len(cols)))
            # a row with no entry in the block never moves, so its weight is immaterial
            r = np.divide(rowsum, rows_k, out=np.ones(X.n_rows), where=rows_k > 0.0)
            d, ok = _surrogate_block_newton(Xk, self.inst.suff_stats[cols], mu, r)
            failures += not ok
            delta[cols] = d
        return delta, failures


def mm_binary_fit(inst, cfg=None):
    return _fit(inst, cfg, "mm-binary")


def gis_fit(inst, cfg=None):
    return _fit(inst, cfg, "gis")


def mm_general_fit(inst, cfg=None):
    return _fit(inst, cfg, "mm-general")


def mm_parallel_fit(inst, cfg=None):
    return _fit(inst, cfg, "mm-parallel")


# ---------------------------------------------------------------------------
# Intercept-profiled scaling (one 1-D solve per coordinate)
# ---------------------------------------------------------------------------


def solve_scaling_equation(coef: np.ndarray, expo: np.ndarray, rhs: float,
                           scale: float, bound: float) -> tuple[float, bool, int]:
    """Root of scale * sum(coef * exp(expo * d)) = rhs over d.

    coef > 0 and expo > 0 make the left side strictly increasing, so the
    root is unique when it exists.  A geometric bracket is grown from
    [-1, 1] until the residual changes sign, then safeguarded Newton with
    bisection fallback runs to |residual| <= SCALING_REL_TOL * rhs.  Returns
    (d, clamped, n_evals); d is pinned to +-bound when the root escapes.
    """
    if rhs <= 0.0:
        return -bound, True, 0
    evals = 0

    def f(d: float) -> float:
        nonlocal evals
        evals += 1
        with np.errstate(over="ignore"):
            return scale * float((coef * np.exp(expo * d)).sum()) - rhs

    lo, hi = -1.0, 1.0
    fhi = f(hi)
    while fhi < 0.0:
        lo = hi
        hi *= 2.0
        if hi >= bound:
            hi = bound
            fhi = f(hi)
            if fhi < 0.0:
                return bound, True, evals
            break
        fhi = f(hi)
    flo = f(lo)
    while flo > 0.0:
        hi = lo
        lo *= 2.0
        if lo <= -bound:
            lo = -bound
            flo = f(lo)
            if flo > 0.0:
                return -bound, True, evals
            break
        flo = f(lo)
    d = 0.5 * (lo + hi)
    tol = SCALING_REL_TOL * rhs
    for _ in range(SCALING_MAX_ITERS):
        with np.errstate(over="ignore"):
            ed = np.exp(expo * d)
            fd = scale * float((coef * ed).sum()) - rhs
            fp = scale * float((coef * expo * ed).sum())
        evals += 1
        if abs(fd) <= tol:
            return d, False, evals
        if fd > 0.0:
            hi = d
        else:
            lo = d
        if fp > 0.0 and np.isfinite(fp):
            d_new = d - fd / fp
        else:
            d_new = 0.5 * (lo + hi)
        if not (lo < d_new < hi):
            d_new = 0.5 * (lo + hi)
        d = d_new
    return d, False, evals


class _IisFamily(_ProfiledState):
    """One monotone 1-D scaling equation per slope coordinate, then one
    rescale of the slope mean for all coordinates at once."""

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        X = inst.design
        if X.kind == KIND_GENERAL:
            raise SolverError("iis requires a non-negative design")
        super().__init__(inst, cfg, variant)
        self.rowsum = X.slope_row_sums()
        self.columns = X.columns()[1:]

    def step(self) -> str:
        mu_ring, slope, rowsum = self.mu_ring, self.slope, self.rowsum
        k = self.total / float(mu_ring.sum())
        delta = np.zeros(len(slope))
        for j, (rows, vals) in enumerate(self.columns):
            d, clamped, evals = solve_scaling_equation(
                vals * mu_ring[rows], rowsum[rows], float(self.s_slope[j]), k, BETA_CLAMP)
            self.work += 2.0 * evals * len(rows)
            if clamped:
                self.divergent.add(j + 1)
            delta[j] = d
        new_slope = _clamp(slope + delta, self.divergent, self.coords)
        moved = not np.array_equal(new_slope, slope)
        with np.errstate(over="ignore"):
            mu_ring *= np.exp(self.inst.design.slope_matvec(new_slope - slope))
        slope[:] = new_slope
        self.work += self.inst.design.nnz
        return _step_outcome(moved)


def iis_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    """Profiled-intercept scaling for non-negative slope designs.

    Each iteration solves, for every slope coordinate, the monotone 1-D
    equation matching the column's scaled statistic, then rescales the
    slope mean for all coordinates at once; the intercept is recovered in
    closed form at the end.
    """
    return _fit(inst, cfg, "iis")


def profiled_scaling_sequence(inst: ProblemInstance, n_iters: int,
                              slope0: np.ndarray | None = None) -> list[np.ndarray]:
    """Slope iterates of the profiled-objective scaling recursion: the start
    and the slopes after each of ``n_iters`` iis steps.

    Keeps the un-normalized slope mean q o exp(Xs slope) and solves
    (total/<1,mu>) * sum_i x_ij mu_i exp(rowsum_i d) = <x_j, n> per
    coordinate.  Used by the equivalence test against the normalized form.
    """
    fam = _IisFamily(inst, SolverConfig(variant="iis", beta_init=slope0), "iis")
    out = [fam.slope.copy()]
    for _ in range(n_iters):
        fam.step()
        out.append(fam.slope.copy())
    return out


def normalized_scaling_sequence(inst: ProblemInstance, n_iters: int,
                                slope0: np.ndarray | None = None) -> list[np.ndarray]:
    """Slope iterates of the normalized-counts scaling recursion.

    Works with count and mean vectors normalized to total mass one and
    renormalizes the mean after every step; the 1-D roots are found with
    scipy's brentq so the route stays independent of the profiled form.
    """
    from scipy.optimize import brentq

    X = inst.design
    slope = np.zeros(X.n_cols - 1) if slope0 is None else np.asarray(slope0, dtype=float).copy()
    total = inst.total_count
    nbar_stats = inst.suff_stats[1:] / total
    mu_ring = inst.offset * np.exp(X.slope_matvec(slope))
    mu_bar = mu_ring / float(mu_ring.sum())
    rowsum = X.slope_row_sums()
    columns = X.columns()[1:]
    out = [slope.copy()]
    for _ in range(n_iters):
        delta = np.zeros(X.n_cols - 1)
        for j, (rows, vals) in enumerate(columns):
            coef = vals * mu_bar[rows]
            expo = rowsum[rows]
            rhs = float(nbar_stats[j])

            def f(d):
                return float((coef * np.exp(expo * d)).sum()) - rhs

            lo, hi = -1.0, 1.0
            while f(hi) < 0:
                lo, hi = hi, hi * 2
            while f(lo) > 0:
                hi, lo = lo, lo * 2
            delta[j] = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        slope = slope + delta
        scaled = mu_bar * np.exp(X.slope_matvec(delta))
        mu_bar = scaled / float(scaled.sum())
        out.append(slope.copy())
    return out


# ---------------------------------------------------------------------------
# The shared Newton step: one Cholesky, one Armijo line search
# ---------------------------------------------------------------------------


def _cholesky(H: np.ndarray):
    """Cholesky factor of a symmetric PSD H, escalating a ridge on failure.

    Tries H as given, then H + r I with r starting at 1e-10 x the mean
    diagonal and growing tenfold per try, 14 tries in all.  A try fails when
    the factorization does, or when a pivot is at the rounding level of the
    largest diagonal entry, L_kk^2 <= 8 p eps max_k H_kk: a matrix that is
    singular in exact arithmetic can factor with a last pivot that rounding
    left positive, a few times p eps H_kk.
    Returns (factor, repaired); the factor is None when every try failed.
    """
    import scipy.linalg  # imported here: commands that never factor skip its import

    p = H.shape[0]
    base = float(np.trace(H)) / p if p else 1.0
    if not np.isfinite(base) or base <= 0.0:
        base = 1.0
    damp = 0.0
    for _ in range(14):
        Hd = H + damp * np.eye(p) if damp else H
        try:
            cf = scipy.linalg.cho_factor(Hd, lower=True, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            pass
        else:
            floor = 8 * p * np.finfo(float).eps * np.max(np.diag(Hd), initial=0.0)
            if not np.any(np.diag(cf[0]) ** 2 <= floor):
                return cf, damp > 0.0
        damp = base * 1e-10 if damp == 0.0 else damp * 10.0
    return None, True


def _armijo(g: np.ndarray, H: np.ndarray, f: float, trial, halvings: int):
    """One Newton step with Armijo backtracking on a local model.

    The direction solves H d = -g (by least squares when H cannot be
    factored even with a ridge), or is -g when that is not a descent
    direction.  t halves from 1 until ``trial(t, d) -> (objective, state)``
    gives a finite objective at most f + 1e-4 t g^T d.  Returns
    (t, d, objective, state), or None when none of ``halvings`` tries passes.
    """
    import scipy.linalg

    cf, _ = _cholesky(H)
    if cf is None:
        step = np.linalg.lstsq(H, g, rcond=None)[0]
    else:
        step = scipy.linalg.cho_solve(cf, g, check_finite=False)
    direction = -step
    gd = float(g @ direction)
    if gd > 0.0:
        direction = -g
        gd = float(g @ direction)
    t = 1.0
    for _ in range(halvings):
        f_try, state = trial(t, direction)
        if np.isfinite(f_try) and f_try <= f + 1e-4 * t * gd:
            return t, direction, f_try, state
        t *= 0.5
    return None


# ---------------------------------------------------------------------------
# Quadratic-bound solver with momentum (plain and ridge)
# ---------------------------------------------------------------------------


class _QipsFamily(_ProfiledState):
    """Accelerated steps under the fixed curvature bound W, with the
    gradient restart of O'Donoghue and Candes (2015).

    The family carries the linear predictors z_slope = Xs slope and
    z_eta = Xs eta_aux, so a step makes one product each way: Xs^T w for
    the gradient at alpha = (1 - theta) slope + theta eta_aux, whose
    predictor is the same combination of the two, and Xs (eta_new - eta_aux)
    for z_eta.  z_slope takes a product of its own only when the slope clip
    binds.  The momentum restarts (theta = 1, eta_aux = slope) whenever the
    step's gradient makes an acute angle with the step it led to,
    g(alpha)^T (slope_new - slope) > 0.

    W is either bound that dominates the profiled curvature for every total
    count: Bohning's matrix bound (``model.bohning_bound``, factored once, a
    ridge added where it is singular) or the scalar spectral bound.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        self.theta = 1.0  # read by the resync that the profiled state runs at its start
        super().__init__(inst, cfg, variant)
        X = inst.design
        N, p = X.n_rows, X.n_cols
        self.lam = lam = cfg.lam if variant == "ridge-q-ips" else 0.0
        self.eta_aux = self.slope
        repaired = False
        if cfg.w_choice == "spectral":
            w = mdl.spectral_bound(inst) + lam
            if w <= 0.0:
                raise SolverError("spectral curvature bound is not positive")
            self.solve_w = lambda g: g / w
            self.work += float(N) * (p - 1)
            self.step_work = 2.0 * X.nnz + 6.0 * N + float(p)
        else:
            import scipy.linalg  # imported here: commands that never factor skip its import

            W = mdl.bohning_bound(inst)
            if lam > 0.0:
                W = W + lam * np.eye(p - 1)
            cf, repaired = _cholesky(W)
            if cf is None:
                raise SolverError("curvature bound matrix could not be factorized")
            self.solve_w = lambda g: scipy.linalg.cho_solve(cf, g, check_finite=False)
            self.work += float(N) * (p - 1) ** 2
            self.step_work = 2.0 * X.nnz + 6.0 * N + float((p - 1) ** 2)
        self.flags.update(momentum_restarts=0, w_ridge_repaired=repaired)

    def objective(self) -> float:
        val = super().objective()
        if self.lam > 0.0:
            val += 0.5 * self.lam * float(self.slope @ self.slope)
        return val

    def grad(self) -> np.ndarray:
        g = super().grad()
        if self.lam > 0.0:
            g = g + self.lam * self.slope
        return g

    def resync(self) -> None:
        X = self.inst.design
        self.z_slope = X.slope_matvec(self.slope)
        # theta is 1 only at the start and after a restart, where eta_aux is the slope
        self.z_eta = self.z_slope if self.theta == 1.0 else X.slope_matvec(self.eta_aux)
        self._set_mean()

    def _set_mean(self) -> None:
        with np.errstate(over="ignore"):
            self.mu_ring = self.inst.offset * np.exp(self.z_slope)

    def step(self) -> str:
        X, B, lam, theta, slope = self.inst.design, BETA_CLAMP, self.lam, self.theta, self.slope
        alpha = (1.0 - theta) * slope + theta * self.eta_aux
        w, _ = mdl._offset_softmax(self.inst, (1.0 - theta) * self.z_slope + theta * self.z_eta)
        g_alpha = -self.s_slope + self.total * X.slope_rmatvec(w)
        if lam > 0.0:
            g_alpha = g_alpha + lam * alpha
        eta_new = self.eta_aux - self.solve_w(g_alpha) / theta
        # the auxiliary sequence is kept in the box, so the slope leaves it by rounding only
        np.clip(eta_new, -B, B, out=eta_new)
        z_eta = self.z_eta + X.slope_matvec(eta_new - self.eta_aux)
        slope_new = (1.0 - theta) * slope + theta * eta_new
        pinned = _clamp(slope_new, self.divergent, self.coords)
        self.work += self.step_work
        if np.array_equal(pinned, slope_new):
            self.z_slope = (1.0 - theta) * self.z_slope + theta * z_eta
        else:
            slope_new = pinned
            self.z_slope = X.slope_matvec(slope_new)
            self.work += X.nnz
        self._set_mean()
        theta_new = _next_theta(theta)
        # the momentum state (eta_aux, theta) is part of the iterate
        moved = theta_new != theta or not (
            np.array_equal(slope_new, slope) and np.array_equal(eta_new, self.eta_aux))
        if float(g_alpha @ (slope_new - slope)) > 0.0:
            theta_new, eta_new, z_eta = 1.0, slope_new, self.z_slope
            self.flags["momentum_restarts"] += 1
        self.slope, self.eta_aux, self.z_eta, self.theta = slope_new, eta_new, z_eta, theta_new
        return _step_outcome(moved)


def qips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    """Momentum-accelerated fixed-quadratic-bound solver on the profiled
    objective; the ridge-q-ips variant penalizes the slopes with lam/2 ||.||^2.
    """
    ridge = cfg is not None and cfg.variant == "ridge-q-ips"
    return _fit(inst, cfg, "ridge-q-ips" if ridge else "q-ips")


def _next_theta(theta):
    """One step of the momentum recursion theta^2_{t+1} = (1 - theta_{t+1}) theta^2_t."""
    return 0.5 * (np.sqrt(theta**4 + 4.0 * theta**2) - theta**2)


def momentum_sequence(n: int) -> np.ndarray:
    """First n+1 momentum factors theta_t of the acceleration recursion, from theta_0 = 1."""
    out = [1.0]
    for _ in range(n):
        out.append(_next_theta(out[-1]))
    return np.array(out)


# ---------------------------------------------------------------------------
# Randomized block coordinate descent on the profiled objective
# ---------------------------------------------------------------------------


def _block_newton_profiled(Xk, sk, mu_ring, total, tol, flags):
    """Newton minimization of the profiled objective in one slope block.

    Objective in the block step d:  -sk^T d + total * log <1, mu o exp(Xk d)>.
    ``Xk`` is the block's :class:`~ipscale.design.ColumnBlock`, built once
    per visit and used for every Newton step, each of which takes one Gram
    of it (one sparse product on a binary design).  The solve stops once the
    block gradient is at most ``tol`` in max norm, so a block that already
    meets it takes no step and no Gram.  Counts each Newton step in
    ``flags["newton_steps"]``; returns
    (d, mu_new, work, line_search_failed).
    """
    g = len(sk)
    N = Xk.shape[0]
    block_nnz = Xk.nnz
    d = np.zeros(g)
    mu_loc = mu_ring  # never written in place: each accepted step replaces it
    S = float(mu_loc.sum())
    f = total * np.log(S)
    work = 0.0
    failed = False

    def trial(t, direction):
        nonlocal work
        z = Xk.matvec(t * direction)
        with np.errstate(over="ignore"):
            mu_try = mu_loc * np.exp(z)
        S_try = float(mu_try.sum())
        work += 2.0 * block_nnz + N
        if not (np.isfinite(S_try) and S_try > 0.0):
            return math.inf, None
        return -float(sk @ (d + t * direction)) + total * np.log(S_try), (mu_try, S_try)

    for _ in range(INNER_MAX_ITERS):
        uS = Xk.rmatvec(mu_loc) / S
        gk = -sk + total * uS
        work += 2.0 * block_nnz
        if float(np.max(np.abs(gk))) <= tol:
            break
        flags["newton_steps"] += 1
        A = Xk.gram(mu_loc / S)
        H = total * (A - np.outer(uS, uS))
        work += block_nnz * g + g**3 / 3.0
        step = _armijo(gk, H, f, trial, 30)
        if step is None:
            failed = True
            break
        t, direction, f, (mu_loc, S) = step
        d = d + t * direction
    return d, mu_loc, work, failed


class _BipsFamily(_ProfiledState):
    """A fresh random blocking of the slopes per sweep, then one
    block-Newton update per block in turn.

    Each block is solved only to tol = max(BIPS_FORCING * G, floor), G the
    gradient at the sweep's start: the one the record just before the sweep
    computed, or a fresh one when no record came first.  A sweep that moves
    no block leaves a state whose gradient is at most BIPS_FORCING times
    itself, so the fixed-point exit fires only at stationarity or at the
    rounding floor.
    """

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        super().__init__(inst, cfg, variant)
        self.sizes = [len(b) for b in _auto_blocks(inst.n_cols - 1, cfg.block_sizes, what="b-ips")]
        self.rng = philox_rng(cfg.seed)
        self.flags.update(line_search_failures=0, newton_steps=0)
        self.floor = BIPS_FLOOR_ULPS * np.finfo(float).eps * (1.0 + self.total)

    def step(self) -> str:
        X, slope = self.inst.design, self.slope
        before = slope.copy()
        failures = self.flags["line_search_failures"]
        g = self.record_grad
        if g is None:
            g = self.grad()
            self.work += 2.0 * X.nnz
        tol = max(BIPS_FORCING * float(np.max(np.abs(g))), self.floor)
        perm = self.rng.permutation(len(slope))
        off = 0
        for gsize in self.sizes:
            cols = perm[off:off + gsize]
            off += gsize
            Xk = X.column_block(cols + 1)
            d, mu_new, work, failed = _block_newton_profiled(
                Xk, self.s_slope[cols], self.mu_ring, self.total, tol, self.flags)
            self.work += work
            if failed:
                self.flags["line_search_failures"] += 1
            target = slope[cols] + d
            new_vals = _clamp(target, self.divergent, self.coords[cols])
            if not np.array_equal(new_vals, target):
                extra = new_vals - slope[cols] - d
                with np.errstate(over="ignore"):
                    mu_new = mu_new * np.exp(Xk.matvec(extra))
            slope[cols] = new_vals
            self.mu_ring = mu_new
        return _step_outcome(not np.array_equal(slope, before),
                             self.flags["line_search_failures"] != failures)


def bips_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    """Random blocking followed by cyclic block-Newton updates of the
    profiled objective; the intercept is recovered in closed form at the end.
    """
    return _fit(inst, cfg, "b-ips")

# ---------------------------------------------------------------------------
# Dense Newton baseline
# ---------------------------------------------------------------------------

NEWTON_MAX_P = 5000


class _NewtonFamily(_RawState):
    """One full-Hessian Newton step with Armijo backtracking per iteration."""

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, variant: str):
        p = inst.n_cols
        if p > NEWTON_MAX_P:
            raise SolverError(f"newton baseline is limited to p <= {NEWTON_MAX_P}")
        super().__init__(inst, cfg, variant)
        self.step_work = float(inst.n_rows) * p * p + p**3 / 3.0

    def step(self) -> str:
        inst = self.inst
        g = self.record_grad
        if g is None:
            g = mdl.gradient(inst, self.c)
            self.work += inst.design.nnz + inst.n_cols

        def trial(t, direction):
            beta = np.clip(self.c.beta + t * direction, -BETA_CLAMP, BETA_CLAMP)
            c = Coefficients.from_beta(inst, beta)
            return mdl.neg_log_likelihood(inst, c), c

        step = _armijo(g, inst.design.weighted_gram(self.c.mu), self.objective(), trial, 50)
        self.work += self.step_work
        if step is None:
            # a rejected step leaves the iterate unchanged and ends the run as diverged
            return _step_outcome(False, failed=True)
        self.c = step[3]
        self.divergent.update(int(j) for j in np.nonzero(np.abs(self.c.beta) >= BETA_CLAMP)[0])
        return _step_outcome(True)


def newton_fit(inst: ProblemInstance, cfg: SolverConfig | None = None) -> FitResult:
    """Full-Hessian Newton with Armijo backtracking on the raw objective.

    Serves as the accuracy oracle for the scaling variants; guarded to
    p <= 5000 where a dense factorization is reasonable.
    """
    return _fit(inst, cfg, "newton")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_FAMILIES = {
    "ips": _CDFamily, "a-ips": _CDFamily, "x2-ips": _CDFamily,
    "mm-binary": _MMFamily, "gis": _MMFamily, "mm-general": _MMFamily, "mm-parallel": _MMFamily,
    "iis": _IisFamily, "q-ips": _QipsFamily, "ridge-q-ips": _QipsFamily,
    "b-ips": _BipsFamily, "newton": _NewtonFamily, "l1-ips": _CDFamily,
}
_VARIANTS = tuple(_FAMILIES)


def solve(inst: ProblemInstance, cfg: SolverConfig, **hooks) -> FitResult:
    """Run the variant selected by the config.

    This is the only place where a variant name selects a solver family.
    ``hooks`` go to the family's constructor (a-ips takes ``perm_fn``, a
    test hook that replaces its per-sweep permutation).
    """
    t0 = time.perf_counter()
    return _drive(_FAMILIES[cfg.variant](inst, cfg, cfg.variant, **hooks), t0)


def _fit(inst: ProblemInstance, cfg: SolverConfig | None, variant: str, **hooks) -> FitResult:
    """Fit ``variant`` under cfg (default: the default config) with its variant replaced."""
    cfg = SolverConfig(variant=variant) if cfg is None else replace(cfg, variant=variant)
    return solve(inst, cfg, **hooks)
