"""Poisson log-affine model: objectives, gradients, bounds, fit statistics.

The model is mu = q o exp(X beta) with observed counts n and positive
offset q.  The negative log-likelihood (up to a data-only constant) is

    l(beta) = -<n, X beta> + <q, exp(X beta)>.

Fixing an intercept column X = [1 Xs] and profiling out the intercept
leaves the slope objective

    L(bs) = -<n, Xs bs> + <1, n> log <q, exp(Xs bs)>,

whose curvature is uniformly bounded; the optimal intercept is
b0 = log<1,n> - log<q, exp(Xs bs)> and l([b0, bs]) = L(bs) + <1,n>(1 - log<1,n>).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix

# Coordinate clamp: values beyond this are treated as diverging toward +-inf
# (sampling zeros push MLE coordinates off to infinity).
BETA_CLAMP = 250.0


class ModelError(ValueError):
    """Contract violation in model construction or evaluation."""


def philox_rng(seed: int) -> np.random.Generator:
    """The package's random generator for a seed.

    Philox is counter-based with a fixed published algorithm, so its
    streams reproduce across platforms; permutations are Fisher-Yates.
    """
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class ProblemInstance:
    """Counts, offset, and design, with the sufficient statistics cached.

    Rows with a zero offset carry no information (finite likelihood forces
    mu_i = 0 = n_i there) and are dropped at construction; ``kept_rows``
    records the surviving original indices so fitted means can be
    re-expanded.  ``counts`` may be None when only sufficient statistics
    are available (raking): diagnostics needing the full count vector are
    then skipped.
    """

    design: DesignMatrix
    counts: np.ndarray | None
    offset: np.ndarray
    suff_stats: np.ndarray
    beta_true: np.ndarray | None = None
    kept_rows: np.ndarray | None = None
    n_rows_original: int = 0

    @classmethod
    def from_counts(cls, design: DesignMatrix, counts, offset=None, beta_true=None) -> "ProblemInstance":
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (design.n_rows,):
            raise ModelError("counts length does not match design rows")
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise ModelError("counts must be finite and non-negative")
        if not np.any(counts > 0):
            raise ModelError("counts are identically zero")
        n_orig = design.n_rows
        design, offset, counts, kept = cls._drop_zero_offset_rows(design, offset, counts)
        s = design.rmatvec(counts)
        if beta_true is not None:
            beta_true = np.asarray(beta_true, dtype=np.float64)
            if beta_true.shape != (design.n_cols,):
                raise ModelError("beta_true length does not match design columns")
        return cls(design=design, counts=counts, offset=offset, suff_stats=s,
                   beta_true=beta_true, kept_rows=kept, n_rows_original=n_orig)

    @classmethod
    def from_suff_stats(cls, design: DesignMatrix, suff_stats, offset=None) -> "ProblemInstance":
        """Instance specified by target statistics s = X^T n only (raking)."""
        s = np.asarray(suff_stats, dtype=np.float64)
        if s.shape != (design.n_cols,):
            raise ModelError("suff_stats length does not match design columns")
        n_orig = design.n_rows
        design, offset, _, kept = cls._drop_zero_offset_rows(design, offset)
        return cls(design=design, counts=None, offset=offset, suff_stats=s,
                   kept_rows=kept, n_rows_original=n_orig)

    @staticmethod
    def _drop_zero_offset_rows(design: DesignMatrix, offset, counts=None):
        """Check the offset (ones when None) and drop its zero rows.

        Returns (design, offset, counts, kept) restricted to the rows with a
        positive offset, ``kept`` holding their original indices.  A positive
        count at a dropped row is an error.
        """
        n_orig = design.n_rows
        if offset is None:
            offset = np.ones(n_orig)
        else:
            offset = np.asarray(offset, dtype=np.float64)
            if offset.shape != (n_orig,):
                raise ModelError("offset length does not match design rows")
            if np.any(offset < 0) or not np.all(np.isfinite(offset)):
                raise ModelError("offset must be finite and non-negative")
        keep = offset > 0
        kept = np.nonzero(keep)[0]
        if len(kept) < n_orig:
            if counts is not None and np.any(counts[~keep] > 0):
                raise ModelError("positive count at a zero-offset row has no finite-likelihood fit")
            design = design.drop_rows(kept)
            offset = offset[keep]
            counts = None if counts is None else counts[keep]
        return design, offset, counts, kept

    @property
    def n_rows(self) -> int:
        return self.design.n_rows

    @property
    def n_cols(self) -> int:
        return self.design.n_cols

    @property
    def total_count(self) -> float:
        """<1, n>; read off the intercept statistic when counts are absent."""
        if self.counts is not None:
            return float(self.counts.sum())
        if not self.design.has_intercept:
            raise ModelError("total count unavailable: no counts and no intercept column")
        return float(self.suff_stats[0])

    def expand_mu(self, mu: np.ndarray) -> np.ndarray:
        """Re-insert zeros for rows dropped because of a zero offset."""
        if self.kept_rows is None or len(self.kept_rows) == self.n_rows_original:
            return mu
        out = np.zeros(self.n_rows_original)
        out[self.kept_rows] = mu
        return out


@dataclass
class Coefficients:
    """A coefficient vector paired with its fitted mean mu = q o exp(X beta)."""

    beta: np.ndarray
    mu: np.ndarray

    @classmethod
    def from_beta(cls, inst: ProblemInstance, beta) -> "Coefficients":
        beta = np.asarray(beta, dtype=np.float64).copy()
        eta = inst.design.matvec(beta)
        with np.errstate(over="ignore"):
            mu = inst.offset * np.exp(eta)
        return cls(beta=beta, mu=mu)

    def drift(self, inst: ProblemInstance) -> float:
        """max_i |log(mu_i / q_i) - (X beta)_i| over rows with finite mu."""
        eta = inst.design.matvec(self.beta)
        with np.errstate(divide="ignore"):
            logs = np.log(self.mu / inst.offset)
        ok = np.isfinite(logs) & np.isfinite(eta)
        if not np.any(ok):
            return np.inf
        return float(np.max(np.abs(logs[ok] - eta[ok])))

    def resync(self, inst: ProblemInstance) -> None:
        eta = inst.design.matvec(self.beta)
        with np.errstate(over="ignore"):
            self.mu = inst.offset * np.exp(eta)


# -- objective and gradient (original parametrization) ----------------------


def neg_log_likelihood(inst: ProblemInstance, c: Coefficients) -> float:
    """-<s, beta> + sum(mu); +inf sentinel on exp overflow."""
    with np.errstate(over="ignore"):
        total_mu = float(c.mu.sum())
    if not np.isfinite(total_mu):
        return np.inf
    return float(-inst.suff_stats @ c.beta + total_mu)


def gradient(inst: ProblemInstance, c: Coefficients) -> np.ndarray:
    """X^T mu - X^T n."""
    return inst.design.rmatvec(c.mu) - inst.suff_stats


# -- intercept-profiled (reparametrized) objective ---------------------------


def _require_intercept(inst: ProblemInstance) -> None:
    if not inst.design.has_intercept:
        raise ModelError("operation requires an intercept as design column 0")


def _offset_softmax(inst: ProblemInstance, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Stable softmax pieces of t = z + log q, for a linear predictor z = Xs slope.

    Returns (w, logZ) with w = exp(t - max t)/sum(...) summing to one and
    logZ = log <q, exp(z)>.
    """
    t = z + np.log(inst.offset)
    m = float(t.max())
    e = np.exp(t - m)
    z = float(e.sum())
    return e / z, m + np.log(z)


def reparam_objective(inst: ProblemInstance, slope: np.ndarray) -> float:
    """L(slope) = -<n, Xs slope> + <1,n> log<q, exp(Xs slope)>, overflow-safe."""
    _require_intercept(inst)
    slope = np.asarray(slope, dtype=np.float64)
    _, logz = _offset_softmax(inst, inst.design.slope_matvec(slope))
    return float(-inst.suff_stats[1:] @ slope + inst.total_count * logz)


def reparam_gradient(inst: ProblemInstance, slope: np.ndarray) -> np.ndarray:
    """-Xs^T n + <1,n> Xs^T softmax(Xs slope + log q)."""
    _require_intercept(inst)
    slope = np.asarray(slope, dtype=np.float64)
    w, _ = _offset_softmax(inst, inst.design.slope_matvec(slope))
    return -inst.suff_stats[1:] + inst.total_count * inst.design.slope_rmatvec(w)


def optimal_intercept(inst: ProblemInstance, slope: np.ndarray) -> float:
    """b0 = log<1,n> - log<q, exp(Xs slope)>; makes <1,mu> = <1,n> exactly."""
    _require_intercept(inst)
    slope = np.asarray(slope, dtype=np.float64)
    _, logz = _offset_softmax(inst, inst.design.slope_matvec(slope))
    return float(np.log(inst.total_count) - logz)


def reparam_hessian(inst: ProblemInstance, slope: np.ndarray, cols=None) -> np.ndarray:
    """<1,n> Xs^T [diag(w) - w w^T] Xs with w the softmax weights.

    ``cols`` restricts to a subset of slope columns (0-based within the
    slope block), giving the curvature of a coordinate block.
    """
    _require_intercept(inst)
    slope = np.asarray(slope, dtype=np.float64)
    w, _ = _offset_softmax(inst, inst.design.slope_matvec(slope))
    if cols is None:
        cols = np.arange(inst.n_cols - 1)
    Xk = inst.design.column_block(np.asarray(cols) + 1)
    u = Xk.rmatvec(w)
    return inst.total_count * (Xk.gram(w) - np.outer(u, u))


# -- goodness of fit ----------------------------------------------------------


def g_squared(counts: np.ndarray, mu: np.ndarray) -> float:
    """G^2 = 2 sum n_i log(n_i/mu_i), zero-count terms contribute 0.

    Evaluated as n (log n - log mu): the ratio form underflows for tiny
    positive counts.
    """
    pos = counts > 0
    if np.any(mu[pos] <= 0):
        return np.inf
    return float(2.0 * np.sum(counts[pos] * (np.log(counts[pos]) - np.log(mu[pos]))))


def pearson_x2(counts: np.ndarray, mu: np.ndarray) -> float:
    """X^2 = sum (n_i - mu_i)^2 / mu_i (a zero count contributes mu_i)."""
    if np.any((mu <= 0) & (counts > 0)):
        return np.inf
    ok = mu > 0
    return float(np.sum((counts[ok] - mu[ok]) ** 2 / mu[ok]))


# -- fixed curvature bounds on the profiled objective ------------------------


def bohning_bound(inst: ProblemInstance) -> np.ndarray:
    """W = <1,n> Xs^T (I - 1 1^T / N) Xs / 2, a fixed curvature dominator.

    Bohning's lemma (1992), diag(w) - w w^T <= (I - 1 1^T / N) / 2 for every
    probability vector w over the N rows, makes W dominate the profiled
    curvature for every total count.  W is singular when the slope columns
    span the constant vector, as in raking designs.
    """
    _require_intercept(inst)
    gram = inst.design.gram_slope()
    u = inst.design.col_sums()[1:]
    return 0.5 * inst.total_count * (gram - np.outer(u, u) / inst.n_rows)


def spectral_bound(inst: ProblemInstance) -> float:
    """Scalar w with W = w I, w = <1,n> ||Xs||_2^2 / 2."""
    _require_intercept(inst)
    p1 = inst.n_cols - 1
    gram = inst.design.gram_slope()
    if inst.n_rows * p1 <= 4_000_000:
        lam = float(np.linalg.eigvalsh(gram)[-1])
    else:
        # power iteration on Xs^T Xs; deterministic start, small safety margin
        v = np.ones(p1) / np.sqrt(p1)
        lam = 0.0
        for _ in range(500):
            w = gram @ v
            lam_new = float(np.linalg.norm(w))
            if lam_new == 0.0:
                break
            v = w / lam_new
            if abs(lam_new - lam) <= 1e-12 * lam_new:
                lam = lam_new
                break
            lam = lam_new
        lam *= (1.0 + 1e-9) ** 2
    return 0.5 * inst.total_count * lam


def validate_curvature_bound(inst: ProblemInstance, W, n_weights: int = 200,
                             n_vectors: int = 20, seed: int = 0) -> float:
    """Worst sampled value of v^T (W - H(mu)) v / ||v||^2 over random mu >= 0.

    Negative values beyond round-off mean W fails to dominate the profiled
    curvature.  H(mu) = <1,n> Xs^T [diag(w) - w w^T] Xs with w = mu/sum(mu).
    """
    _require_intercept(inst)
    rng = philox_rng(seed)
    p1 = inst.n_cols - 1
    total = inst.total_count
    W = np.asarray(W, dtype=np.float64) if np.ndim(W) == 2 else float(W) * np.eye(p1)
    worst = np.inf
    for _ in range(n_weights):
        mu = rng.exponential(1.0, size=inst.n_rows)
        w = mu / mu.sum()
        for _ in range(n_vectors):
            v = rng.standard_normal(p1)
            z = inst.design.slope_matvec(v)
            hq = total * (float(w @ z**2) - float(w @ z) ** 2)
            wq = float(v @ (W @ v))
            worst = min(worst, (wq - hq) / float(v @ v))
    return worst
