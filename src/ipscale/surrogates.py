"""Closed-form evaluation of the upper-bounding surrogates.

Each function returns the surrogate value at ``beta`` anchored at
``beta_ref``; a valid surrogate dominates the raw objective everywhere and
touches it at the anchor.  These are used by the majorization test suites
and give an independent route to the solver update formulas.
"""

from __future__ import annotations

import numpy as np

from . import model as mdl
from .design import KIND_GENERAL
from .model import Coefficients, ProblemInstance


def _mu_ref(inst: ProblemInstance, beta_ref: np.ndarray) -> np.ndarray:
    return Coefficients.from_beta(inst, beta_ref).mu


def surrogate_uniform(inst: ProblemInstance, beta, beta_ref) -> float:
    """Jensen bound with uniform weights 1/p (binary designs; step 1/p)."""
    beta = np.asarray(beta, dtype=float)
    beta_ref = np.asarray(beta_ref, dtype=float)
    mu = _mu_ref(inst, beta_ref)
    p = inst.n_cols
    delta = beta - beta_ref
    col_mu = inst.design.rmatvec(mu)
    val = float(col_mu @ np.expm1(p * delta)) / p + float(mu.sum())
    return -float(inst.suff_stats @ beta) + val


def surrogate_rowsum(inst: ProblemInstance, beta, beta_ref) -> float:
    """Jensen bound with row-sum weights sharpened to step 1/R (non-negative)."""
    if inst.design.kind == KIND_GENERAL:
        raise ValueError("row-sum surrogate needs a non-negative design")
    beta = np.asarray(beta, dtype=float)
    beta_ref = np.asarray(beta_ref, dtype=float)
    mu = _mu_ref(inst, beta_ref)
    R = inst.design.row_sum_max
    delta = beta - beta_ref
    col_mu = inst.design.rmatvec(mu)
    val = float(col_mu @ np.expm1(R * delta)) / R + float(mu.sum())
    return -float(inst.suff_stats @ beta) + val


def surrogate_signed(inst: ProblemInstance, beta, beta_ref) -> float:
    """Positive/negative-part bound with step 1/R for arbitrary designs."""
    beta = np.asarray(beta, dtype=float)
    beta_ref = np.asarray(beta_ref, dtype=float)
    mu = _mu_ref(inst, beta_ref)
    R = inst.design.row_sum_max
    Xp, Xn = inst.design.pos_neg_parts()
    a = Xp.T @ mu
    c = Xn.T @ mu
    delta = beta - beta_ref
    val = float(a @ np.expm1(R * delta) + c @ np.expm1(-R * delta)) / R + float(mu.sum())
    return -float(inst.suff_stats @ beta) + val


def surrogate_block(inst: ProblemInstance, beta, beta_ref, blocks) -> float:
    """Block-separable bound for simultaneous block updates (non-negative)."""
    if inst.design.kind == KIND_GENERAL:
        raise ValueError("block surrogate needs a non-negative design")
    beta = np.asarray(beta, dtype=float)
    beta_ref = np.asarray(beta_ref, dtype=float)
    mu = _mu_ref(inst, beta_ref)
    X = inst.design
    rowsum = X.abs_row_sums()
    total = 0.0
    for cols in blocks:
        cols = np.asarray(cols)
        Xk = X.submatrix(cols)
        rows_k = Xk.sum(axis=1)
        active = rows_k > 0.0
        z = Xk @ (beta[cols] - beta_ref[cols])
        ratio = rowsum[active] / rows_k[active]
        total += float(((rows_k[active] / rowsum[active]) * mu[active]
                        * np.exp(ratio * z[active])).sum())
    return -float(inst.suff_stats @ beta) + total


def surrogate_quadratic(inst: ProblemInstance, slope, slope_ref, W) -> float:
    """Fixed-curvature quadratic bound on the intercept-profiled objective."""
    slope = np.asarray(slope, dtype=float)
    slope_ref = np.asarray(slope_ref, dtype=float)
    d = slope - slope_ref
    g = mdl.reparam_gradient(inst, slope_ref)
    if np.ndim(W) == 2:
        quad = 0.5 * float(d @ (np.asarray(W) @ d))
    else:
        quad = 0.5 * float(W) * float(d @ d)
    return mdl.reparam_objective(inst, slope_ref) + float(g @ d) + quad
