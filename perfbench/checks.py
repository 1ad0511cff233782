"""Independent output checks for the benchmark (numpy and scipy only).

Nothing here calls ipscale: the reference optimum comes from a Newton
iteration written here, table designs are rebuilt from the column labels
the program writes, and the rake reference is a plain numpy IPF.  Every
check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# Variants that profile out the intercept and measure their relative
# gradient on the slopes only, against the profiled gradient at zero slopes.
PROFILED = ("b-ips", "q-ips")

# Room for the difference between the solver's multiplicatively updated mean
# and the mean recomputed here from the 17-digit coefficients; several orders
# below any tolerance a fit runs to.
FP_SLACK = 1e-9


# -- small readers -------------------------------------------------------------


def read_beta_csv(path) -> tuple[list[str], np.ndarray]:
    labels, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            labels.append(rec[0])
            values.append(float(rec[1]))
    return labels, np.array(values)


# -- table designs rebuilt from labels -------------------------------------------


def table_cells(levels: tuple[int, ...]) -> np.ndarray:
    """(n_cells, r) 1-based levels in row-major order, last factor fastest."""
    grids = np.indices(levels).reshape(len(levels), -1).T
    return grids + 1


def table_labels(names: list[str], levels: tuple[int, ...], order: int) -> list[str]:
    """All model column labels of a table model up to two-way terms."""
    out = ["(intercept)"]
    for k, m in enumerate(levels):
        out += [f"{names[k]}={lev}" for lev in range(2, m + 1)]
    if order >= 2:
        for j, k in itertools.combinations(range(len(levels)), 2):
            for lj in range(2, levels[j] + 1):
                out += [f"{names[j]}={lj}*{names[k]}={lk}" for lk in range(2, levels[k] + 1)]
    return out


def design_from_labels(labels: list[str], names: list[str], cells: np.ndarray) -> sp.csc_array:
    """Binary design whose column j indicates the cells matching label j."""
    col_of = {n: k for k, n in enumerate(names)}
    rows, cols = [], []
    for j, lab in enumerate(labels):
        mask = np.ones(len(cells), dtype=bool)
        if lab != "(intercept)":
            for term in lab.split("*"):
                name, lev = term.split("=")
                mask &= cells[:, col_of[name]] == int(lev)
        idx = np.nonzero(mask)[0]
        rows.append(idx)
        cols.append(np.full(len(idx), j))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sp.csc_array((np.ones(len(rows)), (rows, cols)), shape=(len(cells), len(labels)))


# -- Poisson objective pieces -----------------------------------------------------


def _mean(X, beta):
    with np.errstate(over="ignore"):
        return np.exp(X @ beta)


def objective(X, counts, beta) -> float:
    """l(beta) = -<n, X beta> + <1, exp(X beta)> (unit offset)."""
    return float(-(counts @ (X @ beta)) + _mean(X, beta).sum())


def gradient(X, counts, beta) -> np.ndarray:
    return X.T @ (_mean(X, beta) - counts)


def _weighted_gram(X, w) -> np.ndarray:
    if sp.issparse(X):
        return (X.T @ sp.csc_array(X.multiply(w[:, None]))).toarray()
    return X.T @ (w[:, None] * X)


def newton_reference(X, counts, rel_tol=1e-10, max_iter=200) -> np.ndarray:
    """Damped Newton on l(beta) to a relative gradient of ``rel_tol``.

    Starts from the intercept-only fit (column 0 is the intercept) and
    measures the gradient against the one at beta = 0.
    """
    p = X.shape[1]
    g0 = float(np.max(np.abs(gradient(X, counts, np.zeros(p)))))
    beta = np.zeros(p)
    beta[0] = np.log(counts.sum() / X.shape[0])
    f = objective(X, counts, beta)
    for _ in range(max_iter):
        g = gradient(X, counts, beta)
        if float(np.max(np.abs(g))) <= rel_tol * g0:
            return beta
        H = _weighted_gram(X, _mean(X, beta))
        H[np.diag_indices(p)] += 1e-12 * np.trace(H) / p
        step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), g)
        t = 1.0
        while t > 1e-12:
            trial = beta - t * step
            f_try = objective(X, counts, trial)
            if np.isfinite(f_try) and f_try <= f - 1e-4 * t * float(g @ step):
                break
            t *= 0.5
        else:
            break
        beta, f = trial, f_try
    raise RuntimeError("reference Newton iteration did not reach its tolerance")


def relative_gradient(X, counts, beta, variant: str) -> tuple[float, float]:
    """The variant's own stopping statistic recomputed from beta, and its ||g0||_inf."""
    if variant in PROFILED:
        Xs = X[:, 1:]
        total = float(counts.sum())
        s_slope = Xs.T @ counts
        t = Xs @ beta[1:]
        w = np.exp(t - t.max())
        w /= w.sum()
        g = total * (Xs.T @ w) - s_slope
        g0 = total * (Xs.T @ np.full(X.shape[0], 1.0 / X.shape[0])) - s_slope
    else:
        g = gradient(X, counts, beta)
        g0 = gradient(X, counts, np.zeros(X.shape[1]))
    g0_norm = float(np.max(np.abs(g0)))
    return float(np.max(np.abs(g))) / g0_norm, g0_norm


def reference(X, counts) -> dict:
    """Reference optimum, its objective and the smallest curvature there."""
    beta = newton_reference(X, counts)
    H = _weighted_gram(X, _mean(X, beta))
    return {"beta": beta, "f": objective(X, counts, beta),
            "lam_min": float(scipy.linalg.eigvalsh(H, subset_by_index=[0, 0])[0])}


def check_fit(X, counts, beta, variant: str, eps_tol: float, ref: dict) -> list[str]:
    """Stationarity at the variant's own tolerance, and an objective gap to
    the reference no larger than that tolerance allows.

    Near the optimum l(beta) - l* <= ||g||_2^2 / (2 lam_min), and the stopping
    rule gives ||g||_2^2 <= p (eps_tol ||g0||_inf)^2 with the variant's own g0;
    the bound below keeps a factor two of that for the curvature change
    between beta and the optimum.
    """
    errs = []
    if beta.shape != ref["beta"].shape or not np.all(np.isfinite(beta)):
        return [f"{variant}: coefficient vector has the wrong length or is not finite"]
    rel, g0 = relative_gradient(X, counts, beta, variant)
    if not rel <= eps_tol + FP_SLACK:
        errs.append(f"{variant}: relative gradient {rel:.3e} above eps_tol {eps_tol:g}")
    if variant in PROFILED:
        mass = float(_mean(X, beta).sum())
        if abs(mass - counts.sum()) > 1e-9 * counts.sum():
            errs.append(f"{variant}: fitted mass {mass!r} differs from the total count")
    gap = objective(X, counts, beta) - ref["f"]
    bound = X.shape[1] * (eps_tol * g0) ** 2 / ref["lam_min"]
    fp = 1e-12 * (abs(ref["f"]) + float(counts.sum()))
    if not -fp <= gap <= bound + fp:
        errs.append(f"{variant}: objective gap {gap:.3e} to the reference outside [0, {bound:.3e}]")
    return errs


# -- l1 path ------------------------------------------------------------------------


def lambda_max(X, counts) -> float:
    """max_j>=1 |x_j^T (mu0 - n)| at the intercept-only fit mu0 = mean count."""
    mu0 = np.full(X.shape[0], counts.sum() / X.shape[0])
    return float(np.max(np.abs((X.T @ (mu0 - counts))[1:])))


def read_path(out_dir) -> tuple[np.ndarray, dict[str, float], float]:
    """(rows of lambda/support/deviance/ebic, selected nonzeros, selected lambda)."""
    with open(f"{out_dir}/path.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = np.array([[float(v) for v in rec] for rec in reader])
    selected, lam = {}, np.nan
    with open(f"{out_dir}/selected.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            lam = float(rec[0])
            selected[rec[1]] = float(rec[2])
    return rows, selected, lam


def check_path(X, labels, counts, rows, selected, sel_lam, gamma=1.0, eps_tol=1e-8) -> list[str]:
    """Grid top, geometric decrease, EBIC bookkeeping, selection and KKT.

    Every path fit runs to ``eps_tol`` relative to its start residual, which
    is at most 2 <1,n> from a warm start, so every KKT residual, the
    unpenalized intercept's |<1,mu> - <1,n>| included, stays below
    2 eps_tol <1,n>.  The KKT residuals are checked at five times that bound.
    The EBIC offset equals 2 <1,mu> - 2 sum n log n, so it moves by at most
    8 eps_tol <1,n> along the path; it is checked at 2.5 times that.
    """
    errs = []
    total = float(counts.sum())
    tol = 10.0 * eps_tol * total
    lam, support, dev, ebic = rows.T
    lmax = lambda_max(X, counts)
    if abs(lam[0] - (1.0 + 1e-9) * lmax) > 1e-12 * lmax:
        errs.append(f"path: first lambda {lam[0]!r} is not (1+1e-9) lambda_max = {lmax!r}")
    if support[0] != 0:
        errs.append(f"path: support at the top of the grid is {support[0]:g}, not empty")
    ratios = lam[1:] / lam[:-1]
    if len(ratios) and (np.any(ratios >= 1.0) or np.ptp(ratios) > 1e-9 * ratios[0]):
        errs.append("path: lambda grid is not geometrically decreasing")
    n_rows, p = X.shape
    pen = support * np.log(n_rows) + 2.0 * gamma * support * np.log(max(p - 1, 1))
    offset = ebic - dev - pen
    if np.ptp(offset) > 2.0 * tol:
        errs.append(f"path: ebic - deviance - penalty varies by {np.ptp(offset):.3e} along the path")
    best = int(np.argmin(ebic))
    if sel_lam != lam[best]:
        errs.append(f"path: selected lambda {sel_lam!r} is not the EBIC argmin {lam[best]!r}")
    beta = np.array([selected.get(lab, 0.0) for lab in labels])
    unknown = set(selected) - set(labels)
    if unknown:
        errs.append(f"path: selected.csv names unknown columns {sorted(unknown)[:3]}")
    k = int(np.count_nonzero(beta[1:]))
    if k != support[best]:
        errs.append(f"path: selected support {k} differs from path.csv's {support[best]:g}")
    g = gradient(X, counts, beta)
    act = beta[1:] != 0.0
    kkt = np.abs(g[1:])
    kkt[act] = np.abs(g[1:][act] + sel_lam * np.sign(beta[1:][act]))
    kkt[~act] = np.maximum(0.0, kkt[~act] - sel_lam)
    worst = max(abs(float(g[0])), float(kkt.max(initial=0.0)))
    if worst > tol:
        errs.append(f"path: selected fit violates the l1 KKT conditions by {worst:.3e}")
    return errs


# -- raking ---------------------------------------------------------------------------


def ipf(seed: np.ndarray, margins: dict[tuple[int, ...], np.ndarray],
        rel_tol=1e-12, max_cycles=10_000) -> np.ndarray:
    """Classic IPF: cycle the margins, scaling each to its target."""
    x = seed.astype(np.float64).copy()
    axes = range(x.ndim)
    for _ in range(max_cycles):
        worst = 0.0
        for subset, target in margins.items():
            other = tuple(k for k in axes if k not in subset)
            cur = x.sum(axis=other, keepdims=True)
            tgt = target.reshape(cur.shape)
            worst = max(worst, float(np.max(np.abs(cur - tgt) / tgt)))
            with np.errstate(divide="ignore", invalid="ignore"):
                x *= np.where(cur > 0, tgt / cur, 0.0)
        if worst <= rel_tol:
            return x
    raise RuntimeError("reference IPF did not reach its tolerance")


def read_adjusted(path, levels: tuple[int, ...]) -> np.ndarray:
    """adjusted.csv (factor levels, value) as a dense table; every cell once."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    table = np.full(levels, np.nan)
    idx = tuple((data[:, k].astype(np.int64) - 1) for k in range(len(levels)))
    table[idx] = data[:, -1]
    if len(data) != table.size or np.isnan(table).any():
        table[:] = np.nan
    return table


def check_rake(adjusted: np.ndarray, seed: np.ndarray, margins, reference: np.ndarray,
               margin_tol=1e-8, cell_tol=1e-6) -> list[str]:
    """Cell-by-cell agreement with the numpy IPF reference, margins within
    ``margin_tol`` of their targets, and the seed's zeros kept."""
    if np.isnan(adjusted).any():
        return ["rake: adjusted.csv does not list every cell exactly once"]
    errs = []
    scale = float(np.abs(reference).max())
    diff = float(np.max(np.abs(adjusted - reference)))
    if diff > cell_tol * scale:
        errs.append(f"rake: adjusted table differs from IPF by {diff:.3e} (scale {scale:.3e})")
    axes = range(adjusted.ndim)
    for subset, target in margins.items():
        other = tuple(k for k in axes if k not in subset)
        got = adjusted.sum(axis=other)
        rel = float(np.max(np.abs(got - target) / target))
        if rel > margin_tol:
            errs.append(f"rake: margin {subset} off its target by {rel:.3e} relative")
            break
    if np.any(adjusted[seed == 0] != 0.0):
        errs.append("rake: a zero cell of the seed table is nonzero after raking")
    return errs
