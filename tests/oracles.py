"""Independent brute-force oracles shared across test modules.

Nothing here may call into the code paths it checks: summaries are
accumulated entry by entry in Python loops, Gram fibers come from full
enumeration of binary matrices, likelihoods and GLS quantities come from
dense per-site covariance blocks, and quantiles are frozen constants.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from fedlmm import SingularDesignError, SiteData, ValidationError

# Standard normal quantile at 0.975, frozen from the inverse error function.
Z_975 = 1.9599639845400545


def brute_force_summary(y, X):
    """(S, T) by explicit double loops over rows and entries."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    d = p + 1
    A = np.column_stack([y, X])
    S = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for r in range(n):
                acc += A[r, i] * A[r, j]
            S[i, j] = acc
    colsum = np.zeros(d)
    for i in range(d):
        for r in range(n):
            colsum[i] += A[r, i]
    T = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            T[i, j] = colsum[i] * colsum[j]
    return S, T


def fsum_crossprod(A):
    """(S, s) of ``A``: one ``math.fsum`` per entry over the rounded products.

    S[i, j] sums ``A[:, i] * A[:, j]`` and s[j] sums ``A[:, j]``, each
    correctly rounded.  This is the per-entry loop that large sites were
    summed with before the blocked accumulation.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    S = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            S[i, j] = S[j, i] = math.fsum((A[:, i] * A[:, j]).tolist())
    s = np.array([math.fsum(A[:, j].tolist()) for j in range(d)])
    return S, s


def gram_fibers(n: int, p: int) -> dict[tuple, set[tuple]]:
    """Map each Gram value to the set of row-multisets producing it.

    Enumerates all 2**(n*p) binary matrices; row-multisets are stored as
    sorted tuples of row tuples, so two matrices equal up to row
    permutation collapse to one element.
    """
    fibers: dict[tuple, set[tuple]] = {}
    for bits in itertools.product((0, 1), repeat=n * p):
        X = np.array(bits, dtype=np.int64).reshape(n, p)
        key = tuple((X.T @ X).ravel())
        fibers.setdefault(key, set()).add(tuple(sorted(map(tuple, X))))
    return fibers


def random_sites(rng, K=None, n_range=(1, 8), p=None, beta=None, sigma2=1.0, tau2=0.5,
                 heteroskedastic=False):
    """Random multi-site datasets for oracle-equality checks."""
    K = int(rng.integers(2, 11)) if K is None else K
    p = int(rng.integers(1, 5)) if p is None else p
    beta = rng.normal(size=p) if beta is None else np.asarray(beta)
    sites = []
    for k in range(K):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
        scale = (1.0 + k) if heteroskedastic else 1.0
        y = X @ beta + rng.normal(0, np.sqrt(tau2)) + rng.normal(0, np.sqrt(sigma2) * scale, n)
        sites.append(SiteData(site_id=f"site{k}", y=y, X=X))
    return sites


def sherman_morrison_gls(y, X, sigma2, tau2):
    """Single-site GLS coefficients via the closed-form inverse of
    sigma2*I + tau2*11', coded independently of the package."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n = len(y)
    shrink = tau2 / (sigma2 + n * tau2)
    ones = np.ones((n, n))
    sig_inv = (np.eye(n) - shrink * ones) / sigma2
    info = X.T @ sig_inv @ X
    return np.linalg.solve(info, X.T @ sig_inv @ y)


# Dense-covariance references on raw pooled data.  Each site's n x n block
# Sigma_k = sigma2*I + tau2*11' is materialized and handled with plain dense
# linear algebra.  Log-likelihoods omit the additive constant -(N/2) log(2 pi),
# as the summary route does.


def _sigma_block(n: int, sigma2: float, tau2: float) -> np.ndarray:
    return sigma2 * np.eye(n) + tau2 * np.ones((n, n))


def dense_loglik_ml(
    beta: np.ndarray, sigma2: float, tau2: float, sites: Sequence[SiteData]
) -> float:
    """Pooled ML log-likelihood via dense per-site covariance blocks."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    if tau2 < 0:
        raise ValidationError("tau2 must be nonnegative")
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for s in sites:
        sig = _sigma_block(s.n, sigma2, tau2)
        sign, logdet = np.linalg.slogdet(sig)
        resid = s.y - s.X @ beta
        quad = resid @ np.linalg.solve(sig, resid)
        total += -0.5 * (logdet + quad)
    return float(total)


def _gls_information(
    sigma2: float, tau2: float, sites: Sequence[SiteData]
) -> tuple[np.ndarray, np.ndarray]:
    """Return (X' Sigma^-1 X, X' Sigma^-1 y) accumulated over sites."""
    p = sites[0].p
    info = np.zeros((p, p))
    score = np.zeros(p)
    for s in sites:
        sig = _sigma_block(s.n, sigma2, tau2)
        six = np.linalg.solve(sig, s.X)
        info += s.X.T @ six
        score += six.T @ s.y
    return info, score


def dense_gls_beta(sigma2: float, tau2: float, sites: Sequence[SiteData]) -> np.ndarray:
    """Generalized least squares coefficients at fixed variance components."""
    info, score = _gls_information(sigma2, tau2, sites)
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularDesignError(
            f"X' Sigma^-1 X is numerically singular (cond ~ {cond:.3e})", cond
        )
    return np.linalg.solve(info, score)


def dense_loglik_reml(sigma2: float, tau2: float, sites: Sequence[SiteData]) -> float:
    """REML log-likelihood: profile ML minus half log det of the information."""
    beta = dense_gls_beta(sigma2, tau2, sites)
    info, _ = _gls_information(sigma2, tau2, sites)
    sign, logdet = np.linalg.slogdet(info)
    if sign <= 0:
        raise SingularDesignError("X' Sigma^-1 X has nonpositive determinant")
    return dense_loglik_ml(beta, sigma2, tau2, sites) - 0.5 * logdet


def dense_cr0_sandwich(
    beta: np.ndarray, sigma2: float, tau2: float, sites: Sequence[SiteData]
) -> np.ndarray:
    """Cluster-robust CR0 variance from raw residuals.

    (X' Sigma^-1 X)^-1 (sum_k X_k' Sigma_k^-1 e_k e_k' Sigma_k^-1 X_k)
    (X' Sigma^-1 X)^-1 with e_k the site residual vector.
    """
    beta = np.asarray(beta, dtype=float)
    p = sites[0].p
    bread_inv = np.zeros((p, p))
    meat = np.zeros((p, p))
    for s in sites:
        sig = _sigma_block(s.n, sigma2, tau2)
        six = np.linalg.solve(sig, s.X)
        bread_inv += s.X.T @ six
        g = six.T @ (s.y - s.X @ beta)
        meat += np.outer(g, g)
    bread = np.linalg.inv(bread_inv)
    V = bread @ meat @ bread
    return (V + V.T) / 2.0


# The summary-route profile objective in its plainest stacked-array form:
# tensordot on the strided T[:, 1:, 1:] view, np.linalg.cond, the shrinkage
# computed twice.  The estimator's kernel must reproduce it bit for bit.


def stacked_profile(summaries, sigma2: float, tau2: float, reml: bool = False):
    """(g, beta, W_sum, Q_sum): profile objective, GLS beta and the weight sums."""
    st = summaries.stacked()
    n, S, T = st["n"], st["S"], st["T"]
    S_sum = S.sum(axis=0)
    c = tau2 / (sigma2 + n * tau2)
    W_sum = (S_sum[1:, 1:] - np.tensordot(c, T[:, 1:, 1:], axes=([0], [0]))) / sigma2
    Q_sum = (S_sum[1:, 0] - c @ T[:, 1:, 0]) / sigma2
    cond = np.linalg.cond(W_sum)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularDesignError(f"cond ~ {cond:.3e}", cond)
    beta = np.linalg.solve(W_sum, Q_sum)
    c = tau2 / (sigma2 + n * tau2)
    quad = (S_sum[0, 0] - float(c @ T[:, 0, 0])) / sigma2 - float(beta @ Q_sum)
    logdet = float((n - 1.0).sum()) * np.log(sigma2) + float(np.log(sigma2 + n * tau2).sum())
    g = -0.5 * (logdet + quad)
    if reml:
        sign, logdet_w = np.linalg.slogdet(W_sum)
        if sign <= 0:
            raise SingularDesignError("REML determinant argument is not positive definite")
        g = g - 0.5 * logdet_w
    return g, beta, W_sum, Q_sum
