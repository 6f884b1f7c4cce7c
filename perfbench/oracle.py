"""Reference random-intercept fits, written independently of fedlmm.estimator.

With gamma = tau2 / sigma2 the per-site inverse covariance is
(I - c_k 11') / sigma2 with c_k = gamma / (1 + n_k gamma), sigma2 has a
closed form, and ML/REML reduce to a one-dimensional deviance in gamma
(Bates et al. 2015, lme4, JSS 67(1)).  The deviance is scanned on a log
grid that includes gamma = 0 and refined with a bounded Brent search.
The inputs are the per-site (n, S, T) matrices in the y-first layout.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize


def _deviance(gamma, n, S, T, reml):
    c = gamma / (1.0 + n * gamma)
    M = S.sum(axis=0) - np.tensordot(c, T, axes=1)
    W, q = M[1:, 1:], M[1:, 0]
    L = np.linalg.cholesky(W)
    beta = np.linalg.solve(W, q)
    quad = M[0, 0] - q @ beta
    N, p = n.sum(), W.shape[0]
    if quad <= 0:
        return np.inf, beta
    logdet_v = np.log1p(n * gamma).sum()
    if reml:
        return (N - p) * np.log(quad) + logdet_v + 2.0 * np.log(np.diag(L)).sum(), beta
    return N * np.log(quad) + logdet_v, beta


def fit_beta(n, S, T, reml=False, near=None):
    """Coefficients at the ML (or REML) optimum over gamma >= 0.

    With ``near`` (a fitted gamma) the search covers one unit of log gamma
    around it, plus gamma = 0.  Noisy summaries need this: where sum W_k
    turns indefinite at large gamma, the deviance has a narrow spurious
    dip that a global scan can land in.
    """
    n, S, T = np.asarray(n, float), np.asarray(S, float), np.asarray(T, float)

    def dev(log_gamma):
        try:
            return _deviance(np.exp(log_gamma), n, S, T, reml)[0]
        except np.linalg.LinAlgError:
            return np.inf

    if near is None:
        grid = np.linspace(-16.0, 10.0, 105)
    else:
        center = np.log(near) if near > 0 else -15.0
        grid = np.linspace(center - 1.0, center + 1.0, 21)
    i = int(np.argmin([dev(g) for g in grid]))
    res = optimize.minimize_scalar(dev, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                                   method="bounded", options={"xatol": 1e-10})
    gamma = 0.0 if _deviance(0.0, n, S, T, reml)[0] <= res.fun else float(np.exp(res.x))
    return _deviance(gamma, n, S, T, reml)[1]
