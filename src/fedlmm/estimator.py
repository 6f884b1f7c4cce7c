"""Pooled ML/REML estimation of the random-intercept model from summaries.

The model is y = X beta + Z b + e with per-site covariance
Sigma_k = sigma2*I + tau2*11'.  For that structure the pooled
log-likelihood is an exact function of the site summaries (S_k, T_k, n_k):

    l(beta, sigma2, tau2) = -1/2 sum_k [ log{(sigma2)^(n_k-1)(sigma2 + n_k tau2)}
        + (1, -beta)' {S_k - tau2/(sigma2 + n_k tau2) T_k} (1, -beta) / sigma2 ]

so no information is lost relative to pooled raw data.  beta is profiled
out in closed form through the per-site weights

    W_k = S_k[XX]/sigma2 - tau2/(sigma2 (sigma2 + n_k tau2)) T_k[XX]
    Q_k = S_k[Xy]/sigma2 - tau2/(sigma2 (sigma2 + n_k tau2)) T_k[Xy]

With gamma = tau2/sigma2 the per-site shrinkage c_k = gamma/(1 + n_k gamma)
no longer depends on sigma2, which then has the closed form quad(gamma)/N
(ML) or quad(gamma)/(N - p) (REML), where quad is the pooled GLS residual
quadratic.  What is left is a one-dimensional deviance in gamma (Bates et
al. 2015, "Fitting Linear Mixed-Effects Models Using lme4", JSS 67(1)).

The profiled search is used whenever that deviance is well posed: on a
log-gamma grid that includes gamma = 0, every sum_k W_k is positive
definite and within the condition limit, and the pooled quadratic is
positive.  The search walks down the grid from the variance ratios of
the 2-D search's starting points, refines the local minimum it reaches
with a bounded Brent search, and keeps the gamma = 0 edge on a tie.
Every other fit is maximized by derivative-free Nelder-Mead on
(log sigma2, softplus^-1 tau2), with an explicit scan of the tau2 = 0
edge: noisy summaries whose profile is not well posed, an optimum at the
top of the grid or outside the search box, and a point the refinement
finds ill posed.

The additive Gaussian constant -(N/2) log(2 pi) is omitted throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDesignError, ValidationError
from .summaries import FederatedSummarySet


@dataclass(frozen=True)
class Theta:
    """Model parameters (beta, sigma2, tau2)."""

    beta: np.ndarray
    sigma2: float
    tau2: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).reshape(-1)
        if beta.size < 1 or not np.isfinite(beta).all():
            raise ValidationError("beta must be a finite vector")
        _check_theta_domain(self.sigma2, self.tau2)
        object.__setattr__(self, "beta", beta)


# Search box, relative to the pooled outcome scale: sigma2 in
# [_SIGMA2_MIN_FACTOR, _SIGMA2_MAX_FACTOR] * scale, tau2 in [0, _TAU2_MAX_FACTOR * scale].
_SIGMA2_MIN_FACTOR = 1e-8
_SIGMA2_MAX_FACTOR = 1e8
_TAU2_MAX_FACTOR = 1e8
# Nelder-Mead stopping rules; _PARAM_TOL is also the Brent tolerance in log(tau2/sigma2).
_OBJECTIVE_TOL = 1e-10
_PARAM_TOL = 1e-8
# Evaluation budget of each search; a fit that exhausts it is not converged.
_MAX_EVALS = 2000
# Largest cond(sum_k W_k) at which beta is still solved for.
_COND_LIMIT = 1e12


def require_well_conditioned(matrix: np.ndarray, what: str) -> None:
    """Raise SingularDesignError unless cond_2(matrix) <= ``_COND_LIMIT``.

    cond_2 is s_max / s_min from one SVD, the value ``np.linalg.cond``
    returns, with s_min = 0 and NaN read as inf; the error carries it.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    s_min = float(s[-1])
    cond = float(s[0]) / s_min if s_min > 0 else math.inf
    if not cond <= _COND_LIMIT:
        if math.isnan(cond):
            cond = math.inf
        raise SingularDesignError(f"{what} is numerically singular (cond ~ {cond:.3e})", cond)


@dataclass
class FitResult:
    """Outcome of a summary-based fit."""

    theta_hat: Theta
    objective: float
    method: str  # "ML" | "REML"
    converged: bool
    iterations: int
    boundary_tau: bool
    search: str  # "profile" | "nelder-mead"

    def to_dict(self) -> dict:
        return {
            "beta": [float(b) for b in self.theta_hat.beta],
            "sigma2": float(self.theta_hat.sigma2),
            "tau2": float(self.theta_hat.tau2),
            "objective": float(self.objective),
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "boundary_tau": self.boundary_tau,
            "search": self.search,
        }


class _Kernel:
    """Stacked-array evaluation of the summary likelihood and its profile.

    ``txx_flat`` holds T_k[XX] reshaped once to (K, p*p): a C-ordered copy
    of the strided ``T[:, 1:, 1:]`` view for p > 1, a view for p = 1.  It
    is the array ``np.tensordot`` builds on every call, so the weight sum
    sum_k c_k T_k[XX] is the same (1, K) x (K, p*p) ``dot`` without the
    per-call copy.  The condition check on sum_k W_k stays an SVD
    (``require_well_conditioned``): on heavily noised summaries the 2-D
    search follows the cond = 1e12 wall, and any other estimate of cond
    would move its path.
    """

    def __init__(self, summaries: FederatedSummarySet):
        st = summaries.stacked()
        self.n = st["n"]
        self.S_full = st["S"]
        self.T_full = st["T"]
        self.K = summaries.K
        self.p = summaries.p
        self.N = float(self.n.sum())

        self.S_sum = self.S_full.sum(axis=0)
        self.sxx_sum = self.S_sum[1:, 1:]
        self.sxy_sum = self.S_sum[1:, 0]
        self.syy_sum = self.S_sum[0, 0]
        self.txx = self.T_full[:, 1:, 1:]
        self.txx_flat = self.txx.reshape(self.K, self.p * self.p)
        self.txy = self.T_full[:, 1:, 0]
        self.tyy = self.T_full[:, 0, 0]
        self.sum_nm1 = float((self.n - 1.0).sum())

    def scale(self) -> float:
        s = self.syy_sum / self.N
        return float(s) if np.isfinite(s) and s > 0 else 1.0

    def shrink(self, sigma2: float, tau2: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-site c_k = tau2/(sigma2 + n_k tau2) and the denominators."""
        denom = sigma2 + self.n * tau2
        return tau2 / denom, denom

    def _logdet(self, sigma2: float, denom: np.ndarray) -> float:
        return self.sum_nm1 * np.log(sigma2) + float(np.log(denom).sum())

    def loglik(self, beta: np.ndarray, sigma2: float, tau2: float) -> float:
        c, denom = self.shrink(sigma2, tau2)
        M = self.S_sum - np.tensordot(c, self.T_full, axes=([0], [0]))
        v = np.concatenate(([1.0], -np.asarray(beta, dtype=float)))
        quad = float(v @ M @ v) / sigma2
        return -0.5 * (self._logdet(sigma2, denom) + quad)

    def weight_sums(self, sigma2: float, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_k W_k and sum_k Q_k at the shrinkages c = ``shrink(sigma2, tau2)[0]``."""
        txx_c = np.dot(c.reshape(1, -1), self.txx_flat).reshape(self.p, self.p)
        W_sum = (self.sxx_sum - txx_c) / sigma2
        Q_sum = (self.sxy_sum - c @ self.txy) / sigma2
        return W_sum, Q_sum

    def per_site_weights(self, sigma2: float, tau2: float) -> tuple[np.ndarray, np.ndarray]:
        c, _ = self.shrink(sigma2, tau2)
        W = (self.S_full[:, 1:, 1:] - c[:, None, None] * self.txx) / sigma2
        Q = (self.S_full[:, 1:, 0] - c[:, None] * self.txy) / sigma2
        return W, Q

    def profile_beta(self, sigma2: float, tau2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._profile_beta(sigma2, self.shrink(sigma2, tau2)[0])

    def _profile_beta(
        self, sigma2: float, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        W_sum, Q_sum = self.weight_sums(sigma2, c)
        require_well_conditioned(W_sum, "aggregated weight matrix")
        beta = np.linalg.solve(W_sum, Q_sum)
        return beta, W_sum, Q_sum

    def profile_value(
        self, sigma2: float, tau2: float, reml: bool = False
    ) -> tuple[float, np.ndarray]:
        """Profile objective g(sigma2, tau2) = loglik at the profiled beta.

        With ``reml``, less half the log determinant of sum_k W_k.
        """
        c, denom = self.shrink(sigma2, tau2)
        beta, W_sum, Q_sum = self._profile_beta(sigma2, c)
        syy_c = (self.syy_sum - float(c @ self.tyy)) / sigma2
        # quadratic form at the profile solution: v'Mv/s2 = syy_c - beta'Q_sum
        quad = syy_c - float(beta @ Q_sum)
        g = -0.5 * (self._logdet(sigma2, denom) + quad)
        if reml:
            sign, logdet = np.linalg.slogdet(W_sum)
            if sign <= 0:
                raise SingularDesignError("REML determinant argument is not positive definite")
            g = g - 0.5 * logdet
        return g, beta

    def _ratio_matrix(self, gamma) -> np.ndarray:
        """sigma2 * (S_sum - sum_k c_k T_k) at gamma = tau2/sigma2; gamma may be a vector."""
        gn = np.multiply.outer(gamma, self.n)
        c = gn / (1.0 + gn) / self.n
        return self.S_sum - np.tensordot(c, self.T_full, axes=1)

    def _deviance_terms(self, gamma, quad, logdet_w, reml: bool):
        m = self.N - self.p if reml else self.N
        dev = m * np.log(quad) + np.log1p(np.multiply.outer(gamma, self.n)).sum(axis=-1)
        return dev + logdet_w if reml else dev

    def grid_deviance(self, gammas: np.ndarray, reml: bool) -> tuple[np.ndarray, np.ndarray]:
        """Profiled deviance and pooled quadratic at each gamma, or _IllPosed.

        Ill-posed means that at some gamma sum_k W_k is not positive definite,
        its condition number exceeds ``_COND_LIMIT``, or the quadratic is not
        positive, so sigma2 has no closed form there; REML also needs N > p.
        """
        M = self._ratio_matrix(gammas)
        W, q = M[:, 1:, 1:], M[:, 1:, 0]
        lam = np.linalg.eigvalsh(W)  # ascending; cond = lam_max / lam_min when positive
        if not ((lam[:, 0] > 0).all() and (lam[:, -1] <= _COND_LIMIT * lam[:, 0]).all()):
            raise _IllPosed
        quad = M[:, 0, 0] - (q * np.linalg.solve(W, q[..., None])[..., 0]).sum(axis=1)
        if not (quad > 0).all() or (reml and self.N <= self.p):
            raise _IllPosed
        logdet_w = np.log(lam).sum(axis=1) if reml else None
        return self._deviance_terms(gammas, quad, logdet_w, reml), quad


class _IllPosed(Exception):
    """The profiled deviance is undefined at a gamma the search needs."""


def _check_theta_domain(sigma2: float, tau2: float) -> None:
    if not (sigma2 > 0 and np.isfinite(sigma2)):
        raise ValidationError("sigma2 must be positive")
    if not (tau2 >= 0 and np.isfinite(tau2)):
        raise ValidationError("tau2 must be nonnegative")


def require_beta_length(theta: Theta, summaries: FederatedSummarySet) -> None:
    """Raise ValidationError unless theta.beta has one entry per design column."""
    if theta.beta.shape[0] != summaries.p:
        raise ValidationError(
            f"beta has length {theta.beta.shape[0]} but summaries have p={summaries.p}"
        )


def loglik_ml(theta: Theta, summaries: FederatedSummarySet) -> float:
    """Pooled ML log-likelihood reconstructed from summaries."""
    require_beta_length(theta, summaries)
    return _Kernel(summaries).loglik(theta.beta, theta.sigma2, theta.tau2)


def loglik_reml(sigma2: float, tau2: float, summaries: FederatedSummarySet) -> float:
    """REML objective from summaries at the profiled beta."""
    _check_theta_domain(sigma2, tau2)
    value, _ = _Kernel(summaries).profile_value(sigma2, tau2, reml=True)
    return value


def profile_beta(
    sigma2: float, tau2: float, summaries: FederatedSummarySet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form GLS coefficients at fixed variance components.

    Returns (beta_hat, W_sum, Q_sum) where beta_hat solves
    W_sum beta = Q_sum.
    """
    _check_theta_domain(sigma2, tau2)
    return _Kernel(summaries).profile_beta(sigma2, tau2)


def _softplus(u: float) -> float:
    return float(np.logaddexp(0.0, u))


def _softplus_inv(t: float) -> float:
    if t <= 0:
        raise ValueError("softplus inverse needs t > 0")
    if t > 30.0:
        return t  # log(e^t - 1) == t to double precision
    return float(t + np.log1p(-np.exp(-t)))


_PENALTY = 1e300


@dataclass
class _SearchSpace:
    sigma2_lo: float
    sigma2_hi: float
    tau2_hi: float

    def decode(self, u: np.ndarray) -> tuple[float, float] | None:
        if u[0] <= 709.0:  # exp(709) ~ 8.218e307; np.exp overflows past ~709.78
            sigma2 = float(np.exp(u[0]))
        elif self.sigma2_hi < 8.2e307:
            return None  # sigma2 above the box
        else:  # a box reaching past exp(709) needs an outcome scale above 8e299
            with np.errstate(over="ignore"):
                sigma2 = float(np.exp(u[0]))
        tau2 = _softplus(u[1]) if u.shape[0] > 1 else 0.0
        if not (self.sigma2_lo <= sigma2 <= self.sigma2_hi) or tau2 > self.tau2_hi:
            return None
        return sigma2, tau2


def _minimize_nm(fun, x0: np.ndarray):
    from scipy import optimize  # imported on first use, to keep `import fedlmm` light

    return optimize.minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": _PARAM_TOL,
            "fatol": _OBJECTIVE_TOL,
            "maxfev": _MAX_EVALS,
            "disp": False,
        },
    )


def _search_space(kernel: _Kernel) -> _SearchSpace:
    scale = kernel.scale()
    return _SearchSpace(
        sigma2_lo=_SIGMA2_MIN_FACTOR * scale,
        sigma2_hi=_SIGMA2_MAX_FACTOR * scale,
        tau2_hi=_TAU2_MAX_FACTOR * scale,
    )


# log(gamma) grid of the profiled search; gamma = 0 is evaluated as well.
_LOG_GAMMA = np.arange(-16.0, 10.25, 0.5)
# tau2/sigma2 at the starting points of the 2-D search, in its order.
_START_RATIOS = (1.0, 1.0 / 9.0, 10.0 / 3.0)


def _profiled_search(
    kernel: _Kernel, reml: bool
) -> tuple[float, float, float, bool, int, bool] | None:
    """Minimize the profiled deviance in gamma; None when it is not well posed.

    The grid is always evaluated; ``_MAX_EVALS`` bounds the grid plus the
    Brent refinements, and a fit whose budget runs out is not converged.
    Returns (sigma2_hat, tau2_hat, value, converged, n_evals, boundary_tau).
    """
    from scipy import optimize  # imported on first use, to keep `import fedlmm` light

    gammas = np.concatenate(([0.0], np.exp(_LOG_GAMMA)))
    try:
        grid, grid_quad = kernel.grid_deviance(gammas, reml)
    except _IllPosed:
        return None
    n_evals = len(gammas)
    budget = _MAX_EVALS - n_evals
    converged = budget > 0
    dev = grid[1:]
    best = None  # (deviance, log gamma)
    refined = set()
    for ratio in _START_RATIOS:
        i = int(np.abs(_LOG_GAMMA - np.log(ratio)).argmin())
        while True:  # walk down to the local grid minimum
            j = min((k for k in (i - 1, i, i + 1) if 0 <= k < len(dev)), key=dev.__getitem__)
            if j == i:
                break
            i = j
        if i == len(dev) - 1:
            return None  # still falling at the top of the grid
        if i in refined:
            continue
        refined.add(i)
        found = (dev[i], _LOG_GAMMA[i])
        if budget > 0:
            try:
                res = optimize.minimize_scalar(
                    lambda t: kernel.grid_deviance(np.exp([t]), reml)[0][0],
                    bounds=(_LOG_GAMMA[max(i - 1, 0)], _LOG_GAMMA[i + 1]),
                    method="bounded",
                    options={"xatol": _PARAM_TOL, "maxiter": budget},
                )
            except _IllPosed:
                return None
            n_evals += res.nfev
            budget -= res.nfev
            converged = converged and bool(res.success)
            found = (res.fun, res.x)
        if best is None or found[0] < best[0]:
            best = found

    m = kernel.N - kernel.p if reml else kernel.N

    def to_value(deviance):  # the objective at sigma2 = quad / m
        return -0.5 * (deviance + m * (1.0 - np.log(m)))

    edge_value = to_value(grid[0])
    if best is None or edge_value >= to_value(best[0]) - 1e-10 * (1.0 + abs(edge_value)):
        gamma, quad, value, boundary = 0.0, grid_quad[0], edge_value, True
    else:
        gamma = float(np.exp(best[1]))
        d, q = kernel.grid_deviance(np.array([gamma]), reml)  # well posed: already evaluated
        n_evals += 1
        quad, value, boundary = q[0], to_value(d[0]), False
    sigma2 = float(quad / m)
    tau2 = gamma * sigma2
    space = _search_space(kernel)
    if not (space.sigma2_lo <= sigma2 <= space.sigma2_hi and tau2 <= space.tau2_hi):
        return None
    return sigma2, tau2, float(value), converged, n_evals, boundary


def _nelder_mead_search(
    kernel: _Kernel, reml: bool
) -> tuple[float, float, float, bool, int, bool]:
    """Maximize the profile objective over the (sigma2, tau2) box.

    Nelder-Mead runs from three starting points in (log sigma2, softplus^-1
    tau2), then in log sigma2 alone on the tau2 = 0 edge, which wins ties.
    Returns (sigma2_hat, tau2_hat, value, converged, n_evals, boundary_tau).
    """
    scale = kernel.scale()
    space = _search_space(kernel)

    def neg(u: np.ndarray) -> float:
        decoded = space.decode(u)  # a one-element u is a point on the tau2 = 0 edge
        if decoded is None:
            return _PENALTY
        try:
            g, _ = kernel.profile_value(*decoded, reml=reml)
        except (SingularDesignError, np.linalg.LinAlgError):
            return _PENALTY
        return -g if math.isfinite(g) else _PENALTY

    # Moment-flavored spread of starting points around the OLS residual scale.
    try:
        beta0, _, _ = kernel.profile_beta(1.0, 0.0)
        rss = kernel.syy_sum - float(beta0 @ kernel.sxy_sum)
        s2_start = rss / kernel.N if rss > 0 else scale
    except SingularDesignError:
        s2_start = scale
    s2_start = float(np.clip(s2_start, space.sigma2_lo, space.sigma2_hi))
    starts = [
        (0.5 * s2_start, 0.5 * s2_start),
        (0.9 * s2_start, 0.1 * s2_start),
        (0.3 * s2_start, min(1.0 * s2_start, space.tau2_hi)),
    ]

    n_evals = 0
    best = None  # (value, sigma2, tau2, success)

    for s2, t2 in starts:
        t2 = max(t2, 1e-8 * scale)
        u0 = np.array([np.log(s2), _softplus_inv(t2)])
        res = _minimize_nm(neg, u0)
        n_evals += res.nfev
        decoded = space.decode(res.x)
        if decoded is None or res.fun >= _PENALTY:
            continue
        sigma2, tau2 = decoded
        if best is None or -res.fun > best[0]:
            best = (-res.fun, sigma2, tau2, bool(res.success))

    # The tau2 = 0 edge: 1-D search in log sigma2.
    res = _minimize_nm(neg, np.array([np.log(s2_start)]))
    n_evals += res.nfev
    edge = None
    if res.fun < _PENALTY:
        decoded = space.decode(res.x)
        if decoded is not None:
            edge = (-res.fun, *decoded, bool(res.success))

    boundary = False
    if best is None and edge is None:
        raise SingularDesignError("profile objective unusable over the whole search box")
    if best is None:
        chosen = edge
        boundary = True
    elif edge is not None and edge[0] >= best[0] - 1e-10 * (1.0 + abs(edge[0])):
        chosen = edge
        boundary = True
    else:
        chosen = best
    value, sigma2, tau2, success = chosen
    return sigma2, tau2, value, success, n_evals, boundary


def _finalize(
    kernel: _Kernel, method: str, search: str, sigma2: float, tau2: float, value: float,
    converged: bool, n_evals: int, boundary: bool,
) -> FitResult:
    beta, _, _ = kernel.profile_beta(sigma2, tau2)
    theta = Theta(beta=beta, sigma2=sigma2, tau2=tau2)
    return FitResult(
        theta_hat=theta,
        objective=float(value),
        method=method,
        converged=bool(converged and np.isfinite(value)),
        iterations=int(n_evals),
        boundary_tau=bool(boundary),
        search=search,
    )


def _fit(summaries: FederatedSummarySet, reml: bool) -> FitResult:
    method = "REML" if reml else "ML"
    if summaries.K < 2:
        raise ValidationError(f"{method} fit needs at least 2 sites")
    kernel = _Kernel(summaries)
    found = _profiled_search(kernel, reml)
    if found is not None:
        return _finalize(kernel, method, "profile", *found)
    return _finalize(kernel, method, "nelder-mead", *_nelder_mead_search(kernel, reml))


def fit_ml(summaries: FederatedSummarySet) -> FitResult:
    """Maximize the summary-based ML objective over (beta, sigma2, tau2).

    Uses the profiled search in gamma when its deviance is well posed, and
    the 2-D Nelder-Mead search otherwise.
    """
    return _fit(summaries, reml=False)


def fit_reml(summaries: FederatedSummarySet) -> FitResult:
    """Maximize the summary-based REML objective.

    Refuses privatized inputs: the extra determinant term aggregates
    cross-site information and amplifies injected noise, so the REML route
    is supported only without perturbation.  Search as in fit_ml.
    """
    if summaries.any_privatized:
        raise ValidationError(
            "REML is not supported on privatized summaries: the log-determinant "
            "term suffers determinant amplification under additive noise; use ML"
        )
    return _fit(summaries, reml=True)
