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
the 2-D search's starting points and refines each local minimum it
reaches with a bounded Brent search.  Every other fit is maximized by
derivative-free Nelder-Mead on (log sigma2, softplus^-1 tau2), with an
explicit scan of the tau2 = 0 edge: noisy summaries whose profile is not
well posed, an optimum at the top of the grid, and a point the refinement
finds ill posed.  Nelder-Mead is an in-house loop on Python floats
(``_nelder_mead``) that takes scipy's steps; ``scipy.optimize`` serves
only the Brent refinement.

Only Nelder-Mead searches inside a box (``_SearchSpace``); the profiled
search takes sigma2 in closed form, however small.  Both share one rule
by which the tau2 = 0 edge wins a tie (``_edge_wins``) and one evaluation
budget, ``_MAX_EVALS`` per Nelder-Mead start and per Brent refinement;
``_fit`` turns the result of either into the ``FitResult``.

The additive Gaussian constant -(N/2) log(2 pi) is omitted throughout.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import SingularDesignError, ValidationError
from .summaries import FederatedSummarySet, is_real


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


# The Nelder-Mead search box, relative to the pooled outcome scale: sigma2 in
# [_SIGMA2_MIN_FACTOR, _SIGMA2_MAX_FACTOR] * scale, tau2 in [0, _TAU2_MAX_FACTOR * scale].
_SIGMA2_MIN_FACTOR = 1e-8
_SIGMA2_MAX_FACTOR = 1e8
_TAU2_MAX_FACTOR = 1e8
# Nelder-Mead stopping rules; _PARAM_TOL is also the Brent tolerance in log(tau2/sigma2).
_OBJECTIVE_TOL = 1e-10
_PARAM_TOL = 1e-8
# Evaluation budget of each Nelder-Mead start and each Brent refinement; a fit
# whose search exhausts it is not converged.
_MAX_EVALS = 2000
# Largest cond(sum_k W_k) at which beta is still solved for.
_COND_LIMIT = 1e12


def require_well_conditioned(matrix: np.ndarray, what: str) -> None:
    """Raise SingularDesignError unless cond_2 of the square ``matrix`` is <= ``_COND_LIMIT``.

    A bound is tried first, without an SVD.  With r_i the absolute sum of
    row i, lo = min_i (2 w_ii - r_i) and hi = max_i r_i, lo > 0 gives
    ||W^-1||_inf <= 1/lo (Varah 1975, Linear Algebra Appl. 11:3-5) and
    ||W||_inf = hi, so cond_2 <= p hi / lo.  The matrix passes when that
    bound is at most 1e-2 * ``_COND_LIMIT``, where an SVD, accurate to far
    better than that factor of 100, passes it too.  NaN or inf entries and
    any matrix the bound cannot place that far inside the limit take the
    SVD, which decides: cond_2 is s_max / s_min from one SVD, the value
    ``np.linalg.cond`` returns, with s_min = 0 and NaN read as inf; the
    error carries it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and huge entries fail the bound
        r = np.add.reduce(np.abs(matrix), 1)  # ufunc reductions skip .sum()'s Python wrapper
        d = matrix.diagonal()
        lo = float(np.minimum.reduce(d + d - r))
    if lo > 0 and len(r) * float(np.maximum.reduce(r)) <= 1e-2 * _COND_LIMIT * lo:
        return
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

    It reads the set's (K, p+1, p+1) S and T stacks in place, and n as floats.
    ``txx_flat`` holds T_k[XX] reshaped once to (K, p*p): a C-ordered copy
    of the strided ``T[:, 1:, 1:]`` view for p > 1, a view for p = 1.  It
    is the array ``np.tensordot`` builds on every call, so the weight sum
    sum_k c_k T_k[XX] is the same (1, K) x (K, p*p) ``dot`` without the
    per-call copy.  The condition check on sum_k W_k is decided by an SVD
    wherever the answer is in doubt (``require_well_conditioned``): on
    heavily noised summaries the 2-D search follows the cond = 1e12 wall,
    and any other estimate of cond would move its path.  The bound it
    tries first passes only matrices 100x inside that wall.
    """

    def __init__(self, summaries: FederatedSummarySet):
        self.n = summaries.n.astype(float)
        self.S_full = summaries.S
        self.T_full = summaries.T
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
        """beta solving sum_k W_k beta = sum_k Q_k at the shrinkages c, and both sums."""
        txx_c = np.dot(c.reshape(1, -1), self.txx_flat).reshape(self.p, self.p)
        W_sum = (self.sxx_sum - txx_c) / sigma2
        Q_sum = (self.sxy_sum - c @ self.txy) / sigma2
        require_well_conditioned(W_sum, "aggregated weight matrix")
        return np.linalg.solve(W_sum, Q_sum), W_sum, Q_sum

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

    def grid_deviance(self, gammas: np.ndarray, reml: bool) -> tuple[np.ndarray, np.ndarray]:
        """Profiled deviance and pooled quadratic at each gamma, or _IllPosed.

        Ill-posed means that at some gamma sum_k W_k is not positive definite,
        its condition number exceeds ``_COND_LIMIT``, or the quadratic is not
        positive, so sigma2 has no closed form there; REML also needs N > p.
        """
        gn = np.multiply.outer(gammas, self.n)
        # sigma2 * (S_sum - sum_k c_k T_k) at each gamma = tau2/sigma2
        M = self.S_sum - np.tensordot(gn / (1.0 + gn) / self.n, self.T_full, axes=1)
        W, q = M[:, 1:, 1:], M[:, 1:, 0]
        lam = np.linalg.eigvalsh(W)  # ascending; cond = lam_max / lam_min when positive
        if not ((lam[:, 0] > 0).all() and (lam[:, -1] <= _COND_LIMIT * lam[:, 0]).all()):
            raise _IllPosed
        quad = M[:, 0, 0] - (q * np.linalg.solve(W, q[..., None])[..., 0]).sum(axis=1)
        if not (quad > 0).all() or (reml and self.N <= self.p):
            raise _IllPosed
        dev = (self.N - self.p if reml else self.N) * np.log(quad) + np.log1p(gn).sum(axis=-1)
        return (dev + np.log(lam).sum(axis=1) if reml else dev), quad


class _IllPosed(Exception):
    """The profiled search does not apply: an ill-posed gamma, or an optimum off the grid."""


def _check_theta_domain(sigma2: float, tau2: float) -> None:
    """Refuse variance components that are not finite real numbers (a bool is not one) in range."""
    if not (is_real(sigma2) and sigma2 > 0 and math.isfinite(sigma2)):
        raise ValidationError(f"sigma2 must be positive and finite, got {sigma2!r}")
    if not (is_real(tau2) and tau2 >= 0 and math.isfinite(tau2)):
        raise ValidationError(f"tau2 must be nonnegative and finite, got {tau2!r}")


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


def _softplus_inv(t: float) -> float:
    """log(e^t - 1), for t > 0."""
    if t > 30.0:
        return t  # log(e^t - 1) == t to double precision
    return float(t + np.log1p(-np.exp(-t)))


_PENALTY = 1e300


@dataclass
class _SearchSpace:
    sigma2_lo: float
    sigma2_hi: float
    tau2_hi: float

    def decode(self, u: Sequence[float]) -> tuple[float, float] | None:
        if u[0] <= 709.0:  # exp(709) ~ 8.218e307; np.exp overflows past ~709.78
            sigma2 = float(np.exp(u[0]))
        elif self.sigma2_hi < 8.2e307:
            return None  # sigma2 above the box
        else:  # a box reaching past exp(709) needs an outcome scale above 8e299
            with np.errstate(over="ignore"):
                sigma2 = float(np.exp(u[0]))
        tau2 = float(np.logaddexp(0.0, u[1])) if len(u) > 1 else 0.0  # softplus
        # a point outside the box, or with a NaN coordinate, decodes to None
        inside = self.sigma2_lo <= sigma2 <= self.sigma2_hi and tau2 <= self.tau2_hi
        return (sigma2, tau2) if inside else None


def _edge_wins(edge_value: float, best_value: float) -> bool:
    """Whether the tau2 = 0 edge ties or beats the best interior objective, within 1e-10 relative."""
    return edge_value >= best_value - 1e-10 * (1.0 + abs(edge_value))


# log(gamma) grid of the profiled search; gamma = 0 is evaluated as well.
_LOG_GAMMA = np.arange(-16.0, 10.25, 0.5)
# tau2/sigma2 at the starting points of the 2-D search, in its order.
_START_RATIOS = (1.0, 1.0 / 9.0, 10.0 / 3.0)


def _profiled_search(kernel: _Kernel, reml: bool) -> tuple[float, float, float, bool, int, bool]:
    """Minimize the profiled deviance in gamma; _IllPosed when it does not apply.

    The grid is always evaluated.  Each Brent refinement may take
    ``_MAX_EVALS`` iterations, and the fit is converged when every
    refinement is; the gamma = 0 edge wins a tie by ``_edge_wins``.
    Returns (sigma2_hat, tau2_hat, value, converged, n_evals, boundary_tau).
    """
    from scipy import optimize  # imported on first use, to keep `import fedlmm` light

    gammas = np.concatenate(([0.0], np.exp(_LOG_GAMMA)))
    grid, grid_quad = kernel.grid_deviance(gammas, reml)
    dev = grid[1:]
    minima = []  # the local grid minima reached, each once, in walk order
    for ratio in _START_RATIOS:
        i = int(np.abs(_LOG_GAMMA - np.log(ratio)).argmin())
        while True:  # walk down to the local grid minimum
            j = min((k for k in (i - 1, i, i + 1) if 0 <= k < len(dev)), key=dev.__getitem__)
            if j == i:
                break
            i = j
        if i == len(dev) - 1:
            raise _IllPosed  # still falling at the top of the grid
        if i not in minima:
            minima.append(i)
    refined = [
        optimize.minimize_scalar(
            lambda t: kernel.grid_deviance(np.exp([t]), reml)[0][0],
            bounds=(_LOG_GAMMA[max(i - 1, 0)], _LOG_GAMMA[i + 1]),
            method="bounded",
            options={"xatol": _PARAM_TOL, "maxiter": _MAX_EVALS},
        )
        for i in minima
    ]
    n_evals = len(gammas) + sum(res.nfev for res in refined)
    converged = all(res.success for res in refined)
    best = min(refined, key=lambda res: res.fun)  # the first on a tie

    m = kernel.N - kernel.p if reml else kernel.N

    def to_value(deviance):  # the objective at sigma2 = quad / m
        return -0.5 * (deviance + m * (1.0 - np.log(m)))

    edge_value = to_value(grid[0])
    if _edge_wins(edge_value, to_value(best.fun)):
        gamma, quad, value, boundary = 0.0, grid_quad[0], edge_value, True
    else:
        gamma = float(np.exp(best.x))
        d, q = kernel.grid_deviance(np.array([gamma]), reml)  # well posed: already evaluated
        n_evals += 1
        quad, value, boundary = q[0], to_value(d[0]), False
    sigma2 = float(quad / m)
    tau2 = gamma * sigma2
    return sigma2, tau2, float(value), converged, n_evals, boundary


class _EvalCapReached(Exception):
    """A Nelder-Mead search has spent its ``_MAX_EVALS`` evaluations."""


def _nelder_mead(f: Callable[[tuple[float, ...]], float],
                 x0: Sequence[float]) -> tuple[tuple[float, ...], float, int, bool]:
    """Minimize f from x0 by Nelder-Mead on Python floats.

    Step for step scipy 1.17's ``_minimize_neldermead`` without bounds or
    adaptive coefficients, at xatol ``_PARAM_TOL``, fatol ``_OBJECTIVE_TOL``
    and maxfev ``_MAX_EVALS``: the same simplex, the same arithmetic and the
    same stable sort of the vertices by value, so the same points, values
    and evaluation count.  f takes a tuple and must not return NaN.
    Returns (x, fun, nfev, success); success is false exactly when the
    evaluation budget is spent.
    """
    cap, nfev = _MAX_EVALS, 0

    def call(x):
        nonlocal nfev
        if nfev >= cap:
            raise _EvalCapReached
        nfev += 1
        return f(x)

    dim = len(x0)
    x0 = tuple(float(v) for v in x0)
    sim = [x0] + [x0[:k] + ((1 + 0.05) * v if v != 0 else 0.00025,) + x0[k + 1:]
                  for k, v in enumerate(x0)]
    # dim + 1 <= 3 calls, and no cap is below 3: the first simplex never reaches it
    fsim = [call(x) for x in sim]
    while True:
        order = sorted(range(dim + 1), key=fsim.__getitem__)  # stable, as np.argsort on 2-3 values
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        if nfev >= cap:
            break
        try:
            best, f_best = sim[0], fsim[0]
            if (all(abs(v - b) <= _PARAM_TOL for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(f_best - fv) <= _OBJECTIVE_TOL for fv in fsim[1:])):
                break
            xbar = [reduce(add, column) / dim for column in zip(*sim[:-1])]
            worst = sim[-1]
            xr = tuple(2 * b - w for b, w in zip(xbar, worst))  # reflect
            fxr = call(xr)
            if fxr < f_best:
                xe = tuple(3 * b - 2 * w for b, w in zip(xbar, worst))  # expand
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = tuple(1.5 * b - 0.5 * w for b, w in zip(xbar, worst))
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:  # contract inside
                    xc = tuple(0.5 * b + 0.5 * w for b, w in zip(xbar, worst))
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # toward the best vertex; a vertex moves before its evaluation
                    for j in range(1, dim + 1):
                        sim[j] = tuple(b + 0.5 * (v - b) for b, v in zip(best, sim[j]))
                        fsim[j] = call(sim[j])
        except _EvalCapReached:
            pass
    return sim[0], fsim[0], nfev, nfev < cap


def _nelder_mead_search(
    kernel: _Kernel, reml: bool
) -> tuple[float, float, float, bool, int, bool]:
    """Maximize the profile objective over the (sigma2, tau2) box.

    Nelder-Mead runs from three starting points in (log sigma2, softplus^-1
    tau2), then in log sigma2 alone on the tau2 = 0 edge, which wins ties.
    Returns (sigma2_hat, tau2_hat, value, converged, n_evals, boundary_tau).
    """
    scale = kernel.scale()
    space = _SearchSpace(sigma2_lo=_SIGMA2_MIN_FACTOR * scale, sigma2_hi=_SIGMA2_MAX_FACTOR * scale,
                         tau2_hi=_TAU2_MAX_FACTOR * scale)

    def neg(u: tuple[float, ...]) -> float:
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
        [np.log(s2), _softplus_inv(max(t2, 1e-8 * scale))]
        for s2, t2 in ((0.5 * s2_start, 0.5 * s2_start), (0.9 * s2_start, 0.1 * s2_start),
                       (0.3 * s2_start, min(s2_start, space.tau2_hi)))
    ] + [[np.log(s2_start)]]  # last, the tau2 = 0 edge: log sigma2 alone

    n_evals = 0
    best = edge = None  # (value, sigma2, tau2, success)
    for u0 in starts:
        x, fun, nfev, success = _nelder_mead(neg, u0)
        n_evals += nfev
        decoded = space.decode(x)
        if decoded is None or fun >= _PENALTY:
            continue
        found = (-fun, *decoded, success)
        if len(u0) == 1:
            edge = found
        elif best is None or found[0] > best[0]:
            best = found

    if best is None and edge is None:
        raise SingularDesignError("profile objective unusable over the whole search box")
    boundary = best is None or (edge is not None and _edge_wins(edge[0], best[0]))
    value, sigma2, tau2, success = edge if boundary else best
    return sigma2, tau2, value, success, n_evals, boundary


def _fit(summaries: FederatedSummarySet, reml: bool) -> FitResult:
    method = "REML" if reml else "ML"
    if summaries.K < 2:
        raise ValidationError(f"{method} fit needs at least 2 sites")
    kernel = _Kernel(summaries)
    try:
        search, found = "profile", _profiled_search(kernel, reml)
    except _IllPosed:
        search, found = "nelder-mead", _nelder_mead_search(kernel, reml)
    sigma2, tau2, value, converged, n_evals, boundary = found  # value is finite
    beta, _, _ = kernel.profile_beta(sigma2, tau2)
    return FitResult(
        theta_hat=Theta(beta=beta, sigma2=sigma2, tau2=tau2),
        objective=float(value),
        method=method,
        converged=bool(converged),
        iterations=int(n_evals),
        boundary_tau=bool(boundary),
        search=search,
    )


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
