"""Cluster-robust sandwich variance for the beta block, from summaries only.

The CR0 sandwich (sum_k W_k)^-1 (sum_k P_k) (sum_k W_k)^-1 with
P_k = (Q_k - W_k beta)(Q_k - W_k beta)' reproduces the raw-data
Liang-Zeger estimator exactly on unperturbed summaries, and is the
plug-in variance for noisy summaries.  Scalar small-sample corrections
rescale it; leverage-based corrections (CR2/CR3) need individual-level
information and are deliberately absent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .estimator import FitResult, Theta, _Kernel, require_beta_length, require_well_conditioned
from .summaries import FederatedSummarySet, is_real

CORRECTIONS = ("cr0", "cr1", "cr1p", "cr1s")


@dataclass(frozen=True)
class RobustVariance:
    """Sandwich variance of beta with its correction label."""

    V: np.ndarray
    correction: str
    K: int
    N: int

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        if self.correction not in CORRECTIONS:
            raise ValidationError(f"unknown correction {self.correction!r}")
        scale = np.abs(V).max()
        if scale > 0 and np.abs(V - V.T).max() > 1e-12 * scale:
            raise ValidationError("variance matrix must be symmetric")
        object.__setattr__(self, "V", V)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.V), 0.0, None))


def correction_factor(correction: str, K: int, N: int, p: int) -> float:
    """Scalar multiplier applied to the CR0 sandwich."""
    if correction == "cr0":
        return 1.0
    if correction == "cr1":
        if K < 2:
            raise ValidationError("CR1 needs at least 2 sites")
        return K / (K - 1)
    if correction == "cr1p":
        if K <= p:
            raise ValidationError(f"CR1p needs K > p (got K={K}, p={p})")
        return K / (K - p)
    if correction == "cr1s":
        if K < 2 or N <= p:
            raise ValidationError(f"CR1S needs K >= 2 and N > p (got K={K}, N={N}, p={p})")
        return (K * (N - 1)) / ((K - 1) * (N - p))
    raise ValidationError(f"unknown correction {correction!r}")


def cr0(summaries: FederatedSummarySet, theta: Theta) -> RobustVariance:
    """CR0 sandwich at theta, from the per-site weights W_k and Q_k of the summaries."""
    require_beta_length(theta, summaries)
    W, Q = _Kernel(summaries).per_site_weights(theta.sigma2, theta.tau2)
    bread_inv = W.sum(axis=0)
    require_well_conditioned(bread_inv, "sandwich bread")
    G = Q - W @ theta.beta  # (K, p) stack of per-site score contributions
    meat = G.T @ G
    half = np.linalg.solve(bread_inv, meat)
    V = np.linalg.solve(bread_inv, half.T).T
    V = (V + V.T) / 2.0
    return RobustVariance(V=V, correction="cr0", K=summaries.K, N=summaries.N)


def apply_correction(v: RobustVariance, correction: str) -> RobustVariance:
    """Rescale a CR0 sandwich by the requested small-sample factor."""
    p = v.V.shape[0]
    factor = correction_factor(correction, v.K, v.N, p)
    return replace(v, V=v.V * factor, correction=correction)


def wald_ci(
    fit: FitResult, v: RobustVariance, level: float = 0.95, use_t: bool = False
) -> np.ndarray:
    """Per-coefficient Wald intervals beta_j +/- q * se_j.

    The quantile is standard normal by default (multi-site asymptotics);
    ``use_t`` switches to t_{K-1} for small-K conservatism.
    """
    if not (is_real(level) and 0.0 < level < 1.0):
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    from scipy import special  # imported on first use, to keep `import fedlmm` light

    alpha = 1.0 - level
    if use_t:
        if v.K < 2:
            raise ValidationError("t quantile needs K >= 2")
        q = special.stdtrit(v.K - 1, 1.0 - alpha / 2.0)
    else:
        q = special.ndtri(1.0 - alpha / 2.0)
    beta = fit.theta_hat.beta
    se = v.se
    return np.column_stack([beta - q * se, beta + q * se])
