"""Gaussian-mechanism calibration and privatization of site summaries.

The release of one site is the joint query (S, T).  Noise is calibrated
under Frobenius-norm global sensitivity: adding i.i.d. N(0, sigma_dp^2)
entries with sigma_dp = delta_f * sqrt(2 log(1.25/delta)) / epsilon gives
(epsilon, delta)-differential privacy for replace-one-record adjacency.
Symmetrization U <- (U + U')/2 is post-processing, so the guarantee is
unaffected; it halves the off-diagonal noise variance, which downstream
consumers must not rely on being exactly sigma_dp^2.

There is one calibration, the dimension-adjusted budget of
:func:`calibrate`: epsilon(p) = 2p * epsilon0 under the binary-Gram
sensitivity delta_f = 2p, so the noise SD depends on epsilon0 and delta
only.  :func:`privatize` releases a whole summary set in one call.  It
perturbs every entry, or only the entries that touch a given set of
sensitive design columns.  Each site's noise comes from its own stream,
keyed by (seed, site id), so the stream layout is part of the released
bytes.  Each released site carries the budget it was made under, and a
site that carries one is refused a second release.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .summaries import FederatedSummarySet, is_integer, is_real, require_count


def gaussian_sigma(delta_f: float, epsilon: float, delta: float) -> float:
    """Noise SD of the Gaussian mechanism for real (not bool) sensitivity and budget."""
    if not (is_real(epsilon) and epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError("epsilon must be positive")
    if not (is_real(delta) and 0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if not (is_real(delta_f) and delta_f > 0 and math.isfinite(delta_f)):
        raise ValidationError("delta_f must be positive")
    return delta_f * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) budget with its Frobenius sensitivity and derived SD.

    sigma_dp is redundant but stored for auditability; it is recomputed and
    asserted whenever a budget is constructed or loaded.  Every field must
    be a real number (a bool is not one).
    """

    epsilon: float
    delta: float
    delta_f: float
    sigma_dp: float

    def __post_init__(self):
        expected = gaussian_sigma(self.delta_f, self.epsilon, self.delta)
        if not (is_real(self.sigma_dp)
                and math.isclose(self.sigma_dp, expected, rel_tol=1e-9, abs_tol=0.0)):
            raise ValidationError(
                f"sigma_dp={self.sigma_dp!r} inconsistent with "
                f"(epsilon, delta, delta_f): expected {expected!r}"
            )


def sensitivity_binary_gram(p: int) -> float:
    """Frobenius sensitivity of a binary-covariate Gram query.

    Replacing one record x in {0,1}^p by x* changes X'X by xx' - x*x*',
    whose Frobenius norm is at most ||x||^2 + ||x*||^2 <= 2p.
    """
    require_count("p", p)
    return 2.0 * p


def calibrate(epsilon0: float, delta: float, p: int) -> PrivacyBudget:
    """Dimension-adjusted budget for a summary of dimension p.

    The budget scales with the dimension, epsilon(p) = 2p * epsilon0,
    under the binary-covariate sensitivity delta_f = 2p; the noise SD
    sqrt(2 log(1.25/delta)) / epsilon0 is independent of p.
    """
    # delta_f/epsilon cancels to 1/epsilon0: evaluate that way so the
    # noise scale is bitwise independent of p
    sigma = gaussian_sigma(1.0, epsilon0, delta)
    return PrivacyBudget(
        epsilon=2.0 * p * epsilon0, delta=delta, delta_f=sensitivity_binary_gram(p), sigma_dp=sigma
    )


def _site_stream(rng_seed: int, site_id: str) -> np.random.Generator:
    """Deterministic per-site stream derived from (base seed, site id)."""
    digest = hashlib.sha256(site_id.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(rng_seed), spawn_key=words))


def privatize(
    summaries: FederatedSummarySet,
    budget: PrivacyBudget,
    sensitive: frozenset[int] = frozenset(),
    rng_seed: int = 0,
) -> FederatedSummarySet:
    """Release a privatized copy of every site of a summary set.

    Draws independent symmetric Gaussian noise for each site's S and T.
    With no ``sensitive`` columns every entry is perturbed.  Otherwise
    only entries whose row or column indexes a sensitive design column
    (1..p; block 0 is the outcome) are perturbed; the outcome-by-sensitive
    crossings are included, everything among non-sensitive columns and
    the y*y cell stays untouched bitwise.

    Each site draws S's noise, then T's, from its own stream, keyed by
    (``rng_seed``, site id): a site's release does not depend on the
    other sites of the set, nor on their order.  That stream layout is
    part of the released bytes.

    Every released site carries ``budget``.  A site can be privatized
    once: there is no composition accounting, so a set that holds a site
    with a budget is refused.
    """
    for site_id, used in zip(summaries.site_ids, summaries.budget_used):
        if used is not None:
            raise ValidationError(f"site {site_id!r} is already privatized; "
                                  "repeated release would need budget composition accounting")
    d = summaries.p + 1
    bad = [j for j in sensitive if not (is_integer(j) and 1 <= j <= summaries.p)]
    if bad:
        raise ValidationError(f"sensitive indices {bad} outside 1..{summaries.p}")

    U = np.array([_site_stream(rng_seed, sid).normal(0.0, budget.sigma_dp, size=(2, d, d))
                  for sid in summaries.site_ids])
    U = (U + U.swapaxes(-1, -2)) / 2.0
    if sensitive:
        touches = np.zeros(d, dtype=bool)
        touches[list(sensitive)] = True
        U = U * (touches[:, None] | touches[None, :]).astype(float)
    return FederatedSummarySet(summaries.site_ids, summaries.n, summaries.S + U[:, 0],
                               summaries.T + U[:, 1], (budget,) * summaries.K)
