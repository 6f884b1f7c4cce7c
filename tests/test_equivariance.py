"""Equivariance of the fit: properties any maximizer satisfies, whatever its bytes.

With z = (y, x_1, ..., x_p), a linear map z -> L z takes each site's S_k
and T_k to L S_k L' (a congruence), so each transform acts on the summaries
directly; the transformed stacks are rounded and then made exactly
symmetric.

- y -> y + X a gives beta + a, with the same sigma2, tau2 and objective.
- y -> 2^k y gives 2^k beta, 4^k sigma2 and 4^k tau2, and the objective
  less m k log 2, where m = N for ML and N - p for REML.
- Reordering the sites moves nothing.

A transform holds when the transformed fit's objective is the expected
one within 1e-9 relative, and its parameters, mapped back, attain the
base fit's objective on the base summaries within the same tolerance.
The parameters are compared through the objective because a maximizer
pins them only as far as the objective resolves them: the profiled
deviance flattens in log gamma as gamma grows, and on one private K=44 fit
at gamma ~ 7.6e3 swapping two sites moved tau2 by 1.8e-6 relative while
the objective moved by 8e-14.

The properties are asserted on fits that take the profiled search.  Run as
a script, the module counts, at fixed seeds, the private fits that take the
2-D search and break each property:

    PYTHONPATH=src python tests/test_equivariance.py
"""

import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedlmm import (
    FedLMMError,
    FederatedSummarySet,
    Theta,
    fit_ml,
    fit_reml,
    loglik_ml,
    loglik_reml,
    merge_summaries,
    privatize,
)
from fedlmm.privacy import calibrate
from fedlmm.summaries import compute_summary

sys.path.insert(0, str(Path(__file__).parent))
from oracles import random_sites  # noqa: E402

PROPERTIES = ("shift", "scale", "order")
_RTOL = 1e-9


def _reordered(sset, order) -> FederatedSummarySet:
    return FederatedSummarySet(
        tuple(sset.site_ids[k] for k in order), sset.n[order], sset.S[order], sset.T[order],
        tuple(sset.budget_used[k] for k in order),
    )


def _congruent(sset, L) -> FederatedSummarySet:
    S, T = (L @ M @ L.T for M in (sset.S, sset.T))
    return FederatedSummarySet(sset.site_ids, sset.n, (S + S.swapaxes(1, 2)) / 2,
                               (T + T.swapaxes(1, 2)) / 2, sset.budget_used)


def _close(value: float, expected: float) -> bool:
    return bool(abs(value - expected) <= _RTOL * (1.0 + abs(expected)))


def equivariance(sset, reml: bool, a, k: int, order) -> dict[str, bool]:
    """For each transform of ``sset``, whether its fit holds the property the module defines."""
    fit = fit_reml if reml else fit_ml
    base = fit(sset)

    def objective(beta, sigma2, tau2):  # on the base summaries
        if reml:
            return loglik_reml(sigma2, tau2, sset)
        return loglik_ml(Theta(beta=beta, sigma2=sigma2, tau2=tau2), sset)

    p = sset.p
    shift = np.eye(p + 1)
    shift[0, 1:] = a
    m = sset.N - p if reml else sset.N
    cases = {  # transformed set, objective offset, map of its fit's parameters back
        "shift": (_congruent(sset, shift), 0.0, lambda b, s2, t2: (b - a, s2, t2)),
        "scale": (_congruent(sset, np.diag([2.0 ** k] + [1.0] * p)), -m * k * math.log(2),
                  lambda b, s2, t2: (b / 2.0 ** k, s2 / 4.0 ** k, t2 / 4.0 ** k)),
        "order": (_reordered(sset, order), 0.0, lambda *theta: theta),
    }
    held = {}
    for name, (transformed, offset, back) in cases.items():
        try:
            got = fit(transformed)
            theta = back(got.theta_hat.beta, got.theta_hat.sigma2, got.theta_hat.tau2)
            held[name] = (_close(got.objective, base.objective + offset)
                          and _close(objective(*theta), base.objective))
        except FedLMMError:
            held[name] = False
    return held


def _exact_set(K: int, p: int, data_seed: int) -> FederatedSummarySet:
    rng = np.random.default_rng(data_seed)
    return merge_summaries([compute_summary(s) for s in random_sites(rng, K=K, p=p, n_range=(1, 8))])


def _private_set(K: int, p: int, data_seed: int, eps0: float, noise_seed: int) -> FederatedSummarySet:
    sset = _exact_set(K, p, data_seed)
    return privatize(sset, calibrate(eps0, delta=1.0 / sset.N, p=p), rng_seed=noise_seed)


def _fits_by_profile(sset, reml: bool) -> bool:
    try:
        return (fit_reml if reml else fit_ml)(sset).search == "profile"
    except FedLMMError:
        return False


_SHARED = dict(K=st.integers(2, 60), p=st.integers(1, 4), data_seed=st.integers(0, 2**32 - 1),
               k=st.integers(-10, 10), data=st.data())


def _shift_and_order(data, K, p):
    a = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=p, max_size=p)))
    return a, data.draw(st.permutations(range(K)))


@settings(max_examples=40, deadline=None)
@given(reml=st.booleans(), **_SHARED)
def test_exact_fit_is_equivariant(K, p, data_seed, k, data, reml):
    sset = _exact_set(K, p, data_seed)
    assume(_fits_by_profile(sset, reml))
    a, order = _shift_and_order(data, K, p)
    assert equivariance(sset, reml, a, k, order) == dict.fromkeys(PROPERTIES, True)


@settings(max_examples=40, deadline=None)
@given(eps0=st.floats(2.0, 16.0), noise_seed=st.integers(0, 2**32 - 1), **_SHARED)
def test_private_profile_fit_is_equivariant(K, p, data_seed, k, data, eps0, noise_seed):
    sset = _private_set(K, p, data_seed, eps0, noise_seed)
    assume(_fits_by_profile(sset, reml=False))
    a, order = _shift_and_order(data, K, p)
    assert equivariance(sset, False, a, k, order) == dict.fromkeys(PROPERTIES, True)


def nelder_mead_census(seeds=range(40), eps0_grid=(2.0, 4.0, 8.0, 16.0)) -> dict:
    """Per eps0: private ML fits that take the 2-D search, and how many break each property.

    Seed s draws K in 2..60, p in 1..4, the data, a in [-4, 4]^p, k in
    -10..10 and a site order from ``default_rng(s)``, as the tests do.
    """
    counts = {eps0: dict(fits=0, **dict.fromkeys(PROPERTIES, 0)) for eps0 in eps0_grid}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        K, p = int(rng.integers(2, 61)), int(rng.integers(1, 5))
        data_seed, k = int(rng.integers(2**32)), int(rng.integers(-10, 11))
        a, order = rng.uniform(-4.0, 4.0, size=p), rng.permutation(K)
        for eps0 in eps0_grid:
            sset = _private_set(K, p, data_seed, eps0, noise_seed=seed)
            try:
                if fit_ml(sset).search != "nelder-mead":
                    continue
            except FedLMMError:
                continue
            counts[eps0]["fits"] += 1
            for name, held in equivariance(sset, False, a, k, order).items():
                counts[eps0][name] += not held
    return counts


if __name__ == "__main__":
    print("eps0  2-D fits  " + "  ".join(f"{name} broken" for name in PROPERTIES))
    for eps0, row in nelder_mead_census().items():
        print(f"{eps0:4g}  {row['fits']:8d}  " + "  ".join(f"{row[name]:{len(name) + 7}d}" for name in PROPERTIES))
