from dataclasses import replace

import numpy as np
import pytest

from fedlmm import (
    SingularDesignError,
    SiteData,
    Theta,
    RobustVariance,
    ValidationError,
    apply_correction,
    compute_summary,
    cr0,
    fit_ml,
    merge_summaries,
    profile_beta,
    wald_ci,
)
from fedlmm.variance import correction_factor

from oracles import Z_975, dense_cr0_sandwich, dense_gls_beta, random_sites


def _summaries(sites):
    return merge_summaries([compute_summary(s) for s in sites])


class TestCR0:
    def test_matches_dense_sandwich(self, rng):
        for hetero in (False, True):
            for _ in range(10):
                sites = random_sites(rng, heteroskedastic=hetero)
                summ = _summaries(sites)
                sigma2 = float(rng.uniform(0.4, 2.0))
                tau2 = float(rng.uniform(0.0, 1.2))
                beta = dense_gls_beta(sigma2, tau2, sites)
                got = cr0(summ, Theta(beta=beta, sigma2=sigma2, tau2=tau2)).V
                want = dense_cr0_sandwich(beta, sigma2, tau2, sites)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-14)

    def test_single_cluster_vanishes_at_optimum(self, rng):
        sites = random_sites(rng, K=1, n_range=(6, 6), p=2)
        summ = _summaries(sites)
        beta, _, _ = profile_beta(1.0, 0.3, summ)
        v = cr0(summ, Theta(beta=beta, sigma2=1.0, tau2=0.3))
        assert np.abs(v.V).max() < 1e-12

    def test_symmetry_and_nonnegative_diagonal(self, rng):
        sites = random_sites(rng, K=6)
        summ = _summaries(sites)
        fit = fit_ml(summ)
        v = cr0(summ, fit.theta_hat)
        assert np.abs(v.V - v.V.T).max() <= 1e-12 * max(np.abs(v.V).max(), 1e-300)
        assert (np.diag(v.V) >= 0).all()

    def test_close_to_model_based_when_correctly_specified(self):
        # homoskedastic balanced design, many sites: robust ~= model-based
        rng = np.random.default_rng(7)
        sites = []
        beta = np.array([1.0, -0.5])
        for k in range(300):
            X = np.column_stack([np.ones(4), rng.normal(size=4)])
            y = X @ beta + rng.normal(0, 0.7) + rng.normal(0, 1.0, 4)
            sites.append(SiteData(site_id=f"s{k}", y=y, X=X))
        summ = _summaries(sites)
        fit = fit_ml(summ)
        robust_se = cr0(summ, fit.theta_hat).se
        _, W_sum, _ = profile_beta(fit.theta_hat.sigma2, fit.theta_hat.tau2, summ)
        model_se = np.sqrt(np.diag(np.linalg.inv(W_sum)))
        np.testing.assert_allclose(robust_se, model_se, rtol=0.10)

    def test_beta_length_rejected(self, rng):
        summ = _summaries(random_sites(rng, K=3, p=2))
        theta = Theta(beta=np.zeros(3), sigma2=1.0, tau2=0.3)
        with pytest.raises(ValidationError, match="beta has length 3 but summaries have p=2"):
            cr0(summ, theta)

    def test_singular_bread(self, rng):
        sites = random_sites(rng, K=3, p=2)
        sites = [SiteData(site_id=s.site_id, y=s.y, X=np.column_stack([s.X, np.zeros(s.n)]))
                 for s in sites]
        theta = Theta(beta=np.zeros(3), sigma2=1.0, tau2=0.3)
        with pytest.raises(SingularDesignError, match="sandwich bread is numerically") as err:
            cr0(_summaries(sites), theta)
        assert err.value.condition_number == np.inf


class TestCorrections:
    def test_cr1p_factor(self):
        assert correction_factor("cr1p", K=20, N=100, p=7) == pytest.approx(20 / 13)

    def test_cr1s_factor(self):
        assert correction_factor("cr1s", K=20, N=100, p=7) == pytest.approx((20 * 99) / (19 * 93))

    def test_factors_approach_one(self):
        for name in ("cr1", "cr1p", "cr1s"):
            assert abs(correction_factor(name, K=10_000, N=80_000, p=7) - 1.0) <= 1e-2

    def test_cr1p_requires_enough_clusters(self):
        with pytest.raises(ValidationError):
            correction_factor("cr1p", K=7, N=100, p=7)

    @pytest.mark.parametrize("correction, K, N, message", [
        ("cr1", 1, 10, "CR1 needs at least 2 sites"),
        ("cr1s", 1, 10, r"CR1S needs K >= 2 and N > p \(got K=1, N=10, p=3\)"),
        ("cr1s", 5, 3, r"CR1S needs K >= 2 and N > p \(got K=5, N=3, p=3\)"),
        ("cr2", 5, 10, "unknown correction 'cr2'"),
    ], ids=["cr1-one-site", "cr1s-one-site", "cr1s-few-rows", "unknown"])
    def test_factor_refusals(self, correction, K, N, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            correction_factor(correction, K=K, N=N, p=3)

    @pytest.mark.parametrize("V, correction, message", [
        (np.eye(2), "cr2", "unknown correction 'cr2'"),
        ([[1.0, 0.5], [0.0, 1.0]], "cr0", "variance matrix must be symmetric"),
    ], ids=["unknown-correction", "asymmetric"])
    def test_robust_variance_refusals(self, V, correction, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RobustVariance(V=V, correction=correction, K=5, N=10)

    def test_monotone_diagonal(self, rng):
        sites = random_sites(rng, K=9, p=3)
        summ = _summaries(sites)
        fit = fit_ml(summ)
        v0 = cr0(summ, fit.theta_hat)
        v1 = apply_correction(v0, "cr1")
        v1p = apply_correction(v0, "cr1p")
        assert (np.diag(v1p.V) >= np.diag(v1.V) - 1e-15).all()
        assert (np.diag(v1.V) >= np.diag(v0.V) - 1e-15).all()

    def test_cr0_identity(self, rng):
        summ = _summaries(random_sites(rng, K=4))
        fit = fit_ml(summ)
        v = cr0(summ, fit.theta_hat)
        np.testing.assert_array_equal(apply_correction(v, "cr0").V, v.V)


class TestWaldCI:
    def _fit_v(self, rng):
        summ = _summaries(random_sites(rng, K=8))
        fit = fit_ml(summ)
        return fit, cr0(summ, fit.theta_hat)

    def test_normal_quantile(self, rng):
        fit, v = self._fit_v(rng)
        ci = wald_ci(fit, v, level=0.95)
        width = ci[:, 1] - ci[:, 0]
        np.testing.assert_allclose(width, 2 * Z_975 * v.se, atol=1e-4)

    def test_degenerate_se(self, rng):
        fit, v = self._fit_v(rng)
        zero = type(v)(V=np.zeros_like(v.V), correction="cr0", K=v.K, N=v.N)
        ci = wald_ci(fit, zero, level=0.95)
        np.testing.assert_array_equal(ci[:, 0], fit.theta_hat.beta)
        np.testing.assert_array_equal(ci[:, 1], fit.theta_hat.beta)

    def test_level_validation(self, rng):
        fit, v = self._fit_v(rng)
        with pytest.raises(ValidationError):
            wald_ci(fit, v, level=1.0)

    @pytest.mark.parametrize("use_t, want", [(False, 1.959963984540054), (True, 2.364624251592784)])
    def test_quantile_values(self, rng, use_t, want):
        fit, v = self._fit_v(rng)  # K = 8: t with 7 degrees of freedom
        origin = replace(fit, theta_hat=replace(fit.theta_hat, beta=np.zeros_like(fit.theta_hat.beta)))
        unit = RobustVariance(V=np.eye(len(v.V)), correction="cr0", K=v.K, N=v.N)
        ci = wald_ci(origin, unit, level=0.95, use_t=use_t)
        assert (ci[:, 1] == want).all() and (ci[:, 0] == -want).all()

    def test_t_quantile_needs_two_sites(self, rng):
        fit, v = self._fit_v(rng)
        with pytest.raises(ValidationError, match="^t quantile needs K >= 2$"):
            wald_ci(fit, replace(v, K=1), level=0.95, use_t=True)

    def test_t_quantile_wider(self, rng):
        fit, v = self._fit_v(rng)
        normal = wald_ci(fit, v, level=0.95)
        heavy = wald_ci(fit, v, level=0.95, use_t=True)
        assert ((heavy[:, 1] - heavy[:, 0]) >= (normal[:, 1] - normal[:, 0])).all()
