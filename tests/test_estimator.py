import numpy as np
import pytest

from fedlmm import (
    SingularDesignError,
    SiteData,
    Theta,
    ValidationError,
    compute_summary,
    fit_ml,
    fit_reml,
    loglik_ml,
    loglik_reml,
    merge_summaries,
    privatize,
    profile_beta,
    standardize,
)
from fedlmm.privacy import calibrate
from fedlmm import simulation

from oracles import (
    dense_gls_beta,
    dense_loglik_ml,
    dense_loglik_reml,
    random_sites,
    sherman_morrison_gls,
    stacked_profile,
)


def _summaries(sites):
    return merge_summaries([compute_summary(s) for s in sites])


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def _eps2_private_summaries():
    """K=20 sites released at eps0=2, whose profiled deviance is not well posed."""
    rng = np.random.default_rng(3)
    summ = _summaries(random_sites(rng, K=20, n_range=(3, 8), p=3, tau2=0.8))
    budget = calibrate(2.0, delta=0.01, p=summ.p)
    return privatize(summ, budget, rng_seed=5)


class TestLoglikML:
    def test_matches_dense_oracle_random_instances(self, rng):
        for _ in range(30):
            sites = random_sites(rng)
            summ = _summaries(sites)
            p = sites[0].p
            for _ in range(3):
                theta = Theta(
                    beta=rng.normal(size=p),
                    sigma2=float(rng.uniform(0.2, 3.0)),
                    tau2=float(rng.uniform(0.0, 2.0)),
                )
                got = loglik_ml(theta, summ)
                want = dense_loglik_ml(theta.beta, theta.sigma2, theta.tau2, sites)
                assert _rel_close(got, want, 1e-9)

    def test_tau_zero_reduces_to_ols_loglik(self, rng):
        sites = random_sites(rng, K=3)
        summ = _summaries(sites)
        p = sites[0].p
        beta = rng.normal(size=p)
        sigma2 = 1.4
        y = np.concatenate([s.y for s in sites])
        X = np.concatenate([s.X for s in sites])
        rss = float(((y - X @ beta) ** 2).sum())
        want = -0.5 * (len(y) * np.log(sigma2) + rss / sigma2)
        got = loglik_ml(Theta(beta=beta, sigma2=sigma2, tau2=0.0), summ)
        assert _rel_close(got, want, 1e-12)

    def test_single_observation_zero(self):
        summ = _summaries([SiteData(site_id="one", y=[0.0], X=[[1.0]])])
        value = loglik_ml(Theta(beta=[0.0], sigma2=1.0, tau2=0.0), summ)
        assert value == 0.0

    def test_beta_dimension_mismatch(self, rng):
        summ = _summaries(random_sites(rng, K=2, p=3))
        with pytest.raises(ValidationError, match="length"):
            loglik_ml(Theta(beta=[0.0, 0.0], sigma2=1.0, tau2=0.0), summ)

    def test_theta_validation(self):
        with pytest.raises(ValidationError):
            Theta(beta=[0.0], sigma2=0.0, tau2=0.0)
        with pytest.raises(ValidationError):
            Theta(beta=[0.0], sigma2=1.0, tau2=-0.1)
        for beta in ([0.0, np.nan], [np.inf], []):
            with pytest.raises(ValidationError, match="^beta must be a finite vector$"):
                Theta(beta=beta, sigma2=1.0, tau2=0.0)


class TestProfileBeta:
    def test_tau_zero_equals_pooled_ols(self, rng):
        sites = random_sites(rng, K=4)
        summ = _summaries(sites)
        beta, _, _ = profile_beta(2.3, 0.0, summ)
        y = np.concatenate([s.y for s in sites])
        X = np.concatenate([s.X for s in sites])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(beta, ols, rtol=1e-9)

    def test_matches_dense_gls(self, rng):
        for _ in range(10):
            sites = random_sites(rng)
            summ = _summaries(sites)
            sigma2 = float(rng.uniform(0.3, 2.5))
            tau2 = float(rng.uniform(0.0, 1.5))
            beta, W_sum, Q_sum = profile_beta(sigma2, tau2, summ)
            np.testing.assert_allclose(beta, dense_gls_beta(sigma2, tau2, sites), rtol=1e-9)
            np.testing.assert_allclose(W_sum @ beta, Q_sum, rtol=1e-9)

    def test_single_site_orthonormal_columns(self):
        # hand instance: 3 rows, 2 orthonormal design columns
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        y = np.array([2.0, -1.0, 0.5])
        sigma2, tau2 = 1.2, 0.8
        summ = _summaries([SiteData(site_id="solo", y=y, X=X)])
        beta, _, _ = profile_beta(sigma2, tau2, summ)
        np.testing.assert_allclose(beta, sherman_morrison_gls(y, X, sigma2, tau2), rtol=1e-10)

    def test_singular_design_error(self, rng):
        n = 6
        base = rng.normal(size=n)
        X = np.column_stack([base, 2.0 * base])  # collinear
        sites = [SiteData(site_id="s", y=rng.normal(size=n), X=X)]
        with pytest.raises(SingularDesignError) as err:
            profile_beta(1.0, 0.0, _summaries(sites))
        assert err.value.condition_number > 1e12  # inf included


def _kernel_outcome(evaluate):
    """An evaluation's value, or the condition number of its SingularDesignError."""
    try:
        return False, evaluate()
    except SingularDesignError as err:
        return True, err.condition_number


class TestKernelBitIdentity:
    """The kernel's cached layout and single shrinkage change no bit of the profile."""

    @staticmethod
    def _instances(rng):
        exact = [_summaries(random_sites(rng, K=int(rng.integers(3, 30)), p=p))
                 for p in (1, 2, 3, 4)]
        scenario = simulation.Scenario("ri-correct", K=200)
        sites = simulation.generate(scenario, seed=11)
        study = _summaries(standardize(sites, names=scenario.design_columns)[0])
        private = [
            privatize(summ, calibrate(eps0, delta=0.01, p=summ.p), rng_seed=seed)
            for eps0, seed, summ in ((4.0, 1, study), (8.0, 2, exact[2]), (16.0, 3, exact[3]))
        ]
        n = 6
        base = rng.normal(size=n)
        collinear = _summaries([SiteData(site_id=f"s{k}", y=rng.normal(size=n),
                                         X=np.column_stack([base, 2.0 * base])) for k in range(3)])
        unprivatized = exact + [study, collinear]
        return [(summ, True) for summ in unprivatized] + [(summ, False) for summ in private]

    def test_profile_matches_stacked_reference_bitwise(self, rng):
        from fedlmm.estimator import _Kernel

        points = []  # (summaries, sigma2, tau2, reml)
        for summ, exact in self._instances(rng):
            scale = _Kernel(summ).scale()
            for _ in range(16):
                sigma2 = scale * float(np.exp(rng.uniform(-4.0, 3.0)))
                tau2 = 0.0 if rng.uniform() < 0.2 else scale * float(np.exp(rng.uniform(-6.0, 4.0)))
                points.append((summ, sigma2, tau2, exact and rng.uniform() < 0.5))
        # the eps0=2 ridge: cond(sum_k W_k) crosses 1e12 within 1e-9 of the fit
        ridge = _eps2_private_summaries()
        fit = fit_ml(ridge)
        for d in np.concatenate([-np.logspace(-13, -8, 30), np.logspace(-13, -8, 30)]):
            points.append((ridge, fit.theta_hat.sigma2, fit.theta_hat.tau2 * (1.0 + d), False))
            points.append((ridge, fit.theta_hat.sigma2 * (1.0 + d), fit.theta_hat.tau2, False))

        singular = 0
        for summ, sigma2, tau2, reml in points:
            kernel = _Kernel(summ)
            failed, got = _kernel_outcome(lambda: kernel.profile_value(sigma2, tau2, reml=reml))
            ref_failed, ref = _kernel_outcome(
                lambda: stacked_profile(summ, sigma2, tau2, reml=reml))
            assert failed == ref_failed
            singular += failed
            if failed:
                assert got == ref  # the same condition number, inf included
                continue
            assert got[0] == ref[0]
            assert np.array_equal(got[1], ref[1])
            beta, W_sum, Q_sum = kernel.profile_beta(sigma2, tau2)
            for mine, theirs in zip((beta, W_sum, Q_sum), ref[1:]):
                assert np.array_equal(mine, theirs)
        assert len(points) >= 200
        assert 20 <= singular <= len(points) - 100


def test_search_space_decode_large_log_sigma2():
    """Past exp(709) decode rejects without calling np.exp, unless the box reaches there."""
    import warnings

    from fedlmm.estimator import _SearchSpace

    box = _SearchSpace(sigma2_lo=1e-8, sigma2_hi=1e8, tau2_hi=1e8)
    top = float(np.finfo(float).max)
    huge = _SearchSpace(sigma2_lo=1e-8, sigma2_hi=top, tau2_hi=top)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in np.exp would raise here
        assert box.decode(np.array([709.5, 0.0])) is None
        assert box.decode(np.array([1e6])) is None
        assert box.decode(np.array([np.nan, 0.0])) is None
        assert huge.decode(np.array([709.5])) == (float(np.exp(709.5)), 0.0)
        assert huge.decode(np.array([1e6, 0.0])) is None
    assert box.decode(np.array([0.0, 0.0])) == (1.0, float(np.logaddexp(0.0, 0.0)))


class TestFitML:
    def test_recovers_truth_at_many_sites(self):
        scenario = simulation.Scenario("ri-correct", K=200)
        sites = simulation.generate(scenario, seed=11)
        fit = fit_ml(_summaries(sites))
        assert fit.converged
        assert np.linalg.norm(fit.theta_hat.beta - scenario.beta0_analysis) < 0.2
        assert abs(fit.theta_hat.sigma2 - 1.0) < 0.25
        assert abs(fit.theta_hat.tau2 - 1.0) < 0.5

    def test_boundary_tau_majority_when_no_site_effects(self):
        scenario = simulation.Scenario("ri-correct", tau2=0.0, K=40)
        hits = 0
        for rep in range(11):
            sites = simulation.generate(scenario, seed=300 + rep)
            fit = fit_ml(_summaries(sites))
            if fit.boundary_tau:
                assert fit.theta_hat.tau2 == 0.0
                hits += 1
        assert hits >= 6

    def test_noise_continuity_to_private_fit(self, rng):
        sites = random_sites(rng, K=30, n_range=(3, 8), p=3, tau2=0.8)
        summ = _summaries(sites)
        base = fit_ml(summ)
        dists = []
        for eps0 in (1e2, 1e3, 1e4):
            budget = calibrate(eps0, delta=0.01, p=summ.p)
            noisy = privatize(summ, budget, rng_seed=99)
            fit = fit_ml(noisy)
            dists.append(np.linalg.norm(fit.theta_hat.beta - base.theta_hat.beta))
        assert dists[0] > dists[1] > dists[2]
        assert dists[-1] < 1e-3

    def test_requires_two_sites(self, rng):
        summ = _summaries(random_sites(rng, K=2)[:1])
        with pytest.raises(ValidationError, match="2 sites"):
            fit_ml(summ)
        with pytest.raises(ValidationError, match="2 sites"):
            fit_reml(summ)

    def test_nonconvergence_is_flagged(self, rng, monkeypatch):
        from fedlmm import estimator

        monkeypatch.setattr(estimator, "_MAX_EVALS", 3)
        summ = _summaries(random_sites(rng, K=5))
        fit = fit_ml(summ)
        assert not fit.converged
        # the 2-D search runs out of the same budget
        fit = fit_ml(_eps2_private_summaries())
        assert fit.search == "nelder-mead" and not fit.converged

    def test_profile_optimality(self, rng):
        sites = random_sites(rng, K=12, n_range=(2, 6), p=3)
        summ = _summaries(sites)
        fit = fit_ml(summ)
        base = loglik_ml(fit.theta_hat, summ)
        theta = fit.theta_hat
        for j in range(summ.p):
            for delta in (1e-4, -1e-4):
                beta = theta.beta.copy()
                beta[j] += delta
                perturbed = loglik_ml(
                    Theta(beta=beta, sigma2=theta.sigma2, tau2=theta.tau2), summ
                )
                assert perturbed <= base + 1e-9 * (1.0 + abs(base))

    def test_interior_gradient_small(self, rng):
        sites = random_sites(rng, K=80, n_range=(3, 8), p=2, sigma2=1.0, tau2=1.0)
        summ = _summaries(sites)
        fit = fit_ml(summ)
        assert fit.converged
        if fit.boundary_tau:
            pytest.skip("boundary optimum; gradient check is interior-only")
        from fedlmm.estimator import _Kernel

        kernel = _Kernel(summ)
        s2, t2 = fit.theta_hat.sigma2, fit.theta_hat.tau2
        grad = []
        for i, val in enumerate((s2, t2)):
            h = 1e-5 * (1.0 + abs(val))
            args_hi = (s2 + h, t2) if i == 0 else (s2, t2 + h)
            args_lo = (s2 - h, t2) if i == 0 else (s2, t2 - h)
            grad.append((kernel.profile_value(*args_hi)[0] - kernel.profile_value(*args_lo)[0]) / (2 * h))
        assert np.linalg.norm(grad) <= 1e-4

    def test_profiled_search_matches_nelder_mead(self, rng):
        # Both searches compare objective values, which pins the variance
        # ratio down to about sqrt(machine eps); within that beta still moves
        # by up to ~2e-8 on these small instances, so the maxima are compared
        # at 1e-12 and beta at 1e-7.
        from fedlmm.estimator import _Kernel, _nelder_mead_search

        for _ in range(30):
            summ = _summaries(random_sites(rng))
            fit = fit_ml(summ)
            assert fit.search == "profile" and fit.converged
            sigma2, tau2, value, _, _, boundary = _nelder_mead_search(_Kernel(summ), reml=False)
            assert fit.boundary_tau == boundary
            assert _rel_close(fit.objective, value, 1e-12)
            beta_nm, _, _ = profile_beta(sigma2, tau2, summ)
            np.testing.assert_allclose(fit.theta_hat.beta, beta_nm, rtol=0.0, atol=1e-7)

    def test_unbounded_private_profile_keeps_nelder_mead(self):
        # At eps0=2 the noise turns sum_k W_k indefinite at large variance
        # ratios, so the profiled deviance is not well posed and the 2-D search
        # runs unchanged; it lands on the cond(W) ~ 1e12 ridge behind criterion
        # 7's SE blow-up.  The digits on that ridge depend on the BLAS build,
        # so the recorded values are checked loosely and the unchanged path
        # bit for bit against a direct call on this machine.
        from fedlmm.estimator import _Kernel, _nelder_mead_search

        noisy = _eps2_private_summaries()
        fit = fit_ml(noisy)
        assert fit.search == "nelder-mead" and fit.converged
        kernel = _Kernel(noisy)
        sigma2, tau2, value, converged, n_evals, boundary = _nelder_mead_search(kernel, reml=False)
        beta, _, _ = kernel.profile_beta(sigma2, tau2)
        assert fit.theta_hat.beta.tobytes() == beta.tobytes()
        assert (fit.theta_hat.sigma2, fit.theta_hat.tau2, fit.objective) == (sigma2, tau2, value)
        assert (fit.converged, fit.iterations, fit.boundary_tau) == (converged, n_evals, boundary)
        np.testing.assert_allclose(
            fit.theta_hat.beta, [148194424727.00513, -7405299450.560916, 3650260829.2302136], rtol=1e-2
        )
        np.testing.assert_allclose(
            [fit.theta_hat.sigma2, fit.theta_hat.tau2, fit.objective],
            [0.06885131767661216, 0.9268431408985812, 18213684284667.28],
            rtol=1e-2,
        )

    def test_reparameterization_invariance(self, rng):
        sites = random_sites(rng, K=25, n_range=(2, 7), p=3, tau2=0.7)
        fit_raw = fit_ml(_summaries(sites))
        std, record = standardize(sites)
        fit_std = fit_ml(_summaries(std))
        beta_back = record.beta_to_original(fit_std.theta_hat.beta)
        np.testing.assert_allclose(beta_back, fit_raw.theta_hat.beta, atol=1e-6, rtol=1e-6)


class TestFitREML:
    @staticmethod
    def _one_way(rng, site_sd, K=15, n=5):
        """Balanced one-way sites and the classical ANOVA (sigma2, tau2) estimators."""
        sites = []
        for k in range(K):
            y = 1.5 + rng.normal(0, site_sd) + rng.normal(0, 0.8, n)
            sites.append(SiteData(site_id=f"g{k}", y=y, X=np.ones((n, 1))))
        site_means = np.array([s.y.mean() for s in sites])
        grand = np.concatenate([s.y for s in sites]).mean()
        msb = n * ((site_means - grand) ** 2).sum() / (K - 1)
        msw = sum(((s.y - s.y.mean()) ** 2).sum() for s in sites) / (K * (n - 1))
        return sites, msw, max(0.0, (msb - msw) / n)

    def test_balanced_one_way_matches_anova_oracle(self, rng):
        sites, msw, tau2_anova = self._one_way(rng, site_sd=1.0)
        fit = fit_reml(_summaries(sites))
        # the ANOVA estimators are the REML solution when interior
        assert abs(fit.theta_hat.sigma2 - msw) < 1e-6 * (1 + msw)
        assert abs(fit.theta_hat.tau2 - tau2_anova) < 1e-6 * (1 + tau2_anova)

    def test_ratio_above_grid_falls_back_to_nelder_mead(self, rng):
        # tau2/sigma2 ~ 1e6 lies above the profiled grid (e^10), so the 2-D
        # search fits it; its stopping rule leaves ~2e-5 relative error here.
        sites, msw, tau2_anova = self._one_way(rng, site_sd=1000.0)
        fit = fit_reml(_summaries(sites))
        assert fit.search == "nelder-mead"
        assert tau2_anova / msw > 1e5
        np.testing.assert_allclose([fit.theta_hat.sigma2, fit.theta_hat.tau2], [msw, tau2_anova], rtol=1e-4)

    def test_reml_objective_matches_dense_oracle(self, rng):
        for _ in range(10):
            sites = random_sites(rng)
            summ = _summaries(sites)
            sigma2 = float(rng.uniform(0.4, 2.0))
            tau2 = float(rng.uniform(0.0, 1.0))
            got = loglik_reml(sigma2, tau2, summ)
            want = dense_loglik_reml(sigma2, tau2, sites)
            assert _rel_close(got, want, 1e-9)

    def test_reaches_local_maximum_of_reml_objective(self, rng):
        for _ in range(20):
            summ = _summaries(random_sites(rng))
            fit = fit_reml(summ)
            assert fit.search == "profile" and fit.converged
            s2, t2, value = fit.theta_hat.sigma2, fit.theta_hat.tau2, fit.objective
            assert _rel_close(loglik_reml(s2, t2, summ), value, 1e-10)
            assert fit.boundary_tau == (t2 == 0.0)
            for f_s2, d_t2 in ((1.0001, 0.0), (0.9999, 0.0), (1.0, 1e-4), (1.0, -1e-4)):
                t2_near = t2 + d_t2 * (1.0 + t2)
                if t2_near >= 0.0:
                    assert loglik_reml(s2 * f_s2, t2_near, summ) <= value + 1e-12 * (1.0 + abs(value))

    def test_singular_design_error(self, rng):
        sites = []
        for k in range(3):
            base = rng.normal(size=5)
            sites.append(SiteData(site_id=f"s{k}", y=rng.normal(size=5), X=np.column_stack([base, 2.0 * base])))
        with pytest.raises(SingularDesignError):
            fit_reml(_summaries(sites))

    def test_refuses_privatized(self, rng):
        summ = _summaries(random_sites(rng, K=3))
        budget = calibrate(8.0, delta=0.01, p=summ.p)
        noisy = privatize(summ, budget, rng_seed=1)
        with pytest.raises(ValidationError, match="determinant amplification"):
            fit_reml(noisy)


class TestProfiledSearch:
    @staticmethod
    def _shifted(shift):
        """K=20 sites of 30 rows: y = shift + x + 0.01 b_k + 0.01 e, so sigma2 ~ tau2 ~ 1e-4."""
        rng = np.random.default_rng(5)
        sites = []
        for k in range(20):
            x, b, e = rng.normal(size=30), rng.normal(), rng.normal(size=30)
            sites.append(SiteData(site_id=f"s{k}", y=shift + x + 0.01 * b + 0.01 * e,
                                  X=np.column_stack([np.ones(30), x])))
        return _summaries(sites)

    @pytest.mark.parametrize("fit", [fit_ml, fit_reml])
    def test_shift_keeps_the_profile_below_the_box_floor(self, fit):
        # At shift 1000 sigma2 lies under the Nelder-Mead box floor 1e-8 * y'y/N
        # ~ 1e-2; the profile's closed-form sigma2 is not held to that box.
        base, shifted = fit(self._shifted(0.0)), fit(self._shifted(1000.0))
        assert base.search == "profile"
        assert (shifted.search, shifted.boundary_tau) == ("profile", False)
        assert shifted.theta_hat.sigma2 == pytest.approx(base.theta_hat.sigma2, rel=1e-3)
        assert shifted.theta_hat.tau2 == pytest.approx(base.theta_hat.tau2, rel=2e-2)

    @staticmethod
    def _profiled_objectives(summ, reml):
        """The profiled objective at gamma = 0 and at each well-posed gamma of a 0.05-step log grid."""
        from fedlmm.estimator import _IllPosed, _Kernel

        kernel = _Kernel(summ)
        m = kernel.N - kernel.p if reml else kernel.N
        gammas = np.concatenate(([0.0], np.exp(np.arange(-16.0, 10.0 + 1e-9, 0.05))))
        try:
            dev = kernel.grid_deviance(gammas, reml)[0]
        except _IllPosed:  # keep the well-posed gammas only
            dev = []
            for gamma in gammas:
                try:
                    dev.append(kernel.grid_deviance(np.array([gamma]), reml)[0][0])
                except _IllPosed:
                    pass
        return -0.5 * (np.asarray(dev) + m * (1.0 - np.log(m)))

    def test_optimality_certificate(self):
        """Every profiled fit tops its profiled objective over the fine grid and gamma = 0."""
        fits = []
        rng = np.random.default_rng(2024)
        for _ in range(150):
            summ = _summaries(random_sites(rng))
            for reml, fit in ((False, fit_ml), (True, fit_reml)):
                try:
                    fits.append((summ, reml, fit(summ)))
                except SingularDesignError:
                    pass
        rng = np.random.default_rng(2024)
        for i in range(24):
            summ = _summaries(random_sites(rng, K=30, n_range=(3, 8), p=3, tau2=0.8))
            for eps0 in (32.0, 128.0, 512.0, 2048.0):
                noisy = privatize(summ, calibrate(eps0, delta=0.01, p=summ.p), rng_seed=i)
                fits.append((noisy, False, fit_ml(noisy)))
        profiled = [(summ, reml, fit) for summ, reml, fit in fits if fit.search == "profile"]
        # 148 exact ML, 149 exact REML and 44 private ML fits take the profile
        kinds = [(summ.any_privatized, reml) for summ, reml, _ in profiled]
        assert min(kinds.count((False, False)), kinds.count((False, True))) >= 140
        assert kinds.count((True, False)) >= 40
        for summ, reml, fit in profiled:
            top = self._profiled_objectives(summ, reml).max()
            assert top <= fit.objective + 1e-10 * (1.0 + abs(fit.objective))


class TestVarianceComponentDomain:
    """sigma2 and tau2 must be finite real numbers in range; a bool, a string or None is refused."""

    @pytest.mark.parametrize("sigma2, tau2, name", [
        (True, 0.0, "sigma2"), (1.0, False, "tau2"), ("1", 0.0, "sigma2"), (1.0, None, "tau2"),
        (None, 0.5, "sigma2"), (np.nan, 0.0, "sigma2"), (1.0, np.inf, "tau2"),
    ])
    def test_refused_with_a_named_error(self, rng, sigma2, tau2, name):
        summ = _summaries(random_sites(rng, K=3, p=3))
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            Theta(beta=[1.0] * 3, sigma2=sigma2, tau2=tau2)
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            profile_beta(sigma2, tau2, summ)
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            loglik_reml(sigma2, tau2, summ)

    def test_numpy_numbers_are_accepted(self, rng):
        summ = _summaries(random_sites(rng, K=3, p=3))
        theta = Theta(beta=[1.0] * 3, sigma2=np.float64(1.5), tau2=np.float32(0.5))
        assert (theta.sigma2, theta.tau2) == (1.5, 0.5)
        got = profile_beta(np.float64(1.5), np.int64(0), summ)[0]
        assert got.tobytes() == profile_beta(1.5, 0.0, summ)[0].tobytes()


def _scipy_nelder_mead(f, x0, maxfev):
    """scipy's Nelder-Mead at the estimator's tolerances: (x, fun, nfev, success)."""
    from scipy import optimize

    from fedlmm import estimator

    res = optimize.minimize(f, np.array(x0, dtype=float), method="Nelder-Mead", options={
        "xatol": estimator._PARAM_TOL, "fatol": estimator._OBJECTIVE_TOL, "maxfev": maxfev})
    return res.x, res.fun, res.nfev, res.success


def _plateau(x):
    """A quadratic whose minimum lies in a flat _PENALTY region, so penalized vertices tie."""
    from fedlmm.estimator import _PENALTY

    return _PENALTY if x[0] + x[1] > 1.0 else (x[0] - 0.4) ** 2 + (x[1] - 0.8) ** 2


_TEST_FUNCTIONS = {
    "quadratic": (lambda x: (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 2.0) ** 2 + x[0] * x[1], [0.3, 0.0]),
    "rosenbrock": (lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2, [-1.2, 1.0]),
    "one-dimensional": (lambda x: (x[0] - 2.5) ** 4 + np.cos(x[0]), [0.0]),
    # two of the three first vertices are penalized and tie at once
    "plateau-edge": (_plateau, [0.5, 0.5]),
    # every vertex is penalized: the simplex shrinks on the plateau until it collapses
    "plateau": (_plateau, [2.0, 2.0]),
}


class TestNelderMeadLoop:
    """The in-house loop takes scipy's steps: the same x bit for bit, fun, nfev and success."""

    @staticmethod
    def _assert_same(mine, theirs):
        x, fun, nfev, success = mine
        assert np.array(x, dtype=float).tobytes() == theirs[0].tobytes()
        assert (fun, nfev, success) == (theirs[1], theirs[2], bool(theirs[3]))

    @pytest.mark.parametrize("name", list(_TEST_FUNCTIONS))
    def test_matches_scipy(self, name):
        from fedlmm.estimator import _MAX_EVALS, _PENALTY, _nelder_mead

        f, x0 = _TEST_FUNCTIONS[name]
        values = []
        got = _nelder_mead(lambda x: values.append(f(x)) or values[-1], x0)
        self._assert_same(got, _scipy_nelder_mead(f, x0, _MAX_EVALS))
        assert got[3]
        if name.startswith("plateau"):
            assert values.count(_PENALTY) >= 2

    @pytest.mark.parametrize("name", ["rosenbrock", "plateau", "one-dimensional"])
    def test_capped_run_matches_scipy(self, monkeypatch, name):
        # caps from 38 to 45 stop the plateau run at every step of one iteration:
        # the reflection, the inside contraction, and each vertex of the shrink
        from fedlmm import estimator

        f, x0 = _TEST_FUNCTIONS[name]
        for cap in range(38, 46):
            monkeypatch.setattr(estimator, "_MAX_EVALS", cap)
            got = estimator._nelder_mead(f, x0)
            self._assert_same(got, _scipy_nelder_mead(f, x0, cap))
            assert got[2] == cap and not got[3]

    @staticmethod
    def _ridge_runs(monkeypatch):
        """The objective and start of each Nelder-Mead run of the eps0 = 2 ridge fit."""
        from fedlmm import estimator

        runs, loop = [], estimator._nelder_mead
        monkeypatch.setattr(estimator, "_nelder_mead",
                            lambda f, x0: runs.append((f, list(x0))) or loop(f, x0))
        fit = fit_ml(_eps2_private_summaries())
        monkeypatch.setattr(estimator, "_nelder_mead", loop)
        assert fit.search == "nelder-mead"
        assert [len(x0) for _, x0 in runs] == [2, 2, 2, 1]  # three starts, then the tau2 = 0 edge
        return runs

    def test_ridge_starts_match_scipy(self, monkeypatch):
        from fedlmm.estimator import _MAX_EVALS, _nelder_mead

        for f, x0 in self._ridge_runs(monkeypatch):
            self._assert_same(_nelder_mead(f, x0), _scipy_nelder_mead(f, x0, _MAX_EVALS))

    def test_capped_ridge_starts_match_scipy(self, monkeypatch):
        from fedlmm import estimator

        runs = self._ridge_runs(monkeypatch)
        monkeypatch.setattr(estimator, "_MAX_EVALS", 40)
        for f, x0 in runs:
            got = estimator._nelder_mead(f, x0)
            self._assert_same(got, _scipy_nelder_mead(f, x0, 40))
            assert got[2] == 40 and not got[3]


def _svd_condition_check(matrix):
    """The condition check by SVD alone: None when it passes, else the cond in its error."""
    from fedlmm.estimator import _COND_LIMIT

    s = np.linalg.svd(matrix, compute_uv=False)
    s_min = float(s[-1])
    cond = float(s[0]) / s_min if s_min > 0 else np.inf
    if not cond <= _COND_LIMIT:
        return np.inf if np.isnan(cond) else cond
    return None


def _check_outcome(check, matrix):
    """What a check does on a matrix: None, the cond it refuses at, or the error type it raises."""
    try:
        return check(matrix)
    except SingularDesignError as err:
        return err.condition_number
    except np.linalg.LinAlgError as err:
        return type(err)


def _conditioned_matrices(rng, count):
    """Symmetric matrices, p = 1..7, with cond log-uniform in [1, 1e14], most in [1e9, 1e13].

    Half are rotated (dense), half nearly diagonal, some indefinite; each
    also comes with an off-diagonal entry one ulp up, and with a NaN or an
    inf entry.
    """
    for _ in range(count):
        p = int(rng.integers(1, 8))
        log_cond = rng.uniform(9.0, 13.0) if rng.uniform() < 0.6 else rng.uniform(0.0, 14.0)
        lam = np.logspace(0.0, -log_cond, p) * 10.0 ** rng.uniform(-100.0, 100.0)
        if rng.uniform() < 0.1:
            lam[rng.integers(p)] *= -1.0
        if rng.uniform() < 0.5:
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            matrix = (q * lam) @ q.T
        else:
            root = np.sqrt(np.abs(lam))
            off = rng.normal(size=(p, p)) * np.outer(root, root) * 10.0 ** rng.uniform(-8.0, 0.0)
            matrix = np.diag(rng.permutation(lam)) + off - np.diag(np.diag(off))
        matrix = (matrix + matrix.T) / 2.0
        yield matrix
        i, j = rng.integers(p, size=2)
        if i != j:
            asymmetric = matrix.copy()
            asymmetric[i, j] = np.nextafter(asymmetric[i, j], np.inf)
            yield asymmetric
        broken = matrix.copy()
        broken[i, j] = rng.choice([np.nan, np.inf, -np.inf])
        yield broken


class TestConditionCertificate:
    """The bound before the SVD changes no outcome of the condition check."""

    def test_matches_svd_only_check(self, rng, monkeypatch):
        from fedlmm.estimator import require_well_conditioned

        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        certified = refused = 0
        for matrix in _conditioned_matrices(rng, 600):
            before = len(calls)
            got = _check_outcome(lambda m: require_well_conditioned(m, "W"), matrix)
            certified += len(calls) == before  # passed on the bound alone
            assert got == _check_outcome(_svd_condition_check, matrix)  # the same cond, inf included
            refused += got is not None and np.isfinite(matrix).all()
        assert certified >= 100 and refused >= 100

    def test_diagonally_dominant_matrix_needs_no_svd(self, monkeypatch):
        from fedlmm.estimator import require_well_conditioned

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        require_well_conditioned(np.array([[4.0, 1.0, -1.0], [1.0, 5.0, 2.0], [-1.0, 2.0, 1e-6 + 3.0]]), "W")
        require_well_conditioned(np.array([[2.5]]), "W")
        with pytest.raises(AssertionError, match="SVD called"):  # near the wall, the SVD decides
            require_well_conditioned(np.diag([1.0, 1e-11]), "W")
