"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a PASS line
(visible with ``pytest -s``).  The replicated studies are session fixtures
shared across criteria 6-8; their wall time is charged against the
criterion with the matching budget.  Those three criteria carry the
``slow`` marker, so ``pytest -m "not slow"`` runs everything else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fedlmm import (
    FeasibilityInstance,
    SiteData,
    Theta,
    calibrate,
    compute_summary,
    cr0,
    enumerate_reconstructions,
    hamming_sorted,
    loglik_ml,
    loglik_reml,
    merge_summaries,
    privatize,
    profile_beta,
    reconstruct,
)
from fedlmm.cli import end_to_end, main, write_bundle_csv
from fedlmm.simulation import (
    Scenario,
    privacy_cost_slope,
    run_estimation_study,
    run_reconstruction_cell,
    se_calibration,
)

from oracles import (
    dense_cr0_sandwich,
    dense_loglik_ml,
    dense_loglik_reml,
    gram_fibers,
    random_sites,
)


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {text}")


@pytest.fixture(scope="module")
def instances():
    """200 random multi-site instances with K<=10, n_k<=8, p<=4."""
    rng = np.random.default_rng(91)
    out = []
    while len(out) < 200:
        sites = random_sites(rng, heteroskedastic=len(out) % 2 == 1)
        if sum(s.n for s in sites) < sites[0].p + 2:
            continue
        out.append(sites)
    return out


@pytest.fixture(scope="module")
def study_k():
    """ri-correct across K grid at eps0=16: criterion 6 (slope in K) and 8."""
    t0 = time.perf_counter()
    rows = {}
    for K in (20, 50, 100, 200):
        scenario = Scenario("ri-correct", K=K)
        rows[K] = run_estimation_study(
            scenario, [16.0], reps=500, seed=606, arms=("ipd", "dp"), workers=2
        )
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_eps():
    """ri-correct at K=200 across the eps0 grid: criteria 6 (slope in eps0) and 7."""
    t0 = time.perf_counter()
    scenario = Scenario("ri-correct", K=200)
    rows = run_estimation_study(
        scenario, [2.0, 4.0, 8.0, 12.0, 16.0, 20.0], reps=1000, seed=707,
        arms=("ipd", "dp"), workers=2,
    )
    return rows, time.perf_counter() - t0


def test_criterion_1_lossless_likelihood(instances):
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    worst_ml = worst_reml = 0.0
    for sites in instances:
        summ = merge_summaries([compute_summary(s) for s in sites])
        p = sites[0].p
        for _ in range(2):
            theta = Theta(
                beta=rng.normal(size=p),
                sigma2=float(rng.uniform(0.3, 2.5)),
                tau2=float(rng.uniform(0.0, 1.5)),
            )
            got = loglik_ml(theta, summ)
            want = dense_loglik_ml(theta.beta, theta.sigma2, theta.tau2, sites)
            worst_ml = max(worst_ml, abs(got - want) / (1.0 + abs(want)))
            sigma2 = float(rng.uniform(0.3, 2.5))
            tau2 = float(rng.uniform(0.0, 1.5))
            got_r = loglik_reml(sigma2, tau2, summ)
            want_r = dense_loglik_reml(sigma2, tau2, sites)
            worst_reml = max(worst_reml, abs(got_r - want_r) / (1.0 + abs(want_r)))
    elapsed = time.perf_counter() - t0
    assert worst_ml <= 1e-9
    assert worst_reml <= 1e-9
    assert elapsed < 5.0
    _report(1, f"ML/REML rel. err <= {max(worst_ml, worst_reml):.2e} over 200 instances "
               f"in {elapsed:.2f}s")


def test_criterion_2_sandwich_equivalence(instances):
    rng = np.random.default_rng(23)
    worst = 0.0
    for sites in instances:
        summ = merge_summaries([compute_summary(s) for s in sites])
        sigma2 = float(rng.uniform(0.3, 2.5))
        tau2 = float(rng.uniform(0.0, 1.5))
        beta, _, _ = profile_beta(sigma2, tau2, summ)
        got = cr0(summ, Theta(beta=beta, sigma2=sigma2, tau2=tau2)).V
        want = dense_cr0_sandwich(beta, sigma2, tau2, sites)
        scale = 1.0 + np.abs(want).max()
        worst = max(worst, float(np.abs(got - want).max() / scale))
    assert worst <= 1e-9
    _report(2, f"summary CR0 equals IPD sandwich, max rel. err {worst:.2e}")


def test_criterion_3_gaussian_calibration(rng):
    t0 = time.perf_counter()
    draws = 100_000
    X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    base = compute_summary(SiteData(site_id="cal", y=np.array([0.5, -1.0, 2.0]), X=X))
    base_set = merge_summaries([base])
    for eps0 in (2.0, 8.0):
        budget = calibrate(eps0, delta=0.01, p=3)
        d = base.p + 1
        noise_sum = np.zeros((d, d))
        diag = np.empty(draws)
        off = np.empty(draws)
        for i in range(draws):
            noisy = privatize(base_set, budget, rng_seed=i)
            delta_s = noisy.S[0] - base.S
            noise_sum += delta_s
            diag[i] = delta_s[1, 1]
            off[i] = delta_s[0, 2]
        sd_diag = diag.std()
        sd_off = off.std()
        assert abs(sd_diag - budget.sigma_dp) <= 0.02 * budget.sigma_dp
        assert abs(sd_off - budget.sigma_dp / math.sqrt(2)) <= 0.02 * budget.sigma_dp / math.sqrt(2)
        # unbiasedness: entrywise mean within 3 sigma_dp / sqrt(draws)
        assert np.abs(noise_sum / draws).max() <= 3 * budget.sigma_dp / math.sqrt(draws)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, f"noise SDs within 2% of sigma_dp (diag) and sigma_dp/sqrt(2) "
               f"(off-diag) over {draws} draws per level, {elapsed:.1f}s")


def test_criterion_4_small_clinic_uniqueness():
    t0 = time.perf_counter()
    instance = FeasibilityInstance(gram=np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), n=3)
    result = reconstruct(instance)
    assert result.status == "unique"
    truth = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert hamming_sorted(result.X_hat, truth) == 0

    checked = 0
    for n in (1, 2, 3, 4):
        for p in (1, 2, 3):
            for key, mats in gram_fibers(n, p).items():
                gram = np.array(key, dtype=np.int64).reshape(p, p)
                sols = enumerate_reconstructions(FeasibilityInstance(gram=gram, n=n))
                assert {tuple(sorted(map(tuple, s))) for s in sols} == mats
                if len(mats) == 1:
                    res = reconstruct(FeasibilityInstance(gram=gram, n=n))
                    assert res.status == "unique" and res.violation == 0
                    assert hamming_sorted(res.X_hat, np.array(next(iter(mats)))) == 0
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"three-patient clinic instance unique; {checked} exhaustive fibers agree "
               f"(all n<=4, p<=3) in {elapsed:.1f}s")


def test_criterion_5_reconstruction_trend():
    t0 = time.perf_counter()
    reps = 500
    ref = run_reconstruction_cell(n=3, p=3, epsilon0=None, reps=reps, seed=51)
    assert ref["matrix_rate"] >= 0.9
    rates = [ref["matrix_rate"]]
    for idx, eps0 in enumerate((20.0, 12.0, 8.0, 4.0, 2.0), start=1):
        cell = run_reconstruction_cell(
            n=3, p=3, epsilon0=eps0, reps=reps, seed=51, level_key=idx
        )
        rates.append(cell["matrix_rate"])
        if eps0 == 4.0:
            assert cell["matrix_rate"] <= 0.05
    for earlier, later in zip(rates, rates[1:]):
        assert later <= earlier + 0.05  # non-increasing in noise, 5-point band
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"matrix rates {['%.3f' % r for r in rates]} for ref then "
               f"eps0=20,12,8,4,2 at {reps} reps in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_privacy_cost_scaling(study_k, study_eps):
    # Rare wild fits (interior, sometimes nominally converged; the same
    # tail criterion 7 depends on) dominate a finite-sample mean of
    # cost^2 at roughly 1% frequency, so the decay laws are asserted on
    # per-level medians across the full grids, plus on means over the
    # linear-response privacy levels where the tail is absent.
    rows_by_k, k_elapsed = study_k
    all_rows = [r for rows in rows_by_k.values() for r in rows]
    slope_k, se_k = privacy_cost_slope(all_rows, versus="inv_K", statistic="median")
    assert abs(slope_k - 1.0) <= 0.3

    rows_eps, _ = study_eps
    behaved = [r for r in rows_eps if r.arm != "dp" or r.epsilon0 >= 12.0]
    slope_e, se_e = privacy_cost_slope(behaved, versus="epsilon0")
    assert abs(slope_e - (-2.0)) <= 0.4
    slope_med, _ = privacy_cost_slope(rows_eps, versus="epsilon0", statistic="median")
    assert abs(slope_med - (-2.0)) <= 0.4

    def median_cost(rows, predicate):
        vals = [r.l2_privacy_cost for r in rows
                if r.arm == "dp" and not r.failed and predicate(r)]
        return float(np.median(vals))

    # monotone trends: median privacy cost falls as eps0 grows and as K grows
    eps_medians = [median_cost(rows_eps, lambda r, e=e: r.epsilon0 == e)
                   for e in (2.0, 4.0, 8.0, 12.0, 16.0, 20.0)]
    assert all(a > b for a, b in zip(eps_medians, eps_medians[1:]))
    k_medians = [median_cost(rows_by_k[K], lambda r: True) for K in (20, 50, 100, 200)]
    assert all(a > b for a, b in zip(k_medians, k_medians[1:]))
    assert k_elapsed < 15 * 60
    _report(6, f"median cost^2 slope vs 1/K = {slope_k:.3f} (se {se_k:.3f}); "
               f"vs eps0 = {slope_e:.3f} (se {se_e:.3f}) on clean-level means, "
               f"{slope_med:.3f} on full-grid medians; study {k_elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_se_calibration(study_eps):
    rows, elapsed = study_eps
    table = se_calibration(rows)
    x1 = {
        (r["arm"], r["epsilon0"]): r["ratio"]
        for r in table
        if r["coefficient"] == 1
    }
    calm = x1[("dp", 16.0)]
    assert abs(calm - 0.99) <= 0.05
    assert 0.95 <= x1[("ipd", None)] <= 1.05
    blowup = x1[("dp", 2.0)]
    assert blowup > 100.0
    assert elapsed < 20 * 60
    _report(7, f"x1 calibration ratio {calm:.3f} at eps0=16 (target 0.99 +/- 0.05); "
               f"{blowup:.1f} at eps0=2 (>100); study {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_consistency_normality(study_k):
    rows_by_k, _ = study_k
    t0 = time.perf_counter()
    med = {}
    for K in (50, 200):
        errs = [r.l2_error for r in rows_by_k[K] if r.arm == "ipd" and not r.failed]
        med[K] = float(np.median(errs))
    shrink = med[50] / med[200]
    assert 1.6 <= shrink <= 2.4  # sqrt(200/50) = 2 in theory

    beta0_x1 = 0.5
    covered = total = 0
    for r in rows_by_k[200]:
        if r.arm != "ipd" or r.failed:
            continue
        half = 1.959963984540054 * r.se_hat[1]
        covered += int(abs(r.beta_hat[1] - beta0_x1) <= half)
        total += 1
    coverage = covered / total
    assert 0.92 <= coverage <= 0.98
    assert time.perf_counter() - t0 < 10 * 60
    _report(8, f"median error shrink K=50 -> 200: {shrink:.2f} (band [1.6, 2.4]); "
               f"95% CI coverage at K=200: {coverage:.3f} over {total} replicates")


def test_criterion_9_dp2_masking(rng):
    budget = calibrate(2.0, 0.01, 6)
    for trial in range(25):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        X = rng.normal(size=(n, p))
        base = compute_summary(SiteData(site_id=f"m{trial}", y=rng.normal(size=n), X=X))
        size = int(rng.integers(1, p + 1))
        sensitive = frozenset(int(j) for j in rng.choice(np.arange(1, p + 1), size, replace=False))
        noisy = privatize(merge_summaries([base]), budget, sensitive=sensitive, rng_seed=trial)[0]
        for i, j in itertools.product(range(p + 1), repeat=2):
            touched = i in sensitive or j in sensitive
            if touched:
                assert noisy.S[i, j] != base.S[i, j]
                assert noisy.T[i, j] != base.T[i, j]
            else:
                # bitwise identical outside the sensitive closure
                assert noisy.S[i, j] == base.S[i, j]
                assert noisy.T[i, j] == base.T[i, j]
    _report(9, "subset scope perturbs exactly the sensitive closure, bitwise")


def test_criterion_10_cli_determinism(tmp_path):
    def digest(path):
        return path.read_bytes()

    bundle = write_bundle_csv(tmp_path / "bundle.csv")
    outs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        assert main(["summarize", "--csv", str(bundle), "--outcome", "y",
                     "--covariates", "x1,x2,x3", "--site-col", "site",
                     "--out", str(base / "sums"), "--seed", "7"]) == 0
        first = sorted((base / "sums").glob("*.json"))[0]
        assert main(["privatize", "--in", str(first), "--out", str(base / "dp.json"),
                     "--epsilon0", "8", "--delta", "0.01", "--seed", "7"]) == 0
        assert main(["fit", *[str(f) for f in sorted((base / "sums").glob("*.json"))],
                     "--out", str(base / "fit.json"),
                     "--coef-csv", str(base / "coef.csv"), "--seed", "7"]) == 0
        assert main(["attack", "--n", "3", "--p", "3", "--epsilon0", "8",
                     "--reps", "30", "--seed", "7", "--out", str(base / "attack.csv")]) == 0
        assert main(["simulate-estimation", "--scenario", "ri-correct", "--K", "8",
                     "--epsilon0", "8", "--reps", "2", "--seed", "7",
                     "--out", str(base / "metrics.csv")]) == 0
        assert main(["simulate-reconstruction", "--n", "3", "--p", "2",
                     "--epsilon0", "ref,8", "--reps", "10", "--seed", "7",
                     "--out", str(base / "rates.csv")]) == 0
        end_to_end(base / "pipeline", seed=7)
        outs.append(base)
    a, b = outs
    compared = 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert digest(a / rel) == digest(b / rel), f"nondeterministic output: {rel}"
        compared += 1
    _report(10, f"{compared} artifacts byte-identical across repeated seeded runs")
