import numpy as np
import pytest

from fedlmm import MetricRow, Scenario, SingularDesignError, ValidationError, generate
from fedlmm import simulation
from fedlmm.simulation import (
    _SIGMA2,
    METRIC_FIELDS,
    draw_site_sizes,
    one_replicate,
    privacy_cost_slope,
    run_estimation_study,
    run_reconstruction_cell,
    se_calibration,
    write_rows,
)


class TestGenerate:
    def test_size_law_histogram(self):
        rng = np.random.default_rng(5)
        scenario = Scenario(name="s", K=100_000)
        sizes = draw_site_sizes(rng, scenario)
        small = ((sizes >= 2) & (sizes <= 10)).mean()
        large = ((sizes >= 50) & (sizes <= 100)).mean()
        assert small == pytest.approx(0.8, abs=0.01)
        assert small + large == 1.0

    def test_seed_determinism(self):
        scenario = Scenario.from_name("ris-correct", K=15)
        a = generate(scenario, 42)
        b = generate(scenario, 42)
        assert len(a) == len(b) == 15
        for sa, sb in zip(a, b):
            assert sa.site_id == sb.site_id
            assert np.array_equal(sa.y, sb.y)
            assert np.array_equal(sa.X, sb.X)
        c = generate(scenario, 43)
        assert not np.array_equal(a[0].y, c[0].y)

    def test_no_site_effect_moment_check(self):
        # with tau2 = 0, sqrt(n_k) * mean residual per site is N(0, sigma2)
        scenario = Scenario(name="flat", K=10_000, tau2=0.0)
        sites = generate(scenario, 9)
        beta = scenario.beta0_analysis
        z = np.array([np.sqrt(s.n) * (s.y - s.X @ beta).mean() for s in sites])
        assert z.var() == pytest.approx(_SIGMA2, rel=0.05)

    def test_covariate_laws(self):
        scenario = Scenario(name="s", K=400)
        X = np.concatenate([s.X for s in generate(scenario, 3)])
        assert np.array_equal(X[:, 0], np.ones(len(X)))
        for col, target in ((1, 0.5), (3, 0.3), (4, 0.7), (5, 0.5)):
            vals = X[:, col]
            assert set(np.unique(vals)) <= {0.0, 1.0}
            assert vals.mean() == pytest.approx(target, abs=0.03)
        assert X[:, 2].std() == pytest.approx(1.0, abs=0.05)
        assert X[:, 6].std() == pytest.approx(0.5, abs=0.03)

    def test_underfit_design_and_sensitive_blocks(self):
        full = Scenario.from_name("ri-correct", K=5)
        assert full.sensitive_design_blocks == frozenset({5, 6, 7})
        under = Scenario.from_name("ri-mis", K=5)
        assert under.design_columns == ["intercept", "x1", "x2"]
        assert under.sensitive_design_blocks == frozenset()
        assert np.array_equal(under.beta0_analysis, [1.0, 0.5, 0.5])

    def test_bad_names(self):
        with pytest.raises(ValidationError):
            Scenario.from_name("nope", K=5)
        with pytest.raises(ValidationError):
            Scenario(name="x", generator="weird")


class TestEstimationStudy:
    def test_rows_well_formed(self):
        scenario = Scenario.from_name("ri-correct", K=12)
        rows = run_estimation_study(scenario, [8.0], reps=3, seed=21)
        assert len(rows) == 3 * 3  # ipd, dp, dp2 per replicate
        ipd = [r for r in rows if r.arm == "ipd"]
        assert all(r.l2_privacy_cost == 0.0 for r in ipd)
        assert all(r.se_inflation == 1.0 for r in ipd)
        dp = [r for r in rows if r.arm == "dp"]
        assert all(r.epsilon0 == 8.0 for r in dp)
        assert all(r.l2_privacy_cost is not None and r.l2_privacy_cost > 0 for r in dp)
        assert all(len(r.beta_hat) == 7 for r in rows if not r.failed)

    def test_determinism_and_order_independence(self):
        scenario = Scenario.from_name("ri-correct", K=10)
        rows_a = run_estimation_study(scenario, [8.0], reps=4, seed=5)
        rows_b = run_estimation_study(scenario, [8.0], reps=4, seed=5)
        assert rows_a == rows_b
        # replicates evaluated out of order produce the same records
        scattered = []
        for rep in (3, 1, 0, 2):
            scattered.extend(one_replicate(scenario, [8.0], seed=5, replicate=rep))
        scattered.sort(key=lambda r: (r.replicate, r.arm, r.epsilon0 or -1))
        rows_sorted = sorted(rows_a, key=lambda r: (r.replicate, r.arm, r.epsilon0 or -1))
        assert scattered == rows_sorted

    def test_failed_ipd_fit_fails_every_arm_in_order(self, monkeypatch):
        def singular(summaries):
            raise SingularDesignError("singular pooled design")

        monkeypatch.setattr(simulation, "fit_ml", singular)
        scenario = Scenario.from_name("ri-correct", K=6)
        rows = one_replicate(scenario, [8, 2], seed=4, replicate=1)
        assert [(r.arm, r.epsilon0) for r in rows] == [
            ("ipd", None), ("dp", 8.0), ("dp", 2.0), ("dp2", 8.0), ("dp2", 2.0),
        ]
        assert all(type(r.epsilon0) is float for r in rows[1:])
        assert all(r.failed and r.replicate == 1 and r.beta_hat is None for r in rows)

    def test_workers_match_serial(self):
        scenario = Scenario.from_name("ri-correct", K=8)
        serial = run_estimation_study(scenario, [8.0], reps=4, seed=2, workers=1)
        parallel = run_estimation_study(scenario, [8.0], reps=4, seed=2, workers=2)
        assert serial == parallel

    def test_dp2_masks_only_sensitive_blocks(self):
        # underfit analysis has no sensitive columns: dp2 equals the ipd fit
        scenario = Scenario.from_name("ri-mis", K=10)
        rows = run_estimation_study(scenario, [4.0], reps=2, seed=3)
        dp2 = [r for r in rows if r.arm == "dp2"]
        assert all(r.l2_privacy_cost == 0.0 for r in dp2)
        dp = [r for r in rows if r.arm == "dp"]
        assert all(r.l2_privacy_cost > 0 for r in dp)

    def test_arms_share_generated_data(self):
        # common random numbers: with vanishing noise the dp arm reproduces
        # the ipd fit, so the privacy cost isolates the injected noise alone
        scenario = Scenario.from_name("ri-correct", K=10)
        rows = run_estimation_study(scenario, [1e9], reps=2, seed=8)
        dp = [r for r in rows if r.arm == "dp"]
        assert all(r.l2_privacy_cost < 1e-4 for r in dp)

    def test_invalid_args(self):
        scenario = Scenario.from_name("ri-correct", K=5)
        with pytest.raises(ValidationError):
            run_estimation_study(scenario, [8.0], reps=0, seed=1)
        with pytest.raises(ValidationError):
            run_estimation_study(scenario, [8.0], reps=1, seed=1, arms=("nope",))

    def test_csv_round_trip(self, tmp_path):
        scenario = Scenario.from_name("ri-correct", K=8)
        rows = run_estimation_study(scenario, [8.0], reps=2, seed=9, arms=("ipd", "dp"))
        out = tmp_path / "metrics.csv"
        write_rows(map(vars, rows), out, METRIC_FIELDS)
        text = out.read_text().splitlines()
        assert text[0].startswith("scenario,arm,epsilon0")
        assert len(text) == 1 + len(rows)


class TestAggregation:
    def _row(self, **kw):
        base = dict(
            scenario="s", arm="dp", epsilon0=8.0, K=20, replicate=0, failed=False,
            correction="cr0", l2_error=0.1, l2_privacy_cost=0.05, se_inflation=1.1,
            beta_hat=(1.0, 2.0), se_hat=(0.5, 0.5),
        )
        base.update(kw)
        return MetricRow(**base)

    def test_calibration_ratio_one_when_se_equals_sd(self, rng):
        rows = []
        betas = rng.normal(size=(50, 2))
        sd = betas.std(axis=0, ddof=1)
        for i in range(50):
            rows.append(self._row(replicate=i, beta_hat=tuple(betas[i]), se_hat=tuple(sd)))
        table = se_calibration(rows)
        assert all(r["ratio"] == pytest.approx(1.0) for r in table)

    def test_degenerate_group_flagged(self):
        rows = [self._row(replicate=i, beta_hat=(1.0, 1.0)) for i in range(3)]
        table = se_calibration(rows)
        assert all(r["degenerate"] for r in table)
        assert all(r["ratio"] is None for r in table)

    def test_failed_rows_excluded(self, rng):
        rows = [
            self._row(replicate=i, beta_hat=tuple(rng.normal(size=2))) for i in range(10)
        ]
        rows.append(self._row(replicate=99, failed=True, beta_hat=(1e9, 1e9)))
        table = se_calibration(rows)
        assert all(r["n_used"] == 10 for r in table)

    def test_too_few_replicates(self):
        with pytest.raises(ValidationError):
            se_calibration([self._row()])


class TestPrivacyCostSlope:
    def _rows_for(self, Ks, eps, costs_fn, reps=40, seed=0):
        rng = np.random.default_rng(seed)
        rows = []
        for K in Ks:
            for e in eps:
                for i in range(reps):
                    rows.append(
                        MetricRow(
                            scenario="s", arm="dp", epsilon0=e, K=K, replicate=i,
                            failed=False, correction="cr0", l2_error=0.1,
                            l2_privacy_cost=costs_fn(K, e, rng), se_inflation=1.0,
                            beta_hat=(0.0,), se_hat=(1.0,),
                        )
                    )
        return rows

    def test_exact_inverse_k_law(self):
        rows = self._rows_for([20, 50, 100, 200], [16.0], lambda K, e, r: np.sqrt(4.0 / K))
        slope, se = privacy_cost_slope(rows, versus="inv_K")
        assert slope == pytest.approx(1.0, abs=1e-9)
        assert se == pytest.approx(0.0, abs=1e-9)

    def test_exact_epsilon_law(self):
        rows = self._rows_for([200], [2.0, 4.0, 8.0, 16.0], lambda K, e, r: 1.0 / e)
        slope, _ = privacy_cost_slope(rows, versus="epsilon0")
        assert slope == pytest.approx(-2.0, abs=1e-9)

    def test_median_statistic_ignores_outliers(self):
        def cost(K, e, rng):
            return 1e6 if rng.random() < 0.05 else np.sqrt(4.0 / K)

        rows = self._rows_for([20, 50, 100, 200], [16.0], cost, reps=200)
        slope_mean, _ = privacy_cost_slope(rows, versus="inv_K")
        slope_med, _ = privacy_cost_slope(rows, versus="inv_K", statistic="median")
        assert abs(slope_med - 1.0) < 0.05
        assert abs(slope_mean - 1.0) > abs(slope_med - 1.0)

    def test_needs_three_levels(self):
        rows = self._rows_for([20, 50], [16.0], lambda K, e, r: 1.0 / K)
        with pytest.raises(ValidationError, match="3 distinct"):
            privacy_cost_slope(rows, versus="inv_K")

    def test_zero_cost_rejected(self):
        rows = self._rows_for([20, 50, 100], [16.0], lambda K, e, r: 0.0)
        with pytest.raises(ValidationError, match="degenerate"):
            privacy_cost_slope(rows, versus="inv_K")


class TestReconstructionCell:
    def test_reference_cell_high_rate(self):
        row = run_reconstruction_cell(n=3, p=3, epsilon0=None, reps=60, seed=4)
        assert row["matrix_rate"] >= 0.8
        assert row["element_rate"] >= row["matrix_rate"]
        assert row["failed"] == 0

    def test_noisy_cell_low_rate(self):
        row = run_reconstruction_cell(n=3, p=3, epsilon0=2.0, reps=60, seed=4)
        assert row["matrix_rate"] <= 0.1

    def test_deterministic(self):
        a = run_reconstruction_cell(n=4, p=3, epsilon0=8.0, reps=25, seed=7)
        b = run_reconstruction_cell(n=4, p=3, epsilon0=8.0, reps=25, seed=7)
        assert a == b
        assert a["matrix_rate"] == 0.4
        assert a["element_rate"] == 0.9433333333333335
        assert a["failed"] == 0

    def test_repair_heavy_cell_pinned(self):
        row = run_reconstruction_cell(n=5, p=5, epsilon0=8.0, reps=20, seed=0)
        assert row["matrix_rate"] == 0.0
        assert row["element_rate"] == 0.9080000000000001
        assert row["failed"] == 0
