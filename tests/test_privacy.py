import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlmm import (
    PrivacyBudget,
    SiteData,
    ValidationError,
    calibrate,
    compute_summary,
    merge_summaries,
    privacy,
    save_summary,
    sensitivity_binary_gram,
)
from fedlmm.attack import released_rounded_gram


def privatize(summary, budget, sensitive=frozenset(), rng_seed=0):
    """``summary`` released as ``fedlmm privatize`` releases it: as a one-site set."""
    return privacy.privatize(merge_summaries([summary]), budget, sensitive, rng_seed)[0]


class TestSensitivityBinaryGram:
    def test_bound_at_p3(self):
        assert sensitivity_binary_gram(3) == 6.0

    def test_p1(self):
        assert sensitivity_binary_gram(1) == 2.0

    def test_exhaustive_small_case(self):
        # all pairs of 2x2 binary designs differing in exactly one row
        p, n = 2, 2
        worst = 0.0
        designs = [np.array(bits).reshape(n, p) for bits in itertools.product((0, 1), repeat=n * p)]
        for A in designs:
            for B in designs:
                differ = (A != B).any(axis=1).sum()
                if differ != 1:
                    continue
                diff = A.T @ A - B.T @ B
                worst = max(worst, float(np.sqrt((diff**2).sum())))
        # The 2p value is a valid triangle-inequality bound; brute force shows
        # the true supremum is p (one all-ones row swapped against zeros), so
        # the bound is conservative by a factor of two.
        assert worst <= sensitivity_binary_gram(p)
        assert worst == pytest.approx(p)

    def test_rejects_bad_p(self):
        for p, message in ((0, "p must be >= 1, got 0"), (True, "p must be an integer, got True")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                sensitivity_binary_gram(p)
            with pytest.raises(ValidationError, match=f"^{message}$"):
                calibrate(8.0, 0.01, p=p)


class TestCalibrate:
    def test_reference_noise_scale(self):
        budget = calibrate(2.0, 0.01, p=4)
        assert budget.sigma_dp == pytest.approx(math.sqrt(2 * math.log(125)) / 2)
        assert budget.epsilon == 2 * 4 * 2.0
        assert budget.delta_f == 2 * 4

    def test_sigma_independent_of_p(self):
        sigmas = {calibrate(4.0, 0.01, p).sigma_dp for p in (1, 3, 7)}
        assert len(sigmas) == 1

    def test_monotone_in_epsilon0(self):
        sigmas = [calibrate(e, 0.01, 3).sigma_dp for e in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                calibrate(2.0, bad, 3)

    def test_epsilon0_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="epsilon"):
                calibrate(bad, 0.01, 3)

    def test_budget_consistency_enforced(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            PrivacyBudget(epsilon=2.0, delta=0.01, delta_f=4.0, sigma_dp=1.0)


@pytest.fixture
def base_summary(rng):
    X = np.column_stack([np.ones(8), rng.binomial(1, 0.5, (8, 5)).astype(float)])
    y = rng.normal(size=8)
    return compute_summary(SiteData(site_id="clinic-a", y=y, X=X))


@pytest.fixture
def base_set(base_summary):
    return merge_summaries([base_summary])


def _budget(eps0=2.0, delta=0.01, p=6):
    return calibrate(eps0, delta, p)


class TestPrivatize:
    def test_near_zero_noise_limit(self, base_set):
        noisy = privacy.privatize(base_set, _budget(eps0=1e9), rng_seed=4)
        assert np.abs(noisy.S - base_set.S).max() < 1e-6
        assert np.abs(noisy.T - base_set.T).max() < 1e-6
        assert noisy.any_privatized and noisy[0].privatized and noisy.budget_used[0] is not None

    def test_deterministic_per_seed(self, base_set):
        a = privacy.privatize(base_set, _budget(), rng_seed=11)
        b = privacy.privatize(base_set, _budget(), rng_seed=11)
        c = privacy.privatize(base_set, _budget(), rng_seed=12)
        assert np.array_equal(a.S, b.S) and np.array_equal(a.T, b.T)
        assert not np.array_equal(a.S, c.S)

    def test_distinct_sites_get_distinct_noise(self, base_set, rng):
        other = merge_summaries([compute_summary(
            SiteData(site_id="clinic-b", y=np.zeros(8), X=np.zeros((8, 6)) + 1.0)
        )])
        a = privacy.privatize(base_set, _budget(), rng_seed=11)
        b = privacy.privatize(other, _budget(), rng_seed=11)
        assert not np.array_equal(a.S - base_set.S, b.S - other.S)

    def test_exact_symmetry(self, base_set):
        noisy = privacy.privatize(base_set, _budget(), rng_seed=0)
        assert np.array_equal(noisy.S, noisy.S.swapaxes(1, 2))
        assert np.array_equal(noisy.T, noisy.T.swapaxes(1, 2))

    def test_double_privatization_rejected(self, base_set):
        noisy = privacy.privatize(base_set, _budget(), rng_seed=0)
        with pytest.raises(ValidationError, match="site 'clinic-a' is already privatized"):
            privacy.privatize(noisy, _budget(), rng_seed=1)

    def test_mixed_set_names_its_released_site(self, base_summary, rng):
        other = compute_summary(SiteData(site_id="clinic-b", y=rng.normal(size=4),
                                         X=rng.normal(size=(4, 6))))
        mixed = merge_summaries([base_summary, privatize(other, _budget(), rng_seed=0)])
        assert mixed.any_privatized and not mixed[0].privatized
        with pytest.raises(ValidationError, match="^site 'clinic-b' is already privatized; "):
            privacy.privatize(mixed, _budget(), rng_seed=1)

    def test_subset_scope_masks_exactly(self, base_set):
        sensitive = frozenset({4, 5, 6})
        noisy = privacy.privatize(base_set, _budget(), sensitive=sensitive, rng_seed=3)
        untouched = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                     (1, 1), (2, 2), (3, 3)]
        for i, j in untouched:
            assert noisy.S[0, i, j] == base_set.S[0, i, j]
            assert noisy.T[0, i, j] == base_set.T[0, i, j]
        touched = [(0, 4), (4, 4), (1, 5), (6, 6), (2, 6)]
        for i, j in touched:
            assert noisy.S[0, i, j] != base_set.S[0, i, j]

    def test_subset_rejects_out_of_range(self, base_set):
        with pytest.raises(ValidationError, match="sensitive"):
            privacy.privatize(base_set, _budget(), sensitive=frozenset({7}), rng_seed=0)

    @pytest.mark.parametrize("index", [1.5, True, np.float64(2.0), np.bool_(True), "1"],
                             ids=["float", "bool", "numpy-float", "numpy-bool", "str"])
    def test_subset_rejects_non_integer_index(self, base_set, index):
        with pytest.raises(ValidationError, match=r"^sensitive indices \[.*\] outside 1\.\.6$"):
            privacy.privatize(base_set, _budget(), sensitive=frozenset({index, 2}), rng_seed=0)

    def test_noise_scale_moderate_sample(self, base_set):
        budget = _budget(eps0=2.0)
        diag, off = [], []
        for seed in range(4000):
            noisy = privacy.privatize(base_set, budget, rng_seed=seed)
            delta = noisy.S[0] - base_set.S[0]
            diag.append(delta[2, 2])
            off.append(delta[0, 3])
        assert np.std(diag) == pytest.approx(budget.sigma_dp, rel=0.05)
        assert np.std(off) == pytest.approx(budget.sigma_dp / math.sqrt(2), rel=0.05)
        assert abs(np.mean(diag)) < 4 * budget.sigma_dp / math.sqrt(4000)


def _released_bytes(released, k):
    return (released.site_ids[k], released.n[k], released.S[k].tobytes(), released.T[k].tobytes(),
            released.budget_used[k])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), K=st.integers(1, 8), p=st.integers(1, 5), seed=st.integers(0, 2**63 - 1),
       data_seed=st.integers(0, 2**32 - 1))
def test_set_release_is_the_sites_own_releases(data, K, p, seed, data_seed):
    """Site k of a set's release has the bytes of site k released alone, in any set around it.

    Each site's noise comes from its own stream, so releasing a permutation
    or a subset of the sites permutes or subsets the released S and T.
    """
    ids = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=K, max_size=K, unique=True))
    sensitive = frozenset(data.draw(st.sets(st.integers(1, p))))
    order = data.draw(st.permutations(range(K)))
    kept = order[:data.draw(st.integers(1, K))]
    rng = np.random.default_rng(data_seed)
    sites = [compute_summary(SiteData(site_id=sid, y=rng.normal(size=n), X=rng.normal(size=(n, p))))
             for sid, n in zip(ids, rng.integers(1, 7, size=K).tolist())]
    budget = calibrate(4.0, 0.01, p)
    released = privacy.privatize(merge_summaries(sites), budget, sensitive, seed)
    for k, site in enumerate(sites):
        alone = privacy.privatize(merge_summaries([site]), budget, sensitive, seed)
        assert _released_bytes(alone, 0) == _released_bytes(released, k)
    for subset in (order, kept):
        again = privacy.privatize(merge_summaries([sites[k] for k in subset]), budget, sensitive, seed)
        assert again.S.tobytes() == released.S[subset].tobytes()
        assert again.T.tobytes() == released.T[subset].tobytes()


class TestGoldenRelease:
    """Release bytes recorded before the privacy layer was reduced to one path.

    The site's data are integers, so S and T are exact and the digests
    depend only on the calibration and the noise streams.
    """

    @pytest.mark.parametrize("p, epsilon, delta_f", [(1, 16.0, 2.0), (3, 48.0, 6.0), (7, 112.0, 14.0)])
    def test_calibrate(self, p, epsilon, delta_f):
        budget = calibrate(8.0, 0.01, p)
        assert (budget.epsilon, budget.delta, budget.delta_f) == (epsilon, 0.01, delta_f)
        assert budget.sigma_dp == 0.38843893251152994

    @pytest.mark.parametrize("sensitive, digest", [
        (frozenset(), "05ad689115936f50bae81ecd212c6ab9795a163eac9ee91108a5327d18198df7"),
        (frozenset({2, 3}), "0a5255ec44780b2073b61957e1541bb15436f6f3b79d1c6a7e9acb79b48fb992"),
    ])
    def test_privatize_bytes(self, tmp_path, sensitive, digest):
        i = np.arange(7)
        X = np.column_stack([np.ones(7), i % 2, (i // 2) % 2, i % 3])
        summary = compute_summary(SiteData(site_id="golden", y=2.0 * i - 5.0, X=X))
        path = tmp_path / "released.json"
        save_summary(privatize(summary, calibrate(8.0, 0.01, 3), sensitive, rng_seed=11), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed, gram", [
        (None, [[3, 2, 2], [2, 3, 2], [2, 2, 4]]),
        (0, [[3, 3, 3], [3, 3, 2], [3, 2, 4]]),
        (1, [[3, 2, 2], [2, 3, 2], [2, 2, 5]]),
        (2, [[4, 2, 2], [2, 3, 2], [2, 2, 4]]),
    ])
    def test_released_rounded_gram(self, seed, gram):
        X = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1], [0, 0, 1]], dtype=np.int8)
        budget = None if seed is None else calibrate(8.0, 0.01, 3)
        assert released_rounded_gram(X, budget, seed or 0).tolist() == gram
