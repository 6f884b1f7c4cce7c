import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedlmm import (
    SiteData,
    ValidationError,
    compute_summary,
    load_summary,
    merge_summaries,
    save_summary,
    standardize,
)
from fedlmm.summaries import _exact_sums, summary_from_dict, summary_to_dict

from oracles import brute_force_summary, dense_gls_beta, fsum_crossprod


def test_single_row_site():
    s = compute_summary(SiteData(site_id="a", y=[0.0], X=[[1.0]]))
    np.testing.assert_array_equal(s.S, [[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(s.T, [[0.0, 0.0], [0.0, 1.0]])
    assert not s.privatized


def test_small_clinic_gram_block():
    # three patients, three binary columns; the X'X block of S
    X = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    s = compute_summary(SiteData(site_id="clinic-31", y=np.zeros(3), X=X))
    np.testing.assert_array_equal(s.S[1:, 1:], [[1, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_matches_brute_force_accumulation(rng):
    y = rng.normal(size=5)
    X = rng.normal(size=(5, 3))
    s = compute_summary(SiteData(site_id="a", y=y, X=X))
    S_ref, T_ref = brute_force_summary(y, X)
    np.testing.assert_allclose(s.S, S_ref, rtol=1e-12)
    np.testing.assert_allclose(s.T, T_ref, rtol=1e-12)


def test_large_site_exact_accumulation(rng):
    n = 10_050  # exercises the compensated-summation path
    y = rng.normal(size=n)
    X = rng.normal(size=(n, 2))
    s = compute_summary(SiteData(site_id="big", y=y, X=X))
    S_ref, T_ref = brute_force_summary(y, X)
    np.testing.assert_allclose(s.S, S_ref, rtol=1e-12)
    np.testing.assert_allclose(s.T, T_ref, rtol=1e-10)


# Column kinds for the exact-accumulation properties: cancellation pairs
# (x, -x) in one column, subnormals, and wide-range values.
_KINDS = ("binary", "normal", "cancel", "subnormal", "wide")


def _column(rng, kind: str, n: int) -> np.ndarray:
    if kind == "binary":
        return rng.binomial(1, 0.4, n).astype(float)
    if kind == "normal":
        return rng.normal(0.0, 1.0, n)
    if kind == "cancel":
        half = rng.normal(0.0, 1.0, n // 2)
        return rng.permutation(np.concatenate([half, -half, rng.normal(0.0, 1e-9, n % 2)]))
    if kind == "subnormal":
        return np.ldexp(rng.integers(-2**52 + 1, 2**52, n).astype(float), -1074)
    return rng.normal(0.0, 1.0, n) * np.ldexp(1.0, rng.integers(-43, 44, n))


_columns = st.lists(st.tuples(st.sampled_from(_KINDS), st.sampled_from((-43, 0, 43))),
                    min_size=1, max_size=4)


def _design(seed, n, columns) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([np.ldexp(_column(rng, kind, n), e) for kind, e in columns])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((1, 2, 1023, 1024, 1025, 2047, 2049, 3073)),
       columns=_columns)
def test_blocked_sums_equal_per_entry_fsum(seed, n, columns):
    """Every block edge: one product pair per entry, each equal to the oracle's fsum bit for bit."""
    A = _design(seed, n, columns)
    d = A.shape[1]
    left, right = np.triu_indices(d)
    S, s = fsum_crossprod(A)
    assert np.array(_exact_sums(A, left, right)).tobytes() == S[left, right].tobytes()
    column_sums = _exact_sums(np.column_stack([A, np.ones(n)]), np.arange(d), np.full(d, d))
    assert np.array(column_sums).tobytes() == s.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from((10_001, 10_239, 10_241, 11_263, 11_265, 12_287, 12_289)),
       columns=_columns)
def test_large_site_summary_equals_per_entry_fsum(seed, n, columns):
    """Above the threshold, S and T are the oracle's correctly rounded sums, byte for byte."""
    A = _design(seed, n, [("normal", 0)] + columns)
    summary = compute_summary(SiteData(site_id="big", y=A[:, 0], X=A[:, 1:]))
    S, s = fsum_crossprod(A)
    assert summary.S.tobytes() == S.tobytes()
    assert summary.T.tobytes() == np.outer(s, s).tobytes()


def test_large_site_with_huge_finite_products(rng):
    """Products too large for the extraction go to fsum as they are."""
    n = 10_001
    A = rng.normal(size=(n, 3))
    A[7, 0] = 2.0**506  # y**2 = 2**1012: finite, past the extraction's range
    s = compute_summary(SiteData(site_id="big", y=A[:, 0], X=A[:, 1:]))
    S, col = fsum_crossprod(A)
    assert s.S.tobytes() == S.tobytes()
    assert s.T.tobytes() == np.outer(col, col).tobytes()


def test_large_all_zero_site():
    s = compute_summary(SiteData(site_id="zero", y=np.zeros(10_001), X=np.zeros((10_001, 2))))
    assert s.S.tobytes() == np.zeros((3, 3)).tobytes()
    assert s.T.tobytes() == np.zeros((3, 3)).tobytes()


@pytest.mark.parametrize("n", [5, 10_001])
@pytest.mark.parametrize("signs", ["overflow", "inf-minus-inf"])
def test_overflowing_sums_are_rejected(n, signs):
    """A cross product that overflows is a non-finite entry at every site size, with no warning."""
    y = np.full(n, 0.5)
    x = np.full(n, 2.0)
    if signs == "overflow":
        y[:3] = 1e154  # y'y = 3e308
    else:
        y[:2] = 1e200
        x[:2] = [1e200, -1e200]  # x'y = inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite summary entries"):
            compute_summary(SiteData(site_id="s", y=y, X=x[:, None]))


def test_rejects_nonfinite():
    with pytest.raises(ValidationError):
        SiteData(site_id="a", y=[np.nan], X=[[1.0]])
    with pytest.raises(ValidationError):
        SiteData(site_id="a", y=[1.0], X=[[np.inf]])


@settings(max_examples=50, deadline=None)
@given(
    y=arrays(np.float64, 6, elements=st.floats(-50, 50)),
    X=arrays(np.float64, (6, 3), elements=st.floats(-50, 50)),
)
def test_summary_structure_properties(y, X):
    s = compute_summary(SiteData(site_id="h", y=y, X=X))
    # exact symmetry
    assert np.array_equal(s.S, s.S.T)
    assert np.array_equal(s.T, s.T.T)
    # T is the rank-one outer product of the column sums
    col = np.concatenate([[y.sum()], X.sum(axis=0)])
    scale = max(1.0, np.abs(s.T).max())
    assert np.abs(s.T - np.outer(col, col)).max() <= 1e-12 * scale
    # S is positive semidefinite
    assert np.linalg.eigvalsh(s.S).min() >= -1e-9 * max(1.0, np.abs(s.S).max())


def test_permutation_invariance(rng):
    y = rng.normal(size=9)
    X = rng.normal(size=(9, 2))
    perm = rng.permutation(9)
    a = compute_summary(SiteData(site_id="a", y=y, X=X))
    b = compute_summary(SiteData(site_id="a", y=y[perm], X=X[perm]))
    np.testing.assert_allclose(a.S, b.S, rtol=1e-12)
    np.testing.assert_allclose(a.T, b.T, rtol=1e-12)


class TestMerge:
    def test_two_sites(self, rng):
        sites = [
            SiteData(site_id=f"s{k}", y=rng.normal(size=3), X=rng.normal(size=(3, 2)))
            for k in range(2)
        ]
        merged = merge_summaries([compute_summary(s) for s in sites])
        assert merged.K == 2
        assert merged.N == 6

    def test_dimension_mismatch(self, rng):
        a = compute_summary(SiteData(site_id="a", y=rng.normal(size=3), X=rng.normal(size=(3, 3))))
        b = compute_summary(SiteData(site_id="b", y=rng.normal(size=3), X=rng.normal(size=(3, 4))))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            merge_summaries([a, b])

    def test_duplicate_site_id(self, rng):
        a = compute_summary(SiteData(site_id="a", y=rng.normal(size=3), X=rng.normal(size=(3, 2))))
        with pytest.raises(ValidationError, match="duplicate"):
            merge_summaries([a, a])

    def test_many_sites_count_and_total(self, rng):
        sizes = rng.integers(1, 9, size=88)
        summaries = [
            compute_summary(
                SiteData(site_id=f"clinic{k}", y=rng.normal(size=n), X=rng.normal(size=(n, 2)))
            )
            for k, n in enumerate(sizes)
        ]
        merged = merge_summaries(summaries)
        assert merged.K == 88
        assert merged.N == int(sizes.sum())

    def test_merge_unmerge_identity(self, rng):
        summaries = [
            compute_summary(
                SiteData(site_id=f"s{k}", y=rng.normal(size=4), X=rng.normal(size=(4, 2)))
            )
            for k in range(5)
        ]
        merged = merge_summaries(summaries)
        assert list(merged) == summaries


class TestStandardize:
    def _sites(self, rng, K=4, n=20, p=3):
        sites = []
        for k in range(K):
            X = np.column_stack([np.ones(n), rng.normal(2.0, 3.0, size=(n, p - 1))])
            y = 5.0 + X[:, 1:] @ rng.normal(size=p - 1) + rng.normal(0, 2.0, n)
            sites.append(SiteData(site_id=f"s{k}", y=y, X=X))
        return sites

    def test_already_standardized_gives_identity_record(self, rng):
        sites = self._sites(rng)
        std, record = standardize(sites)
        std2, record2 = standardize(std)
        assert abs(record2.y_mean) < 1e-12 and abs(record2.y_scale - 1.0) < 1e-12
        assert np.abs(record2.x_mean).max() < 1e-12
        assert np.abs(record2.x_scale - 1.0).max() < 1e-12

    def test_pooled_moments(self, rng):
        sites = self._sites(rng)
        std, record = standardize(sites)
        X = np.concatenate([s.X for s in std])
        y = np.concatenate([s.y for s in std])
        assert np.abs(X[:, 1:].mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(X[:, 1:].std(axis=0), 1.0, atol=1e-12)
        assert abs(y.mean()) < 1e-12 and abs(y.std() - 1.0) < 1e-12

    def test_backtransform_matches_raw_gls(self, rng):
        # scale the outcome, standardize, fit with the dense oracle on the
        # standardized scale, and undo: must equal the raw-scale oracle fit
        sites = self._sites(rng)
        c = 7.5
        scaled = [SiteData(site_id=s.site_id, y=c * s.y, X=s.X) for s in sites]
        sigma2, tau2 = 1.7, 0.6
        beta_raw = dense_gls_beta(sigma2 * c**2, tau2 * c**2, scaled)
        std, record = standardize(scaled)
        f = record.y_scale**2
        beta_std = dense_gls_beta(sigma2 * c**2 / f, tau2 * c**2 / f, std)
        np.testing.assert_allclose(record.beta_to_original(beta_std), beta_raw, rtol=1e-9)

    def test_constant_column_error(self, rng):
        sites = self._sites(rng)
        bad = [
            SiteData(site_id=s.site_id, y=s.y, X=np.column_stack([s.X, np.full(s.n, 3.0)]))
            for s in sites
        ]
        with pytest.raises(ValidationError, match="column 3"):
            standardize(bad)


class TestExchangeFormat:
    def test_round_trip_bitwise(self, rng, tmp_path):
        site = SiteData(site_id="rt", y=rng.normal(size=6), X=rng.normal(size=(6, 3)))
        summary = compute_summary(site)
        path = tmp_path / "site.json"
        save_summary(summary, path)
        loaded = load_summary(path)
        assert np.array_equal(loaded.S, summary.S)
        assert np.array_equal(loaded.T, summary.T)
        assert loaded.site_id == summary.site_id and loaded.n == summary.n
        assert summary_to_dict(loaded) == summary_to_dict(summary)

    def test_asymmetric_s_rejected(self, rng, tmp_path):
        summary = compute_summary(
            SiteData(site_id="bad", y=rng.normal(size=4), X=rng.normal(size=(4, 2)))
        )
        obj = summary_to_dict(summary)
        obj["S"][1] += 0.5  # break symmetry
        with pytest.raises(ValidationError, match="symmetric"):
            summary_from_dict(obj)

    def test_non_psd_rejected_when_unprivatized(self, rng):
        summary = compute_summary(
            SiteData(site_id="bad", y=rng.normal(size=4), X=rng.normal(size=(4, 2)))
        )
        obj = summary_to_dict(summary)
        S = np.array(obj["S"]).reshape(3, 3)
        S[0, 0] = -5.0
        obj["S"] = list(S.ravel())
        with pytest.raises(ValidationError, match="positive semidefinite"):
            summary_from_dict(obj)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_summary(path)
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValidationError, match="schema_version"):
            load_summary(path)
