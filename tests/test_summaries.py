import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedlmm import (
    FederatedSummarySet,
    SiteData,
    SiteSummary,
    ValidationError,
    calibrate,
    compute_summary,
    load_summary,
    merge_summaries,
    privatize,
    save_summary,
    standardize,
)
from fedlmm.summaries import _exact_sums, summary_from_dict, summary_to_dict

from oracles import averaged_gram, brute_force_summary, dense_gls_beta, fsum_crossprod


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


@pytest.mark.parametrize("n", [5, 10_001])
def test_entries_above_half_the_largest_float_are_kept(n):
    """S[0, 0] = 1e308 is finite at every site size; no symmetrising step overflows it."""
    v = np.sqrt(2e307)
    y = np.zeros(n)
    y[:5] = [v, -v, v, -v, v]
    s = compute_summary(SiteData(site_id="s", y=y, X=np.ones((n, 1))))
    assert s.S[0, 0] == pytest.approx(1e308, rel=1e-15)
    assert np.array_equal(s.S, s.S.T)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 60), st.integers(2, 7)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e150, 1e150))))
def test_small_site_gram_equals_averaged_gram(A):
    """At or below 10,000 rows S is (y, X)'(y, X), byte for byte the old symmetrised average."""
    s = compute_summary(SiteData(site_id="h", y=A[:, 0], X=A[:, 1:]))
    assert s.S.tobytes() == averaged_gram(A).tobytes()


@pytest.mark.parametrize("y, X, message", [
    ([1.0, 2.0], [1.0, 2.0], "X must be a 2-D matrix, got ndim=1"),
    (np.zeros(0), np.zeros((0, 2)), "needs at least one row"),
    ([1.0], np.zeros((1, 0)), "needs at least one covariate column"),
    ([1.0, 2.0], [[1.0]], "X has 1 rows but y has 2"),
], ids=["X-not-2d", "no-rows", "no-columns", "row-mismatch"])
def test_site_data_refusals_name_the_site(y, X, message):
    with pytest.raises(ValidationError, match=f"^site 'a': {message}$"):
        SiteData(site_id="a", y=y, X=X)


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


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"],
                         ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "str"])
def test_site_summary_n_must_be_an_integer(n):
    S = np.eye(2)
    with pytest.raises(ValidationError, match=f"^site 'a': n must be an integer, got {n}$"):
        SiteSummary(site_id="a", n=n, S=S, T=S)


@pytest.mark.parametrize("name", ["S", "T"])
@pytest.mark.parametrize("matrix", [[[1.0, 0.0], [0.0]], "ab", [["1", "x"], ["0", "1"]]],
                         ids=["ragged", "string", "string-entries"])
def test_site_summary_matrix_must_be_numeric(name, matrix):
    fields = {"S": np.eye(2), "T": np.eye(2), name: matrix}
    with pytest.raises(ValidationError, match=f"^site 'a': {name} is not a numeric matrix$"):
        SiteSummary(site_id="a", n=2, **fields)


class TestMerge:
    def test_non_integer_n_is_refused(self, rng):
        a, b = (compute_summary(SiteData(site_id=s, y=rng.normal(size=3), X=rng.normal(size=(3, 2))))
                for s in "ab")
        object.__setattr__(b, "n", 2.5)  # a site that bypassed its own check
        with pytest.raises(ValidationError, match="^site 'b': n must be an integer, got 2.5$"):
            merge_summaries([a, b])

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
        for k, s in enumerate(summaries):
            back = merged[k]
            assert (back.site_id, back.n, back.privatized, back.budget_used) == (
                s.site_id, s.n, s.privatized, s.budget_used)
            assert np.array_equal(back.S, s.S) and np.array_equal(back.T, s.T)


class TestFederatedSummarySet:
    """Direct construction from stacks: every check names the site it refuses."""

    @staticmethod
    def _fields(rng):
        A, s = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3))
        return dict(site_ids=("a", "b", "c"), n=np.array([2, 3, 4]), S=A + A.swapaxes(1, 2),
                    T=s[:, :, None] * s[:, None, :], budget_used=(None,) * 3)

    def test_no_site_is_refused(self):
        with pytest.raises(ValidationError, match="^summary set must contain at least one site$"):
            FederatedSummarySet((), [], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), ())

    def test_stacks_and_sites(self, rng):
        fields = self._fields(rng)
        sset = FederatedSummarySet(**fields)
        assert (sset.K, sset.p, sset.N, len(sset)) == (3, 2, 9, 3)
        assert (sset.budget_used, sset.any_privatized) == ((None,) * 3, False)
        site = sset[1]
        assert (site.site_id, site.n, site.privatized, site.budget_used) == ("b", 3, False, None)
        assert site.S.tobytes() == fields["S"][1].tobytes() and site.T.tobytes() == fields["T"][1].tobytes()

    @pytest.mark.parametrize("name, index, value, message", [
        ("S", (1, 2, 2), np.inf, "site 'b': non-finite summary entries"),
        ("T", (2, 0, 0), np.nan, "site 'c': non-finite summary entries"),
        ("S", (1, 0, 1), 7.0, "site 'b': S and T must be exactly symmetric"),
        ("T", (2, 1, 2), 7.0, "site 'c': S and T must be exactly symmetric"),
        ("n", (1,), 0, "site 'b': n must be >= 1"),
    ], ids=["non-finite-S", "non-finite-T", "asymmetric-S", "asymmetric-T", "n-below-1"])
    def test_bad_entry_names_its_site(self, rng, name, index, value, message):
        fields = self._fields(rng)
        fields[name][index] = value
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FederatedSummarySet(**fields)

    @pytest.mark.parametrize("n, message", [
        ([2, 2.5, 4], "site 'b': n must be an integer, got 2.5"),
        (np.array([2.0, 3.0, 4.0]), "site 'a': n must be an integer, got 2.0"),
        ([2, 3, True], "site 'c': n must be an integer, got True"),
    ], ids=["float", "float-stack", "bool"])
    def test_non_integer_n_names_its_site(self, rng, n, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FederatedSummarySet(**{**self._fields(rng), "n": n})

    def test_integer_n_of_any_integer_type(self, rng):
        sset = FederatedSummarySet(**{**self._fields(rng), "n": [2, np.int32(3), np.uint8(4)]})
        assert sset.N == 9 and sset[1].n == 3 and type(sset[1].n) is int

    @pytest.mark.parametrize("name, value", [
        ("T", lambda f: f["T"][:, :2, :2]),
        ("S", lambda f: f["S"][:2]),
        ("n", lambda f: f["n"][:2]),
        ("budget_used", lambda f: (None, None)),
    ])
    def test_shape_mismatch(self, rng, name, value):
        fields = self._fields(rng)
        fields[name] = value(fields)
        with pytest.raises(ValidationError, match="^site 'a': "):
            FederatedSummarySet(**fields)

    def test_a_site_with_a_budget_is_privatized(self, rng):
        budget = calibrate(8.0, 0.01, p=2)
        sset = FederatedSummarySet(**{**self._fields(rng), "budget_used": (None, budget, None)})
        assert sset.any_privatized and sset.budget_used == (None, budget, None)
        assert [sset[k].privatized for k in range(3)] == [False, True, False]
        assert sset[1].budget_used is budget

    @pytest.mark.parametrize("name", ["S", "T"])
    def test_sites_of_different_p_name_the_site(self, rng, name):
        fields = self._fields(rng)
        fields[name] = [fields[name][0], np.eye(4), fields[name][2]]  # site b has p = 3
        with pytest.raises(ValidationError, match="^dimension mismatch: site 'b' has p=3, expected p=2$"):
            FederatedSummarySet(**fields)

    def test_ragged_site_matrix_names_the_site(self, rng):
        fields = self._fields(rng)
        fields["S"] = [fields["S"][0], fields["S"][1], [[1.0, 0.0, 0.0], [0.0], [0.0, 0.0, 1.0]]]
        with pytest.raises(ValidationError, match="^site 'c': S is not a numeric matrix$"):
            FederatedSummarySet(**fields)

    def test_string_stack_is_refused(self):
        T = [np.ones((2, 2)), np.ones((2, 2))]
        with pytest.raises(ValidationError, match="^S and T must be numeric stacks of one matrix per site$"):
            FederatedSummarySet(("a", "b"), [2, 2], "ab", T, (None, None))

    @pytest.mark.parametrize("name", ["S", "T"])
    def test_object_array_stack_of_two_p_is_refused(self, name):
        # numpy cannot stack an identity of p = 1 on one of p = 2
        stack = np.empty(2, dtype=object)
        stack[0], stack[1] = np.eye(2), np.eye(3)
        fields = {"site_ids": ("a", "b"), "n": [2, 2], "S": [np.eye(2)] * 2, "T": [np.eye(2)] * 2,
                  "budget_used": (None, None), name: stack}
        with pytest.raises(ValidationError, match="^S and T must be numeric stacks of one matrix per site$"):
            FederatedSummarySet(**fields)

    def test_duplicate_site_id(self, rng):
        with pytest.raises(ValidationError, match="duplicate site_id 'b'"):
            FederatedSummarySet(**{**self._fields(rng), "site_ids": ("a", "b", "b")})

    @pytest.mark.parametrize("name", ["n", "S", "T"])
    def test_stacks_are_read_only(self, rng, name):
        fields = self._fields(rng)
        sset = FederatedSummarySet(**fields)
        with pytest.raises(ValueError, match="read-only"):
            getattr(sset, name)[0] = 1
        fields[name][0] = 1  # the set holds copies: the caller's arrays stay writable
        assert getattr(sset, name)[0].tobytes() != fields[name][0].tobytes()


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

    def test_needs_a_site(self):
        with pytest.raises(ValidationError, match="^standardize needs at least one site$"):
            standardize([])

    def test_column_0_must_be_the_intercept(self, rng):
        sites = self._sites(rng)
        sites[1] = SiteData(site_id="s1", y=sites[1].y, X=sites[1].X * 2.0)
        with pytest.raises(ValidationError, match="^column 0 is not the constant-one intercept$"):
            standardize(sites)

    def test_zero_variance_outcome(self, rng):
        sites = [SiteData(site_id=s.site_id, y=np.full(s.n, 3.0), X=s.X) for s in self._sites(rng)]
        with pytest.raises(ValidationError, match="^zero-variance outcome$"):
            standardize(sites)

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

    @pytest.mark.parametrize("T, message", [
        ([[1.0, 0.0], [0.0, -1.0]], "T is not positive semidefinite"),
        ([[1.0, 0.0], [0.0, 1.0]], "T is not rank one"),
    ], ids=["T-not-psd", "T-not-rank-one"])
    def test_exact_file_with_broken_T_is_refused(self, tmp_path, T, message):
        obj = summary_to_dict(SiteSummary(site_id="bad", n=2, S=np.eye(2), T=np.zeros((2, 2))))
        obj["T"] = [v for row in T for v in row]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"^site 'bad': {message}$"):
            load_summary(path)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_summary(path)
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValidationError, match="schema_version"):
            load_summary(path)

    @staticmethod
    def _released_dict(rng):
        site = compute_summary(SiteData(site_id="dp", y=rng.normal(size=5), X=rng.normal(size=(5, 2))))
        return summary_to_dict(privatize(merge_summaries([site]), calibrate(8.0, 0.01, p=2))[0])

    @pytest.mark.parametrize("key, value", [("budget", None), ("privatized", False)])
    def test_privatized_flag_must_match_budget(self, rng, key, value):
        obj = self._released_dict(rng)
        obj[key] = value  # a privatized file without its budget, or a budget on exact data
        with pytest.raises(ValidationError, match="^malformed summary object: site 'dp': 'privatized'"):
            summary_from_dict(obj)

    @pytest.mark.parametrize("budget", [None, calibrate(8.0, 0.01, p=1)], ids=["exact", "released"])
    def test_site_summary_file_flag_is_its_budget(self, tmp_path, budget):
        # A summary's privatized state is its budget, so every summary saves a file load_summary takes.
        summary = SiteSummary(site_id="a", n=2, S=np.eye(2), T=np.zeros((2, 2)), budget_used=budget)
        save_summary(summary, tmp_path / "a.json")
        assert json.loads((tmp_path / "a.json").read_text())["privatized"] is (budget is not None)
        assert load_summary(tmp_path / "a.json").budget_used == budget

    def test_numpy_integer_n_round_trips(self, tmp_path):
        summary = SiteSummary(site_id="a", n=np.int64(2), S=np.eye(2), T=np.zeros((2, 2)))
        assert type(summary.n) is int
        save_summary(summary, tmp_path / "a.json")
        loaded = load_summary(tmp_path / "a.json")
        assert type(loaded.n) is int and loaded.n == 2

    def test_missing_budget_field(self, rng):
        obj = self._released_dict(rng)
        del obj["budget"]["delta"]
        with pytest.raises(ValidationError, match="^malformed summary object: 'delta'$"):
            summary_from_dict(obj)

    def test_non_positive_delta_f_rejected(self, rng):
        obj = self._released_dict(rng)
        obj["budget"]["delta_f"] = 0.0
        with pytest.raises(ValidationError, match="delta_f must be positive"):
            summary_from_dict(obj)

    def test_unsupported_layout_rejected(self, rng):
        obj = summary_to_dict(compute_summary(SiteData(site_id="a", y=[1.0, 2.0], X=[[1.0], [1.0]])))
        obj["layout"] = "x-first"
        with pytest.raises(ValidationError, match="unsupported layout 'x-first'"):
            summary_from_dict(obj)
