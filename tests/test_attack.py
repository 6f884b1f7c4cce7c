import itertools

import numpy as np
import pytest

from fedlmm import (
    CapacityError,
    FeasibilityInstance,
    FedLMMError,
    SolverTimeoutError,
    ValidationError,
    attack_pipeline,
    calibrate,
    enumerate_reconstructions,
    hamming_sorted,
    reconstruct,
)
from fedlmm.attack import clamp_gram

from oracles import gram_fibers


def _hard_instance(rng, p=9, n=40):
    """A dense random Gram that no search finishes within 0.01 s."""
    gram = np.zeros((p, p), dtype=np.int64)
    iu = np.triu_indices(p, 1)
    vals = rng.integers(0, n // 2, size=len(iu[0]))
    gram[iu] = vals
    gram[(iu[1], iu[0])] = vals
    np.fill_diagonal(gram, rng.integers(n // 2, n, size=p))
    return FeasibilityInstance(gram=gram, n=n)


def _row_multiset(X):
    return tuple(sorted(map(tuple, np.asarray(X))))


class TestReconstruct:
    def test_three_patient_clinic_unique(self):
        instance = FeasibilityInstance(
            gram=np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), n=3
        )
        result = reconstruct(instance)
        assert result.status == "unique"
        assert result.violation == 0
        truth = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert hamming_sorted(result.X_hat, truth) == 0

    def test_zero_gram_unique_all_zero(self):
        result = reconstruct(FeasibilityInstance(gram=np.zeros((3, 3), dtype=int), n=5))
        assert result.status == "unique"
        assert not result.X_hat.any()
        assert result.X_hat.shape == (5, 3)

    def test_soundness_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, 5))
            X = (rng.random((n, p)) < 0.5).astype(np.int64)
            result = reconstruct(FeasibilityInstance(gram=X.T @ X, n=n))
            assert result.status in ("unique", "feasible-multiple")
            assert result.violation == 0
            G = result.X_hat.astype(np.int64)
            assert np.array_equal(G.T @ G, X.T @ X)

    def test_fiber_agreement_with_exhaustive_oracle(self):
        for n, p in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            for key, mats in gram_fibers(n, p).items():
                gram = np.array(key, dtype=np.int64).reshape(p, p)
                sols = enumerate_reconstructions(FeasibilityInstance(gram=gram, n=n))
                assert {_row_multiset(s) for s in sols} == mats
                result = reconstruct(FeasibilityInstance(gram=gram, n=n))
                expected = "unique" if len(mats) == 1 else "feasible-multiple"
                assert result.status == expected
                if len(mats) == 1:
                    truth = np.array(next(iter(mats)))
                    assert hamming_sorted(result.X_hat, truth) == 0

    def test_feasible_multiple_returns_one_design_of_the_fiber(self):
        # Up to 4 x 3 this is the only Gram with more than one design (up to row order).
        gram = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        fiber = gram_fibers(4, 3)[tuple(gram.ravel())]
        assert len(fiber) == 2
        instance = FeasibilityInstance(gram=gram, n=4)
        result = reconstruct(instance)
        assert result.status == "feasible-multiple"
        assert result.violation == 0
        G = result.X_hat.astype(np.int64)
        assert np.array_equal(G.T @ G, gram)
        assert _row_multiset(result.X_hat) in fiber
        assert {_row_multiset(s) for s in enumerate_reconstructions(instance)} == fiber

    def test_min_violation_repair_matches_brute_force(self):
        # Every symmetric integer 2 x 2 Gram with entries in [-1, n + 1], n <= 2.
        def triu_l1(X, gram):
            G = np.asarray(X, dtype=np.int64)
            return int(np.abs(np.triu(G.T @ G - gram)).sum())

        infeasible = 0
        for n in (1, 2):
            designs = [np.array(bits).reshape(n, 2) for bits in itertools.product((0, 1), repeat=2 * n)]
            for a, b, c in itertools.product(range(-1, n + 2), repeat=3):
                gram = np.array([[a, b], [b, c]], dtype=np.int64)
                result = reconstruct(FeasibilityInstance(gram=gram, n=n))
                if result.status != "infeasible-repaired":
                    continue
                infeasible += 1
                clamped = clamp_gram(gram, n)
                assert triu_l1(result.X_hat, clamped) == min(triu_l1(X, clamped) for X in designs)
                assert result.violation == triu_l1(result.X_hat, gram)
        assert infeasible == 175

    def test_min_violation_repair_matches_brute_force_p3(self):
        # Noisy Grams of random n x 3 designs, n <= 3, against every n x 3 design.
        rng = np.random.default_rng(31)
        designs = {
            n: np.array(list(itertools.product((0, 1), repeat=3 * n)), dtype=np.int64).reshape(-1, n, 3)
            for n in (1, 2, 3)
        }
        design_grams = {n: np.einsum("dij,dik->djk", D, D) for n, D in designs.items()}

        def triu_l1(G, gram):
            return np.abs(np.triu(G - gram)).sum(axis=(-2, -1))

        for _ in range(300):
            n = int(rng.integers(1, 4))
            X = (rng.random((n, 3)) < 0.5).astype(np.int64)
            noise = rng.integers(-2, 3, size=(3, 3))
            gram = X.T @ X + np.triu(noise) + np.triu(noise, 1).T
            result = reconstruct(FeasibilityInstance(gram=gram, n=n))
            assert result.status == "infeasible-repaired"
            G = result.X_hat.T.astype(np.int64) @ result.X_hat
            clamped = clamp_gram(gram, n)
            assert triu_l1(G, clamped) == triu_l1(design_grams[n], clamped).min()
            assert result.violation == triu_l1(G, gram)

    def test_repair_timeout_gives_failed(self, rng):
        # A negative off-diagonal ends the exact search at its root node, so
        # the deadline falls inside the repair.
        gram = _hard_instance(rng).gram.copy()
        gram[0, 1] = gram[1, 0] = -1
        instance = FeasibilityInstance(gram=gram, n=40)
        assert not enumerate_reconstructions(instance)
        result = reconstruct(instance, timeout_s=0.01)
        assert result.status == "failed"
        assert result.X_hat is None

    def test_capacity_error(self):
        for p in (10, 13):
            instance = FeasibilityInstance(gram=np.zeros((p, p), dtype=int), n=3)
            with pytest.raises(CapacityError):
                reconstruct(instance)
            with pytest.raises(CapacityError):
                enumerate_reconstructions(instance)
            with pytest.raises(CapacityError):
                attack_pipeline(np.zeros((3, p), dtype=np.int8))

    def test_zero_gram_at_capacity_unique(self):
        result = reconstruct(FeasibilityInstance(gram=np.zeros((9, 9), dtype=int), n=3))
        assert result.status == "unique"
        assert result.X_hat.shape == (3, 9) and not result.X_hat.any()

    def test_timeout_gives_failed(self, rng):
        result = reconstruct(_hard_instance(rng), timeout_s=0.01)
        assert result.status == "failed"
        assert result.X_hat is None

    def test_enumeration_timeout_raises_public_error(self, rng):
        with pytest.raises(SolverTimeoutError) as info:
            enumerate_reconstructions(_hard_instance(rng), timeout_s=0.01)
        assert isinstance(info.value, FedLMMError)

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            FeasibilityInstance(gram=np.array([[1, 2], [0, 1]]), n=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        gram = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(ValidationError, match="finite"):
            FeasibilityInstance(gram=gram, n=3)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match="integer"):
            FeasibilityInstance(gram=np.eye(2, dtype=int), n=n)

    def test_numpy_integer_n_accepted(self):
        result = reconstruct(FeasibilityInstance(gram=np.eye(2, dtype=int), n=np.int64(3)))
        assert result.status == "unique" and result.X_hat.shape == (3, 2)


class TestHammingSorted:
    def test_identical(self):
        A = np.array([[0, 1], [1, 0]])
        assert hamming_sorted(A, A) == 0

    def test_row_order_ignored(self):
        A = np.array([[0, 0], [1, 1]])
        B = np.array([[1, 1], [0, 0]])
        assert hamming_sorted(A, B) == 0

    def test_single_disagreement(self):
        A = np.array([[0, 0], [1, 1]])
        B = np.array([[0, 1], [1, 1]])
        assert hamming_sorted(A, B) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            hamming_sorted(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPipeline:
    def test_exact_recovery_without_noise(self, rng):
        hits = 0
        for rep in range(40):
            X = (rng.random((3, 3)) < 0.5).astype(np.int8)
            result = attack_pipeline(X, budget=None, rng_seed=rep)
            assert result.status in ("unique", "feasible-multiple")
            assert result.element_rate == 1.0 - result.hamming / 9
            hits += result.matrix_rate
        assert hits >= 30  # high recovery without noise

    def test_strong_noise_blocks_recovery(self, rng):
        budget = calibrate(2.0, 0.01, 3)
        hits = 0
        for rep in range(40):
            X = (rng.random((3, 3)) < 0.5).astype(np.int8)
            result = attack_pipeline(X, budget=budget, rng_seed=rep)
            if result.status != "failed":
                hits += result.matrix_rate
        assert hits <= 5

    def test_row_permutation_invariant_metrics(self, rng):
        X = (rng.random((4, 3)) < 0.5).astype(np.int8)
        perm = rng.permutation(4)
        budget = calibrate(8.0, 0.01, 3)
        a = attack_pipeline(X, budget=budget, rng_seed=9)
        b = attack_pipeline(X[perm], budget=budget, rng_seed=9)
        assert a.hamming == b.hamming
        assert a.matrix_rate == b.matrix_rate
        assert a.element_rate == b.element_rate

    def test_rejects_nonbinary(self):
        for X in (np.array([[0.5, 1.0]]), np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(ValidationError, match="binary"):
                attack_pipeline(X)

    def test_released_gram_symmetric_and_integer(self, rng):
        from fedlmm.attack import released_rounded_gram

        budget = calibrate(1.0, 0.01, 3)
        for rep in range(20):
            X = (rng.random((3, 3)) < 0.5).astype(np.int8)
            g = released_rounded_gram(X, budget, rng_seed=rep)
            assert g.dtype == np.int64
            assert np.array_equal(g, g.T)

    def test_clamp_gram_ranges(self, rng):
        from fedlmm.attack import clamp_gram

        for rep in range(30):
            raw = rng.integers(-4, 9, size=(3, 3))
            raw = np.triu(raw) + np.triu(raw, 1).T
            g = clamp_gram(raw, n=3)
            assert np.array_equal(g, g.T)
            d = np.diag(g)
            assert (d >= 0).all() and (d <= 3).all()
            for j in range(3):
                for k in range(3):
                    if j != k:
                        assert 0 <= g[j, k] <= min(d[j], d[k])

    def test_repaired_never_counts_matrix_level(self, rng):
        budget = calibrate(4.0, 0.01, 3)
        seen_repair = False
        for rep in range(60):
            X = (rng.random((3, 3)) < 0.5).astype(np.int8)
            result = attack_pipeline(X, budget=budget, rng_seed=rep)
            if result.status == "infeasible-repaired":
                seen_repair = True
                assert result.matrix_rate == 0
                assert result.element_rate is not None
        assert seen_repair
