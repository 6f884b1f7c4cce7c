import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from fedlmm.attack import (
    _Search,
    _binary_gram_bounds_hold,
    _counts_to_matrix,
    _patterns,
    check_solver_limits,
    clamp_gram,
)

from oracles import gram_fibers

# The (n, p) grids whose every Gram the fiber tests enumerate.
_FIBER_GRIDS = [(1, 1), (2, 2), (3, 2), (2, 3)]


def _hard_instance(rng, p=9, n=40):
    """The Gram of a random binary design, which no search finishes within 0.01 s."""
    X = (rng.random((n, p)) < 0.5).astype(np.int64)
    gram = X.T @ X
    # A Gram that fails the bounds ends the exact search at once, and the
    # timeout tests would pass without ever reaching their deadline.
    assert _binary_gram_bounds_hold(gram, n)
    return FeasibilityInstance(gram=gram, n=n)


def _row_multiset(X):
    return tuple(sorted(map(tuple, np.asarray(X))))


def _dfs_order(n_pat, n_rem):
    """Every count vector over n_pat patterns summing to at most n_rem, in the repair's DFS order."""
    if n_pat == 0:
        yield ()
        return
    for c in range(n_rem, -1, -1):
        for rest in _dfs_order(n_pat - 1, n_rem - c):
            yield (c, *rest)


def _repair_in_dfs_order(gram, n):
    """What the repair must return on ``gram``, by brute force.

    The greedy incumbent (exact-style caps all the way down) when that is
    optimal, else the first minimal-violation count vector in DFS order;
    returns (counts, violation, whether the greedy incumbent was kept).
    """
    patterns = _patterns(gram.shape[0]).astype(np.int64)

    def violations(counts):
        G = np.einsum("mi,ij,ik->mjk", np.array(counts, dtype=np.int64), patterns, patterns)
        return np.abs(np.triu(G - gram)).sum(axis=(1, 2))

    G, incumbent, n_rem = gram.copy(), [], n
    for u in patterns:
        sup = np.flatnonzero(u)
        c = min(n_rem, max(0, int(G[np.ix_(sup, sup)].min())))
        G -= c * np.outer(u, u)
        incumbent.append(c)
        n_rem -= c
    candidates = list(_dfs_order(len(patterns), n))
    scores = violations(candidates)
    best = int(scores.min())
    if violations([incumbent])[0] == best:
        return tuple(incumbent), best, True
    return candidates[int(scores.argmin())], best, False


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
        for n, p in _FIBER_GRIDS:
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

    def test_repair_tie_rule(self):
        # Which minimizer the repair returns, not only its violation: the
        # greedy incumbent when that is optimal, else the first
        # minimal-violation count vector in DFS order (patterns in
        # `_patterns` order, each count descending from the rows left).
        rng = np.random.default_rng(47)
        greedy_kept = replaced = 0
        for _ in range(400):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            X = (rng.random((n, p)) < 0.5).astype(np.int64)
            noise = rng.integers(-2, 3, size=(p, p))
            clamped = clamp_gram(X.T @ X + np.triu(noise) + np.triu(noise, 1).T, n)
            expected, best, kept = _repair_in_dfs_order(clamped, n)
            greedy_kept, replaced = greedy_kept + kept, replaced + (not kept)
            counts, found = _Search(p, n, deadline=math.inf).repair(clamped)
            assert (tuple(counts.tolist()), found) == (expected, best)
        assert greedy_kept and replaced

    def test_repair_tie_rule_p4(self):
        # The same rule at p = 4, where a level's pattern covers up to
        # q(q - 1)/2 = 6 off-diagonal slots, so the off-diagonal budget of
        # the repair's bound is more than one slot per row.  On these 30
        # instances it cuts the repair from 1,952 nodes to 1,668.
        rng = np.random.default_rng(54)
        greedy_kept = replaced = nodes = 0
        for _ in range(30):
            n = int(rng.integers(3, 6))
            X = (rng.random((n, 4)) < 0.5).astype(np.int64)
            noise = rng.integers(-2, 3, size=(4, 4))
            clamped = clamp_gram(X.T @ X + np.triu(noise) + np.triu(noise, 1).T, n)
            expected, best, kept = _repair_in_dfs_order(clamped, n)
            greedy_kept, replaced = greedy_kept + kept, replaced + (not kept)
            search = _Search(4, n, deadline=math.inf)
            counts, found = search.repair(clamped)
            assert (tuple(counts.tolist()), found) == (expected, best)
            nodes += search.nodes
        assert greedy_kept and replaced
        assert nodes == 1668

    def test_repair_timeout_gives_failed(self, rng):
        # A negative off-diagonal fails the bounds, so the exact search
        # expands no node and the deadline falls inside the repair.
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

    @pytest.mark.parametrize("timeout", [True, False, "1", None])
    def test_non_number_timeout_rejected(self, timeout):
        instance = FeasibilityInstance(gram=np.eye(2, dtype=int), n=3)
        message = f"^timeout must be a positive number of seconds, got {timeout!r}$"
        with pytest.raises(ValidationError, match=message):
            reconstruct(instance, timeout_s=timeout)
        with pytest.raises(ValidationError, match=message):
            check_solver_limits(3, timeout)

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

    @pytest.mark.parametrize("gram", [np.ones((2, 3), dtype=int), np.ones(3, dtype=int)],
                             ids=["rectangular", "vector"])
    def test_non_square_gram_rejected(self, gram):
        with pytest.raises(ValidationError, match="^gram must be square$"):
            FeasibilityInstance(gram=gram, n=2)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="^n must be >= 1, got 0$"):
            FeasibilityInstance(gram=np.eye(2, dtype=int), n=0)

    def test_numpy_integer_n_accepted(self):
        result = reconstruct(FeasibilityInstance(gram=np.eye(2, dtype=int), n=np.int64(3)))
        assert result.status == "unique" and result.X_hat.shape == (3, 2)


class TestGramBounds:
    """The pairwise bounds hold on every binary design's Gram and prune no fiber."""

    @pytest.mark.parametrize("n, p", [*_FIBER_GRIDS, (4, 3)])
    def test_every_fiber_key_passes(self, n, p):
        for key in gram_fibers(n, p):
            assert _binary_gram_bounds_hold(np.array(key, dtype=np.int64).reshape(p, p), n)

    def test_failing_grams_have_no_fiber(self):
        # Every symmetric integer Gram with entries in [-1, n + 1], n <= 3, p <= 2.
        # At p <= 2 the bounds are also sufficient, so a Gram passes exactly
        # when it has a fiber.
        for n, p in itertools.product((1, 2, 3), (1, 2)):
            fibers = gram_fibers(n, p)
            iu = np.triu_indices(p)
            for vals in itertools.product(range(-1, n + 2), repeat=len(iu[0])):
                gram = np.zeros((p, p), dtype=np.int64)
                gram[iu] = vals
                gram[(iu[1], iu[0])] = vals
                assert _binary_gram_bounds_hold(gram, n) == (tuple(gram.ravel()) in fibers)

    def test_matches_explicit_pairwise_bounds(self):
        # Every symmetric integer Gram with entries in [-1, n + 1], n <= 3, p <= 3,
        # against each bound written out: entries >= 0, G_jk <= min(G_jj, G_kk)
        # and G_jj + G_kk - G_jk <= n.
        for n, p in itertools.product((1, 2, 3), (1, 2, 3)):
            iu = np.triu_indices(p)
            for vals in itertools.product(range(-1, n + 2), repeat=len(iu[0])):
                gram = np.zeros((p, p), dtype=np.int64)
                gram[iu] = vals
                gram[(iu[1], iu[0])] = vals
                d = np.diag(gram)
                explicit = all(
                    gram[j, k] >= 0 and gram[j, k] <= min(d[j], d[k]) and d[j] + d[k] - gram[j, k] <= n
                    for j in range(p) for k in range(p)
                )
                assert _binary_gram_bounds_hold(gram, n) == explicit, (n, gram)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.int64, shape, elements=st.integers(0, 1))))
    def test_binary_design_gram_passes(self, X):
        assert _binary_gram_bounds_hold(X.T @ X, X.shape[0])


class TestExactPrune:
    """The rows' budget prunes the exact search only where no design lies."""

    @pytest.mark.parametrize("n, p, grams, empty", [(3, 3, 144, 24), (4, 3, 417, 88)])
    def test_every_passing_gram_matches_its_fiber(self, n, p, grams, empty):
        # Every symmetric integer Gram with entries in [0, n] that passes the
        # pairwise bounds, with or without a design: the budget fires on
        # these grids, and a Gram with no design must come back empty.
        fibers = gram_fibers(n, p)
        iu = np.triu_indices(p)
        seen = collections.Counter()
        for vals in itertools.product(range(n + 1), repeat=len(iu[0])):
            gram = np.zeros((p, p), dtype=np.int64)
            gram[iu] = vals
            gram[(iu[1], iu[0])] = vals
            if not _binary_gram_bounds_hold(gram, n):
                continue
            fiber = fibers.get(tuple(gram.ravel()), set())
            sols = enumerate_reconstructions(FeasibilityInstance(gram=gram, n=n))
            assert len(sols) == len(fiber)
            assert {_row_multiset(s) for s in sols} == fiber
            seen[bool(fiber)] += 1
        assert (sum(seen.values()), seen[False]) == (grams, empty)

    def test_budget_prunes_nodes_not_solutions(self):
        # The Gram of a 6 x 5 design with two designs in its fiber.  Without
        # the budget the exact search expands 16,508 nodes; with it, 2,058.
        gram = np.array([[3, 3, 2, 2, 2], [3, 6, 3, 4, 4], [2, 3, 3, 3, 2],
                         [2, 4, 3, 4, 3], [2, 4, 2, 3, 4]])
        search = _Search(5, 6, deadline=math.inf)
        sols = search.enumerate_exact(gram, limit=None)
        assert search.nodes == 2058
        designs = [["".join(map(str, row)) for row in
                    _counts_to_matrix(c, search.patterns, 6).tolist()] for c in sols]
        assert designs == [["11111", "11111", "01110", "01011", "11000", "01001"],
                           ["11111", "11110", "01111", "11001", "01011", "01000"]]


class TestRepairBudget:
    """The rows' off-diagonal budget prunes the repair, not its answer."""

    def test_off_diagonal_budget_prunes_nodes_not_answer(self):
        # A noisy Gram of a 6 x 5 design (eps0 = 8) that no design meets.
        # With the diagonal budget alone the repair expands 673 nodes; with
        # the off-diagonal budget as well, 435, to the same design.
        gram = np.array([[3, 2, 2, 1, 1], [2, 4, 1, 2, 2], [2, 1, 2, 2, 0],
                         [1, 2, 2, 3, 1], [1, 2, 0, 1, 2]])
        assert not enumerate_reconstructions(FeasibilityInstance(gram=gram, n=6))
        search = _Search(5, 6, deadline=math.inf)
        counts, violation = search.repair(gram)
        assert search.nodes == 435
        design = ["".join(map(str, row)) for row in _counts_to_matrix(counts, search.patterns, 6).tolist()]
        assert (design, violation) == (["11110", "11001", "01011", "10100", "01000", "00010"], 1)


class TestSlotTable:
    def test_one_read_only_table_per_p(self):
        a, b = _Search(4, 3, deadline=math.inf), _Search(4, 7, deadline=1.0)
        assert a.table is b.table and a.patterns is b.patterns
        assert _Search(5, 3, deadline=math.inf).table is not a.table
        with pytest.raises(ValueError, match="read-only"):
            a.patterns[0, 0] = 0
        # patterns, the two triu index arrays, and 15 + 16 + 16 slot index arrays
        arrays = [x for v in vars(a.table).values() for x in (v if isinstance(v, tuple) else (v,))
                  if isinstance(x, np.ndarray)]
        assert len(arrays) == 50 and not any(x.flags.writeable for x in arrays)


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

    def test_reconstructed_designs_golden(self):
        # Which design of a fiber reconstruct returns, and which the repair
        # returns, is invisible to the rate CSVs: pin (status, X_hat,
        # violation, hamming) over seeded replicates of three cells at three
        # levels, the draws seeded as run_reconstruction_cell seeds them.
        digest = hashlib.sha256()
        statuses = collections.Counter()
        for n, p in ((3, 3), (5, 5), (6, 5)):
            for eps in (None, 8.0, 2.0):
                budget = None if eps is None else calibrate(eps, delta=0.01, p=p)
                for rep in range(20):
                    ss = np.random.SeedSequence(entropy=[22, n, p, int(eps or 0), rep])
                    x_state, noise_state = ss.generate_state(2, np.uint64)
                    X = (np.random.default_rng(int(x_state)).random((n, p)) < 0.5).astype(np.int8)
                    result = attack_pipeline(X, budget, rng_seed=int(noise_state))
                    statuses[result.status] += 1
                    digest.update(f"{result.status}|{result.violation}|{result.hamming}|".encode())
                    digest.update(result.X_hat.tobytes())
        assert statuses == {"unique": 69, "feasible-multiple": 4, "infeasible-repaired": 107}
        assert digest.hexdigest() == "6118c71903408e7602cb996f468ef16e4bce1586b4ded1388f40b06e71421b8d"
