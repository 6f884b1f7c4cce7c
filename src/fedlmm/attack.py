"""Reconstruction of binary designs from (possibly noisy, rounded) Gram matrices.

An attacker who sees the integer Gram matrix G = X'X of a small binary
design can try to recover X by solving the 0-1 feasibility problem

    find row counts c_r >= 0 over patterns u_r in {0,1}^p
    with sum_r c_r = n  and  sum_r c_r u_rj u_rk = G_jk  for all j <= k.

Rows of X are exchangeable in G, so searching over pattern multiplicities
(counts) instead of per-row assignments is equivalent up to row
permutation, which the evaluation metric ignores anyway.  The solver is a
depth-first branch-and-bound over the 2^p patterns, visited in descending
popcount order so that diagonal budgets prune early.  Before it expands a
node, the exact search checks the pairwise bounds every binary n-row Gram
meets: entries >= 0, G_jj <= n, G_jk <= min(G_jj, G_kk) and
G_jj + G_kk - G_jk <= n (Frechet).  A noisy Gram that fails one has no
solution, so it goes straight to the repair.  At every node the exact
search then prunes by the rows' budget that the repair's lower bound
below also uses: no covered slot can exceed the n_rem rows still to
place, and the diagonal slots together cannot exceed n_rem times the
popcount of the level's pattern.  It prunes exactly where that bound is
positive, so it finds the same solutions in the same order.  The
diagonal sum goes down the recursion as a Python int.

When rounding noise makes the instance infeasible, the attacker clamps
the Gram into the ranges a binary design can have (``clamp_gram``) and
falls back to the count vector with the smallest total L1 deviation from
the clamped constraints, so element-level accuracy is always defined.
That repair is a branch-and-bound over the same pattern order: a greedy
incumbent, counts tried in descending order under the exact search's
cap plus the incumbent's violation, and an L1 lower bound at every node.
The bound adds a diagonal and an off-diagonal budget to its per-slot
terms: at most n_rem rows remain, and none covers more diagonal slots
than the popcount q of the level's pattern, nor more off-diagonal slots
than q(q - 1)/2.  So the covered diagonal residuals can fall by at most
n_rem * q together, and the covered off-diagonal ones by at most
n_rem * q(q - 1)/2.  Any positive residual beyond its budget is
violation that no completion avoids.  The bound holds for every
completion, so the budgets change which nodes the repair expands, not
its incumbents or their order.

Both searches read the Gram through one table of upper-triangle slots
(j <= k), built once per p on its first search and shared, read-only,
by every later one.  The exact search does numpy operations per node on
an int64 slot vector; the repair keeps plain Python ints, because
numpy's per-call overhead on at most 45 entries would dominate each of
its nodes.  Both searches recurse once per pattern, so recursion depth
caps p at 9.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SolverTimeoutError, ValidationError
from .privacy import PrivacyBudget, _site_stream
from .summaries import is_real, require_count


# Largest p the solver accepts.  The exact and repair searches recurse
# 2^p - 1 frames deep; Python's default recursion limit (1000) allows p = 9.
_P_MAX = 9


@dataclass(frozen=True)
class FeasibilityInstance:
    """Rounded integer Gram matrix plus the (public) row count."""

    gram: np.ndarray
    n: int

    def __post_init__(self):
        g = np.asarray(self.gram)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("gram must be square")
        if not np.issubdtype(g.dtype, np.integer):
            raise ValidationError("gram entries must be finite integers")
        g = g.astype(np.int64)
        if not np.array_equal(g, g.T):
            raise ValidationError("gram must be symmetric")
        require_count("n", self.n)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def p(self) -> int:
        return self.gram.shape[0]


@dataclass
class AttackResult:
    status: str  # unique | feasible-multiple | infeasible-repaired | failed
    X_hat: np.ndarray | None = None
    violation: int | None = None
    hamming: int | None = None
    matrix_rate: int | None = None
    element_rate: float | None = None


def _patterns(p: int) -> np.ndarray:
    """All nonzero binary patterns, descending (popcount, value)."""
    codes = np.arange(1, 2**p, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(p - 1, -1, -1)) & 1).astype(np.int8)
    pop = bits.sum(axis=1)
    order = np.lexsort((-codes, -pop))
    return bits[order]


def _binary_gram_bounds_hold(gram: np.ndarray, n: int) -> bool:
    """Whether ``gram`` meets the pairwise bounds every binary n-row Gram meets.

    Columns j and k of such a design mark row sets A_j and A_k, with
    G_jj = |A_j| and G_jk = |A_j & A_k|.  So 0 <= G_jk <= min(G_jj, G_kk),
    and G_jj + G_kk - G_jk = |A_j | A_k| <= n (the Frechet bounds of their
    2x2 table); at j = k the last bound reads G_jj <= n.  ``clamp_gram``
    leaves a Gram unchanged exactly when it meets all but the last.  The
    bounds are necessary, not sufficient: a Gram that passes may still have
    no design.
    """
    d = np.diag(gram)
    return bool(np.array_equal(clamp_gram(gram, n), gram) and (d[:, None] + d - gram <= n).all())


class _SlotTable:
    """The upper-triangle slot table both depth-first searches read, for one p.

    Per pattern: the slots it covers.  Per level: its pattern's popcount q,
    which bounds each later row's diagonal cover (0 at the leaves), and
    q(q - 1)/2, which bounds its off-diagonal cover; the slots some pattern
    from there on covers, split into diagonal and off-diagonal, and the
    rest.  The exact search reads the slot lists as numpy index arrays, the
    repair as tuples of plain ints.  Built once per p by ``_slot_table``
    and shared by every search of that p, so nothing in it is written.
    """

    def __init__(self, p: int):
        self.patterns = _patterns(p)
        iu, ju = self.triu = np.triu_indices(p)
        for a in (self.patterns, iu, ju):
            a.setflags(write=False)
        slot = {jk: s for s, jk in enumerate(zip(iu.tolist(), ju.tolist()))}
        diag = frozenset(slot[j, j] for j in range(p))
        cover, pop = [], []
        for u in self.patterns:
            sup = np.flatnonzero(u).tolist()
            cover.append(tuple(slot[j, k] for j in sup for k in sup if j <= k))
            pop.append(len(sup))
        self.cover = tuple(cover)
        self.pop = (*pop, 0)
        self.off_pop = tuple(q * (q - 1) // 2 for q in self.pop)
        n_pat, n_slot = len(cover), len(slot)
        covered_from = [()] * (n_pat + 1)
        uncovered_from = [tuple(range(n_slot))] * (n_pat + 1)
        covered: set[int] = set()
        for idx in range(n_pat - 1, -1, -1):
            covered.update(cover[idx])
            covered_from[idx] = tuple(sorted(covered))
            uncovered_from[idx] = tuple(s for s in range(n_slot) if s not in covered)
        self.uncovered_from = tuple(uncovered_from)
        self.diag_from = tuple(tuple(s for s in slots if s in diag) for slots in covered_from)
        self.off_from = tuple(tuple(s for s in slots if s not in diag) for slots in covered_from)

        def index(slots):
            a = np.array(slots, dtype=np.intp)
            a.setflags(write=False)
            return a

        self.cover_ix = tuple(map(index, cover))
        self.covered_ix = tuple(map(index, covered_from))
        self.uncovered_ix = tuple(map(index, uncovered_from))


@functools.cache
def _slot_table(p: int) -> _SlotTable:
    """The one slot table of p, built on its first search and kept for the
    process: a search has p <= 9, so there are at most ten."""
    return _SlotTable(p)


class _Search:
    """One search over the shared table of its p: n, the deadline and the nodes expanded so far."""

    def __init__(self, p: int, n: int, deadline: float):
        self.table = _slot_table(p)
        self.patterns = self.table.patterns
        self.n = n
        self.deadline = deadline
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise SolverTimeoutError("reconstruction search exceeded its time limit")

    # -- exact feasibility -------------------------------------------------

    def enumerate_exact(self, gram: np.ndarray, limit: int | None) -> list[np.ndarray]:
        """DFS for count vectors reproducing ``gram`` exactly, up to ``limit``.

        Each solution is the per-pattern count vector over the nonzero
        patterns; the zero pattern absorbs the remaining n - sum(c) rows.
        A Gram that fails the pairwise bounds has none, and no node is
        expanded.  A node is pruned when a slot no later pattern covers is
        nonzero, when a covered slot exceeds n_rem, or when the diagonal
        residuals sum to more than n_rem * pop[idx] (the repair's budget):
        each is a necessary condition of any completion, so the solutions
        and their order are those of the unpruned search.  The diagonal sum
        goes down the recursion as a Python int, d - c * pop[idx], and the
        index arrays come from the table of p, built once.
        """
        if not _binary_gram_bounds_hold(gram, self.n):
            return []
        table = self.table
        sols: list[np.ndarray] = []
        counts = np.zeros(len(self.patterns), dtype=np.int64)
        R = gram[table.triu].astype(np.int64)
        cover, pop = table.cover_ix, table.pop
        uncovered_from, covered_from = table.uncovered_ix, table.covered_ix

        def rec(idx: int, n_rem: int, d: int) -> bool:
            self._tick()
            # The repair's budget: the diagonal slots together can fall by
            # at most n_rem * pop[idx].  d sums every diagonal slot, and an
            # uncovered one that is nonzero prunes the node below anyway.
            if d > n_rem * pop[idx]:
                return True
            # Slots no pattern from idx onward can still reach must be 0,
            # and no covered slot can fall by more than n_rem.
            if R[uncovered_from[idx]].any() or (R[covered_from[idx]] > n_rem).any():
                return True
            if idx == len(self.patterns):
                sols.append(counts.copy())
                return limit is None or len(sols) < limit
            slots = cover[idx]
            c_max = min(n_rem, int(R[slots].min()))
            for c in range(c_max, -1, -1):
                if c:
                    R[slots] -= c
                counts[idx] = c
                keep_going = rec(idx + 1, n_rem - c, d - c * pop[idx])
                if c:
                    R[slots] += c
                counts[idx] = 0
                if not keep_going:
                    return False
            return True

        rec(0, self.n, int(np.trace(gram)))
        return sols

    # -- minimum-violation repair -------------------------------------------

    def repair(self, gram: np.ndarray) -> tuple[np.ndarray, int]:
        """Count vector minimizing total L1 deviation from ``gram``'s slots.

        The residual is a flat list of plain ints, one per slot; each
        pattern subtracts its count from the slots it covers.  The lower
        bound at a node adds two rows' budgets to the per-slot terms:
        patterns come in descending popcount, so the n_rem rows still to
        place lower the covered diagonal slots by at most n_rem * q in
        total and the covered off-diagonal slots by at most
        n_rem * q(q - 1)/2, where q is the popcount of the level's pattern.
        Any positive residual beyond its budget is violation no completion
        avoids.  The slot tuples come from the table of p, built once.
        """
        table = self.table
        n_pat = len(self.patterns)
        cover, pop, off_pop = table.cover, table.pop, table.off_pop
        uncovered_from, diag_from, off_from = table.uncovered_from, table.diag_from, table.off_from
        R = gram[table.triu].tolist()

        # Greedy incumbent: exact-style caps all the way down.
        G = R.copy()
        best_counts = [0] * n_pat
        n_rem = self.n
        for idx, slots in enumerate(cover):
            c = min(n_rem, max(0, min(G[s] for s in slots)))
            best_counts[idx] = c
            for s in slots:
                G[s] -= c
            n_rem -= c
        best = sum(map(abs, G))
        counts = [0] * n_pat

        def rec(idx: int, n_rem: int):
            nonlocal best, best_counts
            self._tick()
            # L1 lower bound: slots nothing can reach keep |r|; a reachable
            # slot still costs whatever lies below 0 or above n_rem, and the
            # reachable diagonal (off-diagonal) slots together whatever
            # positive residual lies above the rows' budget n_rem * q
            # (n_rem * q(q - 1)/2), q = pop[idx].
            lb = 0
            for s in uncovered_from[idx]:
                lb += abs(R[s])
            for slots, budget in ((diag_from[idx], pop[idx]), (off_from[idx], off_pop[idx])):
                above = positive = 0
                for s in slots:
                    r = R[s]
                    if r > 0:
                        positive += r
                        if r > n_rem:
                            above += r - n_rem
                    elif r < 0:
                        lb -= r
                lb += max(above, positive - n_rem * budget)
            if lb >= best:
                return
            if idx == n_pat:  # every slot is uncovered, so lb is the violation
                best, best_counts = lb, counts.copy()
                return
            slots = cover[idx]
            # The exact search's cap, loosened by the incumbent: a larger c
            # leaves some covered slot below -best, which no later pattern
            # can undo.  lb < best, so every covered slot is above -best.
            c_cap = min(n_rem, min(R[s] for s in slots) + best)
            for c in range(c_cap, -1, -1):
                if c:
                    for s in slots:
                        R[s] -= c
                counts[idx] = c
                rec(idx + 1, n_rem - c)
                if c:
                    for s in slots:
                        R[s] += c
                counts[idx] = 0
                if best == 0:
                    return

        rec(0, self.n)
        return np.array(best_counts, dtype=np.int64), best


def _counts_to_matrix(counts: np.ndarray, patterns: np.ndarray, n: int) -> np.ndarray:
    zeros = np.zeros((n - int(counts.sum()), patterns.shape[1]), dtype=np.int8)
    return np.concatenate((np.repeat(patterns, counts, axis=0), zeros))


def check_solver_limits(p: int, timeout_s: float) -> None:
    """Refuse a timeout that is not a positive, finite number of seconds (a bool is not one), and p > 9."""
    if not (is_real(timeout_s) and timeout_s > 0 and math.isfinite(timeout_s)):
        raise ValidationError(f"timeout must be a positive number of seconds, got {timeout_s!r}")
    if p > _P_MAX:
        raise CapacityError(f"p={p} exceeds the solver's capacity p <= {_P_MAX}")


def _start_search(instance: FeasibilityInstance, timeout_s: float) -> _Search:
    """Search state for the instance, its deadline starting now."""
    check_solver_limits(instance.p, timeout_s)
    return _Search(instance.p, instance.n, time.monotonic() + timeout_s)


def enumerate_reconstructions(
    instance: FeasibilityInstance, timeout_s: float = 10.0
) -> list[np.ndarray]:
    """All binary matrices (up to row order) whose Gram equals the instance's.

    Intended for small instances; raises CapacityError past p = 9 and
    SolverTimeoutError once the search runs past ``timeout_s`` seconds.
    """
    search = _start_search(instance, timeout_s)
    sols = search.enumerate_exact(instance.gram, limit=None)
    return [_counts_to_matrix(c, search.patterns, instance.n) for c in sols]


def reconstruct(instance: FeasibilityInstance, timeout_s: float = 10.0) -> AttackResult:
    """Solve the 0-1 feasibility problem for one instance (no metrics).

    Exact enumeration stops at two solutions: one gives ``unique``, two
    ``feasible-multiple``.  A Gram that fails the pairwise bounds of a
    binary design (see the module docstring) has no solution, so
    enumeration returns before expanding a node.  Otherwise the
    minimum-violation repair runs on
    ``clamp_gram(instance.gram, instance.n)`` under the same deadline, and
    ``violation`` is the upper-triangle L1 distance from the repaired
    design's Gram to ``instance.gram`` itself.  Running past ``timeout_s``
    seconds gives ``failed``; p > 9 raises CapacityError.
    """
    n = instance.n
    search = _start_search(instance, timeout_s)
    try:
        sols = search.enumerate_exact(instance.gram, limit=2)
        if sols:
            status = "unique" if len(sols) == 1 else "feasible-multiple"
            return AttackResult(status, _counts_to_matrix(sols[0], search.patterns, n), violation=0)
        counts, _ = search.repair(clamp_gram(instance.gram, n))
    except SolverTimeoutError:
        return AttackResult(status="failed")
    X_hat = _counts_to_matrix(counts, search.patterns, n)
    G = X_hat.astype(np.int64)
    violation = int(np.abs(np.triu(G.T @ G - instance.gram)).sum())
    return AttackResult(status="infeasible-repaired", X_hat=X_hat, violation=violation)


def hamming_sorted(A: np.ndarray, B: np.ndarray) -> int:
    """Entry disagreements after lexicographic row sorting of both matrices."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    A_sorted = A[np.lexsort(A.T[::-1])]
    B_sorted = B[np.lexsort(B.T[::-1])]
    return int((A_sorted != B_sorted).sum())


def released_rounded_gram(
    X: np.ndarray, budget: PrivacyBudget | None, rng_seed: int
) -> np.ndarray:
    """What the attacker sees: the (optionally perturbed) Gram, integer-rounded.

    Noise, when requested, is the plain entrywise Gaussian mechanism (the
    release of this experiment carries no symmetrization post-processing),
    so the perturbed matrix is asymmetric: the upper triangle is rounded
    and mirrored, matching a solver that only reads entries with j <= k.
    """
    X = np.asarray(X)
    gram = (X.astype(np.int64).T @ X.astype(np.int64)).astype(float)
    if budget is not None:
        # the stream name is part of the released bytes of the attack experiment
        gram += _site_stream(rng_seed, "attack-target").normal(0.0, budget.sigma_dp, size=gram.shape)
    rounded = np.rint(np.triu(gram))
    rounded = rounded + np.triu(rounded, 1).T
    return rounded.astype(np.int64)


def clamp_gram(rounded: np.ndarray, n: int) -> np.ndarray:
    """Attacker-side preprocessing for the repair stage.

    Any true binary Gram has diagonal entries in [0, n] and off-diagonals
    within [0, min of the two diagonals]; clamping into those ranges keeps
    the minimum-violation search near plausible matrices.
    """
    rounded = np.asarray(rounded, dtype=np.int64)
    diag = np.clip(np.diag(rounded), 0, n)
    out = np.clip(rounded, 0, np.minimum.outer(diag, diag))
    np.fill_diagonal(out, diag)
    return out


def attack_pipeline(
    true_X: np.ndarray,
    budget: PrivacyBudget | None = None,
    rng_seed: int = 0,
    timeout_s: float = 10.0,
) -> AttackResult:
    """Release -> round -> reconstruct -> score one attack replicate.

    A matrix-level success requires an exact status, i.e. a solution that
    reproduces the released rounded matrix, matching the true rows after
    sorting.  Repaired outputs feed the element-level rate only and never
    count as matrix-level recovery.
    """
    X = np.asarray(true_X)
    if X.ndim != 2 or X.size == 0 or not np.isin(X, (0, 1)).all():
        raise ValidationError(f"true_X must be a binary matrix with n, p >= 1; got shape {X.shape}")
    n, p = X.shape
    rounded = released_rounded_gram(X, budget, rng_seed)
    result = reconstruct(FeasibilityInstance(rounded, n), timeout_s)
    if result.status != "failed":
        result.hamming = hamming_sorted(result.X_hat, X)
        exact = result.status != "infeasible-repaired"
        result.matrix_rate = int(exact and result.hamming == 0)
        result.element_rate = 1.0 - result.hamming / (n * p)
    return result
