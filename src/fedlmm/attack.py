"""Reconstruction of binary designs from (possibly noisy, rounded) Gram matrices.

An attacker who sees the integer Gram matrix G = X'X of a small binary
design can try to recover X by solving the 0-1 feasibility problem

    find row counts c_r >= 0 over patterns u_r in {0,1}^p
    with sum_r c_r = n  and  sum_r c_r u_rj u_rk = G_jk  for all j <= k.

Rows of X are exchangeable in G, so searching over pattern multiplicities
(counts) instead of per-row assignments is equivalent up to row
permutation, which the evaluation metric ignores anyway.  The solver is a
depth-first branch-and-bound over the 2^p patterns, visited in descending
popcount order so that diagonal budgets prune early.

When rounding noise makes the instance infeasible, the attacker clamps
the Gram into the ranges a binary design can have (``clamp_gram``) and
falls back to the count vector with the smallest total L1 deviation from
the clamped constraints, so element-level accuracy is always defined.
That repair is a branch-and-bound over the same pattern order: a greedy
incumbent, counts tried in descending order under a diagonal cap, and an
L1 lower bound at every node.  Both searches read the Gram through one
table of upper-triangle slots (j <= k).  The exact search does numpy
operations per node on an int64 slot vector; the repair keeps plain
Python ints, because numpy's per-call overhead on at most 45 entries
would dominate each of its nodes.  Both searches recurse once per
pattern, so recursion depth caps p at 9.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SolverTimeoutError, ValidationError
from .privacy import PrivacyBudget, gaussian_mechanism


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
            if not np.isfinite(g).all():
                raise ValidationError("gram entries must be finite")
            g = np.rint(g)
        g = g.astype(np.int64)
        if not np.array_equal(g, g.T):
            raise ValidationError("gram must be symmetric")
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
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


class _Search:
    """The slot table shared by the exact and repair depth-first searches.

    Per pattern: the upper-triangle slots it covers, and its diagonal
    slots.  Per level: the slots some pattern from there on covers, and
    the rest.
    """

    def __init__(self, p: int, n: int, deadline: float):
        self.n = n
        self.patterns = _patterns(p)
        self.deadline = deadline
        self.nodes = 0
        iu, ju = self.triu = np.triu_indices(p)
        slot = {jk: s for s, jk in enumerate(zip(iu.tolist(), ju.tolist()))}
        self.cover: list[tuple[int, ...]] = []
        self.diag: list[tuple[int, ...]] = []
        for u in self.patterns:
            sup = np.flatnonzero(u).tolist()
            self.cover.append(tuple(slot[j, k] for j in sup for k in sup if j <= k))
            self.diag.append(tuple(slot[j, j] for j in sup))
        n_pat, n_slot = len(self.patterns), len(slot)
        self.covered_from = [()] * (n_pat + 1)
        self.uncovered_from = [tuple(range(n_slot))] * (n_pat + 1)
        covered: set[int] = set()
        for idx in range(n_pat - 1, -1, -1):
            covered.update(self.cover[idx])
            self.covered_from[idx] = tuple(sorted(covered))
            self.uncovered_from[idx] = tuple(s for s in range(n_slot) if s not in covered)

    def _tick(self):
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise SolverTimeoutError("reconstruction search exceeded its time limit")

    # -- exact feasibility -------------------------------------------------

    def enumerate_exact(self, gram: np.ndarray, limit: int | None) -> list[np.ndarray]:
        """DFS for count vectors reproducing ``gram`` exactly, up to ``limit``.

        Each solution is the per-pattern count vector over the nonzero
        patterns; the zero pattern absorbs the remaining n - sum(c) rows.
        """
        sols: list[np.ndarray] = []
        counts = np.zeros(len(self.patterns), dtype=np.int64)
        R = gram[self.triu].astype(np.int64)
        cover = [np.array(slots, dtype=np.intp) for slots in self.cover]
        uncovered_from = [np.array(slots, dtype=np.intp) for slots in self.uncovered_from]

        def rec(idx: int, n_rem: int) -> bool:
            self._tick()
            # Slots no pattern from idx onward can still reach must be 0.
            if R[uncovered_from[idx]].any():
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
                keep_going = rec(idx + 1, n_rem - c)
                if c:
                    R[slots] += c
                counts[idx] = 0
                if not keep_going:
                    return False
            return True

        rec(0, self.n)
        return sols

    # -- minimum-violation repair -------------------------------------------

    def repair(self, gram: np.ndarray) -> tuple[np.ndarray, int]:
        """Count vector minimizing total L1 deviation from ``gram``'s slots.

        The residual is a flat list of plain ints, one per slot; each
        pattern subtracts its count from the slots it covers.
        """
        n_pat = len(self.patterns)
        cover, diag = self.cover, self.diag
        covered_from, uncovered_from = self.covered_from, self.uncovered_from
        R = gram[self.triu].tolist()

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
            # slot still costs whatever lies above n_rem or below 0.
            lb = 0
            for s in uncovered_from[idx]:
                lb += abs(R[s])
            for s in covered_from[idx]:
                r = R[s]
                if r > n_rem:
                    lb += r - n_rem
                elif r < 0:
                    lb -= r
            if lb >= best:
                return
            if idx == n_pat:  # every slot is uncovered, so lb is the violation
                best, best_counts = lb, counts.copy()
                return
            slots = cover[idx]
            # A count c units above any covered diagonal cell costs at least
            # c - R_jj on that cell alone, so cap by the incumbent.
            c_cap = min(n_rem, max(0, min(R[s] for s in diag[idx])) + best)
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
    rows = [np.repeat(patterns[i : i + 1], c, axis=0) for i, c in enumerate(counts) if c]
    n_zero = n - int(counts.sum())
    rows.append(np.zeros((n_zero, patterns.shape[1]), dtype=np.int8))
    return np.concatenate(rows, axis=0)


def _start_search(instance: FeasibilityInstance, timeout_s: float) -> _Search:
    """Search state for the instance, its deadline starting now."""
    if not (timeout_s > 0 and math.isfinite(timeout_s)):
        raise ValidationError(f"timeout must be a positive number of seconds, got {timeout_s!r}")
    if instance.p > _P_MAX:
        raise CapacityError(f"p={instance.p} exceeds the solver's capacity p <= {_P_MAX}")
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
    ``feasible-multiple``.  Otherwise the minimum-violation repair runs on
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
        gram = gaussian_mechanism(gram, budget, rng_seed)
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
