"""Replicated multi-site experiments: data generation, arms, and metrics.

Two study drivers mirror the experimental designs this package is built
around: an estimation study comparing a no-noise arm against privatized
arms over a grid of privacy levels, and a reconstruction study measuring
how often a binary design survives the release -> round -> solve attack.

Replicates are independent work units.  Every random stream derives from
(base seed, replicate index), so results are identical whether replicates
run serially, in parallel, or in any order.
"""

from __future__ import annotations

import csv
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import attack as attack_mod
from .errors import FedLMMError, ValidationError
from .estimator import fit_ml
from .privacy import calibrate, privatize
from .summaries import SiteData, compute_summary, is_real, merge_summaries, require_count, standardize
from .variance import apply_correction, correction_factor, cr0

# The study arms in row order.  Each has the noise-stream index j of its
# release seeds and the design columns its release perturbs, as given to
# ``privatize`` (the empty set: every entry), or None for the exact
# summaries.  The first arm is the no-noise reference.
_ARM_TABLE = {
    "ipd": (None, lambda scenario: None),
    "dp": (0, lambda scenario: frozenset()),
    # the sensitive closure; the exact summaries when no analysis column is sensitive
    "dp2": (1, lambda scenario: scenario.sensitive_design_blocks or None),
}
ARMS = tuple(_ARM_TABLE)

_BETA0 = (1.0, 0.5, 0.5, -1.0, -0.5, 1.0, -1.0)
_SIGMA2 = 1.0
# Site sizes: with probability _P_SMALL uniform on _SMALL_SIZES, else on _LARGE_SIZES.
_P_SMALL = 0.8
_SMALL_SIZES = (2, 10)
_LARGE_SIZES = (50, 100)
_BERNOULLI_P = {1: 0.5, 3: 0.3, 4: 0.7, 5: 0.5}
_NORMAL_SD = {2: 1.0, 6: 0.5}
_SENSITIVE_COVARIATES = (4, 5, 6)  # x4, x5, x6 carry the privacy-sensitive values


# Named scenarios: (generator, analysis).
SCENARIOS = {
    "ri-correct": ("random-intercept", "full"),
    "ri-mis": ("random-intercept", "underfit"),
    "ris-correct": ("random-intercept-slope", "full"),
    "ris-mis": ("random-intercept-slope", "underfit"),
}


@dataclass(frozen=True)
class Scenario:
    """One cell of the estimation experiment, named after an entry of ``SCENARIOS``.

    The generator draws six covariates (four Bernoulli, two Gaussian) and a
    site-level random intercept, optionally plus a random slope on x1; the
    analysis model either matches the full mean structure or underfits with
    (x1, x2) only.  The true beta and sigma2 (``_BETA0``, ``_SIGMA2``) and
    the small/large site-size mixture are fixed; tau2 is settable, to any
    finite number >= 0.
    """

    name: str
    K: int = 20
    tau2: float = 1.0

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.name!r}; choose from {sorted(SCENARIOS)}")
        require_count("K", self.K)
        tau2 = self.tau2
        if not (is_real(tau2) and math.isfinite(tau2) and tau2 >= 0):
            raise ValidationError(f"tau2 must be a finite number >= 0, got {tau2!r}")

    @property
    def generator(self) -> str:
        return SCENARIOS[self.name][0]

    @property
    def analysis(self) -> str:
        return SCENARIOS[self.name][1]

    @property
    def design_columns(self) -> list[str]:
        if self.analysis == "full":
            return ["intercept"] + [f"x{m}" for m in range(1, 7)]
        return ["intercept", "x1", "x2"]

    @property
    def beta0_analysis(self) -> np.ndarray:
        beta = np.asarray(_BETA0)
        return beta if self.analysis == "full" else beta[:3]

    @property
    def sensitive_design_blocks(self) -> frozenset[int]:
        """Sensitive covariates as 1-based analysis-design column indices."""
        cols = self.design_columns
        return frozenset(
            cols.index(f"x{m}") + 1 for m in _SENSITIVE_COVARIATES if f"x{m}" in cols
        )


def draw_site_sizes(rng: np.random.Generator, scenario: Scenario) -> np.ndarray:
    """Mixture of small and large site sizes (inclusive uniform ranges)."""
    small = rng.integers(_SMALL_SIZES[0], _SMALL_SIZES[1] + 1, scenario.K)
    large = rng.integers(_LARGE_SIZES[0], _LARGE_SIZES[1] + 1, scenario.K)
    pick_small = rng.random(scenario.K) < _P_SMALL
    return np.where(pick_small, small, large)


def generate(scenario: Scenario, seed) -> list[SiteData]:
    """Draw the full-design data of all sites (intercept + six covariates).

    ``seed`` is anything ``np.random.default_rng`` takes; a Generator is used as it is.
    """
    rng = np.random.default_rng(seed)
    sizes = draw_site_sizes(rng, scenario)
    beta = np.asarray(_BETA0)
    sites = []
    for k, n in enumerate(sizes):
        n = int(n)
        cols = [np.ones(n)]
        for m in range(1, 7):
            if m in _BERNOULLI_P:
                cols.append(rng.binomial(1, _BERNOULLI_P[m], n).astype(float))
            else:
                cols.append(rng.normal(0.0, _NORMAL_SD[m], n))
        X = np.column_stack(cols)
        b0 = rng.normal(0.0, math.sqrt(scenario.tau2))
        y = X @ beta + b0
        if scenario.generator == "random-intercept-slope":
            b1 = rng.normal(0.0, math.sqrt(scenario.tau2))
            y = y + b1 * X[:, 1]
        y = y + rng.normal(0.0, math.sqrt(_SIGMA2), n)
        sites.append(SiteData(site_id=f"site{k:04d}", y=y, X=X))
    return sites


def analysis_design(sites: Sequence[SiteData], scenario: Scenario) -> list[SiteData]:
    """Restrict the generated full design to the analysis model's columns."""
    if scenario.analysis == "full":
        return list(sites)
    return [SiteData(site_id=s.site_id, y=s.y, X=s.X[:, :3]) for s in sites]


@dataclass(frozen=True)
class MetricRow:
    """One (replicate, arm, epsilon0) record of the estimation study."""

    scenario: str
    arm: str
    epsilon0: float | None
    K: int
    replicate: int
    failed: bool
    correction: str
    l2_error: float | None = None
    l2_privacy_cost: float | None = None
    se_inflation: float | None = None
    beta_hat: tuple[float, ...] | None = None
    se_hat: tuple[float, ...] | None = None


def _derived_seed(parts: Sequence[int]) -> int:
    return int(np.random.SeedSequence(entropy=list(parts)).generate_state(1, np.uint64)[0])


def _estimate(summaries, record, correction: str, perturbs, budget, noise_seed):
    """(converged, beta, SEs) on the original scale of a fit to one release of ``summaries``.

    ``perturbs`` is the release: None for the exact summaries, else the
    ``privatize`` column set.  None when the release or the fit fails; a
    correction the data cannot take raises.
    """
    try:
        if perturbs is not None:
            summaries = privatize(summaries, budget, sensitive=perturbs, rng_seed=noise_seed)
        fit = fit_ml(summaries)
        v = cr0(summaries, fit.theta_hat)
    except (FedLMMError, np.linalg.LinAlgError):
        return None
    V = record.variance_to_original(apply_correction(v, correction).V)
    se = np.sqrt(np.clip(np.diag(V), 0.0, None))
    return fit.converged, record.beta_to_original(fit.theta_hat.beta), se


def one_replicate(
    scenario: Scenario,
    epsilon0_grid: Sequence[float],
    seed: int,
    replicate: int,
    correction: str = "cr0",
    arms: Sequence[str] = ARMS,
) -> list[MetricRow]:
    """All arms of one replicate on common generated data.

    The reference arm is fitted first, requested or not: every row is
    measured against it, and a failed data step or reference fit fails
    every requested row.
    """
    reference_arm, *private_arms = ARMS
    jobs = [(reference_arm, None, None)] + [
        (arm, eps_idx, float(eps))
        for arm in private_arms if arm in arms
        for eps_idx, eps in enumerate(epsilon0_grid)
    ]
    data_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=[int(seed), int(replicate), 0])
    )
    try:
        sites = analysis_design(generate(scenario, data_rng), scenario)
        sites_std, record = standardize(sites, names=scenario.design_columns)
        summaries = merge_summaries([compute_summary(s) for s in sites_std])
    except FedLMMError:
        summaries = None

    rows, reference = [], None
    for arm, eps_idx, eps in jobs:
        estimate = None
        if summaries is not None and (eps is None or reference is not None):
            stream, perturbs = _ARM_TABLE[arm]
            budget = noise_seed = None
            if eps is not None:
                budget = calibrate(eps, delta=1.0 / summaries.N, p=summaries.p)
                noise_seed = _derived_seed([seed, replicate, 1, stream, eps_idx])
            estimate = _estimate(summaries, record, correction, perturbs(scenario), budget, noise_seed)
        if eps is None:
            reference = estimate
        if arm in arms:
            rows.append(_metric_row(scenario, arm, eps, replicate, correction, estimate, reference))
    return rows


def _metric_row(scenario, arm, eps, replicate, correction, estimate, reference) -> MetricRow:
    """One arm's row; ``estimate`` and ``reference`` are ``_estimate`` results."""
    row = dict(scenario=scenario.name, arm=arm, epsilon0=eps, K=scenario.K,
               replicate=replicate, correction=correction)
    if estimate is None:
        return MetricRow(**row, failed=True)
    (converged, beta, se), (ref_converged, ref_beta, ref_se) = estimate, reference
    ref_se_norm = float(np.linalg.norm(ref_se))
    return MetricRow(
        **row, failed=not (ref_converged and converged),
        l2_error=float(np.linalg.norm(beta - scenario.beta0_analysis)),
        l2_privacy_cost=float(np.linalg.norm(beta - ref_beta)),
        se_inflation=float(np.linalg.norm(se)) / ref_se_norm if ref_se_norm > 0 else None,
        beta_hat=tuple(beta), se_hat=tuple(se),
    )


def run_estimation_study(
    scenario: Scenario,
    epsilon0_grid: Sequence[float],
    reps: int,
    seed: int,
    correction: str = "cr0",
    arms: Sequence[str] = ARMS,
    workers: int = 1,
) -> list[MetricRow]:
    """Replicated arms on common random numbers; failures never abort the study."""
    require_count("reps", reps)
    if not arms or any(a not in ARMS for a in arms):
        raise ValidationError(f"arms must be one or more of {list(ARMS)}, got {list(arms)}")
    # Refuse here what every replicate would refuse, before a failed
    # reference fit can hide it: a level calibrate rejects, or a correction
    # the scenario's K and p cannot take.  N is drawn, so delta = 1/N and
    # cr1s's N > p are left to each replicate.
    p = len(scenario.design_columns)
    for eps in epsilon0_grid:
        calibrate(float(eps), delta=0.5, p=p)
    correction_factor(correction, scenario.K, N=p + 1, p=p)
    task = functools.partial(one_replicate, scenario, tuple(epsilon0_grid), seed,
                             correction=correction, arms=tuple(arms))
    workers = min(max(workers, 1), reps)
    if workers == 1:
        results = map(task, range(reps))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(reps), chunksize=math.ceil(reps / workers)))
    rows = [row for replicate in results for row in replicate]
    rows.sort(key=lambda r: (r.replicate, ARMS.index(r.arm), r.epsilon0 if r.epsilon0 is not None else -1.0))
    return rows


# -- aggregation -------------------------------------------------------------


_SE_GROUP_KEYS = ("scenario", "arm", "epsilon0", "K", "correction")


def se_calibration(rows: Sequence[MetricRow]) -> list[dict]:
    """Mean estimated SE over the empirical SD of beta-hat, per coefficient.

    Rows are grouped by (scenario, arm, epsilon0, K, correction).  Failed
    replicates are excluded.  Groups need at least two usable replicates;
    a zero empirical SD flags the row as degenerate.
    """
    groups: dict[tuple, list[MetricRow]] = {}
    for row in rows:
        if row.failed or row.beta_hat is None or row.se_hat is None:
            continue
        groups.setdefault(tuple(getattr(row, k) for k in _SE_GROUP_KEYS), []).append(row)
    if not groups:
        raise ValidationError("no usable rows to aggregate")
    out = []
    for key, members in sorted(groups.items(), key=lambda kv: str(kv[0])):
        if len(members) < 2:
            raise ValidationError(f"group {key} has fewer than 2 usable replicates")
        betas = np.array([m.beta_hat for m in members])
        ses = np.array([m.se_hat for m in members])
        sd = betas.std(axis=0, ddof=1)
        mean_se = ses.mean(axis=0)
        for j in range(betas.shape[1]):
            degenerate = sd[j] == 0.0
            out.append(
                dict(zip(_SE_GROUP_KEYS, key))
                | {
                    "coefficient": j,
                    "mean_se": float(mean_se[j]),
                    "sd_beta": float(sd[j]),
                    "ratio": float(mean_se[j] / sd[j]) if not degenerate else None,
                    "n_used": len(members),
                    "degenerate": bool(degenerate),
                }
            )
    return out


def privacy_cost_slope(
    rows: Sequence[MetricRow],
    versus: str = "inv_K",
    statistic: str = "mean",
) -> tuple[float, float]:
    """Log-log slope of the squared privacy cost of the dp arm across levels.

    ``versus="inv_K"`` regresses log(statistic of cost^2) on log(1/K)
    pooling rows at a common privacy level; ``versus="epsilon0"``
    regresses on log(epsilon0) at a common K.  The mean is the default
    per-level statistic; heavy privacy noise occasionally produces wild
    fits whose squared cost dominates a finite-sample mean, and
    ``statistic="median"`` gives an outlier-robust view of the same law.
    Returns (slope, standard error).
    """
    if versus not in ("inv_K", "epsilon0"):
        raise ValidationError(f"unknown axis {versus!r}")
    if statistic not in ("mean", "median"):
        raise ValidationError(f"unknown statistic {statistic!r}")
    usable = [
        r for r in rows
        if r.arm == "dp" and not r.failed and r.l2_privacy_cost is not None
    ]
    levels: dict[float, list[float]] = {}
    for r in usable:
        level = float(r.K) if versus == "inv_K" else float(r.epsilon0)
        levels.setdefault(level, []).append(r.l2_privacy_cost**2)
    if len(levels) < 3:
        raise ValidationError(f"need >= 3 distinct levels of {versus}, got {len(levels)}")
    agg = np.mean if statistic == "mean" else np.median
    xs, ys = [], []
    for level, costs in sorted(levels.items()):
        value = float(agg(costs))
        if value <= 0:
            raise ValidationError("degenerate zero privacy cost; slope undefined")
        xs.append(np.log(1.0 / level) if versus == "inv_K" else np.log(level))
        ys.append(np.log(value))
    x = np.array(xs)
    y = np.array(ys)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


# -- reconstruction study ----------------------------------------------------


def run_reconstruction_cell(
    n: int,
    p: int,
    epsilon0: float | None,
    reps: int,
    seed: int,
    delta: float = 0.01,
    timeout_s: float = 10.0,
    level_key: int = 0,
) -> dict:
    """Attack replicates for one (n, p, privacy level) cell.

    Matrix-level rate counts failed solves as non-recoveries; the
    element-level rate averages over solved replicates only, with the
    failure count reported alongside.
    """
    for name, value in (("n", n), ("p", p), ("reps", reps)):
        require_count(name, value)
    budget = None if epsilon0 is None else calibrate(float(epsilon0), delta=delta, p=p)
    matrix_hits = 0
    element_rates = []
    failed = 0
    for rep in range(reps):
        ss = np.random.SeedSequence(entropy=[int(seed), n, p, level_key, rep])
        x_state, noise_state = ss.generate_state(2, np.uint64)
        rng = np.random.default_rng(int(x_state))
        X = (rng.random((n, p)) < 0.5).astype(np.int8)
        result = attack_mod.attack_pipeline(X, budget, rng_seed=int(noise_state), timeout_s=timeout_s)
        if result.status == "failed":
            failed += 1
            continue
        matrix_hits += result.matrix_rate
        element_rates.append(result.element_rate)
    return {
        "n": n,
        "p": p,
        "epsilon0": epsilon0,
        "matrix_rate": matrix_hits / reps,
        "element_rate": float(np.mean(element_rates)) if element_rates else 0.0,
        "reps": reps,
        "failed": failed,
    }


def run_reconstruction_study(
    n_values: Sequence[int],
    p_values: Sequence[int],
    epsilon0_values: Sequence[float | None],
    reps: int,
    seed: int,
    delta: float = 0.01,
    timeout_s: float = 10.0,
) -> list[dict]:
    """One row per (p, n, level) cell, in that loop order.

    The whole grid is checked before the first cell runs, so a bad value
    refuses the study without running the valid cells first: reps and
    every n integers of at least 1, every p an integer in 1..9, a positive
    finite timeout, and every level other than the reference (None)
    calibrated at every p.
    """
    require_count("reps", reps)
    for n in n_values:
        require_count("n", n)
    for p in p_values:
        require_count("p", p)
        attack_mod.check_solver_limits(p, timeout_s)
        for eps in epsilon0_values:
            if eps is not None:
                calibrate(float(eps), delta=delta, p=p)
    rows = []
    for p in p_values:
        for n in n_values:
            for idx, eps in enumerate(epsilon0_values):
                rows.append(
                    run_reconstruction_cell(
                        n, p, eps, reps, seed, delta=delta, timeout_s=timeout_s, level_key=idx
                    )
                )
    return rows


# -- CSV emission ------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    if isinstance(value, tuple):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


METRIC_FIELDS = tuple(f.name for f in fields(MetricRow))


def write_rows(rows: Iterable[Mapping], path, columns: Sequence[str]) -> None:
    """CSV with a ``columns`` header and one line per mapping; a missing key is an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
