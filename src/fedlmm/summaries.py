"""Site data, quadratic summary statistics, and the summary exchange format.

A site holds an outcome vector ``y`` (length n) and a design matrix ``X``
(n x p).  The only object that ever crosses the site -> coordinator
boundary is a pair of symmetric (p+1) x (p+1) cross-product matrices,

    S = [[y'y, y'X],      T = [[y'11'y, y'11'X],
         [X'y, X'X]]           [X'11'y, X'11'X]]

laid out "y-first": row/column 0 is the outcome block, rows/columns 1..p
the design columns.  T is rank one by construction, T = s s' with
s = (1'y, 1'X).  These two matrices, together with n, are sufficient to
rebuild the pooled random-intercept likelihood at the coordinator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError

SCHEMA_VERSION = 1

# Above this site size, cross products are accumulated exactly and rounded
# once; summaries are the single source of truth downstream, so rounding
# drift must stay bounded.
_EXACT_SUM_THRESHOLD = 10_000

# Rows per block of the exact accumulation, and the headroom in bits that
# its extraction needs: 2**_BLOCK_BITS >= _BLOCK_ROWS + 2.
_BLOCK_ROWS = 1024
_BLOCK_BITS = 11

# Relative tolerance of the PSD and rank-one checks on unprivatized summaries.
_STRUCTURE_RTOL = 1e-8


def _as_float_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class SiteData:
    """Raw per-site data; never leaves the site (oracle/simulation side only)."""

    site_id: str
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        X = _as_float_matrix(self.X, "X")
        if y.shape[0] < 1:
            raise ValidationError(f"site {self.site_id!r}: needs at least one row")
        if X.shape[1] < 1:
            raise ValidationError(f"site {self.site_id!r}: needs at least one covariate column")
        if X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"site {self.site_id!r}: X has {X.shape[0]} rows but y has {y.shape[0]}"
            )
        if not np.isfinite(y).all():
            raise ValidationError(f"site {self.site_id!r}: non-finite entries in y")
        if not np.isfinite(X).all():
            raise ValidationError(f"site {self.site_id!r}: non-finite entries in X")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SiteSummary:
    """The shareable quadratic summary (n, S, T) of one site."""

    site_id: str
    n: int
    S: np.ndarray
    T: np.ndarray
    privatized: bool = False
    budget_used: object | None = None  # privacy.PrivacyBudget when privatized

    def __post_init__(self):
        S = _as_float_matrix(self.S, "S")
        T = _as_float_matrix(self.T, "T")
        if self.n < 1:
            raise ValidationError(f"site {self.site_id!r}: n must be >= 1")
        d = S.shape[0]
        if S.shape != (d, d) or T.shape != (d, d) or d < 2:
            raise ValidationError(
                f"site {self.site_id!r}: S and T must both be square (p+1)x(p+1) with p >= 1"
            )
        if not (np.isfinite(S).all() and np.isfinite(T).all()):
            raise ValidationError(f"site {self.site_id!r}: non-finite summary entries")
        if not (np.array_equal(S, S.T) and np.array_equal(T, T.T)):
            raise ValidationError(f"site {self.site_id!r}: S and T must be exactly symmetric")
        S.setflags(write=False)
        T.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)

    @property
    def p(self) -> int:
        return self.S.shape[0] - 1

    def validate_unprivatized_structure(self) -> None:
        """Check the structural invariants that exact summaries must satisfy.

        S must be positive semidefinite and T must be positive semidefinite
        of rank <= 1.  Only meaningful when ``privatized`` is False; noisy
        summaries legitimately violate both.
        """
        if self.privatized:
            return
        scale = max(1.0, float(np.abs(self.S).max()))
        if np.linalg.eigvalsh(self.S).min() < -_STRUCTURE_RTOL * scale:
            raise ValidationError(f"site {self.site_id!r}: S is not positive semidefinite")
        tscale = max(1.0, float(np.abs(self.T).max()))
        w, v = np.linalg.eigh(self.T)
        if w.min() < -_STRUCTURE_RTOL * tscale:
            raise ValidationError(f"site {self.site_id!r}: T is not positive semidefinite")
        rank1 = w[-1] * np.outer(v[:, -1], v[:, -1])
        if np.abs(self.T - rank1).max() > _STRUCTURE_RTOL * tscale:
            raise ValidationError(f"site {self.site_id!r}: T is not rank one")


def _exact_sums(A: np.ndarray, left: np.ndarray, right: np.ndarray) -> list[float]:
    """Correctly rounded column sums of the products ``A[:, left] * A[:, right]``.

    Entry k is the ``math.fsum`` of the rounded products of columns
    ``left[k]`` and ``right[k]``, or NaN where that sum is not finite.
    The products are formed one block of rows at a time.  Each block is
    split error-free, AccSum style (Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31(1), 2008): with sigma a power of two at least
    2**_BLOCK_BITS times the largest remainder, ``q = (sigma + r) - sigma``
    and ``r - q`` are exact, and the q of a block sum exactly.  Rounds
    repeat until every remainder is zero, and one ``fsum`` per entry adds
    the exact partials.  Products too large for sigma to be finite, and
    non-finite ones, go to that ``fsum`` as they are.
    """
    partials = [np.zeros((1, len(left)))]  # all products may be zero
    for start in range(0, A.shape[0], _BLOCK_ROWS):
        block = A[start:start + _BLOCK_ROWS]
        r = block[:, left] * block[:, right]
        mu = np.abs(r).max(axis=0)
        raw = ~(mu < 2.0 ** (1023 - _BLOCK_BITS))  # NaN and inf included
        if raw.any():
            partials.append(np.where(raw, r, 0.0))
            r[:, raw] = 0.0
            mu[raw] = 0.0
        while mu.any():
            sigma = np.ldexp(1.0, np.frexp(mu)[1] + _BLOCK_BITS)
            q = (sigma + r) - sigma
            r -= q
            partials.append(q.sum(axis=0, keepdims=True))
            mu = np.abs(r).max(axis=0)
    sums = []
    for column in np.concatenate(partials).T.tolist():
        try:
            sums.append(math.fsum(column))
        except (OverflowError, ValueError):  # an overflowing sum, or inf - inf
            sums.append(math.nan)
    return sums


def compute_summary(data: SiteData) -> SiteSummary:
    """Build the (S, T) summary pair of one site.

    S collects all pairwise cross products of (y, X); T is the outer
    product of the column sums s = (1'y, 1'X).  Row order of the site
    data is irrelevant.  Above ``_EXACT_SUM_THRESHOLD`` rows, every entry
    of S and s is the correctly rounded sum of its rounded products (what
    ``math.fsum`` returns), so it does not depend on the row order either.
    A sum that overflows leaves a non-finite entry, which the summary
    rejects.
    """
    d = data.p + 1
    with np.errstate(over="ignore", invalid="ignore"):
        if data.n > _EXACT_SUM_THRESHOLD:
            # A ones column turns the column sums into products as well.
            A = np.column_stack([data.y, data.X, np.ones(data.n)])
            left, right = np.triu_indices(d + 1)
            left, right = left[:-1], right[:-1]  # drop ones * ones
            S = np.empty((d + 1, d + 1))
            S[left, right] = S[right, left] = _exact_sums(A, left, right)
            S, s = S[:d, :d], S[:d, d]
        else:
            A = np.column_stack([data.y, data.X])
            S = A.T @ A
            S = (S + S.T) / 2.0  # enforce bitwise symmetry
            s = A.sum(axis=0)
        T = np.outer(s, s)
    return SiteSummary(site_id=data.site_id, n=data.n, S=S, T=T, privatized=False)


@dataclass(frozen=True)
class FederatedSummarySet:
    """Ordered collection of compatible site summaries.

    Per-site identity is preserved: the likelihood needs each n_k, never
    just the pooled sums.
    """

    summaries: tuple[SiteSummary, ...]

    def __post_init__(self):
        if not self.summaries:
            raise ValidationError("summary set must contain at least one site")
        p = self.summaries[0].p
        seen: set[str] = set()
        for s in self.summaries:
            if s.p != p:
                raise ValidationError(
                    f"dimension mismatch: site {s.site_id!r} has p={s.p}, expected p={p}"
                )
            if s.site_id in seen:
                raise ValidationError(f"duplicate site_id {s.site_id!r}")
            seen.add(s.site_id)
        object.__setattr__(self, "summaries", tuple(self.summaries))

    def __len__(self) -> int:
        return len(self.summaries)

    def __iter__(self) -> Iterator[SiteSummary]:
        return iter(self.summaries)

    def __getitem__(self, i) -> SiteSummary:
        return self.summaries[i]

    @property
    def K(self) -> int:
        return len(self.summaries)

    @property
    def p(self) -> int:
        return self.summaries[0].p

    @property
    def N(self) -> int:
        return sum(s.n for s in self.summaries)

    @property
    def any_privatized(self) -> bool:
        return any(s.privatized for s in self.summaries)

    def stacked(self) -> dict[str, np.ndarray]:
        """Dense stacks used by the likelihood kernels: shape (K, ...) arrays."""
        return {
            "n": np.array([s.n for s in self.summaries], dtype=float),
            "S": np.stack([s.S for s in self.summaries]),
            "T": np.stack([s.T for s in self.summaries]),
        }


def merge_summaries(summaries: Sequence[SiteSummary]) -> FederatedSummarySet:
    """Collect per-site summaries into one validated, ordered set."""
    return FederatedSummarySet(summaries=tuple(summaries))


@dataclass(frozen=True)
class StandardizationRecord:
    """Pooled centering/scaling constants and their inverse transform.

    With standardized data y' = (y - my)/sy, x'_j = (x_j - mj)/sj (column 0
    is the intercept and stays as is) the fitted coefficients map back to
    the original scale via beta = A beta' + c where A and c are assembled
    below; sigma2 and tau2 scale by sy**2.
    """

    y_mean: float
    y_scale: float
    x_mean: np.ndarray
    x_scale: np.ndarray

    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.x_mean.shape[0]
        A = np.zeros((p, p))
        c = np.zeros(p)
        A[0, 0] = self.y_scale
        c[0] = self.y_mean
        for j in range(1, p):
            A[j, j] = self.y_scale / self.x_scale[j]
            A[0, j] = -self.y_scale * self.x_mean[j] / self.x_scale[j]
        return A, c

    def beta_to_original(self, beta_std: np.ndarray) -> np.ndarray:
        A, c = self._affine()
        return A @ np.asarray(beta_std, dtype=float) + c

    def variance_to_original(self, v_std: np.ndarray) -> np.ndarray:
        A, _ = self._affine()
        return A @ np.asarray(v_std, dtype=float) @ A.T


def standardize(
    sites: Sequence[SiteData],
    names: Sequence[str] | None = None,
) -> tuple[list[SiteData], StandardizationRecord]:
    """Center/scale pooled data to mean 0, SD 1 per non-intercept column and for y.

    Column 0 of the design must be the intercept (constant one).  Pooled
    moments are computed on the concatenated data, so this lives on the
    simulation/oracle side only.
    """
    if not sites:
        raise ValidationError("standardize needs at least one site")
    X = np.concatenate([s.X for s in sites], axis=0)
    y = np.concatenate([s.y for s in sites])
    p = X.shape[1]
    if not np.all(X[:, 0] == 1.0):
        raise ValidationError("column 0 is not the constant-one intercept")

    def colname(j: int) -> str:
        return names[j] if names is not None else f"column {j}"

    x_mean = np.zeros(p)
    x_scale = np.ones(p)
    for j in range(1, p):
        sd = float(X[:, j].std())
        if sd == 0.0:
            raise ValidationError(f"zero-variance covariate: {colname(j)}")
        x_scale[j] = sd
        x_mean[j] = float(X[:, j].mean())
    y_sd = float(y.std())
    if y_sd == 0.0:
        raise ValidationError("zero-variance outcome")
    y_mean = float(y.mean())

    record = StandardizationRecord(y_mean=y_mean, y_scale=y_sd, x_mean=x_mean, x_scale=x_scale)
    out = []
    for s in sites:
        Xs = (s.X - x_mean) / x_scale
        ys = (s.y - y_mean) / y_sd
        out.append(SiteData(site_id=s.site_id, y=ys, X=Xs))
    return out, record


# ---------------------------------------------------------------------------
# Summary exchange file format (JSON, schema_version 1, layout "y-first").
# Floats serialize via repr, i.e. the shortest decimal that round-trips the
# IEEE-754 double, so save -> load is bitwise faithful.
# ---------------------------------------------------------------------------


def summary_to_dict(summary: SiteSummary) -> dict:
    budget = None
    if summary.budget_used is not None:
        b = summary.budget_used
        budget = {
            "epsilon": b.epsilon,
            "delta": b.delta,
            "delta_f": b.delta_f,
            "sigma_dp": b.sigma_dp,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "site_id": summary.site_id,
        "n": summary.n,
        "p": summary.p,
        "layout": "y-first",
        "S": [float(v) for v in summary.S.ravel()],
        "T": [float(v) for v in summary.T.ravel()],
        "privatized": summary.privatized,
        "budget": budget,
    }


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must be a JSON value of Python type ``kind`` (bool is not an int)."""
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


def summary_from_dict(obj: dict) -> SiteSummary:
    from .privacy import PrivacyBudget  # deferred: privacy depends on this module

    try:
        version = obj["schema_version"]
        if version != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {version}")
        site_id = _field(obj, "site_id", str)
        n = _field(obj, "n", int)
        p = _field(obj, "p", int)
        if obj.get("layout", "y-first") != "y-first":
            raise ValidationError(f"unsupported layout {obj.get('layout')!r}")
        d = p + 1
        S = np.array(obj["S"], dtype=float).reshape(d, d)
        T = np.array(obj["T"], dtype=float).reshape(d, d)
        privatized = _field(obj, "privatized", bool)
        budget = None
        if obj.get("budget") is not None:
            b = obj["budget"]
            budget = PrivacyBudget(
                epsilon=float(b["epsilon"]),
                delta=float(b["delta"]),
                delta_f=float(b["delta_f"]),
                sigma_dp=float(b["sigma_dp"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed summary object: {exc}") from exc
    summary = SiteSummary(
        site_id=site_id, n=n, S=S, T=T, privatized=privatized, budget_used=budget
    )
    summary.validate_unprivatized_structure()
    return summary


def save_summary(summary: SiteSummary, path) -> None:
    text = json.dumps(summary_to_dict(summary), indent=0, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)  # one write: json.dump would stream hundreds of small ones


def load_summary(path) -> SiteSummary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return summary_from_dict(obj)
