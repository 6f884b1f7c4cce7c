"""Command-line interface: summarize, privatize, fit, attack, simulate.

Exit codes: 0 success, 1 invalid input (usage errors included), 2
numerical failure.  Every command accepts --seed and is byte-reproducible
under it; commands with no randomness simply ignore the seed.  Relative
output paths resolve against $FEDLMM_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapacityError, SingularDesignError, ValidationError
from .estimator import fit_ml, fit_reml
from .privacy import calibrate, privatize
from .simulation import (
    ARMS,
    METRIC_FIELDS,
    SCENARIOS,
    Scenario,
    run_estimation_study,
    run_reconstruction_study,
    write_rows,
)
from .summaries import (
    SiteData,
    compute_summary,
    load_summary,
    merge_summaries,
    save_summary,
)
from .variance import CORRECTIONS, apply_correction, cr0, wald_ci


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("FEDLMM_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _split_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from exc


def _split_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


# -- summarize ----------------------------------------------------------------


def _loadtxt(fh, usecols: list[int], dtype) -> np.ndarray:
    """One C-level parse of the comma-separated rows left in ``fh``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input and blank lines
        return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                          usecols=usecols, dtype=dtype, ndmin=2)


def _read_csv_columns(path: str, columns: list[str], site_col: str | None):
    """Parse named numeric columns and the site column of a CSV file.

    Returns a float array of shape ``(rows, len(columns))`` and the site
    id of each row (``""`` when ``site_col`` is None or empty).  The
    dialect is ``csv``'s default: comma-delimited, ``"`` quoting, blank
    lines skipped, and extra trailing fields ignored.  A header name that
    occurs twice refers to its last column.  Cells are decimal numbers
    as numpy's C parser reads them (``1_0`` and non-ASCII digits are
    rejected).  A parse failure is re-read row by row only to name the
    offending cell.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            if not fh.seekable():  # a pipe: buffer it so that both passes can rewind
                fh = io.StringIO(fh.read(), newline="")
            first = fh.readline()
            if not first:
                raise ValidationError(f"{path}: empty CSV (no header row)")
            header = next(csv.reader([first]))
            index = {name: j for j, name in enumerate(header)}
            missing = [c for c in columns + ([site_col] if site_col else []) if c not in index]
            if missing:
                raise ValidationError(f"{path}: missing columns {missing}")
            body = fh.tell()
            try:
                values = _loadtxt(fh, [index[c] for c in columns], float)
                site_ids = [""] * len(values)
                if site_col:
                    fh.seek(body)
                    site_ids = _loadtxt(fh, [index[site_col]], object)[:, 0].tolist()
            except ValueError as exc:
                fh.seek(body)
                _raise_bad_cell(path, csv.DictReader(fh, fieldnames=header), columns, site_col)
                raise ValidationError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not len(values):
        raise ValidationError(f"{path}: no data rows")
    return values, site_ids


def _raise_bad_cell(path: str, records, columns: list[str], site_col: str | None) -> None:
    """Name the first cell of ``records`` that numpy's parser rejects or that is absent.

    That is a cell ``float()`` rejects, or one it accepts but numpy does
    not: digit-group underscores and non-ASCII digits.
    """
    for i, record in enumerate(records, start=1):
        for c in columns:
            cell = record[c]
            try:
                float(cell)
                if "_" in cell or not cell.isascii():
                    raise ValueError
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{path}: non-numeric value {cell!r} in column {c!r}, data row {i}"
                ) from None
        if site_col and record[site_col] is None:
            raise ValidationError(f"{path}: no value in column {site_col!r}, data row {i}")


def cmd_summarize(args) -> int:
    columns = [args.outcome] + [c for c in args.covariates.split(",") if c]
    if len(columns) < 2:
        raise ValidationError("need at least one covariate")
    data, site_ids = _read_csv_columns(args.csv, columns, args.site_col)
    y_all = data[:, 0]
    X_all = data[:, 1:]
    if args.intercept:
        X_all = np.column_stack([np.ones(len(y_all)), X_all])
    if args.site_col:
        rows_of: dict[str, list[int]] = {}
        for i, sid in enumerate(site_ids):
            rows_of.setdefault(sid, []).append(i)
        groups = [(sid, rows_of[sid]) for sid in sorted(rows_of)]
    else:
        groups = [(args.site_id, slice(None))]
    site_of_stem: dict[str, str] = {}
    for sid, _ in groups:
        stem = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in sid) or "site"
        if stem in site_of_stem:
            raise ValidationError(
                f"site ids {site_of_stem[stem]!r} and {sid!r} both map to {stem}.json"
            )
        site_of_stem[stem] = sid
    out_dir = _out_path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (sid, rows), stem in zip(groups, site_of_stem):
        site = SiteData(site_id=sid, y=y_all[rows], X=X_all[rows])
        summary = compute_summary(site)
        target = out_dir / f"{stem}.json"
        save_summary(summary, target)
        print(target)
    return 0


# -- privatize ----------------------------------------------------------------


def cmd_privatize(args) -> int:
    summary = load_summary(args.infile)
    budget = calibrate(args.epsilon0, delta=args.delta, p=summary.p)
    sensitive = frozenset(_split_ints(args.sensitive))
    noisy = privatize(summary, budget, sensitive=sensitive, rng_seed=args.seed)
    target = _out_path(args.out)
    save_summary(noisy, target)
    print(target)
    return 0


# -- fit -----------------------------------------------------------------------


_COEF_FIELDS = ("coefficient", "estimate", "se", "ci_lo", "ci_hi", "correction")


def cmd_fit(args) -> int:
    summaries = merge_summaries([load_summary(p) for p in args.summaries])
    if args.method == "ml":
        fit = fit_ml(summaries)
    else:
        fit = fit_reml(summaries)
    v = apply_correction(cr0(summaries, fit.theta_hat), args.correction)
    ci = wald_ci(fit, v, level=args.level, use_t=args.use_t)
    report = {
        "fit": fit.to_dict(),
        "variance": {
            "correction": v.correction,
            "K": v.K,
            "N": v.N,
            "V": [[float(x) for x in row] for row in v.V],
            "se": [float(x) for x in v.se],
        },
        "ci": {
            "level": args.level,
            "quantile": "t" if args.use_t else "normal",
            "intervals": [[float(lo), float(hi)] for lo, hi in ci],
        },
    }
    target = _out_path(args.out)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(target)
    if args.coef_csv:
        coef_path = _out_path(args.coef_csv)
        rows = [dict(zip(_COEF_FIELDS, (f"b{j}", b, se, lo, hi, v.correction)))
                for j, (b, se, (lo, hi)) in enumerate(zip(fit.theta_hat.beta, v.se, ci))]
        write_rows(rows, coef_path, _COEF_FIELDS)
        print(coef_path)
    if not fit.converged:
        print("warning: optimizer did not converge", file=sys.stderr)
    return 0


# -- simulate-reconstruction (alias: attack) ------------------------------------


_RATE_FIELDS = ("n", "p", "epsilon0", "matrix_rate", "element_rate", "reps", "failed")


def _epsilon0_level(token: str) -> float | None:
    """One privacy level: a number, or "ref"/"none" for the no-noise reference (None)."""
    token = token.strip()
    if token in ("ref", "none"):
        return None
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f'epsilon0 must be a number or "ref", got {token!r}') from None


def cmd_simulate_reconstruction(args) -> int:
    rows = run_reconstruction_study(
        n_values=_split_ints(args.n), p_values=_split_ints(args.p),
        epsilon0_values=[_epsilon0_level(t) for t in args.epsilon0.split(",") if t.strip()],
        reps=args.reps, seed=args.seed, delta=args.delta, timeout_s=args.timeout,
    )
    for row in rows:
        if row["epsilon0"] is None:  # the no-noise reference level
            row["epsilon0"] = "ref"
    target = _out_path(args.out)
    write_rows(rows, target, _RATE_FIELDS)
    print(target)
    return 0


# -- simulate-estimation ---------------------------------------------------------


def cmd_simulate_estimation(args) -> int:
    rows = []
    for K in _split_ints(args.K):
        scenario = Scenario.from_name(args.scenario, K=K)
        rows.extend(
            run_estimation_study(
                scenario,
                epsilon0_grid=_split_floats(args.epsilon0),
                reps=args.reps,
                seed=args.seed,
                correction=args.correction,
                arms=tuple(args.arms.split(",")),
                workers=args.workers,
            )
        )
    target = _out_path(args.out)
    write_rows(map(vars, rows), target, METRIC_FIELDS)
    print(target)
    return 0


# -- end-to-end smoke pipeline -----------------------------------------------


_BUNDLE_SEED = 715517  # fixed: the bundle itself is part of the interface
_BUNDLE_FIELDS = ("site", "y", "x1", "x2", "x3")


def write_bundle_csv(path: Path) -> Path:
    """Deterministic small multi-site dataset used by the smoke pipeline."""
    rng = np.random.default_rng(_BUNDLE_SEED)
    rows = []
    beta = np.array([0.8, 0.5, -0.7, 0.3])
    for k in range(5):
        n = 40 + 10 * k
        x1 = rng.binomial(1, 0.5, n).astype(float)
        x2 = rng.binomial(1, 0.4, n).astype(float)
        x3 = rng.normal(0.0, 1.0, n)
        X = np.column_stack([np.ones(n), x1, x2, x3])
        y = X @ beta + rng.normal(0.0, 0.6) + rng.normal(0.0, 1.0, n)
        rows += [dict(zip(_BUNDLE_FIELDS, (f"clinic{k}", *c))) for c in zip(y, x1, x2, x3)]
    write_rows(rows, path, _BUNDLE_FIELDS)
    return path


def end_to_end(outdir, seed: int = 7, epsilon0: float = 8.0) -> dict[str, object]:
    """summarize -> privatize -> fit -> attack on the bundled dataset.

    Each stage runs its command's handler through ``_dispatch``, as
    ``main`` does, so a stage's error reaches the caller with its own type.
    """
    out = Path(outdir).absolute()  # so that no stage resolves it against $FEDLMM_OUT_DIR again
    out.mkdir(parents=True, exist_ok=True)
    bundle = write_bundle_csv(out / "bundle.csv")
    _dispatch(["summarize", "--csv", str(bundle), "--outcome", "y", "--covariates",
               "x1,x2,x3", "--site-col", "site", "--out", str(out / "summaries")])
    summary_files = sorted(str(p) for p in (out / "summaries").glob("*.json"))
    dp_files = [str(out / "private" / Path(f).name) for f in summary_files]
    for f, target in zip(summary_files, dp_files):
        _dispatch(["privatize", "--in", f, "--out", target, "--epsilon0", repr(epsilon0),
                   "--delta", "0.01", "--seed", str(seed)])
    for name, files in (("dp", dp_files), ("plain", summary_files)):
        _dispatch(["fit", *files, "--method", "ml", "--correction", "cr1",
                   "--out", str(out / f"fit_{name}.json"), "--coef-csv", str(out / f"coef_{name}.csv")])
    _dispatch(["attack", "--n", "3", "--p", "3", "--epsilon0", repr(epsilon0),
               "--delta", "0.01", "--reps", "50", "--seed", str(seed), "--out", str(out / "attack.csv")])
    return {
        "bundle": bundle,
        "summaries": summary_files,
        "private": dp_files,
        "fit_dp": out / "fit_dp.json",
        "fit_plain": out / "fit_plain.json",
        "attack": out / "attack.csv",
    }


def cmd_pipeline(args) -> int:
    artifacts = end_to_end(_out_path(args.out), seed=args.seed, epsilon0=args.epsilon0)
    for key in sorted(artifacts):
        print(f"{key}: {artifacts[key]}")
    return 0


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are invalid input (exit 1), not its exit 2.

    ``add_subparsers`` builds the subcommand parsers with this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedlmm",
        description="One-shot federated linear mixed models with differential privacy",
    )
    parser.add_argument("--version", action="version", version=f"fedlmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="per-site quadratic summaries from a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--covariates", required=True, help="comma-separated column names")
    p.add_argument("--site-col", default=None, help="split rows into sites by this column")
    p.add_argument("--site-id", default="site", help="site id when --site-col is absent")
    p.add_argument("--no-intercept", dest="intercept", action="store_false")
    p.add_argument("--out", required=True, help="output directory for summary JSON files")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler="cmd_summarize")

    p = sub.add_parser("privatize", help="apply the Gaussian mechanism to a summary file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sensitive", default="",
                   help="comma-separated design columns (1-based) to perturb; default: every entry")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler="cmd_privatize")

    p = sub.add_parser("fit", help="pooled ML/REML fit from summary files")
    p.add_argument("summaries", nargs="+")
    p.add_argument("--method", choices=["ml", "reml"], default="ml")
    p.add_argument("--correction", choices=list(CORRECTIONS), default="cr0")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--use-t", action="store_true")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--coef-csv", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler="cmd_fit")

    p = sub.add_parser("simulate-estimation", help="replicated estimation study")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--K", required=True, help="comma-separated site counts")
    p.add_argument("--epsilon0", required=True, help="comma-separated privacy levels")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correction", choices=list(CORRECTIONS), default="cr0")
    p.add_argument("--arms", default=",".join(ARMS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler="cmd_simulate_estimation")

    p = sub.add_parser("simulate-reconstruction", aliases=["attack"],
                       help="attack rates over (n, p, epsilon0) grids; attack is an alias")
    p.add_argument("--n", required=True, help="comma-separated row counts")
    p.add_argument("--p", required=True, help="comma-separated dimensions")
    p.add_argument("--epsilon0", default="ref",
                   help='comma-separated levels; "ref" (default) = no noise')
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=10.0, help="per-solve seconds")
    p.add_argument("--out", required=True)
    p.set_defaults(handler="cmd_simulate_reconstruction")

    p = sub.add_parser("pipeline", help="seeded summarize -> privatize -> fit -> attack smoke run")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--epsilon0", type=float, default=8.0)
    p.set_defaults(handler="cmd_pipeline")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process; each parse starts from its defaults."""
    return build_parser()


def _dispatch(argv) -> int:
    """Parse ``argv`` and run its command's handler.

    The handler is looked up by name in this module at call time, so a
    ``cmd_*`` rebound after the parser was built is the one that runs.
    """
    args = _parser().parse_args(argv)
    return globals()[args.handler](args)


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except (ValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularDesignError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
