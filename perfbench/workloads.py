"""The four benchmark workloads, each driven through ``fedlmm.cli.main``.

Each workload turns its seed into a fixed list of CLI invocations, one
*pass*, and a timed phase repeats that pass for the run's ``--seconds``.
Each invocation counts with its median over the passes, so a host
slowdown that lasts a few seconds moves one sample of an op, not the
reported time; the outputs of every pass are checked afterwards.

The estimation and attack workloads draw their instances from a fixed
study design, the same one ``reference.json`` was recorded on, and the
seed sets the order in which they run.  Per-instance costs there are
heavy-tailed (one attack replicate can cost 100x the median), so a
seed-dependent sample of instances would swamp any code change with
sampling noise; a fixed instance set keeps runs comparable and lets
every output be checked against the recorded reference.  The
cli-release-fit consortium is generated from the seed, because its cost
follows its size, which does not vary with the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent


def _load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_main(argv):
    """One in-process ``fedlmm`` invocation with its stdout discarded."""
    import fedlmm.cli  # looked up per call, so a traced phase sees its wrapper

    with contextlib.redirect_stdout(io.StringIO()):
        return fedlmm.cli.main(argv)


# What the spans keep: the attack calls whole, for the checks; counts elsewhere.
NOTES = {
    "attack.attack_pipeline": lambda args, kwargs, result: (args, kwargs, result),
    "summaries.compute_summary": lambda args, kwargs, result: result.n,
    "estimator.fit_ml": lambda args, kwargs, result: (result.iterations, result.converged),
    "estimator.fit_reml": lambda args, kwargs, result: (result.iterations, result.converged),
}


@dataclass
class Phase:
    """What one timed phase produced: one or more passes over the same calls."""

    wall_s: float  # the whole phase
    cpu_s: float
    pass_ms: list  # per pass, the latency of each call, in ms
    dirs: list  # per pass, the directory its outputs went to
    failed: int  # non-zero exit codes, over all passes
    tracer: Tracer
    outputs: dict = field(default_factory=dict)

    @property
    def call_ms(self):
        """Each call's median latency over the passes."""
        return [statistics.median(op) for op in zip(*self.pass_ms)]

    @property
    def pass_s(self):
        """One pass at each call's median latency: the time a pass typically takes."""
        return sum(self.call_ms) / 1e3

    @property
    def op_ms(self):
        """Latency per op, median over the passes; an op is a call unless a workload says otherwise."""
        return self.outputs.get("op_ms", self.call_ms)

    @property
    def samples_ms(self):
        """Every op's latency in every pass, for the median and tail."""
        return self.outputs.get("samples_ms", [ms for lat in self.pass_ms for ms in lat])

    @property
    def attempted(self):
        return self.outputs.get("attempted", sum(map(len, self.pass_ms)))


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _same_files(first: Path, other: Path, pattern: str):
    """Every file matching ``pattern`` under ``first`` repeats byte for byte under ``other``."""
    names = sorted(p.relative_to(first) for p in first.glob(pattern) if p.is_file())
    _require(names, f"no outputs matching {pattern} in {first.name}")
    for name in names:
        _require((other / name).is_file() and (other / name).read_bytes() == (first / name).read_bytes(),
                 f"{other.name}/{name} differs from {first.name}/{name}")


class Workload:
    name = ""
    boundary = frozenset()  # span names recorded even when tracing is off

    def __init__(self, seed, seconds, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def calls(self, out: Path) -> list:
        """The CLI invocations of one pass, writing under ``out``."""
        raise NotImplementedError

    def run(self, traced_names=frozenset(), passes=None) -> Phase:
        """Repeat the pass until ``seconds`` would be overrun (or ``passes`` times); at least once."""
        tracer = Tracer(names=frozenset(self.boundary) | traced_names, notes=NOTES)
        root = self.workdir / f"phase-{len(list(self.workdir.glob('phase-*')))}"
        pass_ms, dirs, failed = [], [], 0
        with tracer:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            while True:
                out = root / f"pass-{len(dirs)}"
                out.mkdir(parents=True)
                t = time.perf_counter()
                lat, pass_failed = self._ops(tracer, self.calls(out))
                last_s = time.perf_counter() - t
                pass_ms.append(lat)
                dirs.append(out)
                failed += pass_failed
                if len(dirs) == passes or time.perf_counter() - t0 + last_s > self.seconds:
                    break
            wall_s = time.perf_counter() - t0
            cpu_s = time.process_time() - cpu0
        return self.finish(Phase(wall_s, cpu_s, pass_ms, dirs, failed, tracer))

    def finish(self, phase):
        return phase

    def stages(self):
        """The stage of each call of a pass, where a workload has stages."""
        return []

    def _ops(self, tracer, calls):
        """Run CLI invocations in order, timing each; returns latencies and failures."""
        lat, failed = [], 0
        for i, argv in enumerate(calls):
            tracer.op = i
            t = time.perf_counter()
            rc = cli_main(argv)
            lat.append((time.perf_counter() - t) * 1e3)
            failed += rc != 0
        return lat, failed


# -- estimation-study ----------------------------------------------------------


class EstimationStudy(Workload):
    """simulate-estimation, ri-correct, K=200, eps0 2..20, arms ipd,dp; op = one replicate."""

    name = "estimation-study"
    ARGS = ["simulate-estimation", "--scenario", "ri-correct", "--K", "200",
            "--epsilon0", "2,4,8,12,16,20", "--arms", "ipd,dp", "--reps", "1"]
    REPLICATES = 4  # per pass: study seeds 0-3, about 3 s; seed 0 has failed rows
    WARMUP_STUDY_SEED = 100_000

    def prepare(self):
        ref = _load_reference()["estimation-study"]
        _require(self.REPLICATES <= len(ref), f"the reference holds {len(ref)} replicates")
        self.ref = ref
        self.study_seeds = [int(s) for s in np.random.default_rng(self.seed).permutation(self.REPLICATES)]
        self.input = {"replicates": self.REPLICATES, "K": 200, "epsilon0": 6, "arms": 2}

    def calls(self, out, study_seeds=None):
        seeds = self.study_seeds if study_seeds is None else study_seeds
        return [self.ARGS + ["--seed", str(s), "--out", str(out / f"rep-{s}.csv")] for s in seeds]

    def warmup(self):
        cli_main(self.calls(self.workdir, [self.WARMUP_STUDY_SEED])[0])

    @staticmethod
    def read_rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, phase):
        """Per-row failure flags equal the reference; ipd beta within 1e-6 (relative); every pass."""
        for out in phase.dirs:
            rows_total = rows_failed = 0
            for s in self.study_seeds:
                path = out / f"rep-{s}.csv"
                _require(path.is_file(), f"{out.name} replicate {s}: no output")
                rows = self.read_rows(path)
                ref = self.ref[str(s)]
                flags = [r["failed"] == "True" for r in rows]
                _require(flags == ref["failed"],
                         f"{out.name} replicate {s}: failure flags {flags} != reference {ref['failed']}")
                rows_total += len(rows)
                rows_failed += sum(flags)
                ipd = [r for r in rows if r["arm"] == "ipd"]
                _require(len(ipd) == 1, f"{out.name} replicate {s}: expected one ipd row")
                if not flags[0]:
                    beta = np.array([float(v) for v in ipd[0]["beta_hat"].split(";")])
                    want = np.array(ref["ipd_beta"])
                    err = np.abs(beta - want) / np.maximum(1.0, np.abs(want))
                    _require(err.max() <= 1e-6, f"{out.name} replicate {s}: ipd beta off by {err.max():.3g}")
        phase.outputs["rows"] = rows_total  # per pass
        phase.outputs["rows_failed"] = rows_failed
        return (f"{len(phase.dirs)} passes of {len(self.study_seeds)} replicates, {rows_total} rows, "
                f"{rows_failed} failed rows each, all as in reference")


# -- attack-exact / attack-repair ------------------------------------------------


class AttackStudy(Workload):
    """simulate-reconstruction over cells (3,3), (5,5), (6,5); op = one attack replicate."""

    CELLS = ((3, 3), (5, 5), (6, 5))
    REPS = 10  # replicates per CLI invocation
    boundary = frozenset({"attack.attack_pipeline"})
    EPSILON0 = "ref"
    CHUNKS = 4  # per pass: study seeds 0-3 of every cell, about 2 s
    WARMUP_STUDY_SEED = 100_000

    def prepare(self):
        ref = _load_reference()[self.name]
        _require(self.CHUNKS <= len(ref), f"the reference holds {len(ref)} chunks")
        self.ref = ref
        jobs = [(c, n, p) for c in range(self.CHUNKS) for n, p in self.CELLS]
        order = np.random.default_rng(self.seed).permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self.input = {"chunks": self.CHUNKS, "cells": len(self.CELLS), "replicates": len(jobs) * self.REPS}

    def calls(self, out, jobs=None, reps=None):
        return [
            ["simulate-reconstruction", "--n", str(n), "--p", str(p), "--epsilon0", self.EPSILON0,
             "--delta", "0.01", "--reps", str(reps or self.REPS), "--seed", str(c),
             "--out", str(out / f"cell-{n}-{p}-{c}.csv")]
            for c, n, p in (self.jobs if jobs is None else jobs)
        ]

    def warmup(self):
        jobs = [(self.WARMUP_STUDY_SEED, n, p) for n, p in self.CELLS]
        for argv in self.calls(self.workdir, jobs, 2):
            cli_main(argv)

    def pass_spans(self, phase):
        spans = phase.tracer.by_name("attack.attack_pipeline")
        per_pass = len(self.jobs) * self.REPS
        _require(len(spans) == per_pass * len(phase.dirs),
                 f"{len(spans)} attack calls, expected {per_pass} in each of {len(phase.dirs)} passes")
        return [spans[i:i + per_pass] for i in range(0, len(spans), per_pass)]

    def finish(self, phase):
        """An op is one attack replicate; a timed-out replicate counts as failed."""
        try:
            passes = self.pass_spans(phase)
        except CheckFailed:  # a call that failed part-way; the check reports it
            return phase
        phase.outputs["op_ms"] = [statistics.median((s.end - s.start) * 1e3 for s in rep) for rep in zip(*passes)]
        phase.outputs["samples_ms"] = [(s.end - s.start) * 1e3 for spans in passes for s in spans]
        phase.outputs["attempted"] = sum(map(len, passes))
        phase.failed += sum(s.note[2].status == "failed" for rep in passes for s in rep)
        return phase

    def check(self, phase):
        """Statuses equal the reference; solved Grams equal the release; unique without noise is exact."""
        import fedlmm.attack as attack

        for out, spans in zip(phase.dirs, self.pass_spans(phase)):
            csv_failed = 0
            counts = {}
            for i, (c, n, p) in enumerate(self.jobs):
                with open(out / f"cell-{n}-{p}-{c}.csv", newline="", encoding="utf-8") as fh:
                    csv_failed += int(next(csv.DictReader(fh))["failed"])
                want = self.ref[str(c)][f"{n},{p}"]
                where = f"{out.name} cell ({n},{p}) chunk {c}"
                for rep, span in enumerate(spans[i * self.REPS:(i + 1) * self.REPS]):
                    _require(span.op == i, "attack calls out of order")
                    args, kwargs, result = span.note
                    X, budget = args[:2]
                    counts[result.status] = counts.get(result.status, 0) + 1
                    if result.status == "failed":
                        continue
                    _require(result.status == want[rep], f"{where} rep {rep}: {result.status} != reference {want[rep]}")
                    if result.status in ("unique", "feasible-multiple"):
                        G = result.X_hat.astype(np.int64)
                        released = attack.released_rounded_gram(X, budget, kwargs["rng_seed"])
                        _require(np.array_equal(G.T @ G, released), f"{where} rep {rep}: solution Gram differs from the release")
                    if result.status == "unique" and self.EPSILON0 == "ref":
                        # Under noise the released Gram can belong to another design.
                        same = sorted(map(tuple, result.X_hat.tolist())) == sorted(map(tuple, np.asarray(X).tolist()))
                        _require(same, f"{where} rep {rep}: unique solution is not the true design")
            _require(csv_failed == counts.get("failed", 0), f"{out.name}: failed column disagrees with the attack results")
        phase.outputs["status"] = counts  # per pass
        return f"{len(phase.dirs)} passes of {len(spans)} replicates {counts}, all as in reference"


class AttackExact(AttackStudy):
    name = "attack-exact"


class AttackRepair(AttackStudy):
    name = "attack-repair"
    EPSILON0 = "8"
    CHUNKS = 1  # study seed 0 of every cell, about 3 s


# -- cli-release-fit ---------------------------------------------------------------


class CliReleaseFit(Workload):
    """summarize --site-col -> privatize per site -> fit ml (private) and fit reml (plain)."""

    name = "cli-release-fit"
    LARGE = (2, 50_000, 50_000)  # sites above the 10,000-row exact-summation threshold; fixed size
    SMALL = (300, 2, 100)
    FITS = 3  # fit invocations per method and pass
    COVARIATES = "x1,x2,x3,x4,x5,x6"

    def generate(self):
        """Sites as (id, y, X) with X holding the six covariates (no intercept)."""
        rng = np.random.default_rng(self.seed)
        (n_large, lo_large, hi_large), (n_small, lo_small, hi_small) = self.LARGE, self.SMALL
        sizes = [int(v) for v in rng.integers(lo_large, hi_large + 1, n_large)]
        sizes += [int(v) for v in rng.integers(lo_small, hi_small + 1, n_small)]
        beta = np.array([1.0, 0.5, 0.5, -1.0, -0.5, 1.0, -1.0])
        sites = []
        for k, n in enumerate(sizes):
            X = np.column_stack([
                rng.binomial(1, 0.5, n), rng.normal(0.0, 1.0, n), rng.binomial(1, 0.3, n),
                rng.binomial(1, 0.7, n), rng.binomial(1, 0.5, n), rng.normal(0.0, 0.5, n),
            ]).astype(float)
            y = beta[0] + X @ beta[1:] + rng.normal() + rng.normal(0.0, 1.0, n)
            sites.append((f"site{k:03d}", y, X))
        return sites

    @staticmethod
    def write_csv(path, sites):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("site,y,x1,x2,x3,x4,x5,x6\n")
            for sid, y, X in sites:
                block = np.column_stack([y, X]).tolist()
                fh.write("".join(sid + "," + ",".join(map(repr, row)) + "\n" for row in block))

    def prepare(self):
        self.sites = self.generate()
        self.csv = self.workdir / "consortium.csv"
        self.write_csv(self.csv, self.sites)
        self.site_ids = sorted(s for s, _, _ in self.sites)
        rows = sum(len(y) for _, y, _ in self.sites)
        self.input = {"rows": rows, "sites": len(self.sites), "large_sites": self.LARGE[0], "fits": self.FITS}

    def privatize_call(self, plain, private, sid):
        return ["privatize", "--in", str(plain / f"{sid}.json"), "--out", str(private / f"{sid}.json"),
                "--epsilon0", "8", "--delta", "1e-4", "--seed", str(self.seed)]

    def chain(self, out, csv_path, site_ids, fits):
        """The calls of one pass, each tagged with its stage."""
        plain, private = out / "plain", out / "private"
        calls = [("summarize", ["summarize", "--csv", str(csv_path), "--outcome", "y",
                                "--covariates", self.COVARIATES, "--site-col", "site", "--out", str(plain)])]
        calls += [("privatize", self.privatize_call(plain, private, s)) for s in site_ids]
        for i in range(fits):
            calls.append(("fit_ml", ["fit", *[str(private / f"{s}.json") for s in site_ids], "--method", "ml",
                                     "--correction", "cr1p", "--out", str(out / f"fit-ml-{i}.json")]))
            calls.append(("fit_reml", ["fit", *[str(plain / f"{s}.json") for s in site_ids], "--method", "reml",
                                       "--correction", "cr1p", "--out", str(out / f"fit-reml-{i}.json")]))
        return calls

    def calls(self, out):
        return [argv for _, argv in self.chain(out, self.csv, self.site_ids, self.FITS)]

    def stages(self):
        return [stage for stage, _ in self.chain(self.workdir, self.csv, self.site_ids, self.FITS)]

    def warmup(self):
        small = self.sites[self.LARGE[0]:self.LARGE[0] + 10]  # cr1p needs more sites than columns
        path = self.workdir / "warmup.csv"
        self.write_csv(path, small)
        for _, argv in self.chain(self.workdir / "warmup", path, [s for s, _, _ in small], 1):
            cli_main(argv)

    def check(self, phase):
        """Summaries equal A'A, privatize repeats byte for byte, fits within 1e-6 of the reference fit.

        The first pass is checked in full and every later pass must repeat
        its files byte for byte.  The reference for the plain REML fit is
        the global optimum; for the private ML fit it is the optimum near
        the fitted variance ratio.
        """
        out = phase.dirs[0]
        plain = []
        for sid, y, X in self.sites:
            with open(out / "plain" / f"{sid}.json", encoding="utf-8") as fh:
                obj = json.load(fh)
            A = np.column_stack([y, np.ones(len(y)), X])
            S, T = A.T @ A, np.outer(A.sum(axis=0), A.sum(axis=0))
            scale = np.sqrt(np.outer(np.diag(S), np.diag(S)))
            _require(obj["n"] == len(y), f"{sid}: n={obj['n']}, expected {len(y)}")
            _require(np.all(np.abs(np.reshape(obj["S"], S.shape) - S) <= 1e-12 * scale),
                     f"{sid}: S differs from A'A beyond rtol 1e-12")
            _require(np.all(np.abs(np.reshape(obj["T"], T.shape) - T) <= 1e-12 * (np.abs(T) + scale)),
                     f"{sid}: T differs from ss' beyond rtol 1e-12")
            plain.append((len(y), S, T))
        private = []
        for sid, _, _ in self.sites:
            _require(cli_main(self.privatize_call(out / "plain", out / "recheck", sid)) == 0, "privatize re-run failed")
            released = (out / "private" / f"{sid}.json").read_bytes()
            _require(released == (out / "recheck" / f"{sid}.json").read_bytes(),
                     f"{sid}: privatize output differs between runs under one seed")
            obj = json.loads(released)
            d = obj["p"] + 1
            private.append((obj["n"], np.reshape(obj["S"], (d, d)), np.reshape(obj["T"], (d, d))))
        worst = 0.0
        for method, sites in (("ml", private), ("reml", plain)):
            reports = sorted(out.glob(f"fit-{method}-*.json"))
            _require(len(reports) == self.FITS, f"{len(reports)} {method} fits, expected {self.FITS}")
            for report in reports:
                with open(report, encoding="utf-8") as fh:
                    fit = json.load(fh)["fit"]
                beta = np.array(fit["beta"])
                # the private fit is checked as a local optimum; see oracle.fit_beta
                near = fit["tau2"] / fit["sigma2"] if method == "ml" else None
                want = oracle.fit_beta(*zip(*sites), reml=method == "reml", near=near)
                err = float((np.abs(beta - want) / np.maximum(1.0, np.abs(want))).max())
                worst = max(worst, err)
                _require(err <= 1e-6, f"{report.name}: beta off the reference fit by {err:.3g}")
        for other in phase.dirs[1:]:
            for pattern in ("plain/*.json", "private/*.json", "fit-*.json"):
                _same_files(out, other, pattern)
        return (f"{len(self.sites)} summaries match A'A, {len(private)} private files repeat, "
                f"fits within {worst:.2g} of the reference, {len(phase.dirs) - 1} later passes repeat the first")


WORKLOADS = {w.name: w for w in (EstimationStudy, AttackExact, AttackRepair, CliReleaseFit)}
