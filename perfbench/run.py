"""fedlmm benchmark: seeded workloads through the ``fedlmm`` CLI, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``fedlmm`` from ``src/``
of that checkout and from nowhere else.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
timed phase, then one more pass with a span around every public function
of each layer (see ``spans.py``) and reports the per-layer metrics, with
the tracing overhead as the traced pass minus the untraced ``wall_s``.
A ``record`` line before it holds the seed, input sizes, library
versions, BLAS and machine details; the record is also written to
``.perfbench_out/``.

Workloads: estimation-study, attack-exact, attack-repair, cli-release-fit
(see ``workloads.py``).  Every run checks the outputs of each timed phase
and exits 1 on a mismatch.  Scratch files go to ``.perfbench_work/`` and
are removed at exit.

The timed phase repeats one pass over the workload's fixed calls until
``--seconds`` would be overrun, and every call counts with its median
over the passes.  End-to-end metrics: ``setup_s`` (process start to the
first timed op: import, input generation and one warm-up op, the last
two repeated and their median taken), ``wall_s`` (one pass at those
median call times), ``throughput`` (ops per pass over ``wall_s``; CSV
rows carried through the chain for cli-release-fit) and ``peak_rss_mb``.
Per-op latency (median and tail, over every op of every pass), failure
shares and stage times (each call at its median over the passes) are
per-layer metrics: they are reported by every run, but only timings that
integrate over a whole pass were steady enough on a shared 2-core host
to carry a regression bound.  The top-level ``attempted`` and ``failed``
count ops over all passes; a failed op is a non-zero CLI exit code, or
an attack replicate that timed out.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BLAS_THREADS = "1"  # one process, one BLAS thread: the op sizes gain nothing from more
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import fedlmm from this checkout's src/ only; exit 2 when it is not there."""
    if not (SRC / "fedlmm" / "__init__.py").is_file():
        print(f"error: no fedlmm package under {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fedlmm
    import fedlmm.cli  # noqa: F401

    if Path(fedlmm.__file__).resolve().parent != (SRC / "fedlmm").resolve():
        print(f"error: imported fedlmm from {fedlmm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return fedlmm


def ref_loop_ms():
    """Fixed numpy plus pure-Python loop; the median of three timings, in ms."""
    import numpy as np

    a = np.random.default_rng(0).random((160, 160))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(20):
            a @ a
        sum(i * i for i in range(200_000))
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it.

    With too few ops for that (a run of one or two passes), the maximum.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * k / max(1, len(ordered) - 1)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def per_layer(untraced, traced, stages, ref_loop):
    from spans import span_table

    names, layers, top_ms = span_table(traced.tracer.spans)
    tail_ms, tail_pct = tail(untraced.samples_ms)
    p50 = statistics.median(untraced.samples_ms)

    def stat(name, key):
        return names.get(name, {}).get(key, 0.0)

    def notes(name):
        return [s.note for s in traced.tracer.by_name(name)]

    m = {"op_p50_ms": metric(p50, "ms"), "op_tail_ms": metric(tail_ms, "ms"), "op_tail_pct": metric(tail_pct, "%"),
         "op_samples": metric(len(untraced.samples_ms), "count")}
    rows_failed = untraced.outputs.get("rows_failed")
    if rows_failed is not None:  # estimation-study: nonconverged study rows
        m["failed_share"] = metric(rows_failed / untraced.outputs["rows"], "1")
    else:
        m["failed_share"] = metric(untraced.failed / untraced.attempted, "1")
    stage_ms = {}
    for stage, ms in zip(stages, untraced.op_ms):
        stage_ms.setdefault(stage, []).append(ms)
    m["summarize_s"] = metric(sum(stage_ms.get("summarize", [])) / 1e3, "s")
    m["privatize_s"] = metric(sum(stage_ms.get("privatize", [])) / 1e3, "s")
    m["fit_ml_ms"] = metric(statistics.median(stage_ms.get("fit_ml", [0.0])), "ms")
    m["fit_reml_ms"] = metric(statistics.median(stage_ms.get("fit_reml", [0.0])), "ms")

    for method in ("fit_ml", "fit_reml"):
        name = f"estimator.{method}"
        fits = notes(name)
        evals = sum(n[0] for n in fits)
        m[f"{name}.calls"] = metric(len(fits), "count")
        m[f"{name}.busy_ms"] = metric(stat(name, "busy_ms"), "ms")
        m[f"{name}.evals"] = metric(evals, "count")
        if method == "fit_ml":
            m[f"{name}.p50_ms"] = metric(stat(name, "p50_ms"), "ms")
            m[f"{name}.us_per_eval"] = metric(1e3 * stat(name, "busy_ms") / evals if evals else 0.0, "us")
            m[f"{name}.nonconverged"] = metric(sum(not n[1] for n in fits), "count")

    m["simulation.one_replicate.self_ms"] = metric(stat("simulation.one_replicate", "self_ms"), "ms")
    for name in ("simulation.generate", "summaries.standardize", "summaries.compute_summary",
                 "privacy.privatize", "variance.cr0", "variance.wald_ci",
                 "attack.released_rounded_gram", "attack.hamming_sorted", "summaries.load_summary",
                 "summaries.SiteSummary.validate_unprivatized_structure", "summaries.save_summary"):
        m[f"{name}.busy_ms"] = metric(stat(name, "busy_ms"), "ms")

    sizes = notes("summaries.compute_summary")
    m["summaries.compute_summary.calls"] = metric(len(sizes), "count")
    m["summaries.compute_summary.rows"] = metric(sum(sizes), "count")
    m["summaries.compute_summary.exact_path_calls"] = metric(sum(n > 10_000 for n in sizes), "count")
    busy_s = stat("summaries.compute_summary", "busy_ms") / 1e3
    m["summaries.compute_summary.rows_per_s"] = metric(sum(sizes) / busy_s if busy_s else 0.0, "1/s")

    attacks = traced.tracer.by_name("attack.attack_pipeline")
    status = {}
    for s in attacks:
        status.setdefault(s.note[2].status, []).append((s.end - s.start) * 1e3)
    m["attack.attack_pipeline.calls"] = metric(len(attacks), "count")
    m["attack.attack_pipeline.busy_ms"] = metric(stat("attack.attack_pipeline", "busy_ms"), "ms")
    for key in ("unique", "feasible-multiple", "infeasible-repaired", "failed"):
        m[f"attack.status.{key}"] = metric(len(status.get(key, [])), "count")
    repaired = status.get("infeasible-repaired", [])
    exact = status.get("unique", []) + status.get("feasible-multiple", [])
    m["attack.repaired_share"] = metric(len(repaired) / len(attacks) if attacks else 0.0, "1")
    m["attack.exact.p50_ms"] = metric(statistics.median(exact) if exact else 0.0, "ms")
    m["attack.repaired.p50_ms"] = metric(statistics.median(repaired) if repaired else 0.0, "ms")

    # Parsing plus site grouping: the stage minus compute_summary and save_summary.
    m["cli.summarize.self_ms"] = metric(stat("cli.summarize", "self_ms") + stat("cli.read_csv", "busy_ms"), "ms")
    m["cli.read_csv.busy_ms"] = metric(stat("cli.read_csv", "busy_ms"), "ms")
    for layer, row in layers.items():
        m[f"layer.{layer}.busy_ms"] = metric(row["busy_ms"], "ms")
        m[f"layer.{layer}.self_ms"] = metric(row["self_ms"], "ms")
    m["trace.wall_s"] = metric(traced.wall_s, "s")
    m["trace.untraced_wall_s"] = metric(untraced.pass_s, "s")
    m["trace.overhead_s"] = metric(traced.wall_s - untraced.pass_s, "s")
    m["trace.unattributed_ms"] = metric(traced.wall_s * 1e3 - top_ms, "ms")
    m["input.ops"] = metric(len(untraced.op_ms), "count")
    m["process.cpu_s"] = metric(untraced.cpu_s, "s")
    m["machine.ref_loop_ms"] = metric(ref_loop, "ms")
    return m, names, layers


def versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS), "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    fedlmm = import_package()
    import_s = time.perf_counter() - T0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import TARGETS
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    ref_start = ref_loop_ms()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
            wl.prepare()
            wl.warmup()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        checks = {}
        phases = [wl.run()]
        if args.trace:
            phases.append(wl.run(traced_names=frozenset(name for _, _, name in TARGETS), passes=1))
        correct = True
        for label, phase in zip(("untraced", "traced"), phases):
            try:
                checks[label] = "passed: " + wl.check(phase)
            except CheckFailed as exc:
                checks[label] = f"FAILED: {exc}"
                correct = False
        ref_end = ref_loop_ms()
        untraced = phases[0]
        tail_ms, tail_pct = tail(untraced.samples_ms)
        wall_s = untraced.pass_s
        work = wl.input.get("rows", len(untraced.op_ms))  # per pass
        if args.trace:
            metrics, names, layers = per_layer(untraced, phases[1], wl.stages(), (ref_start + ref_end) / 2)
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "wall_s": metric(wall_s, "s"),
                "throughput": metric(work / wall_s, "1/s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "input": wl.input, "versions": versions(), "fedlmm": fedlmm.__version__,
            "import_s": import_s, "setup_runs_s": setups, "checks": checks,
            "ops": len(untraced.op_ms), "op_samples": len(untraced.samples_ms),
            "op_p50_ms": statistics.median(untraced.samples_ms),
            "op_tail_ms": tail_ms, "op_tail_pct": tail_pct, "throughput_unit":
                "rows/s" if args.workload == "cli-release-fit" else "ops/s",
            "process_cpu_s": untraced.cpu_s, "phase_wall_s": untraced.wall_s, "wall_s": wall_s,
            "machine_ref_loop_ms": {"start": ref_start, "end": ref_end},
            "passes": len(untraced.pass_ms), "pass_totals_s": [sum(p) / 1e3 for p in untraced.pass_ms],
            "pass_call_ms": untraced.pass_ms,
            "outputs": {k: v for k, v in untraced.outputs.items() if k not in ("op_ms", "samples_ms")},
        }
        if args.trace:
            record["traced_wall_s"] = phases[1].wall_s
            record["tracing_overhead_s"] = phases[1].wall_s - wall_s
            record["spans"] = {k: {kk: round(vv, 4) for kk, vv in v.items()} for k, v in sorted(names.items())}
            record["layers"] = layers
            print(f"{'layer':<12}{'busy_ms':>12}{'self_ms':>12}")
            for layer, row in layers.items():
                print(f"{layer:<12}{row['busy_ms']:>12.1f}{row['self_ms']:>12.1f}")
            print(f"{'(sum)':<12}{'':>12}{sum(r['self_ms'] for r in layers.values()):>12.1f}"
                  f"   traced pass {phases[1].wall_s * 1e3:.1f} ms, untraced pass {wall_s * 1e3:.1f} ms")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        for label, text in checks.items():
            print(f"check ({label}): {text}")
        print("record " + json.dumps(record, default=str))
        print(json.dumps({
            "correct": correct,
            "attempted": untraced.attempted,
            "failed": untraced.failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
