"""Record reference.json: the outputs the fixed study instances must reproduce.

    python3 perfbench/make_reference.py [estimation-study attack-exact attack-repair]

Run from the root of a checkout.  For each named workload it runs every
instance of the workload's pass and stores, per estimation replicate, the
per-row failure flags and the ipd-arm coefficients, and, per attack chunk
and cell, the status of each replicate.  Workloads not
named keep their existing entries.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)


def main(names):
    run.import_package()
    from spans import Tracer
    from workloads import NOTES, WORKLOADS, cli_main

    path = Path(__file__).resolve().parent / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    work = run.ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in names:
            cls = WORKLOADS[name]
            wl = cls(0, 0, work)
            entry = {}
            if name == "estimation-study":
                seeds = range(cls.REPLICATES)
                for s, argv in zip(seeds, wl.calls(work, seeds)):
                    if cli_main(argv) != 0:
                        raise SystemExit(f"failed: {argv}")
                    rows = wl.read_rows(work / f"rep-{s}.csv")
                    entry[str(s)] = {
                        "failed": [r["failed"] == "True" for r in rows],
                        "ipd_beta": [float(v) for v in rows[0]["beta_hat"].split(";")],
                    }
            else:
                for c in range(cls.CHUNKS):
                    jobs = [(c, n, p) for n, p in cls.CELLS]
                    cells = {}
                    for (_, n, p), argv in zip(jobs, wl.calls(work, jobs, cls.REPS)):
                        with Tracer(names=frozenset({"attack.attack_pipeline"}), notes=NOTES) as tracer:
                            if cli_main(argv) != 0:
                                raise SystemExit(f"failed: {argv}")
                        statuses = [s.note[2].status for s in tracer.spans]
                        if "failed" in statuses:  # a timeout is no reference
                            raise SystemExit(f"attack timed out in chunk {c}, cell ({n},{p})")
                        cells[f"{n},{p}"] = statuses
                    entry[str(c)] = cells
            ref[name] = entry
            print(f"{name}: {len(entry)} entries", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(dumps(ref))


def dumps(ref):
    """JSON with one line per replicate or chunk."""
    blocks = []
    for name in sorted(ref):
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(ref[name].items(), key=lambda kv: int(kv[0]))]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main(sys.argv[1:] or ["estimation-study", "attack-exact", "attack-repair"])
