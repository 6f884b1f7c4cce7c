"""Spans around the public functions of each fedlmm layer.

The benchmark does not touch the package's source.  It rebinds, for the
duration of a phase, every name inside the ``fedlmm.*`` modules that is
bound to a wrapped function (so the calls that ``fedlmm.cli``,
``fedlmm.simulation`` and ``fedlmm.attack`` make go through the wrapper),
and patches wrapped methods on their class.  Each call records a span
(id, parent, name, start, end, op) in memory; derived metrics are computed
once the phase has ended.

A target that does not exist at the checked-out commit is skipped, so a
later refactor of the package leaves the benchmark running with that
span missing rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (layer, dotted name inside fedlmm.<layer>, span name).  The layers are
# the package modules; cli command handlers are named after the command.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_summarize", "cli.summarize"),
    ("cli", "_read_csv_columns", "cli.read_csv"),
    ("cli", "cmd_privatize", "cli.privatize"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_simulate_estimation", "cli.simulate-estimation"),
    ("cli", "cmd_simulate_reconstruction", "cli.simulate-reconstruction"),
    ("simulation", "run_estimation_study", "simulation.run_estimation_study"),
    ("simulation", "one_replicate", "simulation.one_replicate"),
    ("simulation", "generate", "simulation.generate"),
    ("simulation", "run_reconstruction_cell", "simulation.run_reconstruction_cell"),
    ("summaries", "compute_summary", "summaries.compute_summary"),
    ("summaries", "standardize", "summaries.standardize"),
    ("summaries", "merge_summaries", "summaries.merge_summaries"),
    ("summaries", "load_summary", "summaries.load_summary"),
    ("summaries", "save_summary", "summaries.save_summary"),
    ("summaries", "SiteSummary.validate_unprivatized_structure",
     "summaries.SiteSummary.validate_unprivatized_structure"),
    ("privacy", "calibrate", "privacy.calibrate"),
    ("privacy", "privatize", "privacy.privatize"),
    ("estimator", "fit_ml", "estimator.fit_ml"),
    ("estimator", "fit_reml", "estimator.fit_reml"),
    ("variance", "cr0", "variance.cr0"),
    ("variance", "apply_correction", "variance.apply_correction"),
    ("variance", "wald_ci", "variance.wald_ci"),
    ("attack", "attack_pipeline", "attack.attack_pipeline"),
    ("attack", "released_rounded_gram", "attack.released_rounded_gram"),
    ("attack", "clamp_gram", "attack.clamp_gram"),
    ("attack", "hamming_sorted", "attack.hamming_sorted"),
)

LAYERS = ("cli", "simulation", "summaries", "privacy", "estimator", "variance", "attack")


@dataclass
class Span:
    id: int
    parent: int  # -1 at the top of a benchmark op
    name: str
    start: float
    end: float = 0.0
    op: int = -1
    note: object = None


@dataclass
class Tracer:
    """Records spans for the selected span names while installed.

    ``notes`` maps a span name to a function of (args, kwargs, result)
    whose value is stored on the span, for the checks and counters.
    """

    names: frozenset
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    op: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, fn, name):
        spans, stack, note = self.spans, self._stack, self.notes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name, 0.0, op=self.op)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        importlib.import_module("fedlmm.cli")  # imports every layer
        modules = [m for k, m in list(sys.modules.items()) if k == "fedlmm" or k.startswith("fedlmm.")]
        for layer, dotted, name in TARGETS:
            if name not in self.names:
                continue
            *path, attr = dotted.split(".")
            owner = functools.reduce(lambda obj, part: getattr(obj, part, None), path,
                                     sys.modules.get(f"fedlmm.{layer}"))
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, name)
            if path:  # a method: patch it on its class
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        return False

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def span_table(spans):
    """Per-name and per-layer busy and self time, in ms.

    Busy time of a name sums its spans; busy time of a layer sums only the
    spans whose parent lies in another layer, so nested calls inside one
    layer count once.  Self time subtracts the time covered by child spans.
    """
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += (s.end - s.start) * 1e3
    names: dict = {}
    layers = {layer: {"busy_ms": 0.0, "self_ms": 0.0} for layer in LAYERS}
    top_ms = 0.0
    for s in spans:
        dur = (s.end - s.start) * 1e3
        own = dur - child_ms[s.id]
        row = names.setdefault(s.name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "durations": []})
        row["calls"] += 1
        row["busy_ms"] += dur
        row["self_ms"] += own
        row["durations"].append(dur)
        layer = s.name.split(".", 1)[0]
        layers[layer]["self_ms"] += own
        parent_layer = spans[s.parent].name.split(".", 1)[0] if s.parent >= 0 else None
        if parent_layer != layer:
            layers[layer]["busy_ms"] += dur
        if s.parent < 0:
            top_ms += dur
    for row in names.values():
        row["p50_ms"] = _median(row.pop("durations"))
    return names, layers, top_ms
