"""Spans around the calls into each layer of the program, recorded from outside.

The tracer replaces the public functions and methods listed in TARGETS with
wrappers, in every module namespace of the package where the same function
object is bound (``baeqnd.jumps.measurement_amplitudes`` as well as
``baeqnd.measurement.measurement_amplitudes``), and puts the originals back
on uninstall.  Spans are kept in memory with their parent span and written
out when the run ends; ``layer_metrics`` derives the per-layer figures.

A span opened on a worker thread with no span of its own open takes as parent
the innermost span open on the main thread: the sampler's shard threads are
started from inside ``run_experiment``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

import numpy as np

MODULES = ("baeqnd", "baeqnd.fock", "baeqnd.measurement", "baeqnd.jumps", "baeqnd.setup_model", "baeqnd.cli")


def _outcomes(name):
    return lambda a: int(np.size(a[name]))


#: (module, class or None, attribute, layer group, row counter)
TARGETS = (
    ("baeqnd.measurement", None, "measurement_amplitudes", "measurement.amplitudes", _outcomes("x_values")),
    ("baeqnd.measurement", None, "operator_batch", "measurement.operator_batch", _outcomes("x_values")),
    ("baeqnd.measurement", None, "completeness_defect", "measurement.completeness", None),
    ("baeqnd.measurement", None, "truncated_square_defect", "measurement.completeness", None),
    ("baeqnd.jumps", None, "run_experiment", "jumps.sampler", lambda a: int(a["shots"])),
    ("baeqnd.jumps", None, "summarize", "jumps.summarize", None),
    ("baeqnd.jumps", None, "jump_probability", "jumps.exact", None),
    ("baeqnd.jumps", None, "measured_correlation", "jumps.exact", None),
    ("baeqnd.jumps", None, "operator_correlation", "jumps.exact", None),
    ("baeqnd.jumps", None, "exact_report", "jumps.exact", None),
    ("baeqnd.setup_model", "SetupCircuit", "__init__", "setup_model.circuit", None),
    ("baeqnd.setup_model", "SetupCircuit", "homodyne_amplitudes", "setup_model.homodyne",
     _outcomes("raw_values")),
    ("baeqnd.setup_model", None, "calibrate_outcome_map", "setup_model.calibrate", None),
    ("baeqnd.setup_model", None, "equivalence_defect", "setup_model.equivalence", None),
    ("baeqnd.fock", None, "wavefunction_table", "fock.wavefunction", _outcomes("x")),
    ("baeqnd.cli", None, "main", "cli", None),
)

#: Per-layer metrics: name -> (unit, how it is derived from the spans).
#: "self" sums self time over a group, "calls" counts spans, "rows" sums the
#: row counter, "work" sums rows * dim^2 of the kernel calls.
LAYER_METRICS = {
    "measurement.amplitudes_s": ("s", "self", "measurement.amplitudes"),
    "measurement.amplitudes_rows": ("count", "rows", "measurement.amplitudes"),
    "measurement.amplitudes_work": ("count", "work", "measurement.amplitudes"),
    "measurement.operator_batch_s": ("s", "self", "measurement.operator_batch"),
    "measurement.operator_batch_rows": ("count", "rows", "measurement.operator_batch"),
    "measurement.completeness_s": ("s", "self", "measurement.completeness"),
    "jumps.sampler_s": ("s", "self", "jumps.sampler"),
    "jumps.shots": ("count", "rows", "jumps.sampler"),
    "jumps.summarize_s": ("s", "self", "jumps.summarize"),
    "jumps.exact_s": ("s", "self", "jumps.exact"),
    "setup_model.circuit_s": ("s", "self", "setup_model.circuit"),
    "setup_model.circuits": ("count", "calls", "setup_model.circuit"),
    "setup_model.calibrate_s": ("s", "self", "setup_model.calibrate"),
    "setup_model.calibrations": ("count", "calls", "setup_model.calibrate"),
    "setup_model.homodyne_s": ("s", "self", "setup_model.homodyne"),
    "setup_model.homodyne_rows": ("count", "rows", "setup_model.homodyne"),
    "setup_model.equivalence_s": ("s", "self", "setup_model.equivalence"),
    "fock.wavefunction_s": ("s", "self", "fock.wavefunction"),
    "fock.wavefunction_rows": ("count", "rows", "fock.wavefunction"),
    "cli.self_s": ("s", "self", "cli"),
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.pass_index = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, group, name, counter):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rows = work = 0
                if counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    rows = counter(bound)
                    if group == "measurement.amplitudes":
                        work = rows * bound["model"].dim ** 2
                tracer.spans.append(
                    (span_id, parent, group, name, tracer.pass_index, threading.get_ident(), start, end, rows, work)
                )

        return wrapper

    def install(self, pass_index: int) -> None:
        self.pass_index = pass_index
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, class_name, attr, group, counter in TARGETS:
            home = importlib.import_module(module_name)
            if class_name is not None:
                cls = getattr(home, class_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, group, f"{class_name}.{attr}", counter)
                setattr(cls, attr, wrapper)
                self._installed.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, group, attr, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._installed.append((module, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def write(self, path) -> None:
        keys = ("id", "parent", "group", "name", "pass", "thread", "start_ns", "end_ns", "rows", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals, lo, hi) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover, in seconds."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        out[span["id"]] = ((hi - lo) - _covered(children.get(span["id"], ()), lo, hi)) / 1e9
    return out


def layer_metrics(spans: list[dict]) -> dict[str, list[float]]:
    """Per-layer metric -> one value per traced pass, in pass order."""
    own = self_times(spans)
    passes = sorted({s["pass"] for s in spans})
    values = {name: [0.0] * len(passes) for name in LAYER_METRICS}
    slot = {p: i for i, p in enumerate(passes)}
    for span in spans:
        i = slot[span["pass"]]
        for name, (_, kind, group) in LAYER_METRICS.items():
            if span["group"] != group:
                continue
            if kind == "self":
                values[name][i] += own[span["id"]]
            elif kind == "calls":
                values[name][i] += 1
            elif kind == "rows":
                values[name][i] += span["rows"]
            else:
                values[name][i] += span["work"]
    return values
