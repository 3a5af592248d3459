"""The tracer's targets in bench/spans.py name functions of the package as they are.

The tracer fetches each TARGETS name on every traced run and binds each row
counter's argument by name, so a renamed function or parameter would end a
traced run.  bench/spans.py is loaded by path and only read: nothing is
installed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


spans = _load_spans()


def _target(module_name, class_name, attr):
    """The function the tracer wraps: class attributes are read through the class's __dict__."""
    home = importlib.import_module(module_name)
    if class_name is None:
        return getattr(home, attr)
    return vars(getattr(home, class_name))[attr]


class _Arguments(dict):
    """Bound arguments that read as 0 and record the names read."""

    def __init__(self):
        super().__init__()
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return 0


def _label(target):
    module_name, class_name, attr = target[:3]
    return ".".join(p for p in (module_name, class_name, attr) if p)


@pytest.mark.parametrize("target", spans.TARGETS, ids=_label)
def test_every_target_resolves(target):
    assert callable(_target(*target[:3]))


@pytest.mark.parametrize("target", [t for t in spans.TARGETS if t[4] is not None], ids=_label)
def test_row_counters_read_parameters_of_their_function(target):
    module_name, class_name, attr, group, counter = target
    parameters = inspect.signature(_target(module_name, class_name, attr)).parameters
    arguments = _Arguments()
    counter(arguments)
    assert arguments.read and set(arguments.read) <= set(parameters), (arguments.read, list(parameters))
    if group == "measurement.amplitudes":
        # Its work count reads the model's dim too.
        assert "model" in parameters

