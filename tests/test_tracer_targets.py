"""The per-layer trace in ``perfbench/layertrace.py`` patches the package by
name from outside it; a rename in ``src`` must fail here, not only in the
benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_in_its_own_class():
    layertrace = load_layertrace()
    targets = [t[:3] for t in layertrace.KERNELS + layertrace.COUNTED]
    assert targets
    for short, cls_name, meth in targets:
        cls = getattr(importlib.import_module(f"ncinvert.{short}"), cls_name)
        # the tracer reads the class's own __dict__: an inherited method is a miss
        assert meth in cls.__dict__, (short, cls_name, meth)


def test_every_span_module_imports():
    layertrace = load_layertrace()
    assert layertrace.SPAN_MODULES
    for short in layertrace.SPAN_MODULES:
        importlib.import_module(f"ncinvert.{short}")
