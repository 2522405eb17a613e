"""The per-layer trace in ``perfbench/layertrace.py`` patches the package by
name from outside it; a rename in ``src`` must fail here, not only in the
benchmark's own smoke test."""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

from ncinvert import freealg
from ncinvert.rings import QQ

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


def test_every_counted_method_is_a_plain_function():
    # the tracer's counter is bound as a method, so it stands in only for a
    # plain function: a staticmethod or a builtin would get an extra self
    layertrace = load_layertrace()
    assert layertrace.COUNTED
    for short, cls_name, meth, _ in layertrace.COUNTED:
        cls = getattr(importlib.import_module(f"ncinvert.{short}"), cls_name)
        assert inspect.isfunction(cls.__dict__[meth]), (short, cls_name, meth)


def test_every_span_module_imports():
    layertrace = load_layertrace()
    assert layertrace.SPAN_MODULES
    for short in layertrace.SPAN_MODULES:
        importlib.import_module(f"ncinvert.{short}")


def _is_traced(layertrace, name):
    """Whether the tracer makes a span named ``name``: a public function
    defined in its module, or a ``KERNELS`` method."""
    parts = tuple(name.split("."))
    if len(parts) == 3:
        return parts in layertrace.KERNELS
    short, attr = parts
    if short not in layertrace.SPAN_MODULES or attr.startswith("_"):
        return False
    module = importlib.import_module(f"ncinvert.{short}")
    value = getattr(module, attr, None)
    return inspect.isfunction(value) and value.__module__ == module.__name__


class _RecordingAgg(dict):
    """An empty aggregate that records every span name looked up in it."""

    def __init__(self):
        super().__init__()
        self.names = []

    def get(self, name, default=None):
        self.names.append(name)
        return default


def test_every_span_name_the_tracer_reads_is_traced():
    # a metric reads a span with ``agg.get(name, unseen)``, so a renamed or
    # private target would read 0 instead of failing
    layertrace = load_layertrace()
    tracer = layertrace.Tracer()
    hooked = list(tracer._hooks())
    agg = _RecordingAgg()
    tracer._merged = lambda: (agg, defaultdict(int))
    tracer.metrics()
    assert hooked and agg.names
    for name in hooked + agg.names:
        assert _is_traced(layertrace, name), name


def test_compose_takes_the_image_cache_the_tracer_passes_positionally():
    # the tracer's compose wrapper calls ``original(u, f_map, cache)``
    x = freealg.NCSeries.variable(QQ, 1, 3, 0)
    f_map = freealg.FormalMap.f_form((x * x,))
    inspect.signature(freealg.compose).bind(x, f_map, {})
