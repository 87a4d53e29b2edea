"""The benchmark traces each layer by swapping a function for a wrapper at the
name its caller looks it up under. A refactor that drops or moves one of those
names breaks the traced benchmark run without failing any program test, so
every target must resolve here."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if not callable(vars(spans._owner(owner)).get(attr))]
    assert missing == []
