"""The benchmark traces each layer by swapping a function for a wrapper at the
name its caller looks it up under. A refactor that drops or moves one of those
names breaks the traced benchmark run without failing any program test, so
every target must resolve here. And the adapt-unroll workload must measure
criterion 7's stage-2 configuration, or its numbers speak for another setting."""

import importlib.util
import os

from freqvfx.config import AdaptConfig

import scenarios

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(stem):
    """`bench/<stem>.py`, loaded by path as its own module; nothing is written."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}",
                                                  os.path.join(BENCH, f"{stem}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_resolves():
    spans = load_bench("spans")
    assert spans.TARGETS
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if not callable(vars(spans._owner(owner)).get(attr))]
    assert missing == []


def test_adapt_unroll_runs_criterion_7s_configuration():
    unroll = load_bench("workloads").ADAPT_UNROLL
    for steps in (1, 5, 100):
        assert AdaptConfig(**{**unroll, "steps": steps}) == scenarios.adapt_config(steps)
