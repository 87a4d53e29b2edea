"""Tests of the benchmark itself: trace arithmetic, wrapper removal, exact counts.

    python3 -m pytest -q bench/test_bench.py

The count test starts traced benchmark runs in subprocesses and takes about
two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import END_TO_END, PER_LAYER  # noqa: E402
from spans import TARGETS, Instrumentation, Tracer, _owner, installed_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ticks):
        self.now += ticks


def test_self_times_sum_to_root_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root") as root:
        clock.advance(3)
        with tracer.span("a"):
            clock.advance(2)
            with tracer.span("a1"):
                clock.advance(5)
            clock.advance(1)
            with tracer.span("a2"):
                clock.advance(4)
        clock.advance(7)
        with tracer.span("b"):
            clock.advance(6)
        clock.advance(1)
    selfs = tracer.self_times()
    by_name = {s.name: selfs[s.id] for s in tracer.spans}
    assert by_name == {"root": 11, "a": 3, "a1": 5, "a2": 4, "b": 6}
    assert sum(selfs.values()) == root.duration == 29
    assert {s.name for s in tracer.descendants(root)} == {"a", "a1", "a2", "b"}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    from freqvfx.cli import main

    originals = [vars(_owner(spec))[attr] for spec, attr, _, _ in TARGETS]
    tracer = Tracer()
    with Instrumentation(tracer):
        assert len(installed_wrappers()) == len(TARGETS)
        assert main(["gen", "--out", str(tmp_path), "--classes", "lowfreq_field:2"]) == 0
    assert installed_wrappers() == []
    assert [vars(_owner(spec))[attr] for spec, attr, _, _ in TARGETS] == originals
    names = [s.name for s in tracer.spans]
    assert names == ["synthgen.build_dataset", "container.write"]
    assert tracer.spans[1].attrs["bytes"] == os.path.getsize(tmp_path / "dataset.fvl1")


def exact_counts(workload: str, threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == set(PER_LAYER)
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith("tensor.nodes") or name.endswith("_calls")
            or name.startswith("container.bytes_")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs_and_blas_threads(workload):
    first = exact_counts(workload, threads=1)
    assert first == exact_counts(workload, threads=1)
    assert first == exact_counts(workload, threads=2)
