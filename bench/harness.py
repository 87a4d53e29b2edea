"""Measurement loop, metrics and result output for one workload run."""

from __future__ import annotations

import collections
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

from spans import Instrumentation, Tracer, installed_wrappers

# name -> unit; every workload reports all of them with --trace 0
END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "call_p50_s": "s",
    "call_p90_s": "s",
    "loss_ratio": "ratio",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# traced layers: each reports <name>_ms (inclusive, per stage call) and <name>_calls
LAYERS = ("tensor.backward", "moe.moe_forward", "moe.route", "denoiser.denoise_step",
          "spectral.joint_descriptor", "sampling.sample", "train.adamw_step",
          "adapt.freq_constraint_loss", "container.read", "container.write")
SELF_TIMED = ("denoiser.denoise_step",)  # reported as <name>_self_ms instead
NODE_OPS = ("matmul", "transpose", "mul", "slice")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[layer + ("_self_ms" if layer in SELF_TIMED else "_ms")] = "ms"
        units[layer + "_calls"] = "count"
    units["tensor.nodes_per_step"] = "count"
    units.update({f"tensor.nodes.{op}": "count" for op in NODE_OPS})
    units["container.bytes_read"] = "bytes"
    units["container.bytes_written"] = "bytes"
    units["synthgen.build_dataset_ms"] = "ms"
    units["synthgen.build_dataset_calls"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def fingerprint(seed: int, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": threads,
        "machine": platform.machine(),
        "seed": seed,
    }


# Every reported time is scaled to a reference CPU speed. On a shared machine
# the speed of one core drifts by up to 2x within a minute with the load of its
# neighbours. A short fixed calibration loop drifts with it, so each timed
# set-up or call is multiplied by CAL_REF_S over the mean time of that loop,
# sampled just before, every TICK_S during (from a SIGALRM handler, whose own
# time is subtracted) and just after the timed work. Raw seconds and the
# scale factors go to the results file.
CAL_REF_S = 0.0025
TICK_S = 0.1
_CAL_A = np.ones((16, 64), np.float32)
_CAL_W = np.ones((64, 64), np.float32)


def calibration_seconds(n: int = 200) -> float:
    """Time of a fixed loop of small numpy ops, the cost profile of freqvfx."""
    t0 = time.perf_counter()
    for _ in range(n):
        b = _CAL_A @ _CAL_W.T
        c = (b + _CAL_A) * 0.5
        c / (c.sum(axis=-1, keepdims=True) + 1.0)
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples taken around, and with `ticking` also during, timed work."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead = 0.0  # seconds spent in ticks, inside the timed work
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_seconds())
        self.overhead += time.perf_counter() - t0

    def start(self, ticking: bool) -> None:
        self.samples.append(calibration_seconds())
        if ticking:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self._old_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    @property
    def scale(self) -> float:
        return CAL_REF_S / statistics.fmean(self.samples)


class Run:
    """Raw and scaled times, scale factors and failures of one benchmark run."""

    def __init__(self):
        self.setup_raw: list[float] = []
        self.setup_scale: list[float] = []
        self.call_raw: list[float] = []
        self.call_scale: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        self.extra = 0  # checked operations that are not measured calls

    @property
    def attempted(self) -> int:
        return len(self.call_raw) + self.extra

    @property
    def setup_times(self) -> list[float]:
        return [t * k for t, k in zip(self.setup_raw, self.setup_scale)]

    @property
    def call_times(self) -> list[float]:
        return [t * k for t, k in zip(self.call_raw, self.call_scale)]

    @staticmethod
    def timed(fn, *args, ticking: bool = True) -> tuple[float, float, Exception | None]:
        """Raw seconds of fn(*args) net of probe ticks, the scale factor, and the
        Exception fn raised, if any."""
        gc.collect()
        probe = SpeedProbe()
        error = None
        probe.start(ticking)
        t0 = time.perf_counter()
        try:
            fn(*args)
        except Exception as err:  # a failed call is counted, not fatal
            error = err
        finally:
            probe.stop()
        raw = time.perf_counter() - t0 - probe.overhead
        probe.samples.append(calibration_seconds())
        return raw, probe.scale, error

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def setups(self, workload, run_dir: str, repeats: int, tracer: Tracer | None = None):
        """`repeats` complete set-ups, each in a fresh directory; the last one is kept."""
        for k in range(repeats):
            d = os.path.join(run_dir, f"setup{k}")
            os.makedirs(d)
            if tracer is None:
                raw, scale, error = self.timed(workload.setup, d)
            else:
                raw, scale, error = self.timed(_traced, tracer, "setup", workload.setup, d,
                                               ticking=False)
            if error is not None:
                raise error
            self.setup_raw.append(raw)
            self.setup_scale.append(scale)

    def measure(self, workload, seconds: float, min_calls: int,
                tracer: Tracer | None = None) -> list[float]:
        """Time calls until `seconds` have passed and `min_calls` are done; scaled times."""
        times = []
        start = time.perf_counter()
        while len(times) < min_calls or time.perf_counter() - start < seconds:
            i = len(self.call_raw)
            if tracer is None:
                raw, scale, error = self.timed(workload.call, i)
            else:
                raw, scale, error = self.timed(_traced, tracer, "call", workload.call, i,
                                               ticking=False)
            problems = [f"{type(error).__name__}: {error}"] if error else []
            if not problems:
                try:
                    problems = workload.check(i)
                except Exception as err:
                    problems = [f"check raised {type(err).__name__}: {err}"]
            self.fail([f"call {i}: {p}" for p in problems])
            self.call_raw.append(raw)
            self.call_scale.append(scale)
            times.append(raw * scale)
        return times

    def extra_checks(self, workload) -> None:
        try:
            n, problems = workload.extra_checks()
        except Exception as err:
            n, problems = 1, [f"extra check raised {type(err).__name__}: {err}"]
        self.extra += n
        self.fail(problems)


def _traced(tracer: Tracer, root: str, fn, *args) -> None:
    with tracer.span(root):
        fn(*args)


def end_to_end(workload, run: Run) -> dict[str, float]:
    try:
        loss_ratio = workload.loss_ratio()
    except Exception as err:
        run.fail([f"loss ratio: {type(err).__name__}: {err}"])
        loss_ratio = math.nan
    times = run.call_times
    return {
        "setup_s": statistics.median(run.setup_times),
        "steps_per_s": workload.steps_per_call * len(times) / sum(times),
        "call_p50_s": statistics.median(times),
        "call_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "loss_ratio": loss_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def layer_totals(tracer: Tracer, root, self_times: dict[int, float],
                 scale: float) -> dict[str, collections.Counter]:
    """Per span name under `root`: scaled inclusive ms, self ms, calls and summed attributes."""
    totals = collections.defaultdict(collections.Counter)
    for s in tracer.descendants(root):
        t = totals[s.name]
        t["ms"] += 1000.0 * scale * s.duration
        t["self_ms"] += 1000.0 * scale * self_times[s.id]
        t["calls"] += 1
        t.update(s.attrs)
    return totals


def per_layer(tracer: Tracer, untraced: list[float], traced: list[float],
              call_scales: list[float], setup_scales: list[float]) -> dict[str, float]:
    """Times are medians over traced calls; counts come from the first traced call."""
    roots = collections.defaultdict(list)  # spans of the checks, outside any root, are ignored
    for s in tracer.spans:
        if s.parent is None:
            roots[s.name].append(s)
    self_times = tracer.self_times()
    per_call = [layer_totals(tracer, r, self_times, k)
                for r, k in zip(roots["call"], call_scales)]
    first = per_call[0]
    out = {}
    for layer in LAYERS:
        key = "self_ms" if layer in SELF_TIMED else "ms"
        out[layer + "_" + key] = statistics.median(t[layer][key] for t in per_call)
        out[layer + "_calls"] = first[layer]["calls"]
    backward = first["tensor.backward"]
    steps = backward["calls"]
    out["tensor.nodes_per_step"] = backward["nodes"] / steps if steps else 0
    for op in NODE_OPS:
        out[f"tensor.nodes.{op}"] = backward[f"nodes.{op}"] / steps if steps else 0
    out["container.bytes_read"] = first["container.read"]["bytes"]
    out["container.bytes_written"] = first["container.write"]["bytes"]
    per_setup = [layer_totals(tracer, r, self_times, k)["synthgen.build_dataset"]
                 for r, k in zip(roots["setup"], setup_scales)]
    out["synthgen.build_dataset_ms"] = statistics.median(t["ms"] for t in per_setup)
    out["synthgen.build_dataset_calls"] = per_setup[0]["calls"]
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return out


def run(workload, seconds: float, trace: bool, work: str, setup_repeats: int,
        threads: int) -> int:
    results = os.path.join(work, "results")
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(run_dir)
    run = Run()
    tag = f"{workload.name}-seed{workload.seed}-trace{int(trace)}"
    try:
        if not trace:
            run.setups(workload, run_dir, setup_repeats)
            run.measure(workload, seconds, workload.min_calls)
            run.extra_checks(workload)
            metrics = end_to_end(workload, run)
            units = END_TO_END
        else:
            tracer = Tracer()
            with Instrumentation(tracer):
                run.setups(workload, run_dir, setup_repeats, tracer)
            untraced = run.measure(workload, seconds / 2, 1)
            with Instrumentation(tracer):
                traced = run.measure(workload, seconds / 2, 1, tracer)
            leftover = installed_wrappers()
            if leftover:
                run.fail([f"wrappers left installed: {leftover}"])
            run.extra_checks(workload)
            metrics = per_layer(tracer, untraced, traced, run.call_scale[len(untraced):],
                                run.setup_scale)
            units = PER_LAYER
            with open(os.path.join(results, f"{tag}-spans.json"), "w", encoding="utf-8") as f:
                json.dump(tracer.to_json(), f)
    finally:
        shutil.rmtree(run_dir)

    report = {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
              for name, value in metrics.items()}
    fp = fingerprint(workload.seed, threads)
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"workload": workload.name, "fingerprint": fp, "metrics": report,
                   "raw_setup_seconds": run.setup_raw, "setup_scale": run.setup_scale,
                   "raw_call_seconds": run.call_raw, "call_scale": run.call_scale,
                   "problems": run.problems}, f, indent=1)
    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, m in report.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": report}))
    return 0
