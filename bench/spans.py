"""In-memory span tracing around the public functions of each freqvfx layer.

A `Tracer` records spans (id, parent id, name, start, end, attributes) in a
list; nothing is written until the caller asks for `to_json`. `Instrumentation`
swaps each traced function for a wrapper at the name its caller looks it up
under (for example ``freqvfx.sampling.denoise_step``), and puts every original
back on exit. The program itself is never edited: with no `Instrumentation`
active, no wrapper exists.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time

# (owner, attribute, span name, kind). The owner is "module" or
# "module:Class"; each entry is the name a caller uses, so one function can
# appear under several owners.
TARGETS = (
    ("freqvfx.tensor", "backward", "tensor.backward", "backward"),
    ("freqvfx.denoiser", "moe_forward", "moe.moe_forward", None),
    ("freqvfx.denoiser", "route", "moe.route", None),
    ("freqvfx.sampling", "route", "moe.route", None),
    ("freqvfx.train", "route", "moe.route", None),
    ("freqvfx.sampling", "denoise_step", "denoiser.denoise_step", None),
    ("freqvfx.train", "denoise_step", "denoiser.denoise_step", None),
    ("freqvfx.adapt", "denoise_step", "denoiser.denoise_step", None),
    ("freqvfx.spectral", "joint_descriptor", "spectral.joint_descriptor", None),
    ("freqvfx.adapt", "joint_descriptor", "spectral.joint_descriptor", None),
    ("freqvfx.cli", "sample", "sampling.sample", None),
    ("freqvfx.adapt", "sample", "sampling.sample", None),
    ("freqvfx.train:AdamW", "step", "train.adamw_step", None),
    ("freqvfx.adapt", "freq_constraint_loss", "adapt.freq_constraint_loss", None),
    ("freqvfx.cli", "read_container_file", "container.read", "read"),
    ("freqvfx.container", "read_container_file", "container.read", "read"),
    ("freqvfx.cli", "write_container_file", "container.write", "write"),
    ("freqvfx.container", "write_container_file", "container.write", "write"),
    ("freqvfx.cli", "build_dataset", "synthgen.build_dataset", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Nested spans on one thread; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._open.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def children(self) -> dict:
        kids = collections.defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        kids = self.children()
        return {s.id: s.duration - sum(c.duration for c in kids[s.id]) for s in self.spans}

    def descendants(self, root: Span) -> list[Span]:
        kids = self.children()
        out, todo = [], list(kids[root.id])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids[s.id])
        return out

    def to_json(self) -> list[list]:
        return [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, fn, name: str, kind):
    if kind == "backward":
        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            ops = collections.Counter(node.op for node in tape.nodes)
            with tracer.span(name) as span:
                span.attrs["nodes"] = len(tape.nodes)
                span.attrs.update({f"nodes.{op}": n for op, n in ops.items()})
                return fn(tape, *args, **kwargs)
    elif kind == "read":
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            size = os.path.getsize(path)
            with tracer.span(name) as span:
                span.attrs["bytes"] = size
                return fn(path, *args, **kwargs)
    elif kind == "write":
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            with tracer.span(name) as span:
                out = fn(path, *args, **kwargs)
            span.attrs["bytes"] = os.path.getsize(path)
            return out
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
    wrapper.span_name = name
    return wrapper


class Instrumentation:
    """Context manager that installs the wrappers of `targets` and removes them."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for owner_spec, attr, name, kind in self.targets:
                owner = _owner(owner_spec)
                original = vars(owner)[attr]
                self.originals.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.tracer, original, name, kind))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)


def installed_wrappers(targets=TARGETS) -> list[str]:
    """Targets whose current attribute is a wrapper made by this module."""
    return [f"{spec}.{attr}" for spec, attr, _, _ in targets
            if hasattr(vars(_owner(spec))[attr], "span_name")]
