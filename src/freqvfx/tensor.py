"""Dense tensors over numpy with a recording tape for reverse-mode gradients.

The design is a Wengert list. A Tape is built with the leaves it
differentiates (`Tape(wrt)`); while it is active, a tensor is live when it is
one of those leaves or the output of a recorded node, and every op with at
least one live input appends one node. The tape refers to tensors by key: a
tensor gets a process-unique integer key when a tape first makes it live, and a
node holds its op, its input keys (None for a constant input) and shapes, its
output key and a vjp closure, never a Tensor or an array. Each vjp takes only
the upstream gradient and closes over shapes and over only the arrays that the
gradients of its live inputs read, so the tape keeps nothing else alive: an
array no vjp reads is freed as soon as its caller drops it. Ops on constants
alone record nothing and build no closure. The forward value is computed once,
eagerly, and never re-run. `backward` walks the list once in reverse, adds each
gradient into the input whose key it holds, and returns a gradient for every
`wrt` leaf. Reduction order inside a single op is whatever numpy does, which is
deterministic run to run on the same machine; no op introduces
platform-dependent nondeterminism of its own.

This module holds the tape and no op. `record` is how an op joins it, and every
node is a domain node of the module that records it, with a hand-written vjp:
`patch_embed`, `attn_block`, `unembed` and `context` of `denoiser`, `router` of
`moe.route`, `descriptor` of `spectral.joint_descriptor`, `ddim` of
`sampling.ddim_update`, `noise` of `schedule.forward_noise`, `mse` of
`train.diffusion_loss`, and `freq_loss` and `draw_mean` of `adapt`
(`tests/test_node_counts.py` checks that each is on a train-step or adapt-step
tape). A node evaluates the numpy expressions of the chain of generic ops it
replaces in the chain's order and lists its inputs in the order the chain
handed gradients back, so values and gradients keep the chain's bytes; where
the chain made a temporary, the node may reuse an array it made itself instead
(an elementwise op in place gives the same bytes), never one it was handed.
The generic broadcasting ops (add, mul, reduce_sum, concat and the others), and
the unfused chains built from them, live in `tests/oracles.py` as the nodes'
byte reference. At batch 4 numpy's arithmetic, not Python dispatch per node,
sets most of the cost; at batch 1, in tape-free sampling, a node's input
checks, output wrapping and `record` call are a visible share of it. A node
also costs, under a tape, the arrays its vjp keeps.

No vjp writes into an array it captured (an input's data, its own output or a
temporary it kept), and neither does `backward`. So a vjp may be called more
than once, and `replay` relies on that: it appends a copy of a span of the
tape whose nodes share the originals' vjps under fresh output keys, which is
what re-running that span's ops on the same inputs would record, byte for
byte, without the forward work (`denoiser.denoise_guided` replays its trunk
so).

A frozen weight is a plain read-only array, not a Tensor: a node takes it as a
constant, never among its inputs, and `Tape` refuses it as a leaf.

Gradients are exact (no numeric differentiation anywhere in this module); the
test suite checks them against central finite differences in float64.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, TapeConsistencyError

DEFAULT_DTYPE = np.float32

_TLS = threading.local()


def _tape_stack() -> list:
    tapes = getattr(_TLS, "stack", None)
    if tapes is None:
        tapes = []
        _TLS.stack = tapes
    return tapes


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A numpy array as the tape's nodes take and return it, with no arithmetic
    of its own: a node computes on `.data`. Do not mutate `.data` mid-graph.
    `key` is None until a tape makes the tensor live."""

    __slots__ = ("data", "key")

    def __init__(self, data):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.key = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def tensor(data, dtype=None) -> Tensor:
    """Public constructor. Rejects NaN/Inf."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(dtype or DEFAULT_DTYPE)
    if arr.size and not np.isfinite(arr).all():
        raise ParameterError("tensor construction rejected non-finite values")
    return Tensor(arr)


class _Node:
    """One recorded op: `inputs` holds each input's key (None for a constant,
    which gets no gradient), `shapes` each input's shape, `out` the output's
    key and `vjp(g)` one gradient per input, None for a constant, as a sequence
    or one at a time from a generator."""

    __slots__ = ("op", "inputs", "shapes", "out", "vjp")

    def __init__(self, op, inputs, shapes, out, vjp):
        self.op = op
        self.inputs = inputs
        self.shapes = shapes
        self.out = out
        self.vjp = vjp


_KEYS = itertools.count()
_LEAF_KEYS = threading.Lock()  # two tapes on two threads may share a leaf


class Tape:
    """Records, in execution order, the ops that depend on the leaves in `wrt`.

    Use as a context manager. The tape holds the `wrt` leaves and the keys of
    the live tensors (the leaves' and each node's output's), no other tensor:
    a key is never reused, so it names one tensor however long the tape lives.
    """

    def __init__(self, wrt: Iterable[Tensor]):
        self.wrt: list[Tensor] = list(wrt)
        for i, leaf in enumerate(self.wrt):
            if not isinstance(leaf, Tensor):
                raise ParameterError(f"wrt leaf {i} is a {type(leaf).__name__}, not a Tensor; "
                                     f"a frozen array is a constant and gets no gradient")
        with _LEAF_KEYS:
            for leaf in self.wrt:
                if leaf.key is None:
                    leaf.key = next(_KEYS)
        self.nodes: list[_Node] = []
        self._live: set[int] = {leaf.key for leaf in self.wrt}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - guards misuse
            raise TapeConsistencyError("tape stack corrupted by unbalanced enter/exit")


def is_live(t: Tensor) -> bool:
    """True when the active tape records the ops that take `t` as input."""
    tape = active_tape()
    return tape is not None and t.key in tape._live


def _wrap(arr: np.ndarray) -> Tensor:
    """A Tensor holding `arr` itself, a float32 or float64 ndarray, unchecked."""
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.key = None
    return out


def record(op: str, inputs: Sequence[Tensor | np.ndarray], out_data: np.ndarray,
           make_vjp: Callable[..., Callable], *args) -> Tensor:
    """Wrap `out_data`; append a node when the active tape has a live input.

    `out_data` is the op's float32 or float64 result: an ndarray is held as it
    is, anything else (the numpy scalar of a full reduction) goes through
    `Tensor`. An input that is a plain array (a frozen weight) is a constant:
    never live. Only when a node is appended, `make_vjp(live, *args)` builds its
    vjp from the per-input live mask, the node lists None as a dead input's key,
    and `vjp(g)` returns one gradient per input, None for a dead one. So
    `make_vjp` decides what the vjp keeps, and a vjp must not close over a
    variable that still holds an array no live input's gradient reads (rebind it
    to None first). Every node is recorded through this by the module that
    defines its op.
    """
    out = _wrap(out_data) if type(out_data) is np.ndarray else Tensor(out_data)
    tapes = getattr(_TLS, "stack", None)
    if tapes:
        tape = tapes[-1]
        seen = tape._live
        live = tuple([isinstance(t, Tensor) and t.key in seen for t in inputs])
        if True in live:
            out.key = key = next(_KEYS)
            seen.add(key)
            tape.nodes.append(_Node(op, tuple([t.key if hit else None
                                               for t, hit in zip(inputs, live)]),
                                    tuple([t.shape for t in inputs]), key,
                                    make_vjp(live, *args)))
    return out


def replay(start: int, stop: int, out: Tensor) -> Tensor:
    """Append to the active tape a copy of its nodes[start:stop] and return the
    copy of `out`, the output of one of them.

    Each copy has its node's op, input shapes and vjp, and a new output key; an
    input key that a node of the span made is replaced by that node's copy's,
    and every other input (a constant's None among them) stays. The returned
    Tensor shares `out`'s array and carries its copy's key. That is the span
    re-run on the same inputs, without its forward work, and it creates no
    array. `backward` calls each vjp once per copy, which is sound because no
    vjp writes into an array it captured.
    """
    tape = active_tape()
    if tape is None or not 0 <= start <= stop <= len(tape.nodes):
        raise TapeConsistencyError(f"no span [{start}:{stop}] of an active tape to replay")
    span = tape.nodes[start:stop]
    if not any(node.out == out.key for node in span):
        raise TapeConsistencyError(f"span [{start}:{stop}] did not make the tensor to return")
    copies: dict[int, int] = {}
    for node in span:
        key = next(_KEYS)
        tape._live.add(key)
        tape.nodes.append(_Node(node.op, tuple([copies.get(k, k) for k in node.inputs]),
                                node.shapes, key, node.vjp))
        copies[node.out] = key
    copy = _wrap(out.data)
    copy.key = copies[out.key]
    return copy


def frozen(x) -> np.ndarray:
    """A read-only view of array `x`: how frozen weights and tables are held, so
    that any write into them raises."""
    view = np.asarray(x).view()
    view.setflags(write=False)
    return view


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse sweep. Returns {wrt leaf -> gradient}; unreachable leaves get zeros."""
    if not isinstance(loss, Tensor):
        raise ParameterError("loss must be a Tensor")
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss.key not in tape._live:
        raise ParameterError("loss does not depend on this tape's wrt leaves "
                             "through operations recorded on it")
    pending: dict[int, np.ndarray] = {loss.key: np.ones((), dtype=loss.dtype)}
    for node in reversed(tape.nodes):
        g = pending.pop(node.out, None)
        if g is None:
            continue
        for key, shape, gi in zip(node.inputs, node.shapes, node.vjp(g)):
            if key is None:
                continue
            if gi.shape != shape:  # pragma: no cover - internal invariant
                raise TapeConsistencyError(
                    f"vjp of {node.op} produced shape {gi.shape} for input {shape}")
            acc = pending.get(key)
            pending[key] = gi if acc is None else acc + gi
    out: dict[Tensor, Tensor] = {}
    for leaf in tape.wrt:
        g = pending.get(leaf.key)
        if g is None:
            g = np.zeros(leaf.shape, dtype=leaf.dtype)
        out[leaf] = Tensor(np.asarray(g, dtype=leaf.dtype))
    return out

