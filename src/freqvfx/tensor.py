"""Dense tensors over numpy with a recording tape for reverse-mode gradients.

The design is a Wengert list. A Tape is built with the leaves it
differentiates (`Tape(wrt)`); while it is active, a tensor is live when it is
one of those leaves or the output of a recorded node, and every operation with
at least one live input appends one node. The tape refers to tensors by key: a
tensor gets a process-unique integer key when a tape first makes it live, and a
node holds its op, its input keys (None for a constant input) and shapes, its
output key and a vjp closure, never a Tensor or an array. Each vjp takes only
the upstream gradient and closes over shapes and over only the arrays that the
gradients of its live inputs read, so the tape keeps nothing else alive: an
array no vjp reads is freed as soon as its caller drops it. Operations on
constants alone record nothing and build no closure. The forward value is
computed once, eagerly, and never re-run. `backward` walks the list once in
reverse, adds each gradient into the input whose key it holds, and returns a
gradient for every `wrt` leaf.
Reduction order inside a single op is whatever numpy does, which is
deterministic run to run on the same machine; no op here introduces
platform-dependent nondeterminism of its own.

At batch 4 numpy's arithmetic, not Python dispatch per node, sets most of the
cost; at batch 1, in tape-free sampling, a node's input checks, output wrapping
and `record` call are a visible share of it. A node also costs, under a tape,
the arrays its vjp keeps. So the denoiser's hot op chains are single nodes with
hand-written vjps, recorded from the modules that define them: each attention
block (four routed projections, the attention core and the residual add) is
one `attn_block` node of `denoiser`. A fused node evaluates the numpy
expressions of its chain in the chain's order and lists its inputs in the
order the chain handed gradients back, so values and gradients keep the
chain's bytes; where the chain made a temporary, the fused op may reuse an
array it made itself instead (an elementwise op in place gives the same
bytes), never one it was handed.

This module holds the tape and the ops the package records, no others
(`tests/test_tape_ops_used.py` checks that each has a caller, and
`tests/test_node_counts.py` that each is on a train-step or adapt-step tape).
`record` is how an op defined elsewhere joins the tape: the `descriptor` node
of `spectral.joint_descriptor`, the `router` node of `moe.route`, the
`patch_embed`, `attn_block` and `unembed` nodes of `denoiser`, the `ddim` node
of `sampling.ddim_update`, and the ops that only the unfused reference chains
of the test suite need (`tests/oracles.py`, where the `lora_linear` and
`attention` ops that `attn_block` fuses are kept as its byte reference).

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
    """A numpy array as the tape ops take and return it. Do not mutate `.data`
    mid-graph. `key` is None until a tape makes the tensor live."""

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

    # Operator sugar. Scalars are promoted to constants of the same dtype.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __abs__(self):
        return absolute(self)


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
    to None first). Every op records through this, including those defined
    outside this module (`spectral.joint_descriptor`'s `descriptor`,
    `moe.route`'s `router`, `denoiser`'s `patch_embed`, `attn_block` and
    `unembed` and `sampling.ddim_update`'s `ddim`).
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


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _pair(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, _as_tensor(b, a)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return _as_tensor(a, b), b
    a, b = _as_tensor(a), _as_tensor(b)
    if a.dtype != b.dtype:
        raise ParameterError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
#
# Each op's `_<op>_vjp(live, ...)` is the `make_vjp` that `record` calls when it
# appends the op's node: it keeps what the live inputs' gradients read and
# returns the vjp.


def _add_vjp(live, a_shape, b_shape):
    def vjp(g):
        return (_unbroadcast(g, a_shape) if live[0] else None,
                _unbroadcast(g, b_shape) if live[1] else None)

    return vjp


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    return record("add", (a, b), a.data + b.data, _add_vjp, a.shape, b.shape)


def _sub_vjp(live, a_shape, b_shape):
    def vjp(g):
        return (_unbroadcast(g, a_shape) if live[0] else None,
                _unbroadcast(-g, b_shape) if live[1] else None)

    return vjp


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    return record("sub", (a, b), a.data - b.data, _sub_vjp, a.shape, b.shape)


def _mul_vjp(live, ad, bd):
    a_shape, b_shape = ad.shape, bd.shape
    ad = ad if live[1] else None
    bd = bd if live[0] else None

    def vjp(g):
        ga = _unbroadcast(g * bd, a_shape) if live[0] else None
        gb = _unbroadcast(g * ad, b_shape) if live[1] else None
        return ga, gb

    return vjp


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    return record("mul", (a, b), a.data * b.data, _mul_vjp, a.data, b.data)


def _square_vjp(live, ad):
    def vjp(g):
        return (2.0 * g * ad,)

    return vjp


def square(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return record("square", (a,), ad * ad, _square_vjp, ad)


def _abs_vjp(live, ad):
    def vjp(g):
        return (g * np.sign(ad),)

    return vjp


def absolute(a) -> Tensor:
    """Elementwise |x|. Subgradient at 0 is 0 (sign(0) = 0)."""
    a = _as_tensor(a)
    return record("abs", (a,), np.abs(a.data), _abs_vjp, a.data)


def _cast_vjp(live, in_dtype):
    def vjp(g):
        return (g.astype(in_dtype),)

    return vjp


def cast(a, dtype) -> Tensor:
    """Dtype conversion; gradient casts back to the input dtype."""
    a = _as_tensor(a)
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ParameterError(f"tensors hold float32 or float64, not {dtype}")
    if a.dtype == dtype:
        return a
    return record("cast", (a,), a.data.astype(dtype), _cast_vjp, a.dtype)


# ---------------------------------------------------------------------------
# shape / indexing


def _reshape_vjp(live, in_shape):
    def vjp(g):
        return (g.reshape(in_shape),)

    return vjp


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    return record("reshape", (a,), out, _reshape_vjp, a.shape)


def _broadcast_vjp(live, in_shape):
    def vjp(g):
        return (_unbroadcast(g, in_shape),)

    return vjp


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)  # a read-only view of `a`
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    return record("broadcast_to", (a,), out, _broadcast_vjp, a.shape)


def _concat_vjp(live, sizes, ax):
    def vjp(g):
        grads = []
        off = 0
        for s, keep in zip(sizes, live):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(off, off + s)
            grads.append(g[tuple(idx)] if keep else None)
            off += s
        return grads

    return vjp


def concat(parts: Iterable, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    # a plain part is read at the first Tensor part's dtype, as `_pair` reads one
    like = next((p for p in parts if isinstance(p, Tensor)), None)
    parts = [_as_tensor(p, like) for p in parts]
    for p in parts[1:]:
        if p.dtype != parts[0].dtype:
            raise ParameterError(f"dtype mismatch: {parts[0].dtype} vs {p.dtype}")
    ax = axis if axis >= 0 else parts[0].ndim + axis
    if not 0 <= ax < parts[0].ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {parts[0].ndim}")
    try:
        out = np.concatenate([p.data for p in parts], axis=ax)
    except ValueError as e:
        raise ShapeError(f"concat shape mismatch: {[p.shape for p in parts]}") from e
    return record("concat", tuple(parts), out, _concat_vjp, [p.shape[ax] for p in parts], ax)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = []
    for ax in axes:
        a = ax if ax >= 0 else ndim + ax
        if not 0 <= a < ndim:
            raise ShapeError(f"reduction axis {ax} out of range for rank {ndim}")
        out.append(a)
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return tuple(sorted(out))


def _sum_vjp(live, in_shape, ax, keepdims):
    def vjp(g):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return (np.broadcast_to(g, in_shape).copy(),)

    return vjp


def reduce_sum(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    return record("sum", (a,), np.sum(a.data, axis=ax, keepdims=keepdims), _sum_vjp,
                  a.shape, ax, keepdims)


def _mean_vjp(live, in_shape, ax, keepdims, count):
    def vjp(g):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return ((np.broadcast_to(g, in_shape) / count).astype(g.dtype, copy=False),)

    return vjp


def reduce_mean(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for d in ax:
        count *= a.shape[d]
    if count == 0:
        raise ShapeError("mean over zero elements")
    return record("mean", (a,), np.mean(a.data, axis=ax, keepdims=keepdims), _mean_vjp,
                  a.shape, ax, keepdims, count)


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

