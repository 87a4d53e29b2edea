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
cost. With one BLAS thread on a 2-core x86 machine (numpy 2.4, OpenBLAS 0.3),
`lora_linear` at B=1 spends 34-43 of its 41-52 us in its numpy expressions,
and `attention`'s vjp at B=4, N=128 takes 730-820 us, of which 350-480 us are
its four matmuls and most of the rest its softmax adjoint. A node still costs
its dispatch and, under a tape, the arrays its vjp keeps, so the two hottest
op chains of the denoiser are single ops with hand-written vjps:
`lora_linear` (a projection plus a routed low-rank update whose gate it
computes itself, one node for seven) and `attention` (the scaled dot-product
core, one node for five or six). Each evaluates the numpy expressions of its
chain in the chain's order and lists its inputs in the order the chain handed
gradients back, so values and gradients keep the chain's bytes; where the chain
made a temporary, the fused op may reuse an array it made itself instead (an
elementwise op in place gives the same bytes), never one it was handed.

This module holds the tape and the ops the package records, no others
(`tests/test_tape_ops_used.py` checks that each has a caller, and
`tests/test_node_counts.py` that each is on a train-step or adapt-step tape).
`record` is how an op defined elsewhere joins the tape: the `descriptor` node
of `spectral.joint_descriptor`, the `router` node of `moe.route`, the
`patch_embed` and `unembed` nodes of `denoiser`, the `ddim` node of
`sampling.ddim_update`, and the ops that only the unfused reference chains of
the test suite need.

No vjp writes into an array it captured (an input's data, its own output or a
temporary it kept), and neither does `backward`. So a vjp may be called more
than once, and `replay` relies on that: it appends a copy of a span of the
tape whose nodes share the originals' vjps under fresh output keys, which is
what re-running that span's ops on the same inputs would record, byte for
byte, without the forward work (`denoiser.denoise_guided` replays its trunk
so).

A frozen weight is a plain read-only array, not a Tensor: `lora_linear` takes
it and its expert layout as constants of the node, as `attention` takes its
bias, and refuses a Tensor in their place, and `Tape` refuses it as a leaf.

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
    key and `vjp(g)` one gradient per input, None for a constant."""

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
    `moe.route`'s `router`, `denoiser`'s `patch_embed` and `unembed` and
    `sampling.ddim_update`'s `ddim`).
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
# products


def _lora_vjp(live, hd, ad, bd, wd, od, gate_shape, gd, down, gated):
    a_shape, b_shape, down_shape = ad.shape, bd.shape, down.shape
    up = live[1] or live[2] or live[3]  # the paths through g @ b
    gated = gated if live[0] else None
    down = down if live[1] else None
    od = od if live[1] else None
    gd = gd if up else None
    bd = bd if up else None
    ad = ad if live[2] else None
    hd = hd if live[3] else None
    wd = wd if live[4] else None

    def vjp(g):
        gb = gpi = gh_up = ga = gh_base = None
        if live[0]:
            gb = np.transpose(_unbroadcast(np.swapaxes(gated, -1, -2) @ g, b_shape[::-1]))
        if live[1] or live[2] or live[3]:
            g_gated = g @ bd
            if live[1]:
                ggate = _unbroadcast(g_gated * down, gd.shape).reshape(gate_shape)
                gpi = ggate @ od.T
            if live[2] or live[3]:
                g_down = _unbroadcast(g_gated * gd, down_shape)
                if live[2]:
                    gh_up = g_down @ ad
                if live[3]:
                    ga = np.transpose(_unbroadcast(np.swapaxes(hd, -1, -2) @ g_down,
                                                   a_shape[::-1]))
        if live[4]:
            gh_base = g @ wd
        return gb, gpi, gh_up, ga, gh_base

    return vjp


def lora_linear(h, w, a, b, pi, owner) -> Tensor:
    """h @ w^T + ((h @ a^T) * gate) @ b^T as one node, gate = pi @ owner: a
    projection plus a routed low-rank update with down factor a (R, d_in), up
    factor b (d_out, R) and routing weights pi (B, M).

    `owner` is a constant (M, R) one-hot marking each expert's span of the rank
    axis, so rank row j of the down output of sample i is gated by
    (pi @ owner)[i, j]. Forward and vjp evaluate the numpy expressions of the
    matmul, reshape, linear, linear, mul, linear, add chain they replace, in its
    order, so values and gradients keep their bytes. The vjp keeps the gated
    down output only when b is live, h @ a^T only when pi is live and h only
    when a is live, and never the base or up outputs.

    The frozen weight `w` and the layout `owner` are plain arrays of h's dtype,
    constants of the node that get no gradient, as `attention`'s bias; a Tensor
    passed as either is refused, and so is an array of another dtype, as for a, b
    and pi. The node's inputs are (b, pi, h, a, h): the order in
    which the chain handed gradients back, so `backward` adds into each input in
    the same order. `h` is listed once per path because the chain added its
    adapter-path and base-path gradients into h one after the other; a
    pre-summed gradient would round differently. The up-projection is added
    into the fresh base output in place, which gives the sum's bytes.
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    hd = h.data
    dt = hd.dtype
    # each operand read as `_pair` reads one, inline: anything but a Tensor
    # becomes a constant of h's dtype, and a Tensor must have that dtype
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=dt))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=dt))
    if not isinstance(pi, Tensor):
        pi = Tensor(np.asarray(pi, dtype=dt))
    if isinstance(w, Tensor) or isinstance(owner, Tensor):
        raise ParameterError("lora_linear takes w and owner as constant arrays, not Tensors")
    wd, od = np.asarray(w), np.asarray(owner)
    for x in (a.data, b.data, pi.data, wd, od):
        if x.dtype != dt:
            raise ParameterError(f"dtype mismatch: {dt} vs {x.dtype}")
    if h.ndim < 2 or wd.ndim != 2 or a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"lora_linear needs rank >= 2 inputs and 2-D weights, got h "
                         f"{h.shape}, w {wd.shape}, a {a.shape}, b {b.shape}")
    if not h.shape[-1] == wd.shape[1] == a.shape[1] or b.shape != (wd.shape[0], a.shape[0]):
        raise ShapeError(f"lora_linear dims disagree: h {h.shape}, w {wd.shape}, "
                         f"a {a.shape}, b {b.shape}")
    if pi.ndim != 2 or od.shape != (pi.shape[1], a.shape[0]) or pi.shape[0] != h.shape[0]:
        raise ShapeError(f"lora_linear routing weights {pi.shape} and owner {od.shape} "
                         f"do not match batch {h.shape[0]} and rank {a.shape[0]}")
    ad, bd, pd = a.data, b.data, pi.data
    gate = pd @ od
    gd = gate.reshape((h.shape[0],) + (1,) * (h.ndim - 2) + (a.shape[0],))
    down = hd @ ad.T
    gated = down * gd
    out = hd @ wd.T
    out += gated @ bd.T
    return record("lora", (b, pi, h, a, h), out, _lora_vjp,
                  hd, ad, bd, wd, od, gate.shape, gd, down, gated)


def _attention_vjp(live, p, qd, kt, vd, scale_arr):
    q_shape, kt_shape, v_shape = qd.shape, kt.shape, vd.shape
    vd = vd if live[1] or live[2] else None
    kt = kt if live[1] else None
    qd = qd if live[2] else None

    def vjp(g):
        gv = gq = gk = None
        if live[0]:
            gv = _unbroadcast(np.swapaxes(p, -1, -2) @ g, v_shape)
        if live[1] or live[2]:
            # fresh: the softmax adjoint and the scale run in place into g_s
            g_s = _unbroadcast(g @ np.swapaxes(vd, -1, -2), p.shape)
            g_s -= np.sum(g_s * p, axis=-1, keepdims=True)
            g_s *= p
            g_s *= scale_arr
            if live[1]:
                gq = _unbroadcast(g_s @ np.swapaxes(kt, -1, -2), q_shape)
            if live[2]:
                gk = np.swapaxes(_unbroadcast(np.swapaxes(qd, -1, -2) @ g_s, kt_shape), -1, -2)
        return gv, gq, gk

    return vjp


def attention(q, k, v, scale: float, bias: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T * scale + bias) @ v over the last two axes, as one node.

    `bias` is a constant (N_q, N_k) array added to the scores. Forward
    and vjp evaluate the numpy expressions of the transpose, matmul, mul, add,
    softmax, matmul chain they replace, in its order (the softmax's at tau = 1,
    whose division by 1 is exact and skipped), so values and gradients keep
    their bytes. Each elementwise step after the first matmul runs in place on
    that matmul's fresh output, and so does the vjp's softmax adjoint on the
    fresh g @ v^T; q, k, v, bias and the upstream gradient are only read.

    The node's inputs are (v, q, k): the order in which the chain handed
    gradients back, so `backward` adds into each input in the same order.
    """
    q = _as_tensor(q)
    k, v = _pair(q, k)[1], _pair(q, v)[1]
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"attention needs rank >= 2 operands, got q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention dims disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if bias is not None and np.shape(bias) != (q.shape[-2], k.shape[-2]):
        raise ShapeError(f"attention bias {np.shape(bias)} is not (N_q, N_k) for q {q.shape}, "
                         f"k {k.shape}")
    qd, kd, vd = q.data, k.data, v.data
    kt = np.swapaxes(kd, -1, -2)
    try:
        p = qd @ kt  # fresh: scaled, biased and normalised in place into p
        scale_arr = np.asarray(scale, dtype=p.dtype)
        p *= scale_arr
        if bias is not None:
            p += np.asarray(bias, dtype=p.dtype)
        p -= np.max(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.sum(p, axis=-1, keepdims=True)
        out = p @ vd
    except ValueError as e:
        raise ShapeError(f"attention batch dims disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}") from e
    return record("attention", (v, q, k), out, _attention_vjp, p, qd, kt, vd, scale_arr)


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

