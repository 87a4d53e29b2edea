"""Dense tensors over numpy with a recording tape for reverse-mode gradients.

The design is a Wengert list. A Tape is built with the leaves it
differentiates (`Tape(wrt)`); while it is active, a tensor is live when it is
one of those leaves or the output of a recorded node, and every operation with
at least one live input appends one node (inputs, a per-input live mask, output
and a vjp closure). Operations on constants alone record nothing. The forward
value is computed once, eagerly, and never re-run. `backward` walks the list
once in reverse, asks each vjp only for the gradients of its live inputs, and
returns a gradient for every `wrt` leaf. Reduction order
inside a single op is whatever numpy does, which is deterministic run to run on
the same machine; no op here introduces platform-dependent nondeterminism of
its own.

At these sizes Python dispatch per node, not arithmetic, sets the cost, so the
two hottest op chains of the denoiser are single ops with hand-written vjps:
`lora_linear` (a projection plus a gated low-rank update, one node for five)
and `attention` (the scaled dot-product core, one node for five or six). Each
evaluates the numpy expressions of its chain in the chain's order and lists its
inputs in the order the chain handed gradients back, so values and gradients
keep the chain's bytes.

Gradients are exact (no numeric differentiation anywhere in this module); the
test suite checks them against central finite differences in float64.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, TapeConsistencyError

DEFAULT_DTYPE = np.float32

_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A numpy array as the tape ops take and return it. Do not mutate `.data`
    mid-graph."""

    __slots__ = ("data",)

    def __init__(self, data):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr

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

    def item(self) -> float:
        return float(self.data)

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

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

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
    __slots__ = ("op", "inputs", "live", "out", "vjp")

    def __init__(self, op, inputs, live, out, vjp):
        self.op = op
        self.inputs = inputs
        self.live = live
        self.out = out
        self.vjp = vjp


class Tape:
    """Records, in execution order, the ops that depend on the leaves in `wrt`.

    Use as a context manager. The tape holds every live tensor (the `wrt`
    leaves and each node's output), so their ids stay unique while it exists.
    """

    def __init__(self, wrt: Iterable[Tensor]):
        self.wrt: list[Tensor] = list(wrt)
        self.nodes: list[_Node] = []
        self._live: set[int] = {id(t) for t in self.wrt}

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
    return tape is not None and id(t) in tape._live


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            vjp: Callable[[np.ndarray, tuple[bool, ...]], Sequence[np.ndarray | None]]
            ) -> Tensor:
    """Wrap `out_data`; append a node when the active tape has a live input.

    `vjp(g, live)` returns one gradient per input, None where `live` is False.
    """
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        live = tuple(id(t) in tape._live for t in inputs)
        if any(live):
            tape._live.add(id(out))
            tape.nodes.append(_Node(op, tuple(inputs), live, out, vjp))
    return out


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


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data + b.data

    def vjp(g, live):
        return (_unbroadcast(g, a.shape) if live[0] else None,
                _unbroadcast(g, b.shape) if live[1] else None)

    return _record("add", (a, b), out, vjp)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data - b.data

    def vjp(g, live):
        return (_unbroadcast(g, a.shape) if live[0] else None,
                _unbroadcast(-g, b.shape) if live[1] else None)

    return _record("sub", (a, b), out, vjp)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g, live):
        ga = _unbroadcast(g * bd, a.shape) if live[0] else None
        gb = _unbroadcast(g * ad, b.shape) if live[1] else None
        return ga, gb

    return _record("mul", (a, b), out, vjp)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def vjp(g, live):
        ga = _unbroadcast(g / bd, a.shape) if live[0] else None
        gb = _unbroadcast(-g * ad / (bd * bd), b.shape) if live[1] else None
        return ga, gb

    return _record("div", (a, b), out, vjp)


def square(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data

    def vjp(g, live):
        return (2.0 * g * ad,)

    return _record("square", (a,), ad * ad, vjp)


def absolute(a) -> Tensor:
    """Elementwise |x|. Subgradient at 0 is 0 (sign(0) = 0)."""
    a = _as_tensor(a)
    ad = a.data

    def vjp(g, live):
        return (g * np.sign(ad),)

    return _record("abs", (a,), np.abs(ad), vjp)


def log1p(a) -> Tensor:
    """log(1 + x), accurate near 0. Caller guarantees x > -1."""
    a = _as_tensor(a)
    ad = a.data

    def vjp(g, live):
        return (g / (1.0 + ad),)

    return _record("log1p", (a,), np.log1p(ad), vjp)


def cast(a, dtype) -> Tensor:
    """Dtype conversion; gradient casts back to the input dtype."""
    a = _as_tensor(a)
    dtype = np.dtype(dtype)
    if a.dtype == dtype:
        return a
    in_dtype = a.dtype

    def vjp(g, live):
        return (g.astype(in_dtype),)

    return _record("cast", (a,), a.data.astype(dtype), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    a = _as_tensor(a)
    ad = a.data
    out = 0.5 * ad * (1.0 + np.tanh(_GELU_C * (ad + 0.044715 * ad ** 3)))

    def vjp(g, live):
        x = ad
        u = _GELU_C * (x + 0.044715 * x ** 3)
        th = np.tanh(u)
        du = _GELU_C * (1.0 + 3.0 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * du),)

    return _record("gelu", (a,), out, vjp)


def _softmax_forward(x: np.ndarray, tau: float, axis: int) -> np.ndarray:
    z = (x - np.max(x, axis=axis, keepdims=True)) / tau
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_vjp(out: np.ndarray, g: np.ndarray, tau: float, axis: int) -> np.ndarray:
    dot = np.sum(g * out, axis=axis, keepdims=True)
    return (out * (g - dot)) / tau


def softmax(a, tau: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature softmax along `axis`, numerically stabilized by max subtraction."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {tau}")
    a = _as_tensor(a)
    out = _softmax_forward(a.data, tau, axis)

    def vjp(g, live):
        return (_softmax_vjp(out, g, tau, axis),)

    return _record("softmax", (a,), out, vjp)


# ---------------------------------------------------------------------------
# shape / indexing


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    in_shape = a.shape

    def vjp(g, live):
        return (g.reshape(in_shape),)

    return _record("reshape", (a,), out, vjp)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {a.ndim}")
    inv = tuple(np.argsort(axes))

    def vjp(g, live):
        return (np.transpose(g, inv),)

    return _record("transpose", (a,), np.transpose(a.data, axes), vjp)


def swap_last2(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError("swap_last2 needs rank >= 2")
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)  # a read-only view of `a`
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    in_shape = a.shape

    def vjp(g, live):
        return (_unbroadcast(g, in_shape),)

    return _record("broadcast_to", (a,), out, vjp)


def concat(parts: Iterable, axis: int = 0) -> Tensor:
    parts = [x if isinstance(x, Tensor) else _as_tensor(x) for x in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    first = parts[0]
    parts = [first] + [_pair(first, p)[1] for p in parts[1:]]
    ax = axis if axis >= 0 else parts[0].ndim + axis
    if not 0 <= ax < parts[0].ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {parts[0].ndim}")
    try:
        out = np.concatenate([p.data for p in parts], axis=ax)
    except ValueError as e:
        raise ShapeError(f"concat shape mismatch: {[p.shape for p in parts]}") from e
    sizes = [p.shape[ax] for p in parts]

    def vjp(g, live):
        grads = []
        off = 0
        for s, keep in zip(sizes, live):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(off, off + s)
            grads.append(g[tuple(idx)] if keep else None)
            off += s
        return grads

    return _record("concat", tuple(parts), out, vjp)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    ax = axis if axis >= 0 else a.ndim + axis
    if not 0 <= ax < a.ndim:
        raise ShapeError(f"slice axis {axis} out of range for rank {a.ndim}")
    n = a.shape[ax]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice [{start}:{stop}] out of bounds for axis of size {n}")
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, stop)
    idx = tuple(idx)
    in_shape = a.shape

    def vjp(g, live):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _record("slice", (a,), a.data[idx].copy(), vjp)


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


def reduce_sum(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    in_shape = a.shape

    def vjp(g, live):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record("sum", (a,), np.sum(a.data, axis=ax, keepdims=keepdims), vjp)


def reduce_mean(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for d in ax:
        count *= a.shape[d]
    if count == 0:
        raise ShapeError("mean over zero elements")
    in_shape = a.shape

    def vjp(g, live):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return ((np.broadcast_to(g, in_shape) / count).astype(g.dtype, copy=False),)

    return _record("mean", (a,), np.mean(a.data, axis=ax, keepdims=keepdims), vjp)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b) -> Tensor:
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul batch dims disagree: {a.shape} @ {b.shape}") from e
    ad, bd = a.data, b.data

    def vjp(g, live):
        ga = gb = None
        if live[0]:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), a.shape)
        if live[1]:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b.shape)
        return ga, gb

    return _record("matmul", (a, b), out, vjp)


def linear(h, w) -> Tensor:
    """h @ w^T for a 2-D weight w (d_out, d_in), as one node.

    The same arithmetic as matmul(h, swap_last2(w)) without the transpose node.
    """
    h, w = _pair(h, w)
    if h.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear needs rank >= 2 inputs and a 2-D weight, "
                         f"got {h.shape} and {w.shape}")
    if h.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear feature dims disagree: {h.shape} @ {w.shape}^T")
    hd, wd = h.data, w.data

    def vjp(g, live):
        gh = gw = None
        if live[0]:
            gh = g @ wd
        if live[1]:
            gw = np.transpose(_unbroadcast(np.swapaxes(hd, -1, -2) @ g, wd.shape[::-1]))
        return gh, gw

    return _record("linear", (h, w), hd @ wd.T, vjp)


def lora_linear(h, w, a, b, gate) -> Tensor:
    """h @ w^T + ((h @ a^T) * gate) @ b^T as one node: a projection plus a gated
    low-rank update with down factor a (R, d_in) and up factor b (d_out, R).

    `gate` broadcasts against the (..., R) down output. Forward and vjp evaluate
    the numpy expressions of the linear, linear, mul, linear, add chain they
    replace, in its order, so values and gradients keep their bytes. The vjp
    keeps h, h @ a^T and the gated down output, not the base or up outputs.

    The node's inputs are (b, gate, h, a, h, w): the order in which the chain
    handed gradients back, so `backward` adds into each input in the same
    order. `h` is listed once per path because the chain added its adapter-path
    and base-path gradients into h one after the other; a pre-summed gradient
    would round differently.
    """
    h = _as_tensor(h)
    w, a, b, gate = (_pair(h, x)[1] for x in (w, a, b, gate))
    if h.ndim < 2 or w.ndim != 2 or a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"lora_linear needs rank >= 2 inputs and 2-D weights, got h "
                         f"{h.shape}, w {w.shape}, a {a.shape}, b {b.shape}")
    if not h.shape[-1] == w.shape[1] == a.shape[1] or b.shape != (w.shape[0], a.shape[0]):
        raise ShapeError(f"lora_linear dims disagree: h {h.shape}, w {w.shape}, "
                         f"a {a.shape}, b {b.shape}")
    hd, wd, ad, bd, gd = h.data, w.data, a.data, b.data, gate.data
    down = hd @ ad.T
    try:
        gated = down * gd
    except ValueError:
        gated = None
    if gated is None or gated.shape != down.shape:
        raise ShapeError(f"lora_linear gate {gate.shape} does not broadcast to {down.shape}")

    def vjp(g, live):
        gb = ggate = gh_up = ga = gh_base = gw = None
        if live[0]:
            gb = np.transpose(_unbroadcast(np.swapaxes(gated, -1, -2) @ g, bd.shape[::-1]))
        if live[1] or live[2] or live[3]:
            g_gated = g @ bd
            if live[1]:
                ggate = _unbroadcast(g_gated * down, gd.shape)
            if live[2] or live[3]:
                g_down = _unbroadcast(g_gated * gd, down.shape)
                if live[2]:
                    gh_up = g_down @ ad
                if live[3]:
                    ga = np.transpose(_unbroadcast(np.swapaxes(hd, -1, -2) @ g_down,
                                                   ad.shape[::-1]))
        if live[4]:
            gh_base = g @ wd
        if live[5]:
            gw = np.transpose(_unbroadcast(np.swapaxes(hd, -1, -2) @ g, wd.shape[::-1]))
        return gb, ggate, gh_up, ga, gh_base, gw

    return _record("lora", (b, gate, h, a, h, w), hd @ wd.T + gated @ bd.T, vjp)


def attention(q, k, v, scale: float, bias: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T * scale + bias) @ v over the last two axes, as one node.

    `bias` is a constant (N_q, N_k) array added to the scores. Forward
    and vjp evaluate the numpy expressions of the transpose, matmul, mul, add,
    softmax, matmul chain they replace, in its order (the softmax through the
    same code as `softmax`), so values and gradients keep their bytes.

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
        scores = qd @ kt
        scale_arr = np.asarray(scale, dtype=scores.dtype)
        scores = scores * scale_arr
        if bias is not None:
            scores = scores + np.asarray(bias, dtype=scores.dtype)
        p = _softmax_forward(scores, 1.0, -1)
        out = p @ vd
    except ValueError as e:
        raise ShapeError(f"attention batch dims disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}") from e

    def vjp(g, live):
        gv = gq = gk = None
        if live[0]:
            gv = _unbroadcast(np.swapaxes(p, -1, -2) @ g, vd.shape)
        if live[1] or live[2]:
            g_p = _unbroadcast(g @ np.swapaxes(vd, -1, -2), p.shape)
            g_s = _softmax_vjp(p, g_p, 1.0, -1) * scale_arr
            if live[1]:
                gq = _unbroadcast(g_s @ np.swapaxes(kt, -1, -2), qd.shape)
            if live[2]:
                gk = np.swapaxes(_unbroadcast(np.swapaxes(qd, -1, -2) @ g_s, kt.shape), -1, -2)
        return gv, gq, gk

    return _record("attention", (v, q, k), out, vjp)


# ---------------------------------------------------------------------------
# gaussian blur (separable, replicate padding, exact adjoint via matmul)

_BLUR_CACHE: dict[tuple, np.ndarray] = {}


def gaussian_kernel_1d(sigma: float, dtype=np.float64) -> np.ndarray:
    """Normalized 1-D gaussian taps with radius max(1, ceil(3*sigma))."""
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    radius = max(1, math.ceil(3.0 * sigma))
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(u * u) / (2.0 * sigma * sigma))
    k /= k.sum()
    return k.astype(dtype)


def blur_matrix(n: int, sigma: float, dtype=np.float64) -> np.ndarray:
    """(n, n) matrix applying the 1-D gaussian with replicate (clamp) padding.

    Row i holds the weights contributing to output i; clamped taps accumulate
    onto the edge columns, so every row sums to 1 and constants pass through.
    The array is cached and shared, so it is read-only; copy it to modify it.
    """
    if n < 1:
        raise ShapeError(f"blur needs at least one sample per axis, got {n}")
    key = (n, float(sigma), np.dtype(dtype).str)
    hit = _BLUR_CACHE.get(key)
    if hit is not None:
        return hit
    k = gaussian_kernel_1d(sigma, dtype=np.float64)
    radius = (len(k) - 1) // 2
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for off in range(-radius, radius + 1):
            j = min(max(i + off, 0), n - 1)
            m[i, j] += k[off + radius]
    m /= m.sum(axis=1, keepdims=True)
    m = m.astype(dtype)
    m.setflags(write=False)
    _BLUR_CACHE[key] = m
    return m


def blur_matrix_t(n: int, sigma: float, dtype=np.float64) -> np.ndarray:
    """`blur_matrix(n, sigma, dtype).T` as a C-contiguous array, cached and
    read-only like the matrix itself."""
    key = (n, float(sigma), np.dtype(dtype).str, "T")
    hit = _BLUR_CACHE.get(key)
    if hit is None:
        hit = blur_matrix(n, sigma, dtype).T.copy()
        hit.setflags(write=False)
        _BLUR_CACHE[key] = hit
    return hit


def gaussian_blur_depthwise(x, sigma: float) -> Tensor:
    """Per-channel 2-D gaussian blur of a (B, C, H, W) tensor, replicate padded.

    Implemented as two 1-D blur-matrix matmuls (separable), which is identical
    to the full 2-D convolution with the outer-product kernel and gives exact
    gradients through the standard matmul vjp.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"expected (B, C, H, W), got shape {x.shape}")
    b, c, h, w = x.shape
    if h < 1 or w < 1 or b < 1 or c < 1:
        raise ShapeError(f"empty blur input {x.shape}")
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    mw = Tensor(blur_matrix_t(w, sigma, dtype=x.dtype))
    mh = Tensor(blur_matrix_t(h, sigma, dtype=x.dtype))
    y = matmul(x, mw)            # rows along W: out[..., i, j] = sum_k x[..., i, k] Mw[j, k]
    y = swap_last2(y)            # (B, C, W, H)
    y = matmul(y, mh)
    return swap_last2(y)


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse sweep. Returns {wrt leaf -> gradient}; unreachable leaves get zeros."""
    if not isinstance(loss, Tensor):
        raise ParameterError("loss must be a Tensor")
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._live:
        raise ParameterError("loss does not depend on this tape's wrt leaves "
                             "through operations recorded on it")
    pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(tape.nodes):
        g = pending.pop(id(node.out), None)
        if g is None:
            continue
        grads = node.vjp(g, node.live)
        for inp, live, gi in zip(node.inputs, node.live, grads):
            if not live:
                continue
            if gi.shape != inp.shape:  # pragma: no cover - internal invariant
                raise TapeConsistencyError(
                    f"vjp of {node.op} produced shape {gi.shape} for input {inp.shape}")
            acc = pending.get(id(inp))
            pending[id(inp)] = gi if acc is None else acc + gi
    out: dict[Tensor, Tensor] = {}
    for leaf in tape.wrt:
        g = pending.get(id(leaf))
        if g is None:
            g = np.zeros(leaf.shape, dtype=leaf.dtype)
        out[leaf] = Tensor(np.asarray(g, dtype=leaf.dtype))
    return out

