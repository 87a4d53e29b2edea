"""Dense tensors over numpy with a recording tape for reverse-mode gradients.

The design is a Wengert list: every differentiable operation executed while a
Tape is active appends one node (inputs, output and a vjp closure); the forward
value is computed once, eagerly, and never re-run. `backward` walks the list
once in reverse and returns a gradient for every watched leaf. Reduction order
inside a single op is whatever numpy does, which is deterministic run to run on
the same machine; no op here introduces platform-dependent nondeterminism of
its own.

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
    """A numpy array plus autodiff metadata. Do not mutate `.data` mid-graph."""

    __slots__ = ("data", "requires_grad", "name", "_producer_tape_id")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._producer_tape_id: int | None = None

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
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)
        return t

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        grad = " grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad}{tag})"

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __abs__(self):
        return absolute(self)


def tensor(data, dtype=None, requires_grad: bool = False, name: str | None = None,
           checked: bool = True) -> Tensor:
    """Public constructor. Rejects NaN/Inf unless checked=False."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(dtype or DEFAULT_DTYPE)
    if checked and arr.size and not np.isfinite(arr).all():
        raise ParameterError("tensor construction rejected non-finite values")
    return Tensor(arr, requires_grad=requires_grad, name=name)


def parameter(data, dtype=None, name: str | None = None) -> Tensor:
    """A trainable leaf."""
    return tensor(data, dtype=dtype, requires_grad=True, name=name)


class _Node:
    __slots__ = ("op", "inputs", "out", "vjp", "needs_grad")

    def __init__(self, op, inputs, out, vjp, needs_grad):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.vjp = vjp
        self.needs_grad = needs_grad


class Tape:
    """Records ops in execution order. Use as a context manager.

    Leaves with requires_grad=True are watched automatically on first use;
    extra leaves can be registered with `watch`.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._watched: dict[int, Tensor] = {}

    def watch(self, t: Tensor) -> None:
        self._watched.setdefault(id(t), t)

    @property
    def watched(self) -> list[Tensor]:
        return list(self._watched.values())

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - guards misuse
            raise TapeConsistencyError("tape stack corrupted by unbalanced enter/exit")


class pause_tape:
    """Context manager that suppresses recording (for detached side computations)."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    tape = active_tape()
    if tape is not None:
        out._producer_tape_id = id(tape)
        for t in inputs:
            if t.requires_grad and t._producer_tape_id != id(tape):
                tape.watch(t)
        tape.nodes.append(_Node(op, tuple(inputs), out, vjp, needs))
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

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, vjp)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, vjp)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g * bd, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, b.shape) if b.requires_grad else None
        return ga, gb

    return _record("mul", (a, b), out, vjp)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g / bd, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None
        return ga, gb

    return _record("div", (a, b), out, vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data

    def vjp(g):
        return (2.0 * g * ad,)

    return _record("square", (a,), ad * ad, vjp)


def absolute(a) -> Tensor:
    """Elementwise |x|. Subgradient at 0 is 0 (sign(0) = 0)."""
    a = _as_tensor(a)
    ad = a.data

    def vjp(g):
        return (g * np.sign(ad),)

    return _record("abs", (a,), np.abs(ad), vjp)


def log1p(a) -> Tensor:
    """log(1 + x), accurate near 0. Caller guarantees x > -1."""
    a = _as_tensor(a)
    ad = a.data

    def vjp(g):
        return (g / (1.0 + ad),)

    return _record("log1p", (a,), np.log1p(ad), vjp)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out),)

    return _record("sqrt", (a,), out, vjp)


def cast(a, dtype) -> Tensor:
    """Dtype conversion; gradient casts back to the input dtype."""
    a = _as_tensor(a)
    dtype = np.dtype(dtype)
    if a.dtype == dtype:
        return a
    in_dtype = a.dtype

    def vjp(g):
        return (g.astype(in_dtype),)

    return _record("cast", (a,), a.data.astype(dtype), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    a = _as_tensor(a)
    ad = a.data
    out = 0.5 * ad * (1.0 + np.tanh(_GELU_C * (ad + 0.044715 * ad ** 3)))

    def vjp(g):
        x = ad
        u = _GELU_C * (x + 0.044715 * x ** 3)
        th = np.tanh(u)
        du = _GELU_C * (1.0 + 3.0 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * du),)

    return _record("gelu", (a,), out, vjp)


def softmax(a, tau: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature softmax along `axis`, numerically stabilized by max subtraction."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {tau}")
    a = _as_tensor(a)
    z = (a.data - np.max(a.data, axis=axis, keepdims=True)) / tau
    e = np.exp(z)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return ((out * (g - dot)) / tau,)

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

    def vjp(g):
        return (g.reshape(in_shape),)

    return _record("reshape", (a,), out, vjp)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {a.ndim}")
    inv = tuple(np.argsort(axes))

    def vjp(g):
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
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    in_shape = a.shape

    def vjp(g):
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

    def vjp(g):
        grads = []
        off = 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(off, off + s)
            grads.append(g[tuple(idx)])
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

    def vjp(g):
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

    def vjp(g):
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

    def vjp(g):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return ((np.broadcast_to(g, in_shape) / count).astype(g.dtype, copy=False),)

    return _record("mean", (a,), np.mean(a.data, axis=ax, keepdims=keepdims), vjp)


def reduce_sum_sq(a, axes=None, keepdims: bool = False) -> Tensor:
    """Sum of squares over `axes` (the energy reduction)."""
    return reduce_sum(square(a), axes=axes, keepdims=keepdims)


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

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b.shape)
        return ga, gb

    return _record("matmul", (a, b), out, vjp)


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
    mw = Tensor(blur_matrix(w, sigma, dtype=x.dtype).T.copy())
    mh = Tensor(blur_matrix(h, sigma, dtype=x.dtype).T.copy())
    y = matmul(x, mw)            # rows along W: out[..., i, j] = sum_k x[..., i, k] Mw[j, k]
    y = swap_last2(y)            # (B, C, W, H)
    y = matmul(y, mh)
    return swap_last2(y)


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse sweep. Returns {watched leaf -> gradient}; unreachable leaves get zeros."""
    if not isinstance(loss, Tensor):
        raise ParameterError("loss must be a Tensor")
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss._producer_tape_id != id(tape):
        raise ParameterError("loss was not produced by operations recorded on this tape")
    pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(tape.nodes):
        g = pending.pop(id(node.out), None)
        if g is None or not node.needs_grad:
            continue
        grads = node.vjp(g)
        for inp, gi in zip(node.inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            if gi.shape != inp.shape:  # pragma: no cover - internal invariant
                raise TapeConsistencyError(
                    f"vjp of {node.op} produced shape {gi.shape} for input {inp.shape}")
            acc = pending.get(id(inp))
            pending[id(inp)] = gi if acc is None else acc + gi
    out: dict[Tensor, Tensor] = {}
    for leaf in tape.watched:
        g = pending.get(id(leaf))
        if g is None:
            g = np.zeros(leaf.shape, dtype=leaf.dtype)
        out[leaf] = Tensor(np.asarray(g, dtype=leaf.dtype))
    return out

