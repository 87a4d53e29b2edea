"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (scalar loops,
mpmath extended precision, central finite differences) and shares no code
with the package under test. The exceptions are the unfused op chains: a
package node must reproduce its chain byte for byte, so the chain is built on
the package's tape (`fx.record`) from the generic broadcasting ops that the
package no longer records (`add`, `sub`, `mul`, `square`, `absolute`, `cast`,
`reshape`, `broadcast_to`, `concat`, `reduce_sum`, `reduce_mean`), plus the
`matmul`, `transpose`, `swap_last2`, `log1p`, `slice_axis`, `gelu`,
`softmax`, `div` and `linear` ops that only these chains record; the
synthetic-data generators, whose loops must give the bytes of the package's
vectorised ones from the same streams; and the helpers that only tests read
the package with (`adapter_param_count`, `state_hashes`, `sha256_file`,
`parse_spectral_report`).
"""

import hashlib
import math
import zlib

import numpy as np
from mpmath import mp, mpf

import freqvfx.reports as rp
import freqvfx.spectral as sp
import freqvfx.tensor as fx
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.spectral import gaussian_kernel_1d
from freqvfx.synthgen import _check_seed, _check_shape, _stream, _unit_rms


def conv2d_replicate_scalar(img: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Direct 2-D correlation with replicate (clamp-to-edge) padding."""
    h, w = img.shape
    kh, kw = kern.shape
    rh, rw = kh // 2, kw // 2
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(-rh, rh + 1):
                for b in range(-rw, rw + 1):
                    ii = min(max(i + a, 0), h - 1)
                    jj = min(max(j + b, 0), w - 1)
                    acc += float(img[ii, jj]) * float(kern[a + rh, b + rw])
            out[i, j] = acc
    return out


def gaussian_taps_scalar(sigma: float) -> np.ndarray:
    """Normalized gaussian taps with radius max(1, ceil(3*sigma)), from first principles."""
    radius = max(1, math.ceil(3.0 * sigma))
    taps = [math.exp(-(u * u) / (2.0 * sigma * sigma)) for u in range(-radius, radius + 1)]
    s = sum(taps)
    return np.array([t / s for t in taps], dtype=np.float64)


def blur_matrix_loop(n: int, sigma: float) -> np.ndarray:
    """`spectral.blur_matrix` as a double loop over rows and taps: each clamped
    tap adds onto its edge column in tap order, then every row is normalized."""
    k = gaussian_kernel_1d(sigma)
    radius = (len(k) - 1) // 2
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for off in range(-radius, radius + 1):
            j = min(max(i + off, 0), n - 1)
            m[i, j] += k[off + radius]
    return m / m.sum(axis=1, keepdims=True)


def softmax_mp(x, tau: float, dps: int = 60) -> np.ndarray:
    """Temperature softmax of a 1-D vector at `dps` decimal digits."""
    old = mp.dps
    mp.dps = dps
    try:
        vals = [mp.exp(mpf(float(v)) / mpf(tau)) for v in x]
        total = sum(vals)
        return np.array([float(v / total) for v in vals], dtype=np.float64)
    finally:
        mp.dps = old


def normalize_mp(energies, eps: float, dps: int = 60) -> np.ndarray:
    """Band normalization e_i = E_i / (sum_j E_j + eps) at high precision."""
    old = mp.dps
    mp.dps = dps
    try:
        es = [mpf(float(v)) for v in energies]
        denom = sum(es) + mpf(eps)
        return np.array([float(v / denom) for v in es], dtype=np.float64)
    finally:
        mp.dps = old


def appearance_scalar(z: np.ndarray) -> np.ndarray:
    """Temporal mean of a (B, T, C, H, W) video, scalar loops."""
    b, t, c, h, w = z.shape
    out = np.zeros((b, c, h, w), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ti in range(t):
                        acc += float(z[bi, ti, ci, i, j])
                    out[bi, ci, i, j] = acc / t
    return out


def vfx_scalar(z: np.ndarray) -> np.ndarray:
    """log(1 + mean squared frame difference) of a (B, T, C, H, W) video, scalar loops."""
    b, t, c, h, w = z.shape
    out = np.zeros((b, c, h, w), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ti in range(t - 1):
                        d = float(z[bi, ti + 1, ci, i, j]) - float(z[bi, ti, ci, i, j])
                        acc += d * d
                    out[bi, ci, i, j] = np.log1p(acc / (t - 1))
    return out


def energy_scalar(x: np.ndarray) -> np.ndarray:
    """Sum of squares over all but the leading axis, scalar loops."""
    b = x.shape[0]
    out = np.zeros(b, dtype=np.float64)
    for bi in range(b):
        acc = 0.0
        for v in x[bi].ravel():
            acc += float(v) * float(v)
        out[bi] = acc
    return out


def fei_scalar(proxy: np.ndarray, sigma1: float, sigma2: float, eps: float) -> np.ndarray:
    """Normalized 3-band energies of a (B, C, H, W) proxy, via scalar convolution."""
    t1 = gaussian_taps_scalar(sigma1)
    t2 = gaussian_taps_scalar(sigma2)
    k1 = np.outer(t1, t1)
    k2 = np.outer(t2, t2)
    b = proxy.shape[0]
    out = np.zeros((b, 3), dtype=np.float64)
    for bi in range(b):
        bands = [np.zeros_like(proxy[bi]) for _ in range(3)]
        for ci in range(proxy.shape[1]):
            img = proxy[bi, ci].astype(np.float64)
            b1 = conv2d_replicate_scalar(img, k1)
            b2 = conv2d_replicate_scalar(img, k2)
            bands[0][ci] = b2
            bands[1][ci] = b1 - b2
            bands[2][ci] = img - b1
        energies = [energy_scalar(band[None])[0] for band in bands]
        out[bi] = normalize_mp(energies, eps)
    return out


def joint_descriptor_scalar(z: np.ndarray, sigma1: float, sigma2: float,
                            eps: float) -> np.ndarray:
    """(B, 6) reference descriptor: appearance bands then motion bands."""
    app = fei_scalar(appearance_scalar(z), sigma1, sigma2, eps)
    vfx = fei_scalar(vfx_scalar(z), sigma1, sigma2, eps)
    return np.concatenate([app, vfx], axis=1)


def fd_grad(f, arrays: list, wrt: int, step: float = 1e-5,
            coords=None) -> np.ndarray:
    """Central finite differences of scalar f(*arrays) wrt arrays[wrt].

    `coords` restricts the check to a subset of flat (C-order) indices (for big
    params). Mutates-and-restores `x` itself through multi-indices, so a
    non-contiguous view (a column slice of a larger array) is perturbed in
    place too; arrays must be float64 for decent accuracy.
    """
    x = arrays[wrt]
    g = np.zeros(x.size, dtype=np.float64)
    idxs = range(x.size) if coords is None else coords
    for j in idxs:
        at = np.unravel_index(j, x.shape)
        orig = x[at]
        x[at] = orig + step
        fp = float(f(*arrays))
        x[at] = orig - step
        fm = float(f(*arrays))
        x[at] = orig
        g[j] = (fp - fm) / (2.0 * step)
    return g.reshape(x.shape)


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       rtol: float = 1e-5, atol: float = 1e-7,
                       coords=None) -> None:
    a = analytic.ravel()
    n = numeric.ravel()
    idxs = range(a.size) if coords is None else coords
    for j in idxs:
        err = abs(a[j] - n[j])
        bound = atol + rtol * max(abs(a[j]), abs(n[j]))
        assert err <= bound, f"grad mismatch at flat index {j}: {a[j]} vs {n[j]} (err {err})"


# ---------------------------------------------------------------------------
# the generic broadcasting ops, byte references of the package's nodes
#
# A plain operand of a binary op (a Python scalar or an array) becomes a
# constant Tensor of the other operand's dtype; two Tensors must share one. The
# package records none of these, and `fx.Tensor` has no arithmetic operators,
# so the chains below call them by name.


def _as_tensor(x, like: "fx.Tensor | None" = None) -> fx.Tensor:
    if isinstance(x, fx.Tensor):
        return x
    dtype = like.dtype if like is not None else fx.DEFAULT_DTYPE
    return fx.Tensor(np.asarray(x, dtype=dtype))


def _pair(a, b) -> tuple[fx.Tensor, fx.Tensor]:
    if isinstance(a, fx.Tensor) and not isinstance(b, fx.Tensor):
        return a, _as_tensor(b, a)
    if isinstance(b, fx.Tensor) and not isinstance(a, fx.Tensor):
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


# elementwise arithmetic
#
# Each op's `_<op>_vjp(live, ...)` is the `make_vjp` that `fx.record` calls when
# it appends the op's node: it keeps what the live inputs' gradients read and
# returns the vjp.


def _add_vjp(live, a_shape, b_shape):
    def vjp(g):
        return (_unbroadcast(g, a_shape) if live[0] else None,
                _unbroadcast(g, b_shape) if live[1] else None)

    return vjp


def add(a, b) -> fx.Tensor:
    a, b = _pair(a, b)
    return fx.record("add", (a, b), a.data + b.data, _add_vjp, a.shape, b.shape)


def _sub_vjp(live, a_shape, b_shape):
    def vjp(g):
        return (_unbroadcast(g, a_shape) if live[0] else None,
                _unbroadcast(-g, b_shape) if live[1] else None)

    return vjp


def sub(a, b) -> fx.Tensor:
    a, b = _pair(a, b)
    return fx.record("sub", (a, b), a.data - b.data, _sub_vjp, a.shape, b.shape)


def _mul_vjp(live, ad, bd):
    a_shape, b_shape = ad.shape, bd.shape
    ad = ad if live[1] else None
    bd = bd if live[0] else None

    def vjp(g):
        ga = _unbroadcast(g * bd, a_shape) if live[0] else None
        gb = _unbroadcast(g * ad, b_shape) if live[1] else None
        return ga, gb

    return vjp


def mul(a, b) -> fx.Tensor:
    a, b = _pair(a, b)
    return fx.record("mul", (a, b), a.data * b.data, _mul_vjp, a.data, b.data)


def _square_vjp(live, ad):
    def vjp(g):
        return (2.0 * g * ad,)

    return vjp


def square(a) -> fx.Tensor:
    a = _as_tensor(a)
    ad = a.data
    return fx.record("square", (a,), ad * ad, _square_vjp, ad)


def _abs_vjp(live, ad):
    def vjp(g):
        return (g * np.sign(ad),)

    return vjp


def absolute(a) -> fx.Tensor:
    """Elementwise |x|. Subgradient at 0 is 0 (sign(0) = 0)."""
    a = _as_tensor(a)
    return fx.record("abs", (a,), np.abs(a.data), _abs_vjp, a.data)


def _cast_vjp(live, in_dtype):
    def vjp(g):
        return (g.astype(in_dtype),)

    return vjp


def cast(a, dtype) -> fx.Tensor:
    """Dtype conversion; gradient casts back to the input dtype."""
    a = _as_tensor(a)
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ParameterError(f"tensors hold float32 or float64, not {dtype}")
    if a.dtype == dtype:
        return a
    return fx.record("cast", (a,), a.data.astype(dtype), _cast_vjp, a.dtype)


# shape / indexing


def _reshape_vjp(live, in_shape):
    def vjp(g):
        return (g.reshape(in_shape),)

    return vjp


def reshape(a, shape) -> fx.Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e
    return fx.record("reshape", (a,), out, _reshape_vjp, a.shape)


def _broadcast_vjp(live, in_shape):
    def vjp(g):
        return (_unbroadcast(g, in_shape),)

    return vjp


def broadcast_to(a, shape) -> fx.Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)  # a read-only view of `a`
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from e
    return fx.record("broadcast_to", (a,), out, _broadcast_vjp, a.shape)


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


def concat(parts, axis: int) -> fx.Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    # a plain part is read at the first Tensor part's dtype, as `_pair` reads one
    like = next((p for p in parts if isinstance(p, fx.Tensor)), None)
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
    return fx.record("concat", tuple(parts), out, _concat_vjp, [p.shape[ax] for p in parts], ax)


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


def reduce_sum(a, axes=None, keepdims: bool = False) -> fx.Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    return fx.record("sum", (a,), np.sum(a.data, axis=ax, keepdims=keepdims), _sum_vjp,
                     a.shape, ax, keepdims)


def _mean_vjp(live, in_shape, ax, keepdims, count):
    def vjp(g):
        if not keepdims:
            for d in ax:
                g = np.expand_dims(g, d)
        return ((np.broadcast_to(g, in_shape) / count).astype(g.dtype, copy=False),)

    return vjp


def reduce_mean(a, axes=None, keepdims: bool = False) -> fx.Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for d in ax:
        count *= a.shape[d]
    if count == 0:
        raise ShapeError("mean over zero elements")
    return fx.record("mean", (a,), np.mean(a.data, axis=ax, keepdims=keepdims), _mean_vjp,
                     a.shape, ax, keepdims, count)


# ---------------------------------------------------------------------------
# the ops and chains that the fused nodes are checked against


def _matmul_vjp(live, ad, bd):
    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if live[0] else None
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if live[1] else None
        return ga, gb

    return vjp


def matmul(a, b):
    """a @ b over the last two axes of two tensors of one dtype, broadcasting
    the others, as one node."""
    return fx.record("matmul", (a, b), a.data @ b.data, _matmul_vjp, a.data, b.data)


def _transpose_vjp(live, axes):
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return vjp


def transpose(a, axes):
    """The axes of a tensor permuted, as one node."""
    axes = tuple(axes)
    return fx.record("transpose", (a,), np.transpose(a.data, axes), _transpose_vjp, axes)


def swap_last2(a):
    """The transpose of the last two axes."""
    return transpose(a, tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2))


def _log1p_vjp(live, ad):
    def vjp(g):
        return (g / (1.0 + ad),)

    return vjp


def log1p(a):
    """log(1 + x) of a tensor, as one node."""
    return fx.record("log1p", (a,), np.log1p(a.data), _log1p_vjp, a.data)


def _slice_vjp(live, in_shape, idx):
    def vjp(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return vjp


def slice_axis(a, axis, start, stop):
    """a[start:stop] along `axis` of a tensor, copied, as one node."""
    idx = (slice(None),) * axis + (slice(start, stop),)
    return fx.record("slice", (a,), a.data[idx].copy(), _slice_vjp, a.shape, idx)


def _linear_vjp(live, hd, wd):
    w_shape = wd.shape
    hd = hd if live[1] else None
    wd = wd if live[0] else None

    def vjp(g):
        gh = gw = None
        if live[0]:
            gh = g @ wd
        if live[1]:
            gw = np.transpose(_unbroadcast(np.swapaxes(hd, -1, -2) @ g, w_shape[::-1]))
        return gh, gw

    return vjp


def linear(h, w):
    """h @ w^T, w a 2-D (d_out, d_in) weight, as one node: a tensor of h's dtype
    that may be live, or a frozen array, a constant of the node read in h's
    dtype."""
    wd = w.data if isinstance(w, fx.Tensor) else np.asarray(w, dtype=h.dtype)
    return fx.record("linear", (h, w), h.data @ wd.T, _linear_vjp, h.data, wd)


def _div_vjp(live, ad, bd):
    a_shape, b_shape = ad.shape, bd.shape
    ad = ad if live[1] else None

    def vjp(g):
        ga = _unbroadcast(g / bd, a_shape) if live[0] else None
        gb = _unbroadcast(-g * ad / (bd * bd), b_shape) if live[1] else None
        return ga, gb

    return vjp


def div(a, b):
    """a / b of two tensors of one dtype, broadcasting, as one node."""
    return fx.record("div", (a, b), a.data / b.data, _div_vjp, a.data, b.data)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_vjp(live, ad):
    def vjp(g):
        x = ad
        u = _GELU_C * (x + 0.044715 * x ** 3)
        th = np.tanh(u)
        du = _GELU_C * (1.0 + 3.0 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * du),)

    return vjp


def gelu(a):
    """Gaussian error linear unit of a tensor, tanh approximation, as one node."""
    ad = a.data
    out = 0.5 * ad * (1.0 + np.tanh(_GELU_C * (ad + 0.044715 * ad ** 3)))
    return fx.record("gelu", (a,), out, _gelu_vjp, ad)


def _softmax_vjp(live, out, tau):
    def vjp(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return ((out * (g - dot)) / tau,)

    return vjp


def softmax(a, tau: float):
    """Temperature softmax of a tensor over the last axis, numerically
    stabilized by max subtraction, as one node."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {tau}")
    e = np.exp((a.data - np.max(a.data, axis=-1, keepdims=True)) / tau)
    out = e / np.sum(e, axis=-1, keepdims=True)
    return fx.record("softmax", (a,), out, _softmax_vjp, out, tau)


def route_chain(e, params, top_k):
    """The linear, add, gelu, linear, add, softmax chain, then for top_k < M the
    top-k mask's mul, the row sum and the div, that `moe.route` fuses into its
    `router` node; the descriptor `e` is a constant."""
    ec = fx.Tensor(np.ascontiguousarray(e, dtype=params.w1.dtype))
    h = gelu(add(linear(ec, params.w1), params.b1))
    pi = softmax(add(linear(h, params.w2), params.b2), params.tau)
    if top_k < params.n_experts:
        # stable argsort on negated weights: ties resolve to the lower index
        order = np.argsort(-pi.data, axis=-1, kind="stable")
        mask = np.zeros_like(pi.data)
        np.put_along_axis(mask, order[:, :top_k], 1.0, axis=-1)
        masked = mul(pi, fx.Tensor(mask))
        pi = div(masked, reduce_sum(masked, axes=(-1,), keepdims=True))
    return pi


def lora_linear_chain(h, w, a, b, pi, owner):
    """h @ w^T + ((h @ a^T) * gate) @ b^T, gate = pi @ owner: one projection of
    `denoiser._attention` as its matmul, reshape, linear, linear, mul, linear,
    add chain; `w` and `owner` are arrays, constants of the chain."""
    gate_shape = (h.shape[0],) + (1,) * (h.ndim - 2) + (a.shape[0],)
    gate = reshape(matmul(pi, fx.Tensor(owner)), gate_shape)
    out = linear(h, w)
    down = mul(linear(h, a), gate)
    return add(out, linear(down, b))


def attention_chain(q, k, v, scale, bias=None):
    """softmax(q @ k^T * scale + bias) @ v, the attention core of
    `denoiser._attention`, as its transpose, matmul, mul, add, softmax, matmul
    chain; `bias` is a constant (N_q, N_k) array."""
    scores = mul(matmul(q, swap_last2(k)), scale)
    if bias is not None:
        scores = add(scores, fx.Tensor(np.asarray(bias, dtype=scores.dtype)))
    return matmul(softmax(scores, tau=1.0), v)


def attn_block_chain(x, kv, params, stack, pi, layer, bias=None):
    """The chain that `denoiser._attention` fuses into its `attn_block` node: x
    plus attention block `layer` of x into `kv`, each projection a
    `lora_linear_chain` and the core an `attention_chain`; into a single key
    with no bias, the v projection broadcast over x's tokens, with no q, k or
    core. A plain `kv` is a constant."""
    kv = _as_tensor(kv, x)

    def project(slot, h):
        adapter = stack.layers[f"{layer}.{slot}"]
        return lora_linear_chain(h, params.projections[f"{layer}.w{slot}"], adapter.a,
                                 adapter.b, pi, stack.owner)

    if kv.shape[1] == 1 and bias is None:
        v = project("v", kv)
        mixed = broadcast_to(v, x.shape[:2] + v.shape[2:])
    else:
        q = project("q", x)
        k = project("k", kv)
        mixed = attention_chain(q, k, project("v", kv), 1.0 / math.sqrt(params.width), bias)
    return add(x, project("o", mixed))


def _patchify_chain(z, patch):
    b, t, c, h, w = z.shape
    hp, wp = h // patch, w // patch
    x = transpose(reshape(z, (b, t, c, hp, patch, wp, patch)), (0, 1, 3, 5, 2, 4, 6))
    return reshape(x, (b, t * hp * wp, c * patch * patch))


def patch_embed_chain(z, t, params):
    """The reshape, transpose, reshape, linear, add, add chain that
    `denoiser.patch_embed` fuses: patchify, embed, `+ pos`, `+ temb[t]`."""
    tokens = linear(_patchify_chain(z, params.patch), params.embed_w)
    temb = params.temb[t]
    temb = temb[None, None, :] if temb.ndim == 1 else temb[:, None, :]
    return add(add(tokens, params.pos), fx.Tensor(temb))


def unembed_chain(x, params):
    """The linear, reshape, transpose, reshape chain that `denoiser.unembed`
    fuses: the output projection, then unpatchify."""
    t, c, h, w = params.latent_shape
    p = params.patch
    out = linear(x, params.unembed_w)
    b = out.shape[0]
    y = transpose(reshape(out, (b, t, h // p, w // p, c, p, p)), (0, 1, 4, 2, 5, 3, 6))
    return reshape(y, (b, t, c, h, w))


def _fei_chain(x):
    """`spectral.fei` of a float64 proxy tensor as tape ops; each blur is the
    matmul, swap, matmul, swap chain of `spectral.blur_apply`."""
    def blur(sigma):
        mw = fx.Tensor(sp.blur_matrix_t(x.shape[3], sigma))
        mh = fx.Tensor(sp.blur_matrix_t(x.shape[2], sigma))
        return swap_last2(matmul(swap_last2(matmul(x, mw)), mh))

    b1 = blur(sp.SIGMA1_DEFAULT)
    b2 = blur(sp.SIGMA2_DEFAULT)
    cols = []
    for part in (b2, sub(b1, b2), sub(x, b1)):
        e = reduce_sum(square(part), axes=(1, 2, 3))
        cols.append(reshape(e, (e.shape[0], 1)))
    e = concat(cols, axis=1)
    return div(e, add(reduce_sum(e, axes=(1,), keepdims=True), sp.EPS_DEFAULT))


def joint_descriptor_chain(z):
    """The cast and the stage functions that `spectral.joint_descriptor` fuses,
    as tape ops; the cast runs once, so both proxies read the same float64
    video."""
    z = cast(z, np.float64)
    t = z.shape[1]
    app = _fei_chain(reduce_mean(z, axes=(1,)))
    diff = sub(slice_axis(z, 1, 1, t), slice_axis(z, 1, 0, t - 1))
    vfx = _fei_chain(log1p(reduce_mean(square(diff), axes=(1,))))
    return concat([app, vfx], axis=1)


def joint_descriptor_two_pass(z):
    """The descriptor as `fei` run once per proxy of the float64 video, the two
    (B, 3) results joined."""
    zd = np.asarray(z.data if isinstance(z, fx.Tensor) else z, dtype=np.float64)
    return np.concatenate([sp.fei(sp.appearance_proxy(zd)), sp.fei(sp.vfx_proxy(zd))], axis=1)


def ddim_update_chain(z, eps_c, eps_u, cfg_scale, schedule, t, t_next):
    """The sub, mul, add (guidance combine) and mul, mul, add (DDIM update) chain
    that `sampling.ddim_update` fuses into its `ddim` node; eps_u None is the
    cfg-1 step, which runs the update on eps_c alone."""
    eps_hat = eps_c if eps_u is None else add(eps_u, mul(cfg_scale, sub(eps_c, eps_u)))
    a_t, s_t = schedule.alphas[t], schedule.sigmas[t]
    a_n, s_n = schedule.alphas[t_next], schedule.sigmas[t_next]
    ratio = a_n / a_t
    return add(mul(float(ratio), z), mul(float(s_n - ratio * s_t), eps_hat))


def context_tokens_chain(params, cond, batch):
    """`denoiser._context_tokens` as it read the conditioning in three groups:
    image, text and vfx tokens, each made (B, L, width) by reshape and
    broadcast_to when 2-D, joined by one concat; the null token by reshape and
    broadcast_to. The image and text groups are cut back out of `cond.tokens`."""
    d = params.width
    if cond is None:
        return broadcast_to(reshape(fx.Tensor(params.null_token), (1, 1, d)), (batch, 1, d))
    n_img = params.pos.shape[0] // params.latent_shape[0]
    parts = []
    for tok in (fx.Tensor(cond.tokens[:, :n_img]), fx.Tensor(cond.tokens[:, n_img:]),
                cond.vfx_tokens):
        if tok is None:
            continue
        if tok.ndim == 2:
            tok = broadcast_to(reshape(tok, (1,) + tok.shape), (batch,) + tok.shape)
        parts.append(tok)
    return concat(parts, axis=1)


def noise_chain(z0, t, eps, schedule):
    """The mul, mul, add chain that `schedule.forward_noise` fuses into its
    `noise` node: alpha_t z0 + sigma_t eps, each coefficient a constant of the
    latent's dtype."""
    alpha, sigma = schedule.coefficients(t)
    if np.ndim(alpha) == 1:
        alpha = alpha.reshape((-1, 1, 1, 1, 1))
        sigma = sigma.reshape((-1, 1, 1, 1, 1))
    a = fx.Tensor(np.asarray(alpha, dtype=z0.dtype))
    s = fx.Tensor(np.asarray(sigma, dtype=z0.dtype))
    return add(mul(a, z0), mul(s, eps))


def mse_chain(eps_hat, eps):
    """The sub, square, mean chain that `train.diffusion_loss` fuses into its
    `mse` node; the noise `eps` is a constant."""
    return reduce_mean(square(sub(eps_hat, fx.Tensor(eps))))


def freq_loss_chain(z_gen, z_ref):
    """The sub, abs, sum, mean chain on the two descriptors that
    `adapt.freq_constraint_loss` fuses into its `freq_loss` node, each
    descriptor the cast and `descriptor` chain of `joint_descriptor_chain`."""
    diff = sub(joint_descriptor_chain(z_gen), joint_descriptor_chain(z_ref))
    return reduce_mean(reduce_sum(absolute(diff), axes=(1,)))


def draw_mean_chain(terms):
    """The adds in draw order and the mul by 1 / n that `adapt`'s `draw_mean`
    node fuses; one draw is its own mean."""
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total if len(terms) == 1 else mul(total, 1.0 / len(terms))


class AdamWPerLeaf:
    """The AdamW that looped over its leaves one array at a time, kept as the
    reference for the flat-buffer `freqvfx.train.AdamW`."""

    def __init__(self, params, lr: float, betas: tuple[float, float], eps: float,
                 weight_decay: float):
        self.params = list(params.values()) if isinstance(params, dict) else list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            gd = g.data
            m = self._m[id(p)]
            v = self._v[id(p)]
            m += (1.0 - b1) * (gd - m)
            v += (1.0 - b2) * (gd * gd - v)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data[...] = p.data - self.lr * update - self.lr * self.weight_decay * p.data


# ---------------------------------------------------------------------------
# helpers that only tests read the package with


def adapter_param_count(adapter) -> int:
    """Trainable scalars in a `moe.MoeAdapter`: r * (d_in + d_out), independent of M."""
    return adapter.a.size + adapter.b.size


def state_hashes(params, stack) -> dict[str, int]:
    """CRC32 of every frozen and trainable array, for parameter-isolation checks."""
    return {name: zlib.crc32(np.ascontiguousarray(tensor.data).tobytes())
            for name, tensor in {**params.named_arrays(), **stack.parameters()}.items()}


def sha256_file(path) -> str:
    """The sha256 of the file at `path` as it is now, read in chunks apart from
    the package's reader, against which a manifest's `inputs` are checked."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_spectral_report(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `reports.emit_spectral_report`: (timesteps, (steps, 6) values)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != rp.SPECTRAL_HEADER:
        raise ParameterError("not a spectral report: header mismatch")
    ts, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 7:
            raise ParameterError(f"malformed report row: {ln!r}")
        ts.append(int(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    return np.array(ts), np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# synthetic-data generators: the per-frame and per-scalar loops that
# `freqvfx.synthgen` vectorised, kept as its byte reference. They share the
# stream keying, the shape and seed checks and the unit-RMS scaling with the
# package, because what they check is that the same draws give the same bytes.


def _blur2d(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable clamp-to-edge gaussian blur over the trailing two axes."""
    taps = gaussian_kernel_1d(sigma)
    r = (len(taps) - 1) // 2
    offs = np.arange(-r, r + 1)

    def along(a, axis):
        n = a.shape[axis]
        idx = np.clip(np.arange(n)[:, None] + offs[None, :], 0, n - 1)
        moved = np.moveaxis(a, axis, -1)
        out = (moved[..., idx] * taps).sum(-1)
        return np.moveaxis(out, -1, axis)

    return along(along(x, -1), -2)


def gen_lowfreq_field(seed, shape) -> np.ndarray:
    """Smooth blurred patterns rotating slowly between two phases."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    out = np.empty((b, t, c, h, w), dtype=np.float64)
    for bi in range(b):
        rng = _stream(seed, 0, bi)
        p1 = _blur2d(rng.standard_normal((c, h, w)), 2.0)
        p2 = _blur2d(rng.standard_normal((c, h, w)), 2.0)
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        for ti in range(t):
            theta = phi0 + 2.0 * math.pi * 0.35 * (ti / t)  # 0.35 cycles per clip
            out[bi, ti] = math.cos(theta) * p1 + math.sin(theta) * p2
        out[bi] = _unit_rms(out[bi])
    return out.astype(np.float32)


def _spark_sites(rng: np.random.Generator, k: int, h: int, w: int,
                 min_sep: int = 3, tries: int = 400) -> list[tuple[int, int]]:
    """Up to k interior sites with pairwise Chebyshev distance >= min_sep."""
    lo_i, hi_i = (1, h - 2) if h >= 3 else (0, h - 1)
    lo_j, hi_j = (1, w - 2) if w >= 3 else (0, w - 1)
    sites: list[tuple[int, int]] = []
    for _ in range(tries):
        if len(sites) == k:
            break
        i = int(rng.integers(lo_i, hi_i + 1))
        j = int(rng.integers(lo_j, hi_j + 1))
        if all(max(abs(i - a), abs(j - b)) >= min_sep for a, b in sites):
            sites.append((i, j))
    return sites


def gen_highfreq_particles(seed, shape) -> np.ndarray:
    """Checkerboard sparkle plus isolated sign-flipping spark sites, one site per
    16 pixels of frame area; a frame too small for one site gives an all-zero
    video."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    k = int(round(h * w / 16.0))
    out = np.zeros((b, t, c, h, w), dtype=np.float64)
    if k == 0:
        return out.astype(np.float32)
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    carrier = (-1.0) ** (ii + jj)
    for bi in range(b):
        rng = _stream(seed, 1, bi)
        env = 1.0 + 0.2 * _blur2d(rng.standard_normal((c, h, w)), 1.5)
        sparkle = _unit_rms(env * carrier)
        sparks = np.zeros((t, c, h, w))
        for ci in range(c):
            for (i, j) in _spark_sites(rng, k, h, w):
                s0 = -1.0 if rng.random() < 0.5 else 1.0
                for ti in range(t):
                    sparks[ti, ci, i, j] = s0 * ((-1.0) ** ti) * rng.uniform(0.9, 1.1)
        srms = math.sqrt(float((sparks ** 2).mean()))
        if srms > 0:
            sparks /= srms
        out[bi] = _unit_rms(sparkle[None] + 0.8 * sparks)
    return out.astype(np.float32)


def gen_bandpass_texture(seed, shape) -> np.ndarray:
    """Difference-of-gaussians texture whose brightness flickers per frame."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    out = np.zeros((b, t, c, h, w), dtype=np.float64)
    for bi in range(b):
        rng = _stream(seed, 2, bi)
        noise = rng.standard_normal((c, h, w))
        pattern = _blur2d(noise, 0.5) - _blur2d(noise, 1.2)
        mod = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=t)
        for ti in range(t):
            out[bi, ti] = mod[ti] * pattern
        out[bi] = _unit_rms(out[bi])
    return out.astype(np.float32)
