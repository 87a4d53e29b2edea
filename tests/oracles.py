"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (scalar loops,
mpmath extended precision, central finite differences) and shares no code
with the package under test. The exceptions are the unfused op chains at the
end: a fused op must reproduce its chain byte for byte, so the chain is built
from the package's own primitives, plus the `matmul`, `swap_last2`, `log1p`
and `slice_axis` ops that only these chains record, defined here on
`fx.record`.
"""

import numpy as np
from mpmath import mp, mpf

import freqvfx.spectral as sp
import freqvfx.tensor as fx


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
    import math
    radius = max(1, math.ceil(3.0 * sigma))
    taps = [math.exp(-(u * u) / (2.0 * sigma * sigma)) for u in range(-radius, radius + 1)]
    s = sum(taps)
    return np.array([t / s for t in taps], dtype=np.float64)


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


def _matmul_vjp(live, ad, bd):
    def vjp(g):
        ga = fx._unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if live[0] else None
        gb = fx._unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if live[1] else None
        return ga, gb

    return vjp


def matmul(a, b):
    """a @ b over the last two axes of two tensors of one dtype, broadcasting
    the others, as one node."""
    return fx.record("matmul", (a, b), a.data @ b.data, _matmul_vjp, a.data, b.data)


def swap_last2(a):
    """The transpose of the last two axes."""
    return fx.transpose(a, tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2))


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


def lora_linear_chain(h, w, a, b, pi, owner):
    """The matmul, reshape, linear, linear, mul, linear, add chain that
    `fx.lora_linear` fuses; `w` and `owner` are arrays, constants of the chain."""
    gate_shape = (h.shape[0],) + (1,) * (h.ndim - 2) + (a.shape[0],)
    gate = fx.reshape(matmul(pi, fx.Tensor(owner)), gate_shape)
    out = fx.linear(h, w)
    down = fx.linear(h, a) * gate
    return out + fx.linear(down, b)


def attention_chain(q, k, v, scale, bias=None):
    """The transpose, matmul, mul, add, softmax, matmul chain that `fx.attention` fuses."""
    scores = matmul(q, swap_last2(k)) * scale
    if bias is not None:
        scores = scores + fx.Tensor(np.asarray(bias, dtype=scores.dtype))
    return matmul(fx.softmax(scores, tau=1.0), v)


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
    for part in (b2, b1 - b2, x - b1):
        e = fx.reduce_sum(fx.square(part), axes=(1, 2, 3))
        cols.append(fx.reshape(e, (e.shape[0], 1)))
    e = fx.concat(cols, axis=1)
    return e / (fx.reduce_sum(e, axes=(1,), keepdims=True) + sp.EPS_DEFAULT)


def joint_descriptor_chain(z):
    """The cast and the stage functions that `spectral.joint_descriptor` fuses,
    as tape ops; the cast runs once, so both proxies read the same float64
    video."""
    z = fx.cast(z, np.float64)
    t = z.shape[1]
    app = _fei_chain(fx.reduce_mean(z, axes=(1,)))
    diff = slice_axis(z, 1, 1, t) - slice_axis(z, 1, 0, t - 1)
    vfx = _fei_chain(log1p(fx.reduce_mean(fx.square(diff), axes=(1,))))
    return fx.concat([app, vfx], axis=1)


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
