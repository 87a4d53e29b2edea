"""Frequency-energy descriptors for latent videos.

A latent video (B, T, C, h, w) is first reduced over time to a 2-D proxy:
the appearance proxy is the temporal mean, the VFX proxy is log(1 + mean
squared frame difference). Each proxy is split into coarse / band / detail
components with two gaussian blurs (sigma1 < sigma2), per-sample band
energies are normalized into a 3-vector, and the two 3-vectors concatenate
into the 6-dim joint descriptor that drives expert routing.

The stage functions (`appearance_proxy`, `vfx_proxy`, `decompose`,
`band_energies`, `normalize_energies`, `fei`) take arrays and return float64
arrays (`decompose` a `(coarse, band, detail)` tuple of them), at the fixed
scales `SIGMA1_DEFAULT`, `SIGMA2_DEFAULT` and `EPS_DEFAULT`; only `decompose`
takes other sigmas.

`joint_descriptor`, which the frequency-constraint loss reads on every draw,
composes the stage functions and joins the tape as one `descriptor` node with a
hand-written vjp, so the descriptor is differentiable end to end; values and
gradients have the bytes of the chain of tape ops (a float64 cast, then the ops
that the stage functions' numpy expressions spell out) that `tests/oracles.py`
keeps. `joint_descriptor_detached` composes the stage functions on a plain
array, so no tape records it.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as fx
from .errors import DomainError, ParameterError, ShapeError
from .tensor import Tensor

SIGMA1_DEFAULT = 0.46875
SIGMA2_DEFAULT = 0.9375
EPS_DEFAULT = 1e-8

# ---------------------------------------------------------------------------
# gaussian blur (separable, replicate padding, adjoint by the transposed matrices)

_BLUR_CACHE: dict[tuple, np.ndarray] = {}


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized float64 1-D gaussian taps with radius max(1, ceil(3*sigma))."""
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    radius = max(1, math.ceil(3.0 * sigma))
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(u * u) / (2.0 * sigma * sigma))
    k /= k.sum()
    return k


def blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) float64 matrix applying the 1-D gaussian with replicate (clamp)
    padding.

    Row i holds the weights contributing to output i; clamped taps accumulate
    onto the edge columns, so every row sums to 1 and constants pass through.
    The array is cached and shared, so it is read-only; copy it to modify it.
    """
    if n < 1:
        raise ShapeError(f"blur needs at least one sample per axis, got {n}")
    key = (n, float(sigma))
    hit = _BLUR_CACHE.get(key)
    if hit is not None:
        return hit
    k = gaussian_kernel_1d(sigma)
    radius = (len(k) - 1) // 2
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for off in range(-radius, radius + 1):
            j = min(max(i + off, 0), n - 1)
            m[i, j] += k[off + radius]
    m /= m.sum(axis=1, keepdims=True)
    m.setflags(write=False)
    _BLUR_CACHE[key] = m
    return m


def blur_matrix_t(n: int, sigma: float) -> np.ndarray:
    """`blur_matrix(n, sigma).T` as a C-contiguous array, cached and read-only
    like the matrix itself."""
    key = (n, float(sigma), "T")
    hit = _BLUR_CACHE.get(key)
    if hit is None:
        hit = blur_matrix(n, sigma).T.copy()
        hit.setflags(write=False)
        _BLUR_CACHE[key] = hit
    return hit


def blur_matrices(h: int, w: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The cached transposed blur matrices (along W, along H) that `blur_apply`
    and `blur_adjoint` multiply an (..., h, w) array by."""
    return blur_matrix_t(w, sigma), blur_matrix_t(h, sigma)


def blur_apply(x: np.ndarray, mats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Separable 2-D blur of the last two axes: rows along W, then columns along
    H. Returns a view with those two axes swapped back."""
    mw, mh = mats
    return np.swapaxes(np.swapaxes(x @ mw, -1, -2) @ mh, -1, -2)


def blur_adjoint(g: np.ndarray, mats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The gradient of `blur_apply` at output gradient `g`: the transposed
    matrices in reverse order."""
    mw, mh = mats
    return np.swapaxes(np.swapaxes(g, -1, -2) @ np.swapaxes(mh, -1, -2), -1, -2) \
        @ np.swapaxes(mw, -1, -2)


# ---------------------------------------------------------------------------
# stage functions


def _video(z) -> np.ndarray:
    # computed in float64, so float32 videos agree with the references well under 1e-6
    zd = np.asarray(z, dtype=np.float64)
    if zd.ndim != 5:
        raise ShapeError(f"latent video must be (B, T, C, H, W), got shape {zd.shape}")
    return zd


def _motion(zd: np.ndarray):
    """The VFX proxy of a float64 video, its mean squared frame difference and
    its frame differences."""
    diff = zd[:, 1:] - zd[:, :-1]
    msd = np.mean(diff * diff, axis=(1,))
    return np.log1p(msd), msd, diff


def appearance_proxy(z) -> np.ndarray:
    """(B, C, H, W) temporal mean of the video (Eq. content proxy)."""
    zd = _video(z)
    if zd.shape[1] < 1:
        raise ShapeError("appearance proxy needs at least one frame")
    return np.mean(zd, axis=(1,))


def vfx_proxy(z) -> np.ndarray:
    """(B, C, H, W) log(1 + mean squared frame difference); zero exactly for
    static videos."""
    zd = _video(z)
    if zd.shape[1] < 2:
        raise ShapeError(f"vfx proxy needs T >= 2 frames, got T={zd.shape[1]}")
    return _motion(zd)[0]


def decompose(x, sigma1: float = SIGMA1_DEFAULT, sigma2: float = SIGMA2_DEFAULT
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-scale gaussian split of a (B, C, H, W) proxy into (coarse, band,
    detail); the three parts sum back to the input."""
    if not 0 < sigma1 < sigma2:
        raise ParameterError(f"need 0 < sigma1 < sigma2, got ({sigma1}, {sigma2})")
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 4:
        raise ShapeError(f"proxy must be (B, C, H, W), got shape {v.shape}")
    b1 = blur_apply(v, blur_matrices(*v.shape[2:], sigma1))
    b2 = blur_apply(v, blur_matrices(*v.shape[2:], sigma2))
    return b2, b1 - b2, v - b1


def band_energies(parts) -> np.ndarray:
    """Per-sample sum of squares of each of (coarse, band, detail), stacked to (B, 3)."""
    shapes = {part.shape for part in parts}
    if len(shapes) != 1:
        raise ShapeError(f"band components disagree in shape: {shapes}")
    return np.concatenate([np.sum(p * p, axis=(1, 2, 3)).reshape((p.shape[0], 1))
                           for p in parts], axis=1)


def normalize_energies(energies) -> np.ndarray:
    """Divide each sample's band energies by their sum plus EPS_DEFAULT; (B, 3)
    entries in [0, 1]."""
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ShapeError(f"energies must be (B, 3), got shape {e.shape}")
    if np.any(e < 0):
        raise DomainError("band energies must be nonnegative")
    return e / (np.sum(e, axis=(1,), keepdims=True) + EPS_DEFAULT)


def fei(x) -> np.ndarray:
    """Frequency-energy indicator of one spatial proxy, (B, 3)."""
    return normalize_energies(band_energies(decompose(x)))


# ---------------------------------------------------------------------------
# the fused descriptor node


def _fei_forward(x: np.ndarray):
    """`fei` of a float64 proxy: its (B, 3) value, and the arrays `_fei_vjp`
    reads."""
    parts = decompose(x)
    energies = band_energies(parts)
    return normalize_energies(energies), (parts, energies)


def _fei_vjp(g: np.ndarray, saved, mats1, mats2) -> np.ndarray:
    """The proxy's gradient, from the vjps of `fei`'s chain in the order
    `backward` ran them."""
    (coarse, band, detail), energies = saved
    denom = np.sum(energies, axis=(1,), keepdims=True) + EPS_DEFAULT
    g_e = g / denom + np.broadcast_to(
        (-g * energies / (denom * denom)).sum(axis=(1,), keepdims=True), energies.shape)
    g_coarse, g_band, g_detail = (
        2.0 * np.broadcast_to(g_e[:, i].reshape((-1, 1, 1, 1)), p.shape).copy() * p
        for i, p in enumerate((coarse, band, detail)))
    # each sum adds its paths in the order `backward` reached them through the chain
    g_b1 = -g_detail + g_band
    g_b2 = g_coarse + -g_band
    return g_detail + blur_adjoint(g_b2, mats2) + blur_adjoint(g_b1, mats1)


def _descriptor_vjp(live, shape, dtype, mats1, mats2, app_saved, vfx_saved, msd, diff):
    """The `make_vjp` of the `descriptor` node on the video: it keeps both
    paths' arrays, the video's shape and dtype, not the video. The gradient is
    the sum of the earlier frame slice's, the later frame slice's and the
    appearance mean's, in the order `backward` added them into the float64
    video, then cast back to the video's dtype, as the chain's cast did."""
    t = shape[1]

    def vjp(g):
        g_vfx = _fei_vjp(g[:, 3:], vfx_saved, mats1, mats2)
        g_sq = np.broadcast_to(np.expand_dims(g_vfx / (1.0 + msd), 1), diff.shape) / (t - 1)
        g_diff = 2.0 * g_sq * diff
        g_earlier = np.zeros(shape)
        g_earlier[:, :-1] = -g_diff
        g_later = np.zeros(shape)
        g_later[:, 1:] = g_diff
        g_proxy = _fei_vjp(g[:, :3], app_saved, mats1, mats2)
        g_app = np.broadcast_to(np.expand_dims(g_proxy, 1), shape) / t
        return (((g_earlier + g_later) + g_app).astype(dtype, copy=False),)

    return vjp


def _descriptor_input(z) -> np.ndarray:
    """The float64 video that both descriptor halves read, checked."""
    zd = _video(z)
    b, t, c, h, w = zd.shape
    if t < 2:
        raise ShapeError(f"vfx proxy needs T >= 2 frames, got T={t}")
    if min(b, c, h, w) < 1:
        raise ShapeError(f"latent video has an empty axis: shape {zd.shape}")
    return zd


def joint_descriptor(z) -> Tensor:
    """(B, 6) concatenation of the appearance and VFX indicators.

    One `descriptor` node on the video in its own dtype, whose value the stage
    functions compute on the float64 video,
    `concat([fei(appearance_proxy(z)), fei(vfx_proxy(z))])`. Its vjp evaluates
    the vjps of the chain of tape ops they spell out, the float64 cast first, in
    that chain's order, so gradients keep its bytes wherever the node is the
    video's only consumer, as it is on every path of the package.
    """
    z = z if isinstance(z, Tensor) else Tensor(np.asarray(z))
    zd = _descriptor_input(z.data)
    h, w = zd.shape[3:]
    app_fei, app_saved = _fei_forward(appearance_proxy(zd))
    vfx, msd, diff = _motion(zd)
    vfx_fei, vfx_saved = _fei_forward(vfx)
    mats1 = blur_matrices(h, w, SIGMA1_DEFAULT)
    mats2 = blur_matrices(h, w, SIGMA2_DEFAULT)
    return fx.record("descriptor", (z,), np.concatenate([app_fei, vfx_fei], axis=1),
                     _descriptor_vjp, zd.shape, z.dtype, mats1, mats2, app_saved, vfx_saved,
                     msd, diff)


def joint_descriptor_detached(z) -> np.ndarray:
    """`joint_descriptor`'s value as a plain array, which no tape records (for
    routing inputs): the stage functions on the float64 video, with `fei` run
    once on the two proxies stacked along the batch axis. Every stage works per
    sample, so each half of its (2B, 3) result has the bytes of `fei` on that
    proxy alone."""
    zd = _descriptor_input(z.data if isinstance(z, Tensor) else z)
    b = zd.shape[0]
    e = fei(np.concatenate([appearance_proxy(zd), vfx_proxy(zd)]))
    return np.concatenate([e[:b], e[b:]], axis=1)
