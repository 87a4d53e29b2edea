"""Frequency-energy descriptors for latent videos.

A latent video (B, T, C, h, w) is first reduced over time to a 2-D proxy:
the appearance proxy is the temporal mean, the VFX proxy is log(1 + mean
squared frame difference). Each proxy is split into coarse / band / detail
components with two gaussian blurs (sigma1 < sigma2), per-sample band
energies are normalized into a 3-vector, and the two 3-vectors concatenate
into the 6-dim joint descriptor that drives expert routing.

Every function takes and returns plain autodiff tensors from `freqvfx.tensor`
(`decompose` a `(coarse, band, detail)` tuple of them), so the full descriptor
is differentiable end to end; pass plain arrays (or use
`joint_descriptor_detached`) when gradients are not wanted. The descriptor runs
at the fixed scales `SIGMA1_DEFAULT`, `SIGMA2_DEFAULT` and `EPS_DEFAULT`; only
`decompose` takes other sigmas.

The stage functions record one tape node per op. `joint_descriptor`, which the
router reads at every sampler step and the frequency-constraint loss on every
draw, records the float64 cast and one `descriptor` node with a hand-written
vjp instead of the stage functions' chain of about 55 nodes, with the same
bytes for values and gradients; `joint_descriptor_detached` runs the same node
with nothing live, so no tape records it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as fx
from .errors import DomainError, ParameterError, ShapeError
from .tensor import Tensor

SIGMA1_DEFAULT = 0.46875
SIGMA2_DEFAULT = 0.9375
EPS_DEFAULT = 1e-8


def _as_video(z) -> Tensor:
    t = z if isinstance(z, Tensor) else Tensor(np.asarray(z))
    if t.ndim != 5:
        raise ShapeError(f"latent video must be (B, T, C, H, W), got shape {t.shape}")
    # Descriptors are analysis quantities; accumulate in double precision so
    # the f32 path agrees with the reference computation to well under 1e-6.
    return fx.cast(t, np.float64)


def appearance_proxy(z) -> Tensor:
    """(B, C, H, W) temporal mean of the video (Eq. content proxy)."""
    z = _as_video(z)
    if z.shape[1] < 1:
        raise ShapeError("appearance proxy needs at least one frame")
    return fx.reduce_mean(z, axes=(1,))


def vfx_proxy(z) -> Tensor:
    """(B, C, H, W) log(1 + mean squared frame difference); zero exactly for
    static videos."""
    z = _as_video(z)
    t = z.shape[1]
    if t < 2:
        raise ShapeError(f"vfx proxy needs T >= 2 frames, got T={t}")
    later = fx.slice_axis(z, 1, 1, t)
    earlier = fx.slice_axis(z, 1, 0, t - 1)
    msd = fx.reduce_mean(fx.square(later - earlier), axes=(1,))
    return fx.log1p(msd)


def decompose(x, sigma1: float = SIGMA1_DEFAULT, sigma2: float = SIGMA2_DEFAULT
              ) -> tuple[Tensor, Tensor, Tensor]:
    """Two-scale gaussian split of a (B, C, H, W) proxy into (coarse, band,
    detail); the three parts sum back to the input."""
    if not 0 < sigma1 < sigma2:
        raise ParameterError(f"need 0 < sigma1 < sigma2, got ({sigma1}, {sigma2})")
    v = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    if v.ndim != 4:
        raise ShapeError(f"proxy must be (B, C, H, W), got shape {v.shape}")
    v = fx.cast(v, np.float64)
    b1 = fx.gaussian_blur_depthwise(v, sigma1)
    b2 = fx.gaussian_blur_depthwise(v, sigma2)
    return b2, b1 - b2, v - b1


def band_energies(parts: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """Per-sample sum of squares of each of (coarse, band, detail), stacked to (B, 3)."""
    shapes = {part.shape for part in parts}
    if len(shapes) != 1:
        raise ShapeError(f"band components disagree in shape: {shapes}")
    cols = []
    for part in parts:
        e = fx.reduce_sum(fx.square(part), axes=(1, 2, 3))
        cols.append(fx.reshape(e, (e.shape[0], 1)))
    return fx.concat(cols, axis=1)


def normalize_energies(energies) -> Tensor:
    """Divide each sample's band energies by their sum plus EPS_DEFAULT; (B, 3)
    entries in [0, 1]."""
    e = energies if isinstance(energies, Tensor) else Tensor(np.asarray(energies))
    if e.ndim != 2 or e.shape[1] != 3:
        raise ShapeError(f"energies must be (B, 3), got shape {e.shape}")
    if np.any(e.data < 0):
        raise DomainError("band energies must be nonnegative")
    e = fx.cast(e, np.float64)
    return e / (fx.reduce_sum(e, axes=(1,), keepdims=True) + EPS_DEFAULT)


def fei(x) -> Tensor:
    """Frequency-energy indicator of one spatial proxy, (B, 3)."""
    return normalize_energies(band_energies(decompose(x)))


def _fei_forward(x: np.ndarray, mats1, mats2):
    """`fei` of a float64 proxy in numpy: its (B, 3) value, and the arrays
    `_fei_vjp` reads."""
    b1 = fx.blur_apply(x, mats1)
    b2 = fx.blur_apply(x, mats2)
    parts = (b2, b1 - b2, x - b1)
    energies = np.concatenate(
        [np.sum(p * p, axis=(1, 2, 3)).reshape((x.shape[0], 1)) for p in parts], axis=1)
    denom = np.sum(energies, axis=(1,), keepdims=True) + EPS_DEFAULT
    return energies / denom, (parts, energies, denom)


def _fei_vjp(g: np.ndarray, saved, mats1, mats2) -> np.ndarray:
    """The proxy's gradient, from the vjps of `fei`'s chain in the order
    `backward` ran them."""
    (coarse, band, detail), energies, denom = saved
    g_e = g / denom + np.broadcast_to(
        (-g * energies / (denom * denom)).sum(axis=(1,), keepdims=True), energies.shape)
    g_coarse, g_band, g_detail = (
        2.0 * np.broadcast_to(g_e[:, i].reshape((-1, 1, 1, 1)), p.shape).copy() * p
        for i, p in enumerate((coarse, band, detail)))
    # each sum adds its paths in the order `backward` reached them through the chain
    g_b1 = -g_detail + g_band
    g_b2 = g_coarse + -g_band
    return g_detail + fx.blur_adjoint(g_b2, mats2) + fx.blur_adjoint(g_b1, mats1)


def _descriptor_vjp(live, shape, mats1, mats2, app_saved, vfx_saved, msd, diff):
    """The `make_vjp` of the `descriptor` node: it keeps the VFX path's arrays
    only when a frame slice is live and the appearance path's only when the
    mean is, and the video's shape, not the video."""
    t = shape[1]
    if not (live[0] or live[1]):
        vfx_saved = msd = diff = None
    if not live[2]:
        app_saved = None

    def vjp(g, live):
        g_earlier = g_later = g_app = None
        if live[0] or live[1]:
            g_vfx = _fei_vjp(g[:, 3:], vfx_saved, mats1, mats2)
            g_sq = np.broadcast_to(np.expand_dims(g_vfx / (1.0 + msd), 1), diff.shape) / (t - 1)
            g_diff = 2.0 * g_sq * diff
            if live[0]:
                g_earlier = np.zeros(shape)
                g_earlier[:, :-1] = -g_diff
            if live[1]:
                g_later = np.zeros(shape)
                g_later[:, 1:] = g_diff
        if live[2]:
            g_proxy = _fei_vjp(g[:, :3], app_saved, mats1, mats2)
            g_app = np.broadcast_to(np.expand_dims(g_proxy, 1), shape) / t
        return g_earlier, g_later, g_app

    return vjp


def joint_descriptor(z) -> Tensor:
    """(B, 6) concatenation of the appearance and VFX indicators.

    The float64 cast, then one `descriptor` node for the rest of the chain
    `concat([fei(appearance_proxy(z)), fei(vfx_proxy(z))])`. Forward and vjp
    evaluate that chain's numpy expressions in its order, so values and
    gradients keep its bytes. The node lists the float64 video once per path
    the chain took back to it (the earlier frame slice, the later frame slice,
    the appearance mean), the order in which `backward` reached it.
    """
    z = _as_video(z)
    b, t, c, h, w = z.shape
    if t < 2:
        raise ShapeError(f"vfx proxy needs T >= 2 frames, got T={t}")
    if min(b, c, h, w) < 1:
        raise ShapeError(f"latent video has an empty axis: shape {z.shape}")
    zd = z.data
    mats1 = fx.blur_matrices(h, w, SIGMA1_DEFAULT, np.float64)
    mats2 = fx.blur_matrices(h, w, SIGMA2_DEFAULT, np.float64)
    app_fei, app_saved = _fei_forward(np.mean(zd, axis=(1,)), mats1, mats2)
    # C-ordered copies of the two slices, as `slice_axis` takes them
    diff = zd[:, 1:].copy() - zd[:, :-1].copy()
    msd = np.mean(diff * diff, axis=(1,))
    vfx_fei, vfx_saved = _fei_forward(np.log1p(msd), mats1, mats2)

    return fx.record("descriptor", (z, z, z), np.concatenate([app_fei, vfx_fei], axis=1),
                     _descriptor_vjp, zd.shape, mats1, mats2, app_saved, vfx_saved, msd, diff)


def joint_descriptor_detached(z) -> np.ndarray:
    """Plain-array descriptor of a fresh constant, so no tape records it (for
    routing inputs)."""
    data = z.data if isinstance(z, Tensor) else np.asarray(z)
    return joint_descriptor(Tensor(data)).data
