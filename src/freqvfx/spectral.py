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


def joint_descriptor(z) -> Tensor:
    """(B, 6) concatenation of the appearance and VFX indicators."""
    z = _as_video(z)
    return fx.concat([fei(appearance_proxy(z)), fei(vfx_proxy(z))], axis=1)


def joint_descriptor_detached(z) -> np.ndarray:
    """Plain-array descriptor of a fresh constant, so no tape records it (for
    routing inputs)."""
    data = z.data if isinstance(z, Tensor) else np.asarray(z)
    return joint_descriptor(Tensor(data)).data
