"""Frequency-energy descriptors for latent videos.

A latent video (B, T, C, h, w) is first reduced over time to a 2-D proxy:
the appearance proxy is the temporal mean, the VFX proxy is log(1 + mean
squared frame difference). Each proxy is split into coarse / band / detail
components with two gaussian blurs (sigma1 < sigma2), per-sample band
energies are normalized into a 3-vector, and the two 3-vectors concatenate
into the 6-dim joint descriptor that drives expert routing.

All functions run on the autodiff tensors from `freqvfx.tensor`, so the full
descriptor is differentiable end to end; pass plain arrays (or use
`joint_descriptor_detached`) when gradients are not wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as fx
from .errors import DomainError, ParameterError, ShapeError
from .tensor import Tensor

SIGMA1_DEFAULT = 0.46875
SIGMA2_DEFAULT = 0.9375
EPS_DEFAULT = 1e-8

APPEARANCE = "appearance"
VFX = "vfx"


@dataclass
class SpatialProxy:
    """A (B, C, H, W) temporal reduction of a latent video."""

    values: Tensor
    kind: str


@dataclass
class BandComponents:
    """Coarse / band / detail split; the three parts sum back to the input."""

    coarse: Tensor
    band: Tensor
    detail: Tensor
    sigmas: tuple[float, float]


@dataclass
class EnergyDescriptor:
    """Per-sample normalized band energies, shape (B, 3), entries in [0, 1]."""

    values: Tensor
    epsilon: float


@dataclass
class JointDescriptor:
    """[appearance bands, vfx bands] concatenated, shape (B, 6)."""

    values: Tensor
    epsilon: float


def _as_video(z) -> Tensor:
    t = z if isinstance(z, Tensor) else Tensor(np.asarray(z))
    if t.ndim != 5:
        raise ShapeError(f"latent video must be (B, T, C, H, W), got shape {t.shape}")
    # Descriptors are analysis quantities; accumulate in double precision so
    # the f32 path agrees with the reference computation to well under 1e-6.
    return fx.cast(t, np.float64)


def appearance_proxy(z) -> SpatialProxy:
    """Temporal mean of the video (Eq. content proxy)."""
    z = _as_video(z)
    if z.shape[1] < 1:
        raise ShapeError("appearance proxy needs at least one frame")
    return SpatialProxy(fx.reduce_mean(z, axes=(1,)), APPEARANCE)


def vfx_proxy(z) -> SpatialProxy:
    """log(1 + mean squared frame difference); zero exactly for static videos."""
    z = _as_video(z)
    t = z.shape[1]
    if t < 2:
        raise ShapeError(f"vfx proxy needs T >= 2 frames, got T={t}")
    later = fx.slice_axis(z, 1, 1, t)
    earlier = fx.slice_axis(z, 1, 0, t - 1)
    msd = fx.reduce_mean(fx.square(later - earlier), axes=(1,))
    return SpatialProxy(fx.log1p(msd), VFX)


def _proxy_values(x) -> Tensor:
    v = x.values if isinstance(x, SpatialProxy) else (x if isinstance(x, Tensor) else Tensor(np.asarray(x)))
    if v.ndim != 4:
        raise ShapeError(f"proxy must be (B, C, H, W), got shape {v.shape}")
    return fx.cast(v, np.float64)


def decompose(x, sigma1: float = SIGMA1_DEFAULT, sigma2: float = SIGMA2_DEFAULT) -> BandComponents:
    """Two-scale gaussian split into coarse, band-pass, and detail residual."""
    if not 0 < sigma1 < sigma2:
        raise ParameterError(f"need 0 < sigma1 < sigma2, got ({sigma1}, {sigma2})")
    v = _proxy_values(x)
    b1 = fx.gaussian_blur_depthwise(v, sigma1)
    b2 = fx.gaussian_blur_depthwise(v, sigma2)
    return BandComponents(coarse=b2, band=b1 - b2, detail=v - b1, sigmas=(sigma1, sigma2))


def band_energies(c: BandComponents) -> Tensor:
    """Per-sample sum of squares of each component, stacked to (B, 3)."""
    shapes = {c.coarse.shape, c.band.shape, c.detail.shape}
    if len(shapes) != 1:
        raise ShapeError(f"band components disagree in shape: {shapes}")
    cols = []
    for part in (c.coarse, c.band, c.detail):
        e = fx.reduce_sum_sq(part, axes=(1, 2, 3))
        cols.append(fx.reshape(e, (e.shape[0], 1)))
    return fx.concat(cols, axis=1)


def normalize_energies(energies, epsilon: float = EPS_DEFAULT) -> EnergyDescriptor:
    """Divide each sample's band energies by their sum plus epsilon."""
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    e = energies if isinstance(energies, Tensor) else Tensor(np.asarray(energies))
    if e.ndim != 2 or e.shape[1] != 3:
        raise ShapeError(f"energies must be (B, 3), got shape {e.shape}")
    if np.any(e.data < 0):
        raise DomainError("band energies must be nonnegative")
    e = fx.cast(e, np.float64)
    denom = fx.reduce_sum(e, axes=(1,), keepdims=True) + float(epsilon)
    return EnergyDescriptor(e / denom, epsilon)


def fei(x, sigma1: float = SIGMA1_DEFAULT, sigma2: float = SIGMA2_DEFAULT,
        epsilon: float = EPS_DEFAULT) -> EnergyDescriptor:
    """Frequency-energy indicator of one spatial proxy."""
    return normalize_energies(band_energies(decompose(x, sigma1, sigma2)), epsilon)


def joint_descriptor(z, sigma1: float = SIGMA1_DEFAULT, sigma2: float = SIGMA2_DEFAULT,
                     epsilon: float = EPS_DEFAULT) -> JointDescriptor:
    """(B, 6) concatenation of the appearance and VFX indicators."""
    z = _as_video(z)
    e_app = fei(appearance_proxy(z), sigma1, sigma2, epsilon)
    e_vfx = fei(vfx_proxy(z), sigma1, sigma2, epsilon)
    return JointDescriptor(fx.concat([e_app.values, e_vfx.values], axis=1), epsilon)


def joint_descriptor_detached(z, sigma1: float = SIGMA1_DEFAULT,
                              sigma2: float = SIGMA2_DEFAULT,
                              epsilon: float = EPS_DEFAULT) -> np.ndarray:
    """Plain-array descriptor of a fresh constant, so no tape records it (for
    routing inputs)."""
    data = z.data if isinstance(z, Tensor) else np.asarray(z)
    return joint_descriptor(Tensor(data), sigma1, sigma2, epsilon).values.data
