"""Variance-preserving noise schedules and the forward noising map."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as fx
from .errors import ParameterError, ShapeError
from .tensor import Tensor, frozen

COSINE_S = 0.008
ALPHA_BAR_FLOOR = 1e-6


@dataclass
class NoiseSchedule:
    """Per-timestep (alpha_t, sigma_t) with alpha^2 + sigma^2 = 1.

    alpha decreases monotonically from (near) 1 toward (near) 0 as t grows;
    index 0 is the exact identity for cosine schedules built here. Both arrays
    are held read-only.
    """

    alphas: np.ndarray
    sigmas: np.ndarray
    num_steps: int = field(init=False)  # len(alphas)

    def __post_init__(self):
        self.alphas = frozen(np.asarray(self.alphas, dtype=np.float64))
        self.sigmas = frozen(np.asarray(self.sigmas, dtype=np.float64))
        if self.alphas.ndim != 1 or self.sigmas.shape != self.alphas.shape:
            raise ShapeError(f"schedule arrays must be two vectors of one length, "
                             f"got {self.alphas.shape} and {self.sigmas.shape}")
        self.num_steps = len(self.alphas)
        vp = self.alphas ** 2 + self.sigmas ** 2
        if np.max(np.abs(vp - 1.0)) > 1e-6:
            raise ParameterError("schedule is not variance preserving: alpha^2 + sigma^2 != 1")
        if np.any(np.diff(self.alphas) > 0):
            raise ParameterError("alpha_t must be monotonically decreasing in t")

    @classmethod
    def cosine(cls, num_steps: int) -> "NoiseSchedule":
        """Cosine alpha-bar schedule (offset COSINE_S), renormalized so t=0 is
        the exact identity.

        The raw curve reaches alpha_bar = 0 at the last index, which breaks
        x0-form sampler updates, so alpha_bar is floored at ALPHA_BAR_FLOOR
        (only the final index is affected at 1000 steps).
        """
        if num_steps < 2:
            raise ParameterError(f"schedule needs at least 2 steps, got {num_steps}")
        t = np.arange(num_steps, dtype=np.float64) / (num_steps - 1)
        f = np.cos(((t + COSINE_S) / (1.0 + COSINE_S)) * (math.pi / 2.0)) ** 2
        alpha_bar = f / f[0]
        alpha_bar = np.maximum(alpha_bar, ALPHA_BAR_FLOOR)
        alpha_bar[0] = 1.0
        alphas = np.sqrt(alpha_bar)
        sigmas = np.sqrt(1.0 - alpha_bar)
        return cls(alphas=alphas, sigmas=sigmas)

    def coefficients(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(alpha_t, sigma_t) for scalar or per-sample integer t, range checked."""
        t = np.asarray(t)
        if not np.issubdtype(t.dtype, np.integer):
            raise ParameterError(f"timesteps must be integers, got dtype {t.dtype}")
        if np.any(t < 0) or np.any(t >= self.num_steps):
            raise ParameterError(
                f"timestep {t} outside [0, {self.num_steps})")
        return self.alphas[t], self.sigmas[t]


def _noise_vjp(live, a, s):
    """The `make_vjp` of the `noise` node on (z0, eps): the gradients g a and
    g s of the chain's two muls, keeping only the 0-d or (B, 1, 1, 1, 1)
    scalars its live inputs read."""
    a = a if live[0] else None
    s = s if live[1] else None

    def vjp(g):
        return (None if a is None else g * a, None if s is None else g * s)

    return vjp


def forward_noise(z0, t, eps, schedule: NoiseSchedule) -> Tensor:
    """z_t = alpha_t * z0 + sigma_t * eps, with t scalar or per-sample (B,), as
    one `noise` node: each coefficient cast to the latent's dtype, then the mul,
    mul, add chain's numpy expressions in its order, so values and gradients
    keep its bytes."""
    z0 = z0 if isinstance(z0, Tensor) else Tensor(np.asarray(z0))
    eps = eps if isinstance(eps, Tensor) else Tensor(np.asarray(eps))
    if z0.ndim != 5:
        raise ShapeError(f"latent video must be (B, T, C, H, W), got {z0.shape}")
    if eps.shape != z0.shape:
        raise ShapeError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    if eps.dtype != z0.dtype:
        raise ParameterError(f"dtype mismatch: latent {z0.dtype} vs noise {eps.dtype}")
    alpha, sigma = schedule.coefficients(t)
    if np.ndim(alpha) == 1:
        if alpha.shape[0] != z0.shape[0]:
            raise ShapeError(f"per-sample t has length {alpha.shape[0]}, batch is {z0.shape[0]}")
        shape = (z0.shape[0], 1, 1, 1, 1)
        alpha = alpha.reshape(shape)
        sigma = sigma.reshape(shape)
    a = np.asarray(alpha, dtype=z0.dtype)
    s = np.asarray(sigma, dtype=z0.dtype)
    return fx.record("noise", (z0, eps), a * z0.data + s * eps.data, _noise_vjp, a, s)


def sampling_grid(num_steps: int, steps: int) -> np.ndarray:
    """Descending uniform-stride timestep grid from num_steps-1 down to 0.

    Returns steps+1 integer endpoints; consecutive entries are strictly
    decreasing whenever steps < num_steps.
    """
    if not 1 <= steps <= num_steps - 1:
        raise ParameterError(f"steps must lie in [1, {num_steps - 1}], got {steps}")
    grid = np.round(np.linspace(num_steps - 1, 0, steps + 1)).astype(np.int64)
    if np.any(np.diff(grid) >= 0):
        raise ParameterError(f"degenerate sampling grid for steps={steps}")
    return grid
