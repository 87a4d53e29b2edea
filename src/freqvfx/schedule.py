"""Variance-preserving noise schedules and the forward noising map."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import Tensor

COSINE_S = 0.008
ALPHA_BAR_FLOOR = 1e-6


@dataclass
class NoiseSchedule:
    """Per-timestep (alpha_t, sigma_t) with alpha^2 + sigma^2 = 1.

    alpha decreases monotonically from (near) 1 toward (near) 0 as t grows;
    index 0 is the exact identity for cosine schedules built here.
    """

    alphas: np.ndarray
    sigmas: np.ndarray
    num_steps: int = field(default=0)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if self.num_steps == 0:
            self.num_steps = len(self.alphas)
        if self.alphas.shape != (self.num_steps,) or self.sigmas.shape != (self.num_steps,):
            raise ShapeError(
                f"schedule arrays must both have length num_steps={self.num_steps}, "
                f"got {self.alphas.shape} and {self.sigmas.shape}")
        vp = self.alphas ** 2 + self.sigmas ** 2
        if np.max(np.abs(vp - 1.0)) > 1e-6:
            raise ParameterError("schedule is not variance preserving: alpha^2 + sigma^2 != 1")
        if np.any(np.diff(self.alphas) > 0):
            raise ParameterError("alpha_t must be monotonically decreasing in t")

    @classmethod
    def cosine(cls, num_steps: int = 1000) -> "NoiseSchedule":
        """Cosine alpha-bar schedule (offset COSINE_S), renormalized so t=0 is
        the exact identity.

        The raw curve reaches alpha_bar = 0 at the last index, which breaks
        x0-form sampler updates, so alpha_bar is floored at ALPHA_BAR_FLOOR
        (only the final index is affected at the default length).
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
        return cls(alphas=alphas, sigmas=sigmas, num_steps=num_steps)

    def coefficients(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(alpha_t, sigma_t) for scalar or per-sample integer t, range checked."""
        t = np.asarray(t)
        if not np.issubdtype(t.dtype, np.integer):
            raise ParameterError(f"timesteps must be integers, got dtype {t.dtype}")
        if np.any(t < 0) or np.any(t >= self.num_steps):
            raise ParameterError(
                f"timestep {t} outside [0, {self.num_steps})")
        return self.alphas[t], self.sigmas[t]


def forward_noise(z0, t, eps, schedule: NoiseSchedule) -> Tensor:
    """z_t = alpha_t * z0 + sigma_t * eps, with t scalar or per-sample (B,)."""
    z0 = z0 if isinstance(z0, Tensor) else Tensor(np.asarray(z0))
    eps = eps if isinstance(eps, Tensor) else Tensor(np.asarray(eps))
    if z0.ndim != 5:
        raise ShapeError(f"latent video must be (B, T, C, H, W), got {z0.shape}")
    if eps.shape != z0.shape:
        raise ShapeError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    alpha, sigma = schedule.coefficients(t)
    if np.ndim(alpha) == 1:
        if alpha.shape[0] != z0.shape[0]:
            raise ShapeError(f"per-sample t has length {alpha.shape[0]}, batch is {z0.shape[0]}")
        shape = (z0.shape[0], 1, 1, 1, 1)
        alpha = alpha.reshape(shape)
        sigma = sigma.reshape(shape)
    a = Tensor(np.asarray(alpha, dtype=z0.dtype))
    s = Tensor(np.asarray(sigma, dtype=z0.dtype))
    return a * z0 + s * eps


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
