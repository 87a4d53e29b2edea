"""Deterministic DDIM-style sampling with classifier-free guidance.

Each step computes the joint descriptor and routing weights once from the
shared noisy latent and reuses them for both guidance branches. A guided step
calls `denoise_guided`, which also computes the conditioning-free prefix of the
denoiser once for both branches; under a tape that records it (every adapt
rollout step after the first), the unconditional branch reads a replay of its
nodes. The outputs, tape nodes and gradients are byte-identical to two
`denoise_step` calls. With cfg_scale == 1 the step calls `denoise_step` for the
conditional branch only, so guided and unguided trajectories coincide bit for
bit.

A step whose latent is not finite stops the rollout with a
`SamplingDivergedError` naming the step. Each step runs with numpy's overflow
and invalid-value warnings off, so a diverging rollout reports that one error
and not the warnings of the arithmetic that overflowed on the way.

The update uses the alpha-ratio form z' = (a'/a) z + (s' - (a'/a) s) eps_hat,
algebraically identical to re-noising the predicted clean latent but without
dividing by the (near-zero) alpha at early steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import (AdapterStack, Conditioning, DenoiserParams, denoise_guided,
                       denoise_step)
from .errors import ParameterError, SamplingDivergedError, ShapeError
from .moe import route
from .schedule import NoiseSchedule, sampling_grid
from .spectral import joint_descriptor_detached
from .tensor import Tensor


@dataclass
class SampleResult:
    video: Tensor                 # final latent (B, T, C, H, W)
    timesteps: np.ndarray         # grid endpoints, length steps+1, descending
    descriptors: np.ndarray       # (steps, B, 6) descriptor used at each step
    pi_cond: np.ndarray           # (steps, B, M) routing shared by both branches


def sample(params: DenoiserParams, stack: AdapterStack, schedule: NoiseSchedule,
           cond: Conditioning, *, steps: int, cfg_scale: float,
           seed: int | None = None, init_noise: np.ndarray | None = None) -> SampleResult:
    """Iteratively denoise pure noise under the given conditioning."""
    if cfg_scale < 0:
        raise ParameterError(f"cfg_scale must be >= 0, got {cfg_scale}")
    if schedule.num_steps != params.num_steps:
        raise ParameterError(
            f"schedule length {schedule.num_steps} != model timestep table {params.num_steps}")
    grid = sampling_grid(schedule.num_steps, steps)
    b = cond.image_tokens.shape[0]
    shape = (b,) + params.latent_shape
    dtype = params.embed_w.dtype
    if init_noise is not None:
        init_noise = np.asarray(init_noise, dtype=dtype)
        if init_noise.shape != shape:
            raise ShapeError(f"init noise {init_noise.shape} != latent batch {shape}")
    else:
        init_noise = np.random.default_rng(seed).standard_normal(shape).astype(dtype)

    z = Tensor(init_noise)
    descriptors = np.zeros((steps, b, 6), dtype=np.float64)
    pi_cond = np.zeros((steps, b, stack.n_experts), dtype=np.float64)

    for k in range(steps):
        t, t_next = int(grid[k]), int(grid[k + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            jd = joint_descriptor_detached(z)
            descriptors[k] = jd
            pi = route(jd, stack.router, stack.top_k)
            pi_cond[k] = pi.data
            if cfg_scale == 1.0:
                eps_hat = denoise_step(z, t, cond, params, stack, pi=pi)
            else:
                eps_c, eps_u = denoise_guided(z, t, cond, params, stack, pi=pi)
                eps_hat = eps_u + cfg_scale * (eps_c - eps_u)
            a_t, s_t = schedule.alphas[t], schedule.sigmas[t]
            a_n, s_n = schedule.alphas[t_next], schedule.sigmas[t_next]
            ratio = a_n / a_t
            z = float(ratio) * z + float(s_n - ratio * s_t) * eps_hat
        if not np.isfinite(z.data).all():
            raise SamplingDivergedError(k)

    return SampleResult(video=z, timesteps=grid, descriptors=descriptors,
                        pi_cond=pi_cond)
