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
dividing by the (near-zero) alpha at early steps. `ddim_update` is the one
place it is computed: the guidance combine eps_u + w (eps_c - eps_u) and the
update are one `ddim` tape node, recorded here through `fx.record`, as
`moe.route` records `router`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as fx
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


def _ddim_vjp(live, r, c, w):
    """The `make_vjp` of the `ddim` node on (z, eps_u, eps_c), or (z, eps_c) at
    cfg 1. It gives the gradients of the mul, mul, add (update) and sub, mul,
    add (combine) chain's vjps in its expression order: g r for z, g c for the
    guided noise, g c w for eps_c and g c - g c w for eps_u. It keeps only the
    0-d scalars its live inputs' gradients read."""
    r = r if live[0] else None
    noise = True in live[1:]
    c = c if noise else None
    w = w if noise else None

    def vjp(g):
        gz = g * r if live[0] else None
        if not noise:
            return (gz,) + (None,) * (len(live) - 1)
        gc = g * c
        if w is None:
            return gz, gc
        gcw = gc * w
        return gz, (gc - gcw) if live[1] else None, gcw if live[2] else None

    return vjp


def ddim_update(z: Tensor, eps_c: Tensor, eps_u: Tensor | None, cfg_scale: float,
                schedule: NoiseSchedule, t: int, t_next: int) -> Tensor:
    """One DDIM step from t to t_next with classifier-free guidance, as one node.

    eps_hat = eps_u + w (eps_c - eps_u) at cfg_scale w (eps_c alone when eps_u is
    None, the cfg-1 step), then z' = r z + c eps_hat with r = a_n / a_t and
    c = s_n - r s_t. Each scalar is cast to the latents' dtype and the numpy
    expressions run in the order of the tape-op chain they replace, so values and
    gradients keep its bytes. The node's inputs are (z, eps_u, eps_c), or
    (z, eps_c) unguided.
    """
    dt = z.dtype
    for name, eps in (("eps_c", eps_c), ("eps_u", eps_u)):
        if eps is None:
            continue
        if eps.dtype != dt:
            raise ParameterError(f"dtype mismatch: {dt} vs {eps.dtype}")
        if eps.shape != z.shape:
            raise ShapeError(f"{name} {eps.shape} does not match the latent {z.shape}")
    ratio = schedule.alphas[t_next] / schedule.alphas[t]
    r = np.asarray(float(ratio), dtype=dt)
    c = np.asarray(float(schedule.sigmas[t_next] - ratio * schedule.sigmas[t]), dtype=dt)
    if eps_u is None:
        inputs, eps_hat, w = (z, eps_c), eps_c.data, None
    else:
        w = np.asarray(cfg_scale, dtype=dt)
        inputs = (z, eps_u, eps_c)
        eps_hat = eps_u.data + w * (eps_c.data - eps_u.data)
    return fx.record("ddim", inputs, r * z.data + c * eps_hat, _ddim_vjp, r, c, w)


def sample(params: DenoiserParams, stack: AdapterStack, schedule: NoiseSchedule,
           cond: Conditioning, *, steps: int, cfg_scale: float, seed: int) -> SampleResult:
    """Iteratively denoise pure noise under the given conditioning. The noise is
    default_rng(seed)'s standard normal draw of the latent batch, cast to the
    model's dtype, so a seed fixes the rollout bit for bit."""
    if cfg_scale < 0:
        raise ParameterError(f"cfg_scale must be >= 0, got {cfg_scale}")
    if schedule.num_steps != params.num_steps:
        raise ParameterError(
            f"schedule length {schedule.num_steps} != model timestep table {params.num_steps}")
    grid = sampling_grid(schedule.num_steps, steps)
    b = cond.tokens.shape[0]
    shape = (b,) + params.latent_shape
    z = Tensor(np.random.default_rng(seed).standard_normal(shape).astype(params.embed_w.dtype))
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
                eps_c, eps_u = denoise_step(z, t, cond, params, stack, pi=pi), None
            else:
                eps_c, eps_u = denoise_guided(z, t, cond, params, stack, pi=pi)
            z = ddim_update(z, eps_c, eps_u, cfg_scale, schedule, t, t_next)
        if not np.isfinite(z.data).all():
            raise SamplingDivergedError(k)

    return SampleResult(video=z, timesteps=grid, descriptors=descriptors,
                        pi_cond=pi_cond)
