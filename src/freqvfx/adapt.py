"""Stage-2 test-time training of the vfx embedding tokens.

Only the embedding receives updates; backbone, router, and experts stay
frozen (verified by hashing in the tests). Each step runs a short
differentiable sampler from a fixed sampling seed to produce the current
generation. For each of `n_draws` draws it picks a timestep from the
mid-schedule window and one noise draw, forward-noises both the generation and
the reference with that same noise, and takes the L1 distance between their
joint frequency descriptors; the step minimizes the mean over draws. At the
self-reference fixpoint (reference equals the model's own sample under the same
seed policy) the loss is exactly zero and stays there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as fx
from .config import AdaptConfig, check_elements
# unused here, but bench/spans.py traces stage 2 by wrapping freqvfx.adapt.denoise_step
from .denoiser import AdapterStack, Conditioning, DenoiserParams, denoise_step  # noqa: F401
from .errors import AdaptationDivergedError, ParameterError, SamplingDivergedError, ShapeError
from .sampling import sample
from .schedule import NoiseSchedule, forward_noise
from .spectral import joint_descriptor
from .tensor import Tensor
from .train import AdamW


@dataclass
class VfxEmbedding:
    """Learnable (L, d) tokens appended to the conditioning context."""

    tokens: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, length: int, width: int, std: float,
             dtype=np.float32) -> "VfxEmbedding":
        if length < 1:
            raise ParameterError(f"embedding needs at least one token, got {length}")
        data = rng.normal(0.0, std, size=(length, width)).astype(dtype)
        return cls(tokens=fx.tensor(data))


def _freq_loss_vjp(live, d):
    """The `make_vjp` of the `freq_loss` node on the two descriptors, keeping
    the descriptor difference d: (g / B) sign(d) and its negation, the closed
    form of the chain's mean, sum, abs and sub vjps, with the bytes they gave
    in that order."""
    def vjp(g):
        g_d = (g / d.shape[0]) * np.sign(d)
        return (g_d if live[0] else None, -g_d if live[1] else None)

    return vjp


def freq_constraint_loss(z_gen, z_ref) -> Tensor:
    """Batch-mean L1 distance between the two joint descriptors; range [0, 4].

    One `freq_loss` node on the two `descriptor` nodes' outputs: the sub, abs,
    sum, mean chain's numpy expressions in its order, so values and gradients
    keep its bytes."""
    g = z_gen if isinstance(z_gen, Tensor) else Tensor(np.asarray(z_gen))
    r = z_ref if isinstance(z_ref, Tensor) else Tensor(np.asarray(z_ref))
    if g.shape != r.shape:
        raise ShapeError(f"generated {g.shape} and reference {r.shape} latents disagree")
    dg, dr = joint_descriptor(g), joint_descriptor(r)
    d = dg.data - dr.data
    return fx.record("freq_loss", (dg, dr), np.mean(np.sum(np.abs(d), axis=(1,)), axis=(0,)),
                     _freq_loss_vjp, d)


def _draw_mean_vjp(live, w):
    def vjp(g):
        gw = g * w
        return tuple(gw if hit else None for hit in live)

    return vjp


def _draw_mean(terms: list[Tensor]) -> Tensor:
    """The mean of the draws' losses as one `draw_mean` node: the adds in draw
    order, then the mul by 1/n cast to the losses' dtype, as the chain ran
    them; its vjp gives every draw g / n as the chain's mul and adds did. One
    draw is its own mean and records nothing."""
    if len(terms) == 1:
        return terms[0]
    total = terms[0].data
    for term in terms[1:]:
        total = total + term.data
    w = np.asarray(1.0 / len(terms), dtype=total.dtype)
    return fx.record("draw_mean", terms, total * w, _draw_mean_vjp, w)


def reference_latents(ref_video, t, eps, schedule: NoiseSchedule) -> Tensor:
    """Noise the clean reference to timestep t (never part of the gradient path)."""
    ref = ref_video.detach() if isinstance(ref_video, Tensor) else Tensor(np.asarray(ref_video))
    return forward_noise(ref, t, eps, schedule)


@dataclass
class AdaptStep:
    step: int
    t: int
    loss: float


@dataclass
class AdaptResult:
    embedding: VfxEmbedding
    trace: list[AdaptStep]

    @property
    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.trace])


def timestep_window(schedule: NoiseSchedule, low_frac: float, high_frac: float) -> np.ndarray:
    """Indices [low_frac * T, high_frac * T), the mid-schedule adaptation window."""
    lo = int(low_frac * schedule.num_steps)
    hi = int(high_frac * schedule.num_steps)
    window = np.arange(lo, hi)
    if window.size == 0:
        raise ParameterError(f"empty timestep window [{lo}, {hi})")
    return window


def adapt(ref_video, cond: Conditioning, config: AdaptConfig, params: DenoiserParams,
          stack: AdapterStack, schedule: NoiseSchedule,
          embedding: VfxEmbedding | None = None) -> AdaptResult:
    """Minimize the expected frequency-constraint loss over the embedding."""
    ref = ref_video if isinstance(ref_video, Tensor) else Tensor(np.asarray(ref_video))
    if ref.ndim != 5 or ref.shape[1:] != params.latent_shape:
        raise ShapeError(f"reference {ref.shape} does not match model {params.latent_shape}")
    rng = np.random.default_rng(config.seed)
    dtype = params.embed_w.dtype  # the embedding and each noise draw take the model's
    if embedding is None:
        check_elements("AdaptConfig.embed_tokens", config.embed_tokens, params.width)
        embedding = VfxEmbedding.init(rng, length=config.embed_tokens,
                                      width=params.width, std=config.embed_std, dtype=dtype)
    opt = AdamW([embedding.tokens], lr=config.lr, betas=config.betas,
                eps=config.adam_eps, weight_decay=config.weight_decay)
    window = timestep_window(schedule, config.t_low_frac, config.t_high_frac)
    shape = ref.shape
    trace = []

    for step in range(config.steps):
        cond_e = cond.with_vfx(embedding.tokens)

        with fx.Tape(opt.params) as tape:
            try:
                gen0 = sample(params, stack, schedule, cond_e, steps=config.sample_steps,
                              cfg_scale=config.sample_cfg, seed=config.sample_seed).video
            except SamplingDivergedError as err:
                raise AdaptationDivergedError(step) from err
            terms = []
            first_t = 0
            for draw in range(config.n_draws):
                t = int(rng.choice(window))
                eps = Tensor(rng.standard_normal(shape).astype(dtype))
                if draw == 0:
                    first_t = t
                z_gen = forward_noise(gen0, t, eps, schedule)
                z_ref = reference_latents(ref, t, eps, schedule)
                terms.append(freq_constraint_loss(z_gen, z_ref))
            loss = _draw_mean(terms)

        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise AdaptationDivergedError(step)
        grads = fx.backward(tape, loss)
        opt.step(grads)
        trace.append(AdaptStep(step=step, t=first_t, loss=loss_val))
    return AdaptResult(embedding, trace)
