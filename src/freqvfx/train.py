"""Stage-1 training: the diffusion objective over router + expert parameters.

The backbone never enters the optimizer; only the adapter stack trains. Each
step samples a batch, a per-sample timestep, and noise, computes the mean
squared error between true and predicted noise, and applies one decoupled
weight-decay Adam update. Per-step metrics record the loss and the per-class
mean routing weights so expert specialization is observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as fx
from .config import TrainConfig
from .denoiser import AdapterStack, Conditioning, DenoiserParams, build_conditioning, denoise_step
from .errors import ParameterError, TrainingDivergedError
from .moe import route
from .schedule import NoiseSchedule, forward_noise
from .spectral import joint_descriptor_detached
from .synthgen import Sample
from .tensor import Tensor


class AdamW:
    """Adam with decoupled weight decay. Updates parameter data in place."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr < 0:
            raise ParameterError(f"learning rate must be >= 0, got {lr}")
        self.params = list(params.values()) if isinstance(params, dict) else list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: dict[Tensor, Tensor]) -> None:
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


def diffusion_loss(batch_z0, cond: Conditioning, params: DenoiserParams,
                   stack: AdapterStack | None, schedule: NoiseSchedule,
                   rng: np.random.Generator, *, return_details: bool = False):
    """Mean over batch and elements of ||eps - eps_hat||^2 at uniform random t."""
    z0 = batch_z0 if isinstance(batch_z0, Tensor) else Tensor(np.asarray(batch_z0))
    if z0.ndim != 5 or z0.shape[0] < 1:
        raise ParameterError(f"need a nonempty (B, T, C, H, W) batch, got {z0.shape}")
    b = z0.shape[0]
    t = rng.integers(0, schedule.num_steps, size=b)
    eps = rng.standard_normal(z0.shape).astype(z0.dtype)
    z_t = forward_noise(z0.detach(), t, eps, schedule)
    pi = None
    if stack is not None:
        pi = route(joint_descriptor_detached(z_t), stack.router, stack.top_k)
    eps_hat = denoise_step(z_t, t, cond, params, stack, pi=pi)
    loss = fx.reduce_mean(fx.square(eps_hat - Tensor(eps)))
    if return_details:
        return loss, {"t": t, "pi": None if pi is None else pi.data.copy()}
    return loss


@dataclass
class StepMetrics:
    step: int
    loss: float
    class_id: int
    pi_mean: np.ndarray  # (M,) mean routing weights over the class's samples


@dataclass
class StageOneResult:
    metrics: list[StepMetrics] = field(default_factory=list)
    losses: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _dropout_conditioning(cond: Conditioning, drop: np.ndarray,
                          params: DenoiserParams) -> Conditioning:
    """Replace dropped samples' conditioning tokens with the null token."""
    if not drop.any():
        return cond
    img = cond.image_tokens.data.copy()
    txt = cond.text_tokens.data.copy()
    null = params.null_token.data[0]
    img[drop] = null
    txt[drop] = null
    return Conditioning(Tensor(img), Tensor(txt), cond.vfx_tokens)


def train_stage1(samples: Sequence[Sample], config: TrainConfig, params: DenoiserParams,
                 stack: AdapterStack, schedule: NoiseSchedule) -> StageOneResult:
    """Train router + experts on the diffusion objective; backbone untouched."""
    samples = list(samples)
    if not samples:
        raise ParameterError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    opt = AdamW(stack.parameters(), lr=config.lr, betas=config.betas,
                eps=config.adam_eps, weight_decay=config.weight_decay)
    result = StageOneResult()
    losses = []
    for step in range(config.steps):
        idx = rng.integers(0, len(samples), size=config.batch_size)
        z0 = np.stack([samples[i].video for i in idx]).astype(np.float32)
        text = np.stack([samples[i].text_tokens for i in idx]).astype(np.float32)
        class_ids = np.array([samples[i].class_id for i in idx])
        cond = build_conditioning(params, z0, text)
        drop = rng.random(config.batch_size) < config.cond_dropout
        cond = _dropout_conditioning(cond, drop, params)

        with fx.Tape(opt.params) as tape:
            loss, info = diffusion_loss(z0, cond, params, stack, schedule, rng,
                                        return_details=True)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise TrainingDivergedError(step)
        grads = fx.backward(tape, loss)
        opt.step(grads)

        losses.append(loss_val)
        pi = info["pi"]
        for cid in np.unique(class_ids):
            rows = pi[class_ids == cid]
            result.metrics.append(StepMetrics(step=step, loss=loss_val, class_id=int(cid),
                                              pi_mean=rows.mean(axis=0)))
    result.losses = np.array(losses)
    return result


def smoothed_endpoints(losses: np.ndarray, window: int = 50) -> tuple[float, float]:
    """Mean of the first and last `window` raw losses (clipped to the trace length)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ParameterError("empty loss trace")
    k = min(window, losses.size)
    return float(losses[:k].mean()), float(losses[-k:].mean())


def class_routing_separation(metrics: list[StepMetrics], tail_frac: float = 0.25) -> float:
    """Largest pairwise L1 gap between per-class mean routing vectors.

    Averages pi_mean per class over the trailing `tail_frac` of training steps,
    where specialization (if any) has had time to emerge.
    """
    if not metrics:
        raise ParameterError("empty metric trace")
    last_step = max(m.step for m in metrics)
    cut = (1.0 - tail_frac) * last_step
    tails: dict[int, list[np.ndarray]] = {}
    for m in metrics:
        if m.step >= cut:
            tails.setdefault(m.class_id, []).append(m.pi_mean)
    if len(tails) < 2:
        raise ParameterError("need at least two classes in the trailing window")
    means = {cid: np.stack(rows).mean(axis=0) for cid, rows in tails.items()}
    cids = sorted(means)
    return max(float(np.abs(means[a] - means[b]).sum())
               for i, a in enumerate(cids) for b in cids[i + 1:])
