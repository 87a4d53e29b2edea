"""Stage-1 training: the diffusion objective over router + expert parameters.

The backbone never enters the optimizer; only the adapter stack trains. Each
step samples a batch, a per-sample timestep, and noise, computes the mean
squared error between true and predicted noise, and applies one decoupled
weight-decay Adam update. Per-step metrics record the loss and the per-class
mean routing weights so expert specialization is observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as fx
from .config import TrainConfig, check_elements
from .denoiser import AdapterStack, Conditioning, DenoiserParams, build_conditioning, denoise_step
from .errors import ParameterError, TrainingDivergedError
from .moe import route
from .schedule import NoiseSchedule, forward_noise
from .spectral import joint_descriptor_detached
from .tensor import Tensor


class AdamW:
    """Adam with decoupled weight decay, updating the leaves in place.

    The optimizer owns the layout of its trainable state: it copies the leaves
    (a dict by name, or a list, of one dtype) end to end into one flat buffer,
    `flat`, and rebinds each leaf's `.data` to a view of its span, so a write
    through a leaf is a write into the buffer; the moments `m` and `v` share
    that layout. A step gathers the gradients into one flat array and evaluates
    each update expression once over the whole buffer. Every expression is
    elementwise, so each element gets the bytes a per-leaf update would give it.
    """

    def __init__(self, params, lr: float, betas: tuple[float, float], eps: float,
                 weight_decay: float):
        if lr < 0:
            raise ParameterError(f"learning rate must be >= 0, got {lr}")
        if isinstance(params, dict):
            self.names, self.params = list(params), list(params.values())
        else:
            self.params = list(params)
            self.names = [f"leaf {i} {p.shape}" for i, p in enumerate(self.params)]
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        if not self.params:
            raise ParameterError("no leaves to optimize")
        dtypes = {str(p.dtype) for p in self.params}
        if len(dtypes) > 1:
            raise ParameterError(f"leaves of one buffer share one dtype, got {sorted(dtypes)}")
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params])
        off = 0
        for p in self.params:
            p.data = self.flat[off:off + p.size].reshape(p.shape)
            off += p.size
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)

    def step(self, grads: dict[Tensor, Tensor]) -> None:
        """One update from {leaf: gradient}, which must hold every leaf."""
        for name, p in zip(self.names, self.params):
            if p not in grads:
                raise ParameterError(f"no gradient for {name}")
        g = np.concatenate([grads[p].data.reshape(-1) for p in self.params])
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, p = self._m, self._v, self.flat
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        p[...] = p - self.lr * update - self.lr * self.weight_decay * p


def _mse_vjp(live, d):
    """The `make_vjp` of the `mse` node: the mean's, the square's and the sub's
    vjps in the order `backward` ran them, keeping the difference d."""
    def vjp(g):
        return (2.0 * (np.broadcast_to(g, d.shape) / d.size).astype(g.dtype, copy=False) * d,)

    return vjp


def _mse(eps_hat: Tensor, eps: np.ndarray) -> Tensor:
    """The mean over every axis of (eps_hat - eps)^2 as one `mse` node: the sub,
    square, mean chain's numpy expressions in its order, so values and gradients
    keep its bytes."""
    if eps.dtype != eps_hat.dtype:
        raise ParameterError(f"dtype mismatch: prediction {eps_hat.dtype} vs noise {eps.dtype}")
    d = eps_hat.data - eps
    return fx.record("mse", (eps_hat,), np.mean(d * d, axis=tuple(range(d.ndim))), _mse_vjp, d)


def diffusion_loss(batch_z0, cond: Conditioning, params: DenoiserParams,
                   stack: AdapterStack, schedule: NoiseSchedule,
                   rng: np.random.Generator):
    """(loss, details): the mean over batch and elements of ||eps - eps_hat||^2
    at uniform random t, and the step's timesteps `t` and routing weights `pi`."""
    z0 = batch_z0 if isinstance(batch_z0, Tensor) else Tensor(np.asarray(batch_z0))
    if z0.ndim != 5 or z0.shape[0] < 1:
        raise ParameterError(f"need a nonempty (B, T, C, H, W) batch, got {z0.shape}")
    b = z0.shape[0]
    t = rng.integers(0, schedule.num_steps, size=b)
    eps = rng.standard_normal(z0.shape).astype(z0.dtype)
    z_t = forward_noise(z0.detach(), t, eps, schedule)
    pi = route(joint_descriptor_detached(z_t), stack.router, stack.top_k)
    eps_hat = denoise_step(z_t, t, cond, params, stack, pi=pi)
    loss = _mse(eps_hat, eps)
    return loss, {"t": t, "pi": pi.data.copy()}


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
    tokens = cond.tokens.copy()
    tokens[drop] = params.null_token[0]
    return Conditioning(fx.frozen(tokens), cond.vfx_tokens)


def train_stage1(videos: np.ndarray, class_ids: np.ndarray, text: np.ndarray,
                 config: TrainConfig, params: DenoiserParams, stack: AdapterStack,
                 schedule: NoiseSchedule) -> StageOneResult:
    """Train router + experts on the diffusion objective; backbone untouched.

    Row i of the dataset is `videos[i]` (T, C, H, W) of class `class_ids[i]`
    with text tokens `text[i]` (n_text_tokens, width).
    """
    if len(videos) == 0:
        raise ParameterError("dataset is empty")
    check_elements("TrainConfig.batch_size", config.batch_size, videos[0].size)
    rng = np.random.default_rng(config.seed)
    opt = AdamW(stack.parameters(), lr=config.lr, betas=config.betas,
                eps=config.adam_eps, weight_decay=config.weight_decay)
    result = StageOneResult()
    losses = []
    for step in range(config.steps):
        idx = rng.integers(0, len(videos), size=config.batch_size)
        z0 = videos[idx].astype(np.float32, copy=False)
        batch_ids = class_ids[idx]
        cond = build_conditioning(params, z0, text[idx].astype(np.float32, copy=False))
        drop = rng.random(config.batch_size) < config.cond_dropout
        cond = _dropout_conditioning(cond, drop, params)

        with fx.Tape(opt.params) as tape:
            loss, info = diffusion_loss(z0, cond, params, stack, schedule, rng)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise TrainingDivergedError(step)
        grads = fx.backward(tape, loss)
        opt.step(grads)

        losses.append(loss_val)
        pi = info["pi"]
        for cid in np.unique(batch_ids):
            rows = pi[batch_ids == cid]
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


def class_routing_separation(metrics: list[StepMetrics]) -> float:
    """Largest pairwise L1 gap between per-class mean routing vectors.

    Averages pi_mean per class over the trailing quarter of training steps,
    where specialization (if any) has had time to emerge.
    """
    if not metrics:
        raise ParameterError("empty metric trace")
    last_step = max(m.step for m in metrics)
    cut = 0.75 * last_step
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
