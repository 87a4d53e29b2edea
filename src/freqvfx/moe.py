"""Descriptor-driven routing over rank-budgeted LoRA experts.

A shared two-layer MLP turns the 6-dim joint descriptor into M mixture
weights (temperature softmax, optional top-k masking with renormalization).
Each adapted projection layer owns M low-rank experts whose ranks split a
fixed total budget r, so the trainable parameter count is r * (d_in + d_out)
regardless of how many experts share it. The experts are stored packed: one
trainable (r, d_in) down factor and one (d_out, r) up factor per layer, with
each expert a block of the rank axis. Every layer of a stack splits the rank
axis the same way, so the stack holds that layout once.

The descriptor is always treated as a constant here: gradients reach the
router only through its own weights, never back into the descriptor pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as fx
from .errors import ParameterError, ShapeError
from .tensor import Tensor

DESCRIPTOR_DIM = 6
ROUTER_HIDDEN_DEFAULT = 16
N_EXPERTS_DEFAULT = 4


@dataclass
class RouterParams:
    """Two-layer routing MLP: logits = W2 @ gelu(W1 @ e + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    tau: float = 1.0

    @classmethod
    def init(cls, rng: np.random.Generator, n_experts: int = N_EXPERTS_DEFAULT,
             hidden: int = ROUTER_HIDDEN_DEFAULT, tau: float = 1.0,
             dtype=np.float32) -> "RouterParams":
        """Second layer starts at zero so routing begins uniform."""
        if hidden < 1:
            raise ParameterError(f"router hidden width must be >= 1, got {hidden}")
        if tau <= 0:
            raise ParameterError(f"router temperature must be positive, got {tau}")
        w1 = rng.normal(0.0, 0.5, size=(hidden, DESCRIPTOR_DIM)).astype(dtype)
        return cls(
            w1=fx.tensor(w1),
            b1=fx.tensor(np.zeros(hidden, dtype=dtype)),
            w2=fx.tensor(np.zeros((n_experts, hidden), dtype=dtype)),
            b2=fx.tensor(np.zeros(n_experts, dtype=dtype)),
            tau=tau,
        )

    @property
    def n_experts(self) -> int:
        return self.w2.shape[0]

    def parameters(self) -> dict[str, Tensor]:
        return {"router.w1": self.w1, "router.b1": self.b1,
                "router.w2": self.w2, "router.b2": self.b2}


@dataclass
class MoeAdapter:
    """One projection's expert pair, packed over a shared rank budget R.

    `a` (R, d_in) and `b` (d_out, R) stack the expert factors along the rank
    axis: expert m owns the `ranks[m]` consecutive rows of `a` and columns of
    `b` after those of experts 0..m-1, so its update is B_m @ (A_m @ h). The
    `ranks` are the same for every projection of a stack and live there.
    """

    a: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int,
             ranks: Sequence[int], dtype=np.float32) -> "MoeAdapter":
        """A ~ N(0, 0.02), B = 0: the adapter starts as an exact identity.

        A is drawn one expert block at a time, in expert order.
        """
        a = np.concatenate([rng.normal(0.0, 0.02, size=(r, d_in)).astype(dtype)
                            for r in ranks], axis=0)
        return cls(a=fx.tensor(a), b=fx.tensor(np.zeros((d_out, sum(ranks)), dtype=dtype)))

    def parameters(self, prefix: str = "adapter") -> dict[str, Tensor]:
        return {f"{prefix}.a": self.a, f"{prefix}.b": self.b}


def split_rank_budget(r: int, m: int) -> list[int]:
    """Distribute total rank r over m experts; remainders go to low indices."""
    if m < 1:
        raise ParameterError(f"need at least one expert, got {m}")
    if r < m:
        raise ParameterError(f"total rank {r} cannot give every one of {m} experts rank >= 1")
    base, rem = divmod(r, m)
    return [base + 1] * rem + [base] * (m - rem)


def expert_slices(ranks: Sequence[int]) -> list[slice]:
    """Expert m's span of the packed rank axis."""
    ends = np.cumsum(ranks)
    return [slice(int(end - r), int(end)) for r, end in zip(ranks, ends)]


def expert_owner(ranks: Sequence[int], dtype=np.float32) -> Tensor:
    """The constant (M, R) one-hot: row m marks expert m's span of the rank axis."""
    return Tensor(np.repeat(np.eye(len(ranks), dtype=dtype), ranks, axis=1))


def adapter_param_count(adapter: MoeAdapter) -> int:
    """Trainable scalars in the adapter: r * (d_in + d_out), independent of M."""
    return adapter.a.size + adapter.b.size


def _descriptor_constant(e, dtype) -> Tensor:
    data = e.data if isinstance(e, Tensor) else np.asarray(e)
    if data.ndim != 2 or data.shape[1] != DESCRIPTOR_DIM:
        raise ShapeError(f"routing descriptor must be (B, {DESCRIPTOR_DIM}), got {data.shape}")
    # constant leaf: no gradient path into the descriptor
    return Tensor(np.ascontiguousarray(data, dtype=dtype))


def route(e, params: RouterParams, top_k: int) -> Tensor:
    """(B, M) mixture weights from a descriptor: rows sum to 1, at most top_k
    nonzero (top-k masked and renormalized)."""
    m = params.n_experts
    if not 1 <= top_k <= m:
        raise ParameterError(f"top_k must lie in [1, {m}], got {top_k}")
    ec = _descriptor_constant(e, params.w1.dtype)
    h = fx.gelu(fx.linear(ec, params.w1) + params.b1)
    logits = fx.linear(h, params.w2) + params.b2
    pi = fx.softmax(logits, tau=params.tau, axis=-1)
    if top_k < m:
        # stable argsort on negated weights: ties resolve to the lower index
        order = np.argsort(-pi.data, axis=-1, kind="stable")
        mask = np.zeros_like(pi.data)
        np.put_along_axis(mask, order[:, :top_k], 1.0, axis=-1)
        masked = pi * Tensor(mask)
        pi = masked / fx.reduce_sum(masked, axes=(-1,), keepdims=True)
    return pi


def moe_forward(adapter: MoeAdapter, pi: Tensor, owner: Tensor, w_base, h) -> Tensor:
    """Adapted projection: h @ W^T + sum_m pi_m * (h @ A_m^T @ B_m^T).

    `h` carries samples on axis 0 and features last: (B, d_in) or (B, N, d_in).
    The experts run as the adapter's packed pair: rank row j of h @ A^T is
    gated by (pi @ owner)[:, j] before the up projection by B, so router
    gradients reach `pi`. `owner` is the stack's (M, R) rank layout. The base
    path is computed untouched; zero experts leave it bit-exact. The projection
    is one `fx.lora_linear` node, which checks the weight and feature shapes.
    """
    w_base = w_base if isinstance(w_base, Tensor) else Tensor(np.asarray(w_base))
    h = h if isinstance(h, Tensor) else Tensor(np.asarray(h))
    if h.ndim < 2:
        raise ShapeError(f"hidden states need a feature axis, got shape {h.shape}")
    if pi.ndim != 2 or pi.shape[0] != h.shape[0] or pi.shape[1] != owner.shape[0]:
        raise ShapeError(f"routing weights {pi.shape} do not match batch {h.shape[0]} "
                         f"x {owner.shape[0]} experts")

    gate = fx.reshape(fx.matmul(pi, owner),
                      (h.shape[0],) + (1,) * (h.ndim - 2) + (adapter.a.shape[0],))
    return fx.lora_linear(h, w_base, adapter.a, adapter.b, gate)
