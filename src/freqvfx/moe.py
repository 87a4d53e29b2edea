"""Descriptor-driven routing over rank-budgeted LoRA experts.

A shared two-layer MLP turns the 6-dim joint descriptor into M mixture
weights (temperature softmax, optional top-k masking with renormalization);
the whole router is one `router` tape node with a hand-written vjp, recorded
through `fx.record` as `spectral.joint_descriptor` records its node.
Each adapted projection layer owns M low-rank experts whose ranks split a
fixed total budget r, so the trainable parameter count is r * (d_in + d_out)
regardless of how many experts share it. The experts are stored packed: one
trainable (r, d_in) down factor and one (d_out, r) up factor per layer, with
each expert a block of the rank axis. Every layer of a stack splits the rank
axis the same way, so the stack holds that layout once. An adapted projection
is `moe_forward`, plain numpy on a routing gate its caller forms once for all
the projections that share a routing: the denoiser's attention block, whose
one `attn_block` tape node covers its four projections. `moe_forward` takes
the frozen weight and the expert pair transposed, in the layout it multiplies
by, so its caller picks that layout: contiguous copies over the token stream,
`.T` views over the few context rows, where the two round differently.

The descriptor is always treated as a constant here: gradients reach the
router only through its own weights, never back into the descriptor pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as fx
from .errors import ParameterError, ShapeError
from .tensor import Tensor

DESCRIPTOR_DIM = 6

# leaf(name, shape, fill) is the trainable leaf of checkpoint entry `name`; a
# fresh build takes fill(rng, shape), the leaf's initial value, and a restore
# ignores it and copies the entry.
LeafSource = Callable[[str, tuple, Callable], Tensor]


def drawing(rng: np.random.Generator, dtype) -> LeafSource:
    """The leaf source of a fresh build: each leaf is its initial value drawn
    from `rng`, in the order the leaves are built, cast to `dtype`."""
    return lambda name, shape, fill: fx.tensor(fill(rng, shape).astype(dtype))


def _zeros(rng, shape):
    return np.zeros(shape)


@dataclass
class RouterParams:
    """Two-layer routing MLP: logits = W2 @ gelu(W1 @ e + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    tau: float

    @classmethod
    def build(cls, leaf: LeafSource, n_experts: int, hidden: int, tau: float) -> "RouterParams":
        """The router whose leaves `leaf` gives, in `parameters` order; a fresh
        one is `build(drawing(rng, dtype), ...)`. Fresh, W1 is drawn and the
        second layer starts at zero so routing begins uniform."""
        return cls(
            w1=leaf("router.w1", (hidden, DESCRIPTOR_DIM),
                    lambda rng, shape: rng.normal(0.0, 0.5, size=shape)),
            b1=leaf("router.b1", (hidden,), _zeros),
            w2=leaf("router.w2", (n_experts, hidden), _zeros),
            b2=leaf("router.b2", (n_experts,), _zeros),
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
    def build(cls, leaf: LeafSource, prefix: str, d_in: int, d_out: int,
              ranks: Sequence[int]) -> "MoeAdapter":
        """The pair whose leaves `leaf` gives as `<prefix>.a` and `<prefix>.b`.
        Fresh, A ~ N(0, 0.02) and B = 0: the adapter starts as an exact identity.
        A is drawn one expert block at a time, in expert order.
        """
        def draw_a(rng, shape):
            return np.concatenate([rng.normal(0.0, 0.02, size=(r, d_in)) for r in ranks])

        return cls(a=leaf(f"{prefix}.a", (sum(ranks), d_in), draw_a),
                   b=leaf(f"{prefix}.b", (d_out, sum(ranks)), _zeros))

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.a": self.a, f"{prefix}.b": self.b}


def split_rank_budget(r: int, m: int) -> list[int]:
    """Distribute total rank r over m experts; remainders go to low indices."""
    if m < 1:
        raise ParameterError(f"need at least one expert, got {m}")
    if r < m:
        raise ParameterError(f"total rank {r} cannot give every one of {m} experts rank >= 1")
    base, rem = divmod(r, m)
    return [base + 1] * rem + [base] * (m - rem)


def expert_owner(ranks: Sequence[int], dtype) -> np.ndarray:
    """The constant (M, R) one-hot, read-only: row m marks expert m's span of the
    rank axis."""
    return fx.frozen(np.repeat(np.eye(len(ranks), dtype=dtype), ranks, axis=1))


_GELU_C = math.sqrt(2.0 / math.pi)


def _router_vjp(live, ed, w2d, a1, h, pi, tau, masked, s, mask):
    """The `make_vjp` of the `router` node on (w1, b1, w2, b2). The vjp runs the
    vjps of the linear, add, gelu, linear, add, softmax (mul, sum, div) chain in
    the order `backward` ran them, so each leaf gets the chain's bytes; it keeps
    the descriptor for w1, the hidden pre-activation and w2 for w1 or b1, and the
    hidden activation for w2."""
    deep = live[0] or live[1]
    ed = ed if live[0] else None
    w2d = w2d if deep else None
    a1 = a1 if deep else None
    h = h if live[2] else None

    def vjp(g):
        if masked is not None:
            # div; sum (broadcast into the add, the bytes of its copy); the two
            # masked gradients added in that order; mul by the constant mask
            g = (g / s + (-g * masked / (s * s)).sum(axis=(1,), keepdims=True)) * mask
        dot = np.sum(g * pi, axis=-1, keepdims=True)
        g = (pi * (g - dot)) / tau
        gb2 = g.sum(axis=(0,)) if live[3] else None
        gw2 = np.transpose(h.T @ g) if live[2] else None
        if not deep:
            return None, None, gw2, gb2
        g = g @ w2d
        th = np.tanh(_GELU_C * (a1 + 0.044715 * a1 ** 3))
        du = _GELU_C * (1.0 + 3.0 * 0.044715 * a1 ** 2)
        g = g * (0.5 * (1.0 + th) + 0.5 * a1 * (1.0 - th ** 2) * du)
        return (np.transpose(ed.T @ g) if live[0] else None,
                g.sum(axis=(0,)) if live[1] else None, gw2, gb2)

    return vjp


def route(e, params: RouterParams, top_k: int) -> Tensor:
    """(B, M) mixture weights from a (B, 6) descriptor: rows sum to 1, at most
    top_k nonzero (top-k masked and renormalized).

    One `router` node on (w1, b1, w2, b2), whose value is the numpy expressions
    of the linear, add, gelu, linear, add, temperature-softmax chain, then, when
    top_k < M, the mul by the top-k mask, the row sum and the div, in the chain's
    order, so values and gradients keep the chain's bytes. The descriptor is a
    constant: no gradient reaches it.
    """
    m = params.n_experts
    if not 1 <= top_k <= m:
        raise ParameterError(f"top_k must lie in [1, {m}], got {top_k}")
    w1, b1, w2, b2, tau = params.w1, params.b1, params.w2, params.b2, params.tau
    ed = np.ascontiguousarray(e.data if isinstance(e, Tensor) else e, dtype=w1.dtype)
    if ed.ndim != 2 or ed.shape[1] != DESCRIPTOR_DIM:
        raise ShapeError(f"routing descriptor must be (B, {DESCRIPTOR_DIM}), got {ed.shape}")
    a1 = ed @ w1.data.T + b1.data
    h = 0.5 * a1 * (1.0 + np.tanh(_GELU_C * (a1 + 0.044715 * a1 ** 3)))
    logits = h @ w2.data.T + b2.data
    ex = np.exp((logits - np.max(logits, axis=-1, keepdims=True)) / tau)
    pi = out = ex / np.sum(ex, axis=-1, keepdims=True)
    masked = s = mask = None
    if top_k < m:
        # stable argsort on negated weights: ties resolve to the lower index
        order = np.argsort(-pi, axis=-1, kind="stable")
        mask = np.zeros_like(pi)
        np.put_along_axis(mask, order[:, :top_k], 1.0, axis=-1)
        masked = pi * mask
        s = np.sum(masked, axis=(1,), keepdims=True)
        out = masked / s
    return fx.record("router", (w1, b1, w2, b2), out, _router_vjp,
                     ed, w2.data, a1, h, pi, tau, masked, s, mask)


def moe_forward(h: np.ndarray, w_t: np.ndarray, a_t: np.ndarray, b_t: np.ndarray,
                gate: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adapted projection of plain arrays: h @ w_t + ((h @ a_t) * gate) @ b_t.

    `h` is (B, N, d_in) or (B, d_in). The weights come in the layout they are
    multiplied by: `w_t` is the frozen (d_out, d_in) weight transposed to
    (d_in, d_out), and `a_t` (d_in, R) and `b_t` (R, d_out) are one layer's
    packed expert pair (a, b) transposed. `gate` is the routing gate pi @ owner
    shaped (B, 1, R) or (B, R) to broadcast against h @ a_t, so rank row j of
    the down output of sample i is scaled by the weight of the expert that owns
    it. The base path is computed untouched; zero experts leave it bit-exact.
    Returns the output, the down output h @ a_t and the gated down output, which
    the projection's gradients read. The numpy expressions are the matmul,
    linear, mul, linear, add chain's, the up projection added into the fresh
    base output in place (the sum's bytes). `w_t`, `a_t`, `b_t` and `gate` must
    have h's dtype, and the shapes must agree.

    A transposed operand may be a `.T` view or a C-contiguous copy. The BLAS
    packs the two differently, so their bytes can differ. They agree over the
    default model's (B, 128, 64) token stream, where the copy is the faster,
    but not over a few context rows, whose projections take views. The
    agreement needs enough rows: with numpy's OpenBLAS at width 64 and rank 16,
    from 19 rows for the weight and from 76 for the down factor. A model
    configured with fewer tokens still takes the copies, and its outputs are
    then as exact as the views' but not their bytes.
    """
    dt = h.dtype
    for x in (w_t, a_t, b_t, gate):
        if x.dtype != dt:
            raise ParameterError(f"dtype mismatch: {dt} vs {x.dtype}")
    if w_t.ndim != 2 or a_t.ndim != 2 or b_t.ndim != 2:
        raise ShapeError(f"a projection needs 2-D weights, got w_t {w_t.shape}, "
                         f"a_t {a_t.shape}, b_t {b_t.shape}")
    if (not h.shape[-1] == w_t.shape[0] == a_t.shape[0]
            or b_t.shape != (a_t.shape[1], w_t.shape[1]) or gate.shape[-1] != a_t.shape[1]):
        raise ShapeError(f"projection dims disagree: h {h.shape}, w_t {w_t.shape}, "
                         f"a_t {a_t.shape}, b_t {b_t.shape}, gate {gate.shape}")
    down = h @ a_t
    gated = down * gate
    out = h @ w_t
    out += gated @ b_t
    return out, down, gated
