"""A desk-scale attention denoiser whose projections carry routed LoRA experts.

Layout: a latent video (B, T, C, H, W) is cut into 2x2 spatial patches, each
(t, patch) position becoming one token of dimension C*p*p, linearly embedded
to the model width. Blocks apply self-attention over all tokens and
cross-attention into the conditioning tokens (image frame-0 tokens, text
tokens, optional appended vfx embedding tokens, or a null token for the
unconditional branch). Residual connections only; no MLP or normalization
layers, which keeps the backbone a fixed random feature map.

Self-attention logits carry a +diag_bias identity term so each token mostly
attends to itself; that lets the value/output LoRA paths realize per-token
linear maps, which is what makes the frozen-backbone stage-1 objective
learnable at this scale.

The cross-attention output projections are drawn with a larger scale
(cross_gain) than the 1/sqrt(width) used elsewhere. With a frozen random
backbone the conditioning read would otherwise be a faint additive term, and
test-time updates to the vfx tokens could barely move the output spectrum;
the gain keeps the context injection comparable to the token content itself.

Each adapted projection is one `fx.lora_linear` tape node (through
`moe_forward`) and each attention core, scores to mixed values, one
`fx.attention` node.

Routing is the caller's: `sample` and `diffusion_loss` route each step's
descriptor once and hand the (B, M) weights `pi` to every projection of the
step, so a stack without `pi` is an error.

A step is `_trunk` (embedding and block 0's self-attention, which do not read
the conditioning) followed by `_head` (everything after). The two
classifier-free-guidance branches differ only in the head, so `denoise_guided`
runs one trunk for both when no tape records it. Cross-attention into a
single context token (the null token of the unconditional branch) skips the q/k
projections and the softmax, whose weight over one key is exactly 1.

Every backbone weight is a frozen constant: no tape lists it among the leaves
it differentiates. The only trainable state lives in the router, the
per-projection expert stacks (stage 1), and the vfx embedding tokens (stage 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as fx
from .errors import ParameterError, ShapeError
from .moe import (MoeAdapter, RouterParams, expert_owner, expert_slices, moe_forward,
                  split_rank_budget)
# unused here, but bench/spans.py traces routing by wrapping freqvfx.denoiser.route
from .moe import route  # noqa: F401
from .tensor import Tensor

LATENT_SHAPE_DEFAULT = (8, 4, 8, 8)  # (T, C, h, w)
WIDTH_DEFAULT = 64
PATCH_DEFAULT = 2
N_BLOCKS_DEFAULT = 2
DIAG_BIAS_DEFAULT = 8.0
CROSS_GAIN_DEFAULT = 4.0
NUM_STEPS_DEFAULT = 1000
N_TEXT_TOKENS_DEFAULT = 2


@dataclass
class AttentionProjections:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


@dataclass
class DenoiserBlock:
    self_attn: AttentionProjections
    cross_attn: AttentionProjections


@dataclass
class DenoiserParams:
    latent_shape: tuple[int, int, int, int]
    patch: int
    width: int
    diag_bias: float
    embed_w: Tensor
    embed_b: Tensor
    unembed_w: Tensor
    unembed_b: Tensor
    pos: Tensor
    temb: Tensor
    null_token: Tensor
    cond_proj_w: Tensor
    blocks: list[DenoiserBlock]

    @property
    def patch_dim(self) -> int:
        _, c, _, _ = self.latent_shape
        return c * self.patch * self.patch

    @property
    def n_tokens(self) -> int:
        t, _, h, w = self.latent_shape
        return t * (h // self.patch) * (w // self.patch)

    @property
    def num_steps(self) -> int:
        return self.temb.shape[0]

    def named_arrays(self) -> dict[str, Tensor]:
        out = {
            "backbone.embed_w": self.embed_w, "backbone.embed_b": self.embed_b,
            "backbone.unembed_w": self.unembed_w, "backbone.unembed_b": self.unembed_b,
            "backbone.pos": self.pos, "backbone.temb": self.temb,
            "backbone.null_token": self.null_token, "backbone.cond_proj_w": self.cond_proj_w,
        }
        for i, blk in enumerate(self.blocks):
            out.update(blk.self_attn.named(f"backbone.block{i}.self"))
            out.update(blk.cross_attn.named(f"backbone.block{i}.cross"))
        return out


@dataclass
class Conditioning:
    """Cross-attention context: image tokens, text tokens, optional vfx tokens."""

    image_tokens: Tensor
    text_tokens: Tensor
    vfx_tokens: Tensor | None = None

    def with_vfx(self, vfx_tokens: Tensor | None) -> "Conditioning":
        return Conditioning(self.image_tokens, self.text_tokens, vfx_tokens)


@dataclass
class AdapterStack:
    """One shared router plus a MoeAdapter per adapted projection layer.

    Every layer splits its rank axis into experts by the same `ranks`; the
    stack holds that layout once: the constant (M, R) `owner` one-hot and
    each expert's span of the rank axis.
    """

    router: RouterParams
    layers: dict[str, MoeAdapter]
    top_k: int
    ranks: tuple[int, ...]
    owner: Tensor = field(init=False)
    expert_slices: list[slice] = field(init=False)

    def __post_init__(self):
        self.owner = expert_owner(self.ranks, self.router.w1.dtype)
        self.expert_slices = expert_slices(self.ranks)

    def parameters(self) -> dict[str, Tensor]:
        """The trainable leaves: router tensors, then each layer's packed pair."""
        out = dict(self.router.parameters())
        for name, adapter in self.layers.items():
            out.update(adapter.parameters(prefix=f"adapter.{name}"))
        return out

    def named_arrays(self) -> dict[str, Tensor]:
        """Checkpoint entries: router tensors, then `adapter.<layer>.expert<m>.{a,b}`
        views of the packed pairs, so writing into one writes into the layer."""
        out = dict(self.router.parameters())
        for name, adapter in self.layers.items():
            for m, s in enumerate(self.expert_slices):
                out[f"adapter.{name}.expert{m}.a"] = Tensor(adapter.a.data[s])
                out[f"adapter.{name}.expert{m}.b"] = Tensor(adapter.b.data[:, s])
        return out

    @property
    def n_experts(self) -> int:
        return self.router.n_experts


PROJECTION_SLOTS = ("q", "k", "v", "o")


def build_denoiser(rng: np.random.Generator,
                   latent_shape: tuple[int, int, int, int] = LATENT_SHAPE_DEFAULT,
                   width: int = WIDTH_DEFAULT, n_blocks: int = N_BLOCKS_DEFAULT,
                   patch: int = PATCH_DEFAULT, num_steps: int = NUM_STEPS_DEFAULT,
                   diag_bias: float = DIAG_BIAS_DEFAULT,
                   cross_gain: float = CROSS_GAIN_DEFAULT,
                   dtype=np.float32) -> DenoiserParams:
    """Random frozen backbone. All tensors are constants."""
    t, c, h, w = latent_shape
    if h % patch or w % patch:
        raise ParameterError(f"spatial dims {h}x{w} must divide by patch={patch}")
    if cross_gain <= 0.0:
        raise ParameterError(f"cross_gain must be positive, got {cross_gain}")
    pdim = c * patch * patch
    n_tok = t * (h // patch) * (w // patch)

    def const(shape, std):
        return Tensor(rng.normal(0.0, std, size=shape).astype(dtype))

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype))

    def proj(out_std):
        return AttentionProjections(
            wq=const((width, width), 1.0 / math.sqrt(width)),
            wk=const((width, width), 1.0 / math.sqrt(width)),
            wv=const((width, width), 1.0 / math.sqrt(width)),
            wo=const((width, width), out_std),
        )

    blocks = [DenoiserBlock(self_attn=proj(1.0 / math.sqrt(width)),
                            cross_attn=proj(cross_gain / math.sqrt(width)))
              for _ in range(n_blocks)]

    return DenoiserParams(
        latent_shape=tuple(latent_shape), patch=patch, width=width, diag_bias=diag_bias,
        embed_w=const((width, pdim), 1.0 / math.sqrt(pdim)),
        embed_b=zeros((width,)),
        unembed_w=const((pdim, width), 1.0 / math.sqrt(width)),
        unembed_b=zeros((pdim,)),
        pos=const((n_tok, width), 0.5),
        temb=const((num_steps, width), 0.5),
        null_token=const((1, width), 0.5),
        cond_proj_w=const((width, pdim), 1.0 / math.sqrt(pdim)),
        blocks=blocks,
    )


def build_adapter_stack(rng: np.random.Generator, params: DenoiserParams,
                        n_experts: int = 4, total_rank: int = 16, top_k: int = 3,
                        tau: float = 1.5, router_hidden: int = 16,
                        dtype=np.float32) -> AdapterStack:
    if not 1 <= top_k <= n_experts:
        raise ParameterError(f"top_k must lie in [1, {n_experts}], got {top_k}")
    ranks = tuple(split_rank_budget(total_rank, n_experts))
    router = RouterParams.init(rng, n_experts=n_experts, hidden=router_hidden,
                               tau=tau, dtype=dtype)
    layers: dict[str, MoeAdapter] = {}
    for i in range(len(params.blocks)):
        for attn in ("self", "cross"):
            for slot in PROJECTION_SLOTS:
                layers[f"block{i}.{attn}.{slot}"] = MoeAdapter.init(
                    rng, d_in=params.width, d_out=params.width, ranks=ranks, dtype=dtype)
    return AdapterStack(router=router, layers=layers, top_k=top_k, ranks=ranks)


# ---------------------------------------------------------------------------
# token plumbing


def patchify(z, patch: int) -> Tensor:
    """(B, T, C, H, W) -> (B, T*(H/p)*(W/p), C*p*p) tokens."""
    z = z if isinstance(z, Tensor) else Tensor(np.asarray(z))
    if z.ndim != 5:
        raise ShapeError(f"latent video must be 5-axis, got {z.shape}")
    b, t, c, h, w = z.shape
    if h % patch or w % patch:
        raise ShapeError(f"spatial dims {h}x{w} must divide by patch={patch}")
    hp, wp = h // patch, w // patch
    x = fx.reshape(z, (b, t, c, hp, patch, wp, patch))
    x = fx.transpose(x, (0, 1, 3, 5, 2, 4, 6))
    return fx.reshape(x, (b, t * hp * wp, c * patch * patch))


def unpatchify(tokens, latent_shape: tuple[int, int, int, int], patch: int) -> Tensor:
    """Inverse of patchify for the given (T, C, H, W)."""
    tokens = tokens if isinstance(tokens, Tensor) else Tensor(np.asarray(tokens))
    t, c, h, w = latent_shape
    hp, wp = h // patch, w // patch
    b = tokens.shape[0]
    if tokens.shape != (b, t * hp * wp, c * patch * patch):
        raise ShapeError(f"token tensor {tokens.shape} does not match latent {latent_shape}")
    x = fx.reshape(tokens, (b, t, hp, wp, c, patch, patch))
    x = fx.transpose(x, (0, 1, 4, 2, 5, 3, 6))
    return fx.reshape(x, (b, t, c, h, w))


def build_conditioning(params: DenoiserParams, z0, text_tokens,
                       vfx_tokens: Tensor | None = None) -> Conditioning:
    """Image tokens from frozen-projected frame 0, plus text (and vfx) tokens."""
    z0 = z0 if isinstance(z0, Tensor) else Tensor(np.asarray(z0))
    if z0.ndim != 5:
        raise ShapeError(f"latent video must be 5-axis, got {z0.shape}")
    frame0 = fx.slice_axis(z0.detach(), 1, 0, 1)
    img = fx.linear(patchify(frame0, params.patch), params.cond_proj_w)
    text = text_tokens if isinstance(text_tokens, Tensor) else Tensor(np.asarray(text_tokens))
    if text.ndim == 2:
        text = fx.broadcast_to(fx.reshape(text, (1,) + text.shape), (z0.shape[0],) + text.shape)
    return Conditioning(image_tokens=img, text_tokens=text, vfx_tokens=vfx_tokens)


def _context_tokens(params: DenoiserParams, cond: Conditioning | None,
                    batch: int) -> Tensor:
    d = params.width
    if cond is None:
        return fx.broadcast_to(fx.reshape(params.null_token, (1, 1, d)), (batch, 1, d))
    parts = []
    for name, tok in (("image", cond.image_tokens), ("text", cond.text_tokens),
                      ("vfx", cond.vfx_tokens)):
        if tok is None:
            continue
        tok = tok if isinstance(tok, Tensor) else Tensor(np.asarray(tok))
        if tok.ndim == 2:
            tok = fx.broadcast_to(fx.reshape(tok, (1,) + tok.shape), (batch,) + tok.shape)
        if tok.ndim != 3 or tok.shape[0] != batch or tok.shape[2] != d:
            raise ShapeError(f"{name} tokens {tok.shape} incompatible with "
                             f"batch {batch}, width {d}")
        parts.append(tok)
    return fx.concat(parts, axis=1)


def _attention(x: Tensor, kv: Tensor, proj: AttentionProjections,
               stack: AdapterStack | None, pi: Tensor | None,
               layer: str, scale: float, bias: np.ndarray | None = None) -> Tensor:
    def project(slot: str, h: Tensor) -> Tensor:
        w = getattr(proj, "w" + slot)
        if stack is None:
            return fx.linear(h, w)
        return moe_forward(stack.layers[f"{layer}.{slot}"], pi, stack.owner, w, h)

    if kv.shape[1] == 1 and bias is None:
        # softmax over a single key is exactly 1 for any finite score, so the
        # q/k projections and the scores cannot change the output
        attn = Tensor(np.ones(x.shape[:2] + (1,), dtype=x.dtype))
        mixed = fx.matmul(attn, project("v", kv))
    else:
        q = project("q", x)
        k = project("k", kv)
        mixed = fx.attention(q, k, project("v", kv), scale, bias)
    return project("o", mixed)


@functools.lru_cache(maxsize=8)
def _diag(n_tokens: int, diag_bias: float, dtype) -> np.ndarray:
    bias = diag_bias * np.eye(n_tokens, dtype=dtype)
    bias.setflags(write=False)  # shared by every call that asks for it
    return bias


def _self_bias(params: DenoiserParams, dtype) -> np.ndarray | None:
    if not params.diag_bias:
        return None
    return _diag(params.n_tokens, params.diag_bias, np.dtype(dtype))


def _trunk(z_t, t, params: DenoiserParams, stack: AdapterStack | None,
           pi: Tensor | None) -> Tensor:
    """The part of a step that does not read the conditioning: checks,
    embedding and block 0's self-attention. Returns the residual stream."""
    z_t = z_t if isinstance(z_t, Tensor) else Tensor(np.asarray(z_t))
    if z_t.ndim != 5 or z_t.shape[1:] != params.latent_shape:
        raise ShapeError(f"latent {z_t.shape} does not match model {params.latent_shape}")
    b = z_t.shape[0]
    t_arr = np.asarray(t)
    if not np.issubdtype(t_arr.dtype, np.integer):
        raise ParameterError(f"timestep must be integer, got dtype {t_arr.dtype}")
    if t_arr.ndim == 1 and t_arr.shape[0] != b:
        raise ShapeError(f"per-sample t has length {t_arr.shape[0]}, batch is {b}")
    if np.any(t_arr < 0) or np.any(t_arr >= params.num_steps):
        raise ParameterError(f"timestep {t} outside [0, {params.num_steps})")

    if stack is not None and pi is None:
        raise ParameterError("a step with an adapter stack needs its routing weights pi")

    tokens = fx.linear(patchify(z_t, params.patch), params.embed_w)
    tokens = tokens + params.embed_b
    temb = params.temb.data[t_arr]  # frozen table: plain gather, stays constant
    if temb.ndim == 1:
        temb = temb[None, None, :]
    else:
        temb = temb[:, None, :]
    x = tokens + params.pos + Tensor(temb)

    blk = params.blocks[0]
    x = x + _attention(x, x, blk.self_attn, stack, pi, "block0.self",
                       1.0 / math.sqrt(params.width), _self_bias(params, x.dtype))
    return x


def _head(x: Tensor, cond: Conditioning | None, params: DenoiserParams,
          stack: AdapterStack | None, pi: Tensor | None) -> Tensor:
    """The rest of a step after `_trunk`: block 0's cross-attention, every later
    block, unembed and unpatchify."""
    kv = _context_tokens(params, cond, x.shape[0])
    scale = 1.0 / math.sqrt(params.width)
    diag = _self_bias(params, x.dtype)
    x = x + _attention(x, kv, params.blocks[0].cross_attn, stack, pi, "block0.cross",
                       scale)
    for i, blk in enumerate(params.blocks[1:], start=1):
        x = x + _attention(x, x, blk.self_attn, stack, pi, f"block{i}.self", scale, diag)
        x = x + _attention(x, kv, blk.cross_attn, stack, pi, f"block{i}.cross", scale)

    out = fx.linear(x, params.unembed_w) + params.unembed_b
    return unpatchify(out, params.latent_shape, params.patch)


def denoise_step(z_t, t, cond: Conditioning | None, params: DenoiserParams,
                 stack: AdapterStack | None, *, pi: Tensor | None = None) -> Tensor:
    """Predict the noise in z_t; `cond=None` reads the null token (the
    unconditional branch). `pi` is the caller's (B, M) routing of z_t, required
    with a stack and ignored without one.
    """
    return _head(_trunk(z_t, t, params, stack, pi), cond, params, stack, pi)


def denoise_guided(z_t, t, cond: Conditioning | None, params: DenoiserParams,
                   stack: AdapterStack | None, *, pi: Tensor | None = None
                   ) -> tuple[Tensor, Tensor]:
    """(eps_cond, eps_uncond): the two classifier-free-guidance branches,
    byte-identical to `denoise_step` with `cond` and with None.

    When `_trunk` records nothing (no active tape, or a tape on which z_t, `pi`
    and the stack are constant, as at every `generate` step), both branches share
    one trunk. Otherwise each branch runs its own, so the tape holds the same
    nodes as for two `denoise_step` calls and gradients keep their bytes.
    """
    x = _trunk(z_t, t, params, stack, pi)
    eps_c = _head(x, cond, params, stack, pi)
    if fx.is_live(x):
        x = _trunk(z_t, t, params, stack, pi)
    return eps_c, _head(x, None, params, stack, pi)
