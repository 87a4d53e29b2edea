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

Every query, key, value and output projection is adapted: each is one
`fx.lora_linear` tape node (through `moe_forward`), routing gate included, and
each attention core, scores to mixed values, one `fx.attention` node. A step
therefore needs an `AdapterStack`; zero-initialised experts leave the frozen
backbone's output bit-exact. Tokens enter through one `patch_embed` node
(patchify, embedding, `pos` and `temb`) and leave through one `unembed` node
(output projection and unpatchify), recorded here through `fx.record`.

Routing is the caller's: `sample` and `diffusion_loss` route each step's
descriptor once and hand the (B, M) weights `pi`, a required keyword, to every
projection of the step.

A step is `_trunk` (embedding and block 0's self-attention, which do not read
the conditioning) followed by `_head` (everything after). The two
classifier-free-guidance branches differ only in the head, so `denoise_guided`
runs the trunk once for both. When a tape records the trunk, the
unconditional branch reads a replay of its nodes (`fx.replay`), so the tape
holds the nodes of two `denoise_step` calls and gradients keep their bytes.
Cross-attention into a single context token (the null token of the
unconditional branch) skips the q/k projections and the softmax, whose weight
over one key is exactly 1.

Every backbone weight is a frozen constant: a plain read-only array, which no
tape can list among the leaves it differentiates and any write refuses. The
ops take it as a constant, unwrapped. The only trainable state lives in the
router and the per-projection expert pairs (stage 1) and in the vfx embedding
tokens (stage 2); the optimizer lays it out (`train.AdamW`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as fx
from .config import ModelConfig
from .errors import ParameterError, ShapeError
from .moe import MoeAdapter, RouterParams, expert_owner, moe_forward, split_rank_budget
# unused here, but bench/spans.py traces routing by wrapping freqvfx.denoiser.route
from .moe import route  # noqa: F401
from .tensor import Tensor


@dataclass
class AttentionProjections:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def named(self, prefix: str) -> dict[str, np.ndarray]:
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
    embed_w: np.ndarray
    unembed_w: np.ndarray
    pos: np.ndarray
    temb: np.ndarray
    null_token: np.ndarray
    cond_proj_w: np.ndarray
    blocks: list[DenoiserBlock]

    @property
    def n_tokens(self) -> int:
        t, _, h, w = self.latent_shape
        return t * (h // self.patch) * (w // self.patch)

    @property
    def num_steps(self) -> int:
        return self.temb.shape[0]

    def named_arrays(self) -> dict[str, Tensor]:
        """Every backbone array by its checkpoint entry name, each wrapped in a
        Tensor whose `.data` is the read-only array itself."""
        out = {
            "backbone.embed_w": self.embed_w, "backbone.unembed_w": self.unembed_w,
            "backbone.pos": self.pos, "backbone.temb": self.temb,
            "backbone.null_token": self.null_token, "backbone.cond_proj_w": self.cond_proj_w,
        }
        for i, blk in enumerate(self.blocks):
            out.update(blk.self_attn.named(f"backbone.block{i}.self"))
            out.update(blk.cross_attn.named(f"backbone.block{i}.cross"))
        return {name: Tensor(arr) for name, arr in out.items()}


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
    stack holds that layout once, as the constant (M, R) `owner` one-hot.
    """

    router: RouterParams
    layers: dict[str, MoeAdapter]
    top_k: int
    ranks: tuple[int, ...]
    owner: np.ndarray = field(init=False)

    def __post_init__(self):
        self.owner = expert_owner(self.ranks, self.router.w1.dtype)

    def parameters(self) -> dict[str, Tensor]:
        """The trainable leaves, which are also the checkpoint's entries: router
        tensors, then each layer's packed pair `adapter.<layer>.{a,b}`."""
        out = dict(self.router.parameters())
        for name, adapter in self.layers.items():
            out.update(adapter.parameters(prefix=f"adapter.{name}"))
        return out

    @property
    def n_experts(self) -> int:
        return self.router.n_experts


PROJECTION_SLOTS = ("q", "k", "v", "o")


def _assemble(take: Callable[[str, tuple[int, ...], float], np.ndarray], *,
              latent_shape: tuple[int, int, int, int], width: int, n_blocks: int, patch: int,
              num_steps: int, diag_bias: float, cross_gain: float) -> DenoiserParams:
    """The backbone whose array `name` is take(name, shape, std), held read-only.
    `take` is called in the order `build_denoiser` draws: every block's self and
    then cross projections, then the embedding and conditioning arrays."""
    t, c, h, w = latent_shape
    if h % patch or w % patch:
        raise ParameterError(f"spatial dims {h}x{w} must divide by patch={patch}")
    pdim = c * patch * patch
    n_tok = t * (h // patch) * (w // patch)

    def const(name, shape, std):
        return fx.frozen(take(f"backbone.{name}", shape, std))

    def proj(prefix, out_std):
        return AttentionProjections(
            wq=const(f"{prefix}.wq", (width, width), 1.0 / math.sqrt(width)),
            wk=const(f"{prefix}.wk", (width, width), 1.0 / math.sqrt(width)),
            wv=const(f"{prefix}.wv", (width, width), 1.0 / math.sqrt(width)),
            wo=const(f"{prefix}.wo", (width, width), out_std),
        )

    blocks = [DenoiserBlock(self_attn=proj(f"block{i}.self", 1.0 / math.sqrt(width)),
                            cross_attn=proj(f"block{i}.cross", cross_gain / math.sqrt(width)))
              for i in range(n_blocks)]

    return DenoiserParams(
        latent_shape=tuple(latent_shape), patch=patch, width=width, diag_bias=diag_bias,
        embed_w=const("embed_w", (width, pdim), 1.0 / math.sqrt(pdim)),
        unembed_w=const("unembed_w", (pdim, width), 1.0 / math.sqrt(width)),
        pos=const("pos", (n_tok, width), 0.5),
        temb=const("temb", (num_steps, width), 0.5),
        null_token=const("null_token", (1, width), 0.5),
        cond_proj_w=const("cond_proj_w", (width, pdim), 1.0 / math.sqrt(pdim)),
        blocks=blocks,
    )


def build_denoiser(rng: np.random.Generator, *, latent_shape: tuple[int, int, int, int],
                   width: int, n_blocks: int, patch: int, num_steps: int,
                   diag_bias: float, cross_gain: float,
                   dtype=np.float32) -> DenoiserParams:
    """Random frozen backbone of read-only constants, sized by the `ModelConfig`
    fields."""
    return _assemble(lambda name, shape, std: rng.normal(0.0, std, size=shape).astype(dtype),
                     latent_shape=latent_shape, width=width, n_blocks=n_blocks, patch=patch,
                     num_steps=num_steps, diag_bias=diag_bias, cross_gain=cross_gain)


def build_adapter_stack(rng: np.random.Generator, params: DenoiserParams, cfg: ModelConfig,
                        dtype=np.float32) -> AdapterStack:
    """Router and an expert pair per projection of `params`, sized and routed by `cfg`."""
    if not 1 <= cfg.top_k <= cfg.n_experts:
        raise ParameterError(f"top_k must lie in [1, {cfg.n_experts}], got {cfg.top_k}")
    ranks = tuple(split_rank_budget(cfg.total_rank, cfg.n_experts))
    router = RouterParams.init(rng, n_experts=cfg.n_experts, hidden=cfg.router_hidden,
                               tau=cfg.tau, dtype=dtype)
    layers: dict[str, MoeAdapter] = {}
    for i in range(len(params.blocks)):
        for attn in ("self", "cross"):
            for slot in PROJECTION_SLOTS:
                layers[f"block{i}.{attn}.{slot}"] = MoeAdapter.init(
                    rng, d_in=params.width, d_out=params.width, ranks=ranks, dtype=dtype)
    return AdapterStack(router=router, layers=layers, top_k=cfg.top_k, ranks=ranks)


def _sizes(cfg: ModelConfig) -> dict:
    """The backbone keywords of `build_denoiser` that `cfg` sets."""
    return dict(latent_shape=tuple(cfg.latent_shape), width=cfg.width, n_blocks=cfg.n_blocks,
                patch=cfg.patch, num_steps=cfg.num_steps, diag_bias=cfg.diag_bias,
                cross_gain=cfg.cross_gain)


def build_model(cfg: ModelConfig, rng: np.random.Generator):
    """Backbone, then adapter stack, drawn from `rng` in that order."""
    params = build_denoiser(rng, **_sizes(cfg))
    return params, build_adapter_stack(rng, params, cfg)


def load_model(cfg: ModelConfig, take: Callable[[str, tuple[int, ...]], np.ndarray]):
    """The model of `cfg` whose every array `name` is take(name, shape): the
    backbone holds those arrays read-only, with nothing drawn, and the stack's
    leaves are copies (over a fixed-seed build's draws)."""
    params = _assemble(lambda name, shape, std: take(name, shape), **_sizes(cfg))
    stack = build_adapter_stack(np.random.default_rng(0), params, cfg)
    for name, leaf in stack.parameters().items():
        leaf.data[...] = take(name, leaf.shape)
    return params, stack


# ---------------------------------------------------------------------------
# token plumbing


def patchify(z: np.ndarray, patch: int) -> np.ndarray:
    """(B, T, C, H, W) -> (B, T*(H/p)*(W/p), C*p*p) tokens."""
    if z.ndim != 5:
        raise ShapeError(f"latent video must be 5-axis, got {z.shape}")
    b, t, c, h, w = z.shape
    if h % patch or w % patch:
        raise ShapeError(f"spatial dims {h}x{w} must divide by patch={patch}")
    hp, wp = h // patch, w // patch
    x = z.reshape(b, t, c, hp, patch, wp, patch).transpose(0, 1, 3, 5, 2, 4, 6)
    return x.reshape(b, t * hp * wp, c * patch * patch)


def unpatchify(tokens: np.ndarray, latent_shape: tuple[int, int, int, int],
               patch: int) -> np.ndarray:
    """Inverse of patchify for the given (T, C, H, W)."""
    t, c, h, w = latent_shape
    hp, wp = h // patch, w // patch
    b = tokens.shape[0]
    if tokens.shape != (b, t * hp * wp, c * patch * patch):
        raise ShapeError(f"token tensor {tokens.shape} does not match latent {latent_shape}")
    x = tokens.reshape(b, t, hp, wp, c, patch, patch).transpose(0, 1, 4, 2, 5, 3, 6)
    return x.reshape(b, t, c, h, w)


def _patch_embed_vjp(live, latent_shape, patch, wd):
    def vjp(g):
        return (unpatchify(g @ wd, latent_shape, patch),)

    return vjp


def patch_embed(z: Tensor, t: np.ndarray, params: DenoiserParams) -> Tensor:
    """patchify(z) @ embed_w^T + pos + temb[t] as one `patch_embed` node on z.

    It evaluates the numpy expressions of the reshape, transpose, reshape,
    linear, add, add chain in its order, the adds in place on the fresh
    product, so the value keeps the chain's bytes; the vjp's unpatchify is
    the chain's inverse permutation, so the gradient keeps them too. `t` is a
    checked scalar or (B,) timestep.
    """
    wd = params.embed_w
    if z.dtype != wd.dtype:
        raise ParameterError(f"dtype mismatch: latent {z.dtype} vs model {wd.dtype}")
    temb = params.temb[t]
    out = patchify(z.data, params.patch) @ wd.T
    out += params.pos
    out += temb[None, None, :] if temb.ndim == 1 else temb[:, None, :]
    return fx.record("patch_embed", (z,), out, _patch_embed_vjp, params.latent_shape,
                     params.patch, wd)


def _unembed_vjp(live, patch, wd):
    def vjp(g):
        return (patchify(g, patch) @ wd,)

    return vjp


def unembed(x: Tensor, params: DenoiserParams) -> Tensor:
    """unpatchify(x @ unembed_w^T) as one `unembed` node on x, evaluating the
    linear, reshape, transpose, reshape chain's numpy expressions; its vjp
    patchifies g, the chain's layout, before the matmul."""
    wd = params.unembed_w
    out = unpatchify(x.data @ wd.T, params.latent_shape, params.patch)
    return fx.record("unembed", (x,), out, _unembed_vjp, params.patch, wd)


def build_conditioning(params: DenoiserParams, z0, text_tokens,
                       vfx_tokens: Tensor | None = None) -> Conditioning:
    """Image tokens from frozen-projected frame 0, plus text (and vfx) tokens.
    The image tokens are constants: frame 0 is read as a plain array, so no
    tape records its projection. Its (C, H, W) must be the model's latent's,
    or the projection would fail or give another number of tokens."""
    z0 = z0 if isinstance(z0, Tensor) else Tensor(np.asarray(z0))
    if z0.ndim != 5:
        raise ShapeError(f"latent video must be 5-axis, got {z0.shape}")
    if z0.shape[2:] != params.latent_shape[1:]:
        raise ShapeError(f"conditioning video frames (C, H, W) = {z0.shape[2:]} do not match "
                         f"the model's latent (C, H, W) = {params.latent_shape[1:]}")
    frame0 = patchify(z0.data[:, :1], params.patch)
    img = Tensor(frame0 @ np.asarray(params.cond_proj_w, dtype=frame0.dtype).T)
    text = text_tokens if isinstance(text_tokens, Tensor) else Tensor(np.asarray(text_tokens))
    if text.ndim not in (2, 3) or text.shape[-1] != params.width:
        raise ShapeError(f"text tokens {text.shape} do not match the model width {params.width}")
    if text.ndim == 2:
        text = fx.broadcast_to(fx.reshape(text, (1,) + text.shape), (z0.shape[0],) + text.shape)
    return Conditioning(image_tokens=img, text_tokens=text, vfx_tokens=vfx_tokens)


def _context_tokens(params: DenoiserParams, cond: Conditioning | None,
                    batch: int) -> Tensor:
    d = params.width
    if cond is None:
        return fx.broadcast_to(fx.reshape(Tensor(params.null_token), (1, 1, d)), (batch, 1, d))
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


def _attention(x: Tensor, kv: Tensor, proj: AttentionProjections, stack: AdapterStack,
               pi: Tensor, layer: str, scale: float, bias: np.ndarray | None = None) -> Tensor:
    def project(slot: str, h: Tensor) -> Tensor:
        return moe_forward(stack.layers[f"{layer}.{slot}"], pi, stack.owner,
                           getattr(proj, "w" + slot), h)

    if kv.shape[1] == 1 and bias is None:
        # softmax over a single key is exactly 1 for any finite score, so the
        # q/k projections and the scores cannot change the output: every query
        # reads the one value
        v = project("v", kv)
        mixed = fx.broadcast_to(v, x.shape[:2] + v.shape[2:])
    else:
        q = project("q", x)
        k = project("k", kv)
        mixed = fx.attention(q, k, project("v", kv), scale, bias)
    return project("o", mixed)


@functools.lru_cache(maxsize=8)
def _diag(n_tokens: int, diag_bias: float, dtype) -> np.ndarray:
    return fx.frozen(diag_bias * np.eye(n_tokens, dtype=dtype))  # shared by every call


def _self_bias(params: DenoiserParams, dtype) -> np.ndarray | None:
    if not params.diag_bias:
        return None
    return _diag(params.n_tokens, params.diag_bias, np.dtype(dtype))


def _trunk(z_t, t, params: DenoiserParams, stack: AdapterStack, pi: Tensor) -> Tensor:
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

    x = patch_embed(z_t, t_arr, params)
    blk = params.blocks[0]
    x = x + _attention(x, x, blk.self_attn, stack, pi, "block0.self",
                       1.0 / math.sqrt(params.width), _self_bias(params, x.dtype))
    return x


def _head(x: Tensor, cond: Conditioning | None, params: DenoiserParams,
          stack: AdapterStack, pi: Tensor) -> Tensor:
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

    return unembed(x, params)


def denoise_step(z_t, t, cond: Conditioning | None, params: DenoiserParams,
                 stack: AdapterStack, *, pi: Tensor) -> Tensor:
    """Predict the noise in z_t; `cond=None` reads the null token (the
    unconditional branch). `pi` is the caller's (B, M) routing of z_t.
    """
    return _head(_trunk(z_t, t, params, stack, pi), cond, params, stack, pi)


def denoise_guided(z_t, t, cond: Conditioning | None, params: DenoiserParams,
                   stack: AdapterStack, *, pi: Tensor) -> tuple[Tensor, Tensor]:
    """(eps_cond, eps_uncond): the two classifier-free-guidance branches,
    byte-identical to `denoise_step` with `cond` and with None.

    The trunk runs once. When it records nothing (no active tape, or a tape on
    which z_t, `pi` and the stack are constant, as at every `generate` step),
    both heads read it. Otherwise its nodes are replayed after the conditional
    head's, where a second trunk's would have been recorded, and the
    unconditional head reads the replay: the tape holds the same nodes as for
    two `denoise_step` calls and gradients keep their bytes.
    """
    tape = fx.active_tape()
    start = len(tape.nodes) if tape is not None else 0
    x = _trunk(z_t, t, params, stack, pi)
    stop = len(tape.nodes) if tape is not None else 0
    eps_c = _head(x, cond, params, stack, pi)
    if fx.is_live(x):
        x = fx.replay(start, stop, x)
    return eps_c, _head(x, None, params, stack, pi)
