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
learnable at this scale. The term is one constant (N, N) array, built with
the backbone.

The cross-attention output projections are drawn with a larger scale
(cross_gain) than the 1/sqrt(width) used elsewhere. With a frozen random
backbone the conditioning read would otherwise be a faint additive term, and
test-time updates to the vfx tokens could barely move the output spectrum;
the gain keeps the context injection comparable to the token content itself.

Every query, key, value and output projection is adapted, each one
`moe_forward` call, so a step needs an `AdapterStack`; zero-initialised experts
leave the frozen backbone's output bit-exact. Each attention block, its four
projections, the routing gate they share, the attention core and the residual
add, is one `attn_block` tape node (`_attention`). Tokens enter through one
`patch_embed` node (patchify, embedding, `pos` and `temb`) and leave through
one `unembed` node (output projection and unpatchify), and the vfx tokens
join the cross-attention context through one `context` node. All four are
recorded here through `fx.record`, with the numpy expressions of the op chains
they replace, in the chains' order, so values and gradients keep the chains'
bytes; `tests/oracles.py` keeps the chains. Without a tape a step records
nothing and builds no vjp.

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
ops take it as a constant, unwrapped. The attention weights are one dict keyed
by checkpoint entry name (`block0.self.wq`), which also names the adapter
layers (`block0.self.q`). The conditioning is constant too: `build_conditioning`
joins each sample's image and text tokens into one read-only array, and only
the vfx tokens are appended per head, by one `context` node. The only trainable
state lives in the router and the per-projection expert pairs (stage 1) and in
the vfx embedding tokens (stage 2); the optimizer lays it out (`train.AdamW`).
"""

from __future__ import annotations

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
class DenoiserParams:
    """The frozen backbone. `projections` holds every attention weight by its
    checkpoint entry name without `backbone.`: `block<i>.<self|cross>.w<q|k|v|o>`,
    in draw order. `self_bias` is the constant diag_bias * I added to every
    self-attention's scores, None when diag_bias is 0."""

    latent_shape: tuple[int, int, int, int]
    patch: int
    width: int
    n_blocks: int
    embed_w: np.ndarray
    unembed_w: np.ndarray
    pos: np.ndarray
    temb: np.ndarray
    null_token: np.ndarray
    cond_proj_w: np.ndarray
    projections: dict[str, np.ndarray]
    self_bias: np.ndarray | None

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
        out.update((f"backbone.{name}", arr) for name, arr in self.projections.items())
        return {name: Tensor(arr) for name, arr in out.items()}


@dataclass
class Conditioning:
    """Cross-attention context. `tokens` is the read-only (B, L, width) array of
    each sample's image tokens then text tokens; `vfx_tokens`, when set, are
    (L_vfx, width) tokens of the same dtype appended to every sample's context."""

    tokens: np.ndarray
    vfx_tokens: Tensor | None

    def __post_init__(self):
        vfx = self.vfx_tokens
        if vfx is None:
            return
        if vfx.ndim != 2 or vfx.shape[1] != self.tokens.shape[2]:
            raise ShapeError(f"vfx tokens {vfx.shape} are not (L, {self.tokens.shape[2]})")
        if vfx.dtype != self.tokens.dtype:
            raise ParameterError(f"dtype mismatch: vfx tokens {vfx.dtype} vs "
                                 f"conditioning {self.tokens.dtype}")

    def with_vfx(self, vfx_tokens: Tensor | None) -> "Conditioning":
        return Conditioning(self.tokens, vfx_tokens)


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

    projections = {}
    for i in range(n_blocks):
        for attn, out_std in (("self", 1.0), ("cross", cross_gain)):
            for slot in PROJECTION_SLOTS:
                std = out_std if slot == "o" else 1.0
                name = f"block{i}.{attn}.w{slot}"
                projections[name] = const(name, (width, width), std / math.sqrt(width))

    embed_w = const("embed_w", (width, pdim), 1.0 / math.sqrt(pdim))
    return DenoiserParams(
        latent_shape=tuple(latent_shape), patch=patch, width=width, n_blocks=n_blocks,
        embed_w=embed_w,
        unembed_w=const("unembed_w", (pdim, width), 1.0 / math.sqrt(width)),
        pos=const("pos", (n_tok, width), 0.5),
        temb=const("temb", (num_steps, width), 0.5),
        null_token=const("null_token", (1, width), 0.5),
        cond_proj_w=const("cond_proj_w", (width, pdim), 1.0 / math.sqrt(pdim)),
        projections=projections,
        self_bias=fx.frozen(diag_bias * np.eye(n_tok, dtype=embed_w.dtype)) if diag_bias else None,
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
    # the adapter of projection `block0.self.wq` is layer `block0.self.q`
    layers = {name[:-2] + name[-1]: MoeAdapter.init(rng, d_in=params.width, d_out=params.width,
                                                    ranks=ranks, dtype=dtype)
              for name in params.projections}
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


def build_conditioning(params: DenoiserParams, z0, text_tokens) -> Conditioning:
    """Each sample's image tokens, frame 0 projected by the frozen `cond_proj_w`,
    then its text tokens, as one read-only array that no tape records. The
    video's (C, H, W) must be the model's latent's and its dtype the model's;
    the text is (L, width) for every sample or (B, L, width), of that dtype."""
    z0 = Tensor(z0).data
    if z0.ndim != 5:
        raise ShapeError(f"latent video must be 5-axis, got {z0.shape}")
    if z0.shape[2:] != params.latent_shape[1:]:
        raise ShapeError(f"conditioning video frames (C, H, W) = {z0.shape[2:]} do not match "
                         f"the model's latent (C, H, W) = {params.latent_shape[1:]}")
    if z0.dtype != params.cond_proj_w.dtype:
        raise ParameterError(f"dtype mismatch: conditioning video {z0.dtype} vs model "
                             f"{params.cond_proj_w.dtype}")
    frame0 = patchify(z0[:, :1], params.patch)
    img = frame0 @ params.cond_proj_w.T
    text = Tensor(text_tokens).data
    if text.ndim not in (2, 3) or text.shape[-1] != params.width:
        raise ShapeError(f"text tokens {text.shape} do not match the model width {params.width}")
    b = z0.shape[0]
    if text.ndim == 3 and text.shape[0] != b:
        raise ShapeError(f"text tokens {text.shape} do not match the video batch {b}")
    if text.dtype != img.dtype:
        raise ParameterError(f"dtype mismatch: text tokens {text.dtype} vs video {img.dtype}")
    tokens = np.concatenate([img, np.broadcast_to(text, (b,) + text.shape[-2:])], axis=1)
    return Conditioning(fx.frozen(tokens), None)


def _context_vjp(live, start, batch):
    """The `make_vjp` of the `context` node on the vfx tokens: the concat's,
    broadcast_to's and reshape's vjps in the order `backward` ran them. It slices
    out the vfx rows, sums them over the batch when there is more than one
    sample, and keeps no array."""
    def vjp(g):
        g = g[:, start:]
        if batch > 1:
            g = g.sum(axis=(0,), keepdims=True)
        return (g.reshape(g.shape[1:]),)

    return vjp


def _context_tokens(params: DenoiserParams, cond: Conditioning | None,
                    batch: int) -> Tensor | np.ndarray:
    """Cross-attention's keys and values: the null token as a constant for the
    unconditional branch, else the conditioning tokens, with the vfx tokens
    appended to each sample's by one `context` node."""
    if cond is None:
        return np.broadcast_to(params.null_token, (batch, 1, params.width))
    if cond.tokens.shape[0] != batch:
        raise ShapeError(f"conditioning of batch {cond.tokens.shape[0]} for a latent of "
                         f"batch {batch}")
    tokens, vfx = cond.tokens, cond.vfx_tokens
    if vfx is None:
        return tokens
    out = np.concatenate([tokens, np.broadcast_to(vfx.data.reshape((1,) + vfx.shape),
                                                  (batch,) + vfx.shape)], axis=1)
    return fx.record("context", (vfx,), out, _context_vjp, tokens.shape[1], batch)


# An `attn_block` node's inputs after the residual stream x: each projection's
# (b, pi, h, a, h), as the chain's `lora` node listed them, in the order
# `backward` reached the projections: o, whose h (the mixed values) the block
# makes itself, so that only its (b, pi, a) are inputs, then v and k, whose h
# is the context, then q, whose h is x; this maps v, k and q to the index of
# their first input. The single-key shortcut has only o and v.
_SLOT_START = {"v": 4, "k": 9, "q": 14}
# the names under which an `attn_block` vjp keeps a projection's arrays
_KEPT = {slot: tuple(f"{slot}.{name}" for name in ("gated", "down", "b", "a", "h", "w"))
         for slot in "qkvo"}


def _sum_tokens(g: np.ndarray) -> np.ndarray:
    """A (B, N, d) gradient summed to (B, 1, d): the gradient of a (B, 1, d)
    array broadcast over N tokens."""
    return g.sum(axis=(1,), keepdims=True) if g.shape[1] != 1 else g


def _project_grads(g: np.ndarray, kept: dict, slot: str):
    """Yield the (b, pi, h, a, h) gradients of projection `slot` from its
    output's gradient g, as the vjp of its `lora` chain computed them; each is
    None unless `kept` holds what it reads. Each is computed when it is asked
    for, so a caller that adds each into its sum before asking for the next
    holds no more gradients at once than that vjp did."""
    gated, down, bd, ad, hd, wd = map(kept.get, _KEPT[slot])
    yield None if gated is None else np.transpose((np.swapaxes(gated, -1, -2) @ g).sum(axis=(0,)))
    gate = kept.get("gate")
    g_gated = None if bd is None else g @ bd
    yield None if down is None else (
        _sum_tokens(g_gated * down).reshape(gate.shape[0], gate.shape[2]) @ kept["owner"].T)
    g_down = None if ad is None and hd is None else g_gated * gate
    del g_gated
    yield None if ad is None else g_down @ ad
    yield None if hd is None else np.transpose((np.swapaxes(hd, -1, -2) @ g_down).sum(axis=(0,)))
    del g_down
    yield None if wd is None else g @ wd


def _core_grads(g: np.ndarray, kept: dict, lv: bool, lq: bool, lk: bool) -> dict:
    """The gradients of the attention core's v, q and k (those live) from the
    mixed values' gradient g. The softmax adjoint and the scale run in place
    into the fresh g @ v^T."""
    p = kept["p"]
    out = {}
    if lv:
        out["v"] = np.swapaxes(p, -1, -2) @ g
    if lq or lk:
        g_s = g @ np.swapaxes(kept["vd"], -1, -2)
        g_s -= np.sum(g_s * p, axis=-1, keepdims=True)
        g_s *= p
        g_s *= kept["scale"]
        if lq:
            out["q"] = g_s @ np.swapaxes(kept["kt"], -1, -2)
        if lk:
            out["k"] = np.swapaxes(np.swapaxes(kept["qd"], -1, -2) @ g_s, -1, -2)
    return out


def _attn_block_vjp(live, saved, gate, owner, core):
    """The `make_vjp` of an `attn_block` node. `saved` maps each projection the
    block ran to its (gated, down, b, a, h, w) arrays, and `core` is the
    attention core's (p, q, kt, v, scale), None for the single-key shortcut.

    A projection's output is live when one of its inputs is, and the mixed
    values when one of v, k and q is. The vjp keeps what the vjps of the
    chain's live nodes kept: per projection, the gated down output when b is
    live, the down output and `owner` when pi is, b and the gate when any of
    pi, h and a is, a and w when h is and h when a is; for the core, p and the
    scale, and v when q or k is live, k^T when q is and q when k is. It runs
    those vjps in the order `backward` ran them: the residual add, o, the core
    (or the shortcut's broadcast), then v, k and q. It yields the gradients one
    at a time, so `backward` adds each into its sum before the next is made and
    holds no more of them at once than it did for the chain's nodes.
    """
    masks = {slot: live[i:i + 5] for slot, i in _SLOT_START.items() if slot in saved}
    lv, lk, lq = (True in masks.get(slot, ()) for slot in "vkq")
    lm = lv or lk or lq
    masks["o"] = (live[1], live[2], lm, live[3], lm)
    kept = {}
    for slot, (lb, lpi, lh, la, _) in masks.items():
        for name, arr, keep in zip(_KEPT[slot], saved[slot],
                                   (lb, lpi, lpi or lh or la, lh, la, lh)):
            if keep:
                kept[name] = arr
        if lpi or lh or la:
            kept["gate"] = gate
    if live[2]:
        kept["owner"] = owner
    shortcut = core is None
    if lm and not shortcut:
        p, qd, kt, vd, scale = core
        kept.update(p=p, scale=scale)
        if lq or lk:
            kept["vd"] = vd
        if lq:
            kept["kt"] = kt
        if lk:
            kept["qd"] = qd

    def vjp(g):
        yield g if live[0] else None
        gb, gpi, g_up, ga, g_base = _project_grads(g, kept, "o")
        yield from (gb, gpi, ga)
        into = {}
        if lm:
            g_mixed = g_up + g_base
            del g_up, g_base
            into = {"v": _sum_tokens(g_mixed)} if shortcut else _core_grads(g_mixed, kept, lv,
                                                                           lq, lk)
            del g_mixed
        for slot in masks:
            if slot != "o":
                gi = into.pop(slot, None)
                yield from (_project_grads(gi, kept, slot) if gi is not None else (None,) * 5)

    return vjp


def _attention(x: Tensor, kv, params: DenoiserParams, stack: AdapterStack, pi: Tensor,
               layer: str, bias: np.ndarray | None = None) -> Tensor:
    """x plus attention block `layer` of x into the context `kv` (x itself for
    self-attention), as one `attn_block` node.

    The routing gate pi @ owner is formed once; each of the q, k, v and o
    projections is one `moe_forward` call, and the core is softmax(q k^T *
    scale + bias) v, each elementwise step in place on the fresh scores. The
    numpy expressions are those of the lora, lora, lora, attention, lora, add
    chain, in its order, so the value and every gradient keep the chain's
    bytes. Attention into a single key with no bias skips the q and k
    projections and the softmax, whose weight over one key is exactly 1: every
    query reads the one value.

    The node's inputs are x, then o's (b, pi, a), then v's, k's and q's (b, pi,
    h, a, h) (`_SLOT_START`): an input is listed once per path by which the
    chain handed a gradient back to it, in that order, so `backward` adds its
    gradients as it did. `kv` is a Tensor, or a plain array that is a constant.
    x, kv, pi, the bias and the backbone must have one dtype.
    """
    xd, pd, owner = x.data, pi.data, stack.owner
    kvd = kv.data if isinstance(kv, Tensor) else kv
    dt = xd.dtype
    for arr in (kvd, pd, owner) if bias is None else (kvd, pd, owner, bias):
        if arr.dtype != dt:
            raise ParameterError(f"dtype mismatch: {dt} vs {arr.dtype}")
    b = xd.shape[0]
    if xd.ndim != 3 or kvd.ndim != 3 or kvd.shape[0] != b or kvd.shape[2] != xd.shape[2]:
        raise ShapeError(f"attention block needs (B, N, d) tokens and a (B, L, d) context, "
                         f"got x {xd.shape} and kv {kvd.shape}")
    if pd.shape != (b, owner.shape[0]):
        raise ShapeError(f"routing weights {pd.shape} do not match batch {b} and "
                         f"{owner.shape[0]} experts")
    if bias is not None and bias.shape != (xd.shape[1], kvd.shape[1]):
        raise ShapeError(f"attention bias {bias.shape} is not (N_q, N_k) for x {xd.shape} "
                         f"and kv {kvd.shape}")
    gate = (pd @ owner).reshape(b, 1, owner.shape[1])
    adapters, saved = {}, {}

    def project(slot: str, h: np.ndarray) -> np.ndarray:
        adapter = adapters[slot] = stack.layers[f"{layer}.{slot}"]
        w, a, b_ = params.projections[f"{layer}.w{slot}"], adapter.a.data, adapter.b.data
        out, down, gated = moe_forward(h, w, a, b_, gate)
        saved[slot] = (gated, down, b_, a, h, w)
        return out

    if kvd.shape[1] == 1 and bias is None:
        v = project("v", kvd)
        mixed = np.broadcast_to(v, xd.shape[:2] + v.shape[2:])
        core = None
    else:
        q = project("q", xd)
        k = project("k", kvd)
        v = project("v", kvd)
        kt = np.swapaxes(k, -1, -2)
        p = q @ kt  # fresh: scaled, biased and normalised in place
        scale = np.asarray(1.0 / math.sqrt(params.width), dtype=dt)
        p *= scale
        if bias is not None:
            p += bias
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        mixed = p @ v
        core = (p, q, kt, v, scale)
    out = project("o", mixed)
    out += xd  # the residual add, into the fresh projection (x + o's bytes)
    on_o, on_v = adapters["o"], adapters["v"]
    inputs = [x, on_o.b, pi, on_o.a, on_v.b, pi, kv, on_v.a, kv]
    if core is not None:
        on_k, on_q = adapters["k"], adapters["q"]
        inputs += (on_k.b, pi, kv, on_k.a, kv, on_q.b, pi, x, on_q.a, x)
    return fx.record("attn_block", inputs, out, _attn_block_vjp, saved, gate, owner, core)


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
    return _attention(x, x, params, stack, pi, "block0.self", params.self_bias)


def _head(x: Tensor, cond: Conditioning | None, params: DenoiserParams,
          stack: AdapterStack, pi: Tensor) -> Tensor:
    """The rest of a step after `_trunk`: block 0's cross-attention, every later
    block, unembed and unpatchify."""
    kv = _context_tokens(params, cond, x.shape[0])
    x = _attention(x, kv, params, stack, pi, "block0.cross")
    for i in range(1, params.n_blocks):
        x = _attention(x, x, params, stack, pi, f"block{i}.self", params.self_bias)
        x = _attention(x, kv, params, stack, pi, f"block{i}.cross")
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
