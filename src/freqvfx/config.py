"""Configuration dataclasses and JSON-dict conversion helpers.

These dataclasses are the one place a default value is written: the builders
and stage functions take every size and setting from them and default none.

Each dataclass checks the type and range of every field when it is built, so a
malformed config file ends in a `ParameterError` naming the field. Ranges that
depend on another field (top_k against n_experts, total_rank against n_experts,
the latent's spatial dims against patch, steps against num_steps) are checked
by the functions that build from them. A model whose arrays would need more
than MAX_MODEL_ELEMENTS elements is refused before anything is allocated, and
so are a training batch, an embedding and a dataset (`check_elements`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ParameterError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float; a bool is neither, nor is an int too large for a
    float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


_INT = (_is_int, "an integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_SEED = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_REAL = (_is_real, "a finite number")
_NONNEG = (lambda v: _is_real(v) and v >= 0, "a finite number >= 0")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_FRACTION = (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")
_BETAS = (lambda v: isinstance(v, (tuple, list)) and len(v) == 2
         and all(_is_real(b) and 0 <= b < 1 for b in v), "two numbers in [0, 1)")


# 4 GiB of float32: far above the default model's ~2e5 elements
MAX_MODEL_ELEMENTS = 2 ** 30


def check_elements(name: str, count: int, per_item: int) -> None:
    """Refuse `count` arrays of `per_item` elements each when together they pass
    MAX_MODEL_ELEMENTS, naming the field `name` that sets `count`."""
    if count * per_item > MAX_MODEL_ELEMENTS:
        raise ParameterError(f"{name}={count} of {per_item} elements each is more than "
                             f"{MAX_MODEL_ELEMENTS} array elements")


def _check_fields(cfg, checks: dict) -> None:
    """Raise a ParameterError naming the first field whose value fails its
    (predicate, description) check."""
    for name, (ok, need) in checks.items():
        value = getattr(cfg, name)
        if not ok(value):
            raise ParameterError(f"{type(cfg).__name__}.{name} must be {need}, got {value!r}")


@dataclass
class ModelConfig:
    latent_shape: tuple[int, int, int, int] = (8, 4, 8, 8)  # (T, C, h, w)
    width: int = 64
    n_blocks: int = 2
    patch: int = 2
    num_steps: int = 1000
    diag_bias: float = 8.0
    cross_gain: float = 4.0
    n_experts: int = 4
    total_rank: int = 16
    top_k: int = 3
    tau: float = 1.5  # router temperature; >1 softens routing and delays expert collapse
    router_hidden: int = 16
    n_text_tokens: int = 2

    def __post_init__(self):
        _check_fields(self, {
            "latent_shape": (lambda v: isinstance(v, (tuple, list)) and len(v) == 4
                             and all(_is_int(d) and d >= 1 for d in v), "four integers >= 1"),
            "width": _COUNT, "n_blocks": _COUNT, "patch": _COUNT,
            "num_steps": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
            "diag_bias": _REAL, "cross_gain": _POSITIVE, "n_experts": _COUNT,
            "total_rank": _COUNT, "top_k": _INT, "tau": _POSITIVE, "router_hidden": _COUNT,
            "n_text_tokens": _COUNT})
        # elements of the backbone, the adapter stack and one latent video, in
        # integers, keyed by the fields that size them
        t, c, h, w = self.latent_shape
        p, d, m, r = self.patch, self.width, self.n_experts, self.total_rank
        n_tok = t * (h // p) * (w // p)
        parts = {("latent_shape",): t * c * h * w,
                 ("latent_shape", "patch", "width"): n_tok * (n_tok + d) + 3 * d * c * p * p,
                 ("num_steps", "width"): self.num_steps * d,
                 ("n_blocks", "width", "total_rank"): 8 * self.n_blocks * d * (d + 2 * r),
                 ("router_hidden", "n_experts", "total_rank"):
                     self.router_hidden * (7 + m) + m * (1 + r),
                 ("n_text_tokens", "width"): (self.n_text_tokens + 1) * d}
        if sum(parts.values()) > MAX_MODEL_ELEMENTS:
            sizes = ", ".join(f"{n}={getattr(self, n)!r}" for n in max(parts, key=parts.get))
            raise ParameterError(f"ModelConfig {sizes} need more than {MAX_MODEL_ELEMENTS} "
                                 f"array elements")


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 4
    lr: float = 1e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    cond_dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, {
            "steps": _COUNT, "batch_size": _COUNT, "lr": _NONNEG, "weight_decay": _NONNEG,
            "betas": _BETAS, "adam_eps": _POSITIVE, "cond_dropout": _FRACTION, "seed": _SEED})


@dataclass
class SampleConfig:
    steps: int = 30
    cfg_scale: float = 7.5
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, {"steps": _COUNT, "cfg_scale": _NONNEG, "seed": _SEED})


@dataclass
class AdaptConfig:
    steps: int = 100
    lr: float = 0.02
    weight_decay: float = 0.0  # keep 0: decay would move the embedding at zero loss
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    seed: int = 0
    mode: str = "unroll"  # the only construction; kept so configs that name it still load
    sample_steps: int = 8
    sample_cfg: float = 1.0
    sample_seed: int = 0
    t_low_frac: float = 0.25
    t_high_frac: float = 0.75
    n_draws: int = 1  # (t, eps) draws averaged into each step's loss
    embed_tokens: int = 16
    embed_std: float = 0.02

    def __post_init__(self):
        _check_fields(self, {
            "steps": _COUNT, "lr": _NONNEG, "weight_decay": _NONNEG, "betas": _BETAS,
            "adam_eps": _POSITIVE, "seed": _SEED, "sample_steps": _COUNT, "sample_cfg": _NONNEG,
            "sample_seed": _SEED, "t_low_frac": _FRACTION, "t_high_frac": _FRACTION,
            "n_draws": _COUNT, "embed_tokens": _COUNT, "embed_std": _NONNEG})
        if self.mode != "unroll":
            raise ParameterError(
                f"unknown adaptation mode {self.mode!r}; the only mode is 'unroll'")
        if not 0.0 <= self.t_low_frac < self.t_high_frac <= 1.0:
            raise ParameterError("timestep window fractions must satisfy 0 <= low < high <= 1")


def to_dict(cfg) -> dict:
    out = dataclasses.asdict(cfg)
    for k, v in out.items():
        if isinstance(v, tuple):
            out[k] = list(v)
    return out


def from_dict(cls, data: dict):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for k, v in data.items():
        if k not in fields:
            raise ParameterError(f"unknown {cls.__name__} field {k!r}")
        if isinstance(v, list):
            v = tuple(v)
        kwargs[k] = v
    return cls(**kwargs)
