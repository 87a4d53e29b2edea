"""Configuration dataclasses and JSON-dict conversion helpers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ParameterError


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
    alpha: None = None  # the only value; kept so manifests that record it still load
    tau: float = 1.5  # router temperature; >1 softens routing and delays expert collapse
    router_hidden: int = 16
    n_text_tokens: int = 2

    def __post_init__(self):
        if self.alpha is not None:
            raise ParameterError(
                f"alpha must be null, got {self.alpha!r}; expert updates are unscaled")


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


@dataclass
class SampleConfig:
    steps: int = 30
    cfg_scale: float = 7.5
    seed: int = 0


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
        if self.steps < 1:
            raise ParameterError(f"adaptation needs steps >= 1, got {self.steps}")
        if self.mode != "unroll":
            raise ParameterError(
                f"unknown adaptation mode {self.mode!r}; the only mode is 'unroll'")
        if not 0.0 <= self.t_low_frac < self.t_high_frac <= 1.0:
            raise ParameterError("timestep window fractions must satisfy 0 <= low < high <= 1")
        if self.n_draws < 1:
            raise ParameterError(f"need at least one loss draw per step, got {self.n_draws}")


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
