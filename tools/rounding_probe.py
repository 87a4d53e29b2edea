"""Criterion 7's smoothed L_f drop under three arithmetics of the sampler step
that agree in exact arithmetic and differ only in rounding.

    PYTHONPATH=src python3 tools/rounding_probe.py

It rebuilds criterion 7's setting (`tests/test_acceptance.py`): `gen` of 64
`lowfreq_field` + 64 `highfreq_particles` videos at seed 2024 and the default
2000-step `train`, both through the CLI in a temporary directory; the 150-step
warm-up that drags a fresh embedding toward the low-frequency look; and the
100-step `adapt` (8 sampler steps, cfg 3, 4 draws) against four
high-frequency references. The warm-up and the adapt run once per arithmetic,
each sampling with it, and the tool prints the drop 1 - last / first of the
50-step smoothed losses:

- `today`: `freqvfx.sampling.sample` as it stands, so the line reads the drop
  criterion 7 reads on the same tree;
- `combine`: the guidance combine written (1 - w) eps_u + w eps_c;
- `update`: the DDIM update written r (z + (c / r) eps_hat).

The two variants run this file's copy of the guided sampler step, with the
one expression swapped, in place of `freqvfx.adapt.sample`. A run takes a few
minutes on one core.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import freqvfx.adapt
import freqvfx.sampling
import freqvfx.tensor as fx
from freqvfx import cli
from freqvfx.adapt import VfxEmbedding, adapt
from freqvfx.config import AdaptConfig, ModelConfig, from_dict
from freqvfx.container import manifest_path_for, read_container_file, read_manifest, restore_state
from freqvfx.denoiser import build_conditioning, denoise_guided
from freqvfx.errors import SamplingDivergedError
from freqvfx.moe import route
from freqvfx.schedule import NoiseSchedule, sampling_grid
from freqvfx.spectral import joint_descriptor, joint_descriptor_detached
from freqvfx.synthgen import build_dataset
from freqvfx.tensor import Tensor
from freqvfx.train import AdamW, smoothed_endpoints


def _today_combine(eps_c, eps_u, w):
    return eps_u + w * (eps_c - eps_u)


def _today_update(z, eps_hat, ratio, c):
    return float(ratio) * z + float(c) * eps_hat


def _guided_sampler(combine, update):
    """`sample` for cfg != 1 with the guidance combine and the DDIM update
    replaced; the rest is `freqvfx.sampling.sample`'s guided step."""
    def sample(params, stack, schedule, cond, *, steps, cfg_scale, seed):
        grid = sampling_grid(schedule.num_steps, steps)
        shape = (cond.image_tokens.shape[0],) + params.latent_shape
        z = Tensor(np.random.default_rng(seed).standard_normal(shape)
                   .astype(params.embed_w.dtype))
        for k in range(steps):
            t, t_next = int(grid[k]), int(grid[k + 1])
            with np.errstate(over="ignore", invalid="ignore"):
                pi = route(joint_descriptor_detached(z), stack.router, stack.top_k)
                eps_c, eps_u = denoise_guided(z, t, cond, params, stack, pi=pi)
                eps_hat = combine(eps_c, eps_u, cfg_scale)
                ratio = schedule.alphas[t_next] / schedule.alphas[t]
                c = schedule.sigmas[t_next] - ratio * schedule.sigmas[t]
                z = update(z, eps_hat, ratio, c)
            if not np.isfinite(z.data).all():
                raise SamplingDivergedError(k)
        return SimpleNamespace(video=z)
    return sample


ARITHMETICS = {
    "today": freqvfx.sampling.sample,
    "combine": _guided_sampler(lambda eps_c, eps_u, w: float(1.0 - w) * eps_u + float(w) * eps_c,
                               _today_update),
    "update": _guided_sampler(_today_combine,
                              lambda z, eps_hat, ratio, c: float(ratio) * (
                                  z + float(c / ratio) * eps_hat)),
}


def stage1_model(root: Path):
    """criterion 6's run: the default `train` on the seed-2024 dataset."""
    for argv in (["gen", "--classes", "lowfreq_field:64,highfreq_particles:64",
                  "--seed", "2024", "--out", str(root / "data")],
                 ["train", "--input", str(root / "data" / "dataset.fvl1"),
                  "--out", str(root / "run")]):
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"freqvfx {argv[0]} exited {code}")
    ckpt = str(root / "run" / "checkpoint.fvl1")
    manifest = read_manifest(manifest_path_for(ckpt))
    entries = read_container_file(ckpt)
    params, stack = restore_state(entries, from_dict(ModelConfig, manifest.config["model"]))
    schedule = NoiseSchedule(alphas=entries["schedule.alphas"],
                             sigmas=entries["schedule.sigmas"])
    return params, stack, schedule


def adapt_drop(params, stack, sched, sample) -> tuple[float, float]:
    """criterion 7's warm-up and 100-step adapt, sampling with `sample`; the
    smoothed first and last losses."""
    high = build_dataset((("highfreq_particles", 4),), 7, ModelConfig())
    low = build_dataset((("lowfreq_field", 4),), 11, ModelConfig())
    cond = build_conditioning(params, high["videos"], high["text.highfreq_particles"])
    target = Tensor(joint_descriptor_detached(low["videos"]).mean(axis=0, keepdims=True))
    acfg = AdaptConfig()
    emb = VfxEmbedding.init(np.random.default_rng(0), length=acfg.embed_tokens,
                            width=params.width, std=acfg.embed_std)
    opt = AdamW([emb.tokens], lr=0.01, betas=acfg.betas, eps=acfg.adam_eps,
                weight_decay=acfg.weight_decay)
    for _ in range(150):
        with fx.Tape(opt.params) as tape:
            gen = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                         steps=8, cfg_scale=3.0, seed=0).video
            jd = joint_descriptor(gen)
            loss = fx.reduce_mean(fx.reduce_sum(fx.absolute(jd - target), axes=(1,)))
        opt.step(fx.backward(tape, loss))
    real = freqvfx.adapt.sample
    freqvfx.adapt.sample = sample
    try:
        result = adapt(high["videos"], cond, AdaptConfig(steps=100, sample_cfg=3.0, n_draws=4),
                       params, stack, sched, embedding=emb)
    finally:
        freqvfx.adapt.sample = real
    return smoothed_endpoints(result.losses, window=50)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rounding_probe-") as tmp:
        params, stack, sched = stage1_model(Path(tmp))
    for name, sample in ARITHMETICS.items():
        first, last = adapt_drop(params, stack, sched, sample)
        print(f"{name:8s} drop {1.0 - last / first:6.1%}  smoothed L_f {first:.4f} -> {last:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
