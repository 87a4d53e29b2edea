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

- `today`: `freqvfx.sampling.ddim_update` as it stands, so the line reads the
  drop criterion 7 reads on the same tree;
- `combine`: the guidance combine written (1 - w) eps_u + w eps_c;
- `update`: the DDIM update written r (z + (c / r) eps_hat).

Each variant is a replacement for `ddim_update` written with tape ops, with
the one expression swapped, and the run patches it in at
`freqvfx.sampling.ddim_update`, where `sample` looks it up; everything else is
the package's sampler. A run takes a few minutes on one core.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import freqvfx.sampling
import freqvfx.tensor as fx
from freqvfx import cli
from freqvfx.adapt import VfxEmbedding, adapt
from freqvfx.config import AdaptConfig, ModelConfig, from_dict
from freqvfx.container import manifest_path_for, read_container_file, read_manifest, restore_state
from freqvfx.denoiser import build_conditioning
from freqvfx.schedule import NoiseSchedule
from freqvfx.spectral import joint_descriptor, joint_descriptor_detached
from freqvfx.synthgen import build_dataset
from freqvfx.tensor import Tensor
from freqvfx.train import AdamW, smoothed_endpoints


def _coefficients(schedule, t, t_next):
    """The update's r = a_n / a_t and c = s_n - r s_t, as `ddim_update` forms them."""
    ratio = schedule.alphas[t_next] / schedule.alphas[t]
    return ratio, schedule.sigmas[t_next] - ratio * schedule.sigmas[t]


def combine_variant(z, eps_c, eps_u, cfg_scale, schedule, t, t_next):
    """`ddim_update` for a guided step with the combine written (1 - w) eps_u + w eps_c."""
    eps_hat = float(1.0 - cfg_scale) * eps_u + float(cfg_scale) * eps_c
    ratio, c = _coefficients(schedule, t, t_next)
    return float(ratio) * z + float(c) * eps_hat


def update_variant(z, eps_c, eps_u, cfg_scale, schedule, t, t_next):
    """`ddim_update` for a guided step with the update written r (z + (c / r) eps_hat)."""
    eps_hat = eps_u + cfg_scale * (eps_c - eps_u)
    ratio, c = _coefficients(schedule, t, t_next)
    return float(ratio) * (z + float(c / ratio) * eps_hat)


ARITHMETICS = {
    "today": freqvfx.sampling.ddim_update,
    "combine": combine_variant,
    "update": update_variant,
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


def adapt_drop(params, stack, sched, update) -> tuple[float, float]:
    """criterion 7's warm-up and 100-step adapt, sampling with `update` in place
    of `ddim_update`; the smoothed first and last losses."""
    high = build_dataset((("highfreq_particles", 4),), 7, ModelConfig())
    low = build_dataset((("lowfreq_field", 4),), 11, ModelConfig())
    cond = build_conditioning(params, high["videos"], high["text.highfreq_particles"])
    target = Tensor(joint_descriptor_detached(low["videos"]).mean(axis=0, keepdims=True))
    acfg = AdaptConfig()
    emb = VfxEmbedding.init(np.random.default_rng(0), length=acfg.embed_tokens,
                            width=params.width, std=acfg.embed_std)
    opt = AdamW([emb.tokens], lr=0.01, betas=acfg.betas, eps=acfg.adam_eps,
                weight_decay=acfg.weight_decay)
    real = freqvfx.sampling.ddim_update
    freqvfx.sampling.ddim_update = update  # `sample`, and so `adapt`, look it up here
    try:
        for _ in range(150):
            with fx.Tape(opt.params) as tape:
                gen = freqvfx.sampling.sample(params, stack, sched, cond.with_vfx(emb.tokens),
                                              steps=8, cfg_scale=3.0, seed=0).video
                jd = joint_descriptor(gen)
                loss = fx.reduce_mean(fx.reduce_sum(fx.absolute(jd - target), axes=(1,)))
            opt.step(fx.backward(tape, loss))
        result = adapt(high["videos"], cond, AdaptConfig(steps=100, sample_cfg=3.0, n_draws=4),
                       params, stack, sched, embedding=emb)
    finally:
        freqvfx.sampling.ddim_update = real
    return smoothed_endpoints(result.losses, window=50)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rounding_probe-") as tmp:
        params, stack, sched = stage1_model(Path(tmp))
    for name, update in ARITHMETICS.items():
        first, last = adapt_drop(params, stack, sched, update)
        print(f"{name:8s} drop {1.0 - last / first:6.1%}  smoothed L_f {first:.4f} -> {last:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
