"""Criterion 7's setting, written once: criterion 6's desk run, then a warm-up
toward the low-frequency look and a 100-step `adapt` (8-step unroll, cfg 3, 4
draws) against four high-frequency references. Every stage-2 seed moves by
100 s for a scenario index s; s = 0 is criterion 7's own setting."""

import numpy as np

import freqvfx.tensor as fx
from freqvfx import cli
from freqvfx.adapt import VfxEmbedding, adapt
from freqvfx.config import AdaptConfig, ModelConfig
from freqvfx.denoiser import build_conditioning, build_model
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule
from freqvfx.spectral import joint_descriptor, joint_descriptor_detached
from freqvfx.synthgen import build_dataset, read_dataset
from freqvfx.tensor import Tensor
from freqvfx.train import AdamW, smoothed_endpoints

import oracles


def stage1_model(root):
    """`gen` of 64 + 64 videos and the default `train` in `root`, through the CLI,
    then the checked restore `adapt` and `generate` run: (params, stack,
    schedule, manifest)."""
    for argv in (["gen", "--classes", "lowfreq_field:64,highfreq_particles:64",
                  "--seed", "2024", "--out", str(root / "data")],
                 ["train", "--input", str(root / "data" / "dataset.fvl1"),
                  "--out", str(root / "run")]):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"freqvfx {argv[0]} exited {code}")
    params, stack, schedule, _, manifest, _, _ = cli._restore_model(
        str(root / "run" / "checkpoint.fvl1"))
    return params, stack, schedule, manifest


def adapt_config(steps, s=0):
    """Criterion 7's stage-2 configuration for `steps` adapt steps."""
    return AdaptConfig(steps=steps, sample_cfg=3.0, n_draws=4, seed=100 * s,
                       sample_seed=100 * s)


def stage2_setting(params, s=0):
    """(references, conditioning on them, warm-up target): four high-frequency
    videos and the mean descriptor of four low-frequency ones."""
    high = build_dataset((("highfreq_particles", 4),), 7 + 100 * s, ModelConfig())
    low = build_dataset((("lowfreq_field", 4),), 11 + 100 * s, ModelConfig())
    cond = build_conditioning(params, high["videos"], high["text.highfreq_particles"])
    target = Tensor(joint_descriptor_detached(low["videos"]).mean(axis=0, keepdims=True))
    return high["videos"], cond, target


def warm_up(params, stack, sched, cond, target, s=0):
    """150 steps that drag a fresh embedding toward `target`'s look, so that
    adaptation starts mismatched instead of near-neutral: (embedding, first loss,
    last loss)."""
    cfg = adapt_config(150, s)
    emb = VfxEmbedding.init(np.random.default_rng(cfg.seed), length=cfg.embed_tokens,
                            width=params.width, std=cfg.embed_std)
    opt = AdamW([emb.tokens], lr=0.01, betas=cfg.betas, eps=cfg.adam_eps,
                weight_decay=cfg.weight_decay)
    losses = []
    for _ in range(cfg.steps):
        with fx.Tape(opt.params) as tape:
            gen = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                         steps=cfg.sample_steps, cfg_scale=cfg.sample_cfg,
                         seed=cfg.sample_seed).video
            diff = oracles.sub(joint_descriptor(gen), target)
            loss = oracles.reduce_mean(oracles.reduce_sum(oracles.absolute(diff), axes=(1,)))
        losses.append(float(loss.data))
        opt.step(fx.backward(tape, loss))
    return emb, losses[0], losses[-1]


def adapt_drop(params, stack, sched, refs, cond, emb, s=0):
    """The 100-step `adapt` of `emb`, in place: its 50-step smoothed endpoints."""
    result = adapt(refs, cond, adapt_config(100, s), params, stack, sched, embedding=emb)
    return smoothed_endpoints(result.losses, window=50)


def step_model():
    """The fresh default build, its schedule and 2 + 2 videos, on which the tape
    pins record a train step and an adapt step: (params, stack, schedule, z0, text)."""
    params, stack = build_model(ModelConfig(), np.random.default_rng(0))
    spec = (("lowfreq_field", 2), ("highfreq_particles", 2))
    z0, _, text = read_dataset(build_dataset(spec, 1, ModelConfig()), "dataset")
    return params, stack, NoiseSchedule.cosine(params.num_steps), z0, text
