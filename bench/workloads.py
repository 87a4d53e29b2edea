"""The benchmark workloads: each drives one freqvfx stage through `freqvfx.cli.main`.

A workload's `setup` writes its inputs and configs into a fresh directory
(``gen`` plus whatever earlier stages the measured one needs), `call` runs one
stage invocation there, and `check` verifies that invocation's outputs. Every
input comes from the workload seed; stage seeds stay at their config defaults,
as a user's config file would leave them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from freqvfx.adapt import VfxEmbedding
from freqvfx.cli import main as cli_main
from freqvfx.config import AdaptConfig, ModelConfig
from freqvfx.container import read_container_file
from freqvfx.denoiser import build_denoiser
from freqvfx.spectral import joint_descriptor_detached
from freqvfx.train import smoothed_endpoints

SIMPLEX_TOL = 1e-6
# the criterion-7 stage-2 configuration
ADAPT_UNROLL = {"mode": "unroll", "sample_steps": 8, "sample_cfg": 3.0, "n_draws": 4}


class StageFailed(Exception):
    """A CLI stage returned a nonzero exit code."""


def cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise StageFailed(f"freqvfx {argv[0]} exited with code {code}")


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def gen(out: str, classes: str, seed: int) -> str:
    cli("gen", "--out", out, "--classes", classes, "--seed", str(seed))
    return os.path.join(out, "dataset.fvl1")


def train_checkpoint(d: str, seed: int, steps: int) -> str:
    """A short stage-1 run on a small two-class dataset, for stages that need a checkpoint."""
    data = gen(os.path.join(d, "train_data"), "lowfreq_field:16,highfreq_particles:16", 2 * seed)
    cfg = write_json(os.path.join(d, "ckpt.json"), {"train": {"steps": steps, "batch_size": 4}})
    cli("train", "--input", data, "--config", cfg, "--out", os.path.join(d, "ckpt"))
    return os.path.join(d, "ckpt", "checkpoint.fvl1")


class Workload:
    """`setup(d)`, `call(i)` and `check(i)` (the problems found in the outputs of
    call i, empty when correct) are defined by each workload."""

    name = ""
    steps_per_call = 1  # stage steps in one call: optimizer steps, or sampler steps
    ratio_calls = 1  # loss_ratio averages the first calls, so the seed fixes it
    min_calls = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.ratios: list[float] = []

    def call_seed(self, i: int) -> int:
        """Stage seed of call i, for workloads that give each call a fresh one."""
        return self.seed * 100_000 + i

    def record_ratio(self, i: int, ratio) -> None:
        if i < self.ratio_calls:
            self.ratios.append(float(ratio))

    def extra_checks(self) -> tuple[int, list[str]]:
        """Operations beyond the measured calls, and their problems."""
        return 0, []

    def loss_ratio(self) -> float:
        return float(np.mean(self.ratios))


class TrainDesk(Workload):
    """`train` at the default model, batch 4, on 64 + 64 videos, a fresh seed per call."""

    name = "train-desk"
    steps_per_call = 100
    ratio_calls = 4
    min_calls = 4

    def setup(self, d: str) -> None:
        self.data = gen(os.path.join(d, "data"), "lowfreq_field:64,highfreq_particles:64",
                        self.seed)
        self.cfg = write_json(os.path.join(d, "train.json"),
                              {"train": {"steps": self.steps_per_call, "batch_size": 4}})
        warm = write_json(os.path.join(d, "warmup.json"), {"train": {"steps": 2, "batch_size": 4}})
        cli("train", "--input", self.data, "--config", warm, "--out", os.path.join(d, "warmup"))
        self.out = os.path.join(d, "run")

    def call(self, i: int) -> None:
        cli("train", "--input", self.data, "--config", self.cfg, "--out", self.out,
            "--seed", str(self.call_seed(i)))

    def check(self, i: int) -> list[str]:
        entries = read_container_file(os.path.join(self.out, "checkpoint.fvl1"))
        problems = []
        m = ModelConfig()
        fresh = build_denoiser(np.random.default_rng(self.call_seed(i)),
                               latent_shape=tuple(m.latent_shape), width=m.width,
                               n_blocks=m.n_blocks, patch=m.patch, num_steps=m.num_steps,
                               diag_bias=m.diag_bias, cross_gain=m.cross_gain)
        for name, t in fresh.named_arrays().items():
            stored = entries.get(name)
            if stored is None or stored.dtype != t.data.dtype or \
                    stored.tobytes() != t.data.tobytes():
                problems.append(f"backbone entry {name} differs from a fresh build")
        losses = self.losses()
        if not np.all(np.isfinite(losses)):
            problems.append("loss trace is not finite")
        first, last = smoothed_endpoints(losses, window=self.steps_per_call // 2)
        self.record_ratio(i, last / first)
        return problems

    def losses(self) -> np.ndarray:
        """One loss per step from metrics.csv, which repeats it for each class in the batch."""
        rows = np.loadtxt(os.path.join(self.out, "metrics.csv"), delimiter=",", skiprows=1,
                          ndmin=2)
        _, first_rows = np.unique(rows[:, 0], return_index=True)
        return rows[first_rows, 1]


class AdaptUnroll(Workload):
    """`adapt` in the criterion-7 configuration on 4 high-frequency references."""

    name = "adapt-unroll"
    steps_per_call = 5

    def setup(self, d: str) -> None:
        self.ckpt = train_checkpoint(d, self.seed, steps=20)
        self.ref = gen(os.path.join(d, "ref"), "highfreq_particles:4", 2 * self.seed + 1)
        self.cfg = write_json(os.path.join(d, "adapt.json"),
                              {"adapt": {"steps": self.steps_per_call, **ADAPT_UNROLL}})
        warm = write_json(os.path.join(d, "warmup.json"),
                          {"adapt": {**ADAPT_UNROLL, "steps": 1, "n_draws": 1}})
        cli("adapt", "--checkpoint", self.ckpt, "--input", self.ref, "--config", warm,
            "--out", os.path.join(d, "warmup"))
        self.out = os.path.join(d, "run")
        self.ckpt_entries = read_container_file(self.ckpt)
        cfg = AdaptConfig(**ADAPT_UNROLL)
        self.init_tokens = VfxEmbedding.init(
            np.random.default_rng(cfg.seed), length=cfg.embed_tokens,
            width=ModelConfig().width, std=cfg.embed_std).tokens.data

    def call(self, i: int) -> None:
        cli("adapt", "--checkpoint", self.ckpt, "--input", self.ref, "--config", self.cfg,
            "--out", self.out)

    def check(self, i: int) -> list[str]:
        entries = read_container_file(os.path.join(self.out, "adapted.fvl1"))
        problems = []
        added = set(entries) - set(self.ckpt_entries)
        if added != {"vfx_embedding.tokens"}:
            problems.append(f"adapted checkpoint adds {sorted(added)}")
        for name, before in self.ckpt_entries.items():
            after = entries.get(name)
            if after is None or after.tobytes() != before.tobytes():
                problems.append(f"frozen entry {name} changed")
        tokens = entries.get("vfx_embedding.tokens")
        if tokens is not None and np.array_equal(tokens, self.init_tokens):
            problems.append("embedding tokens did not move")
        losses = np.loadtxt(os.path.join(self.out, "trace.csv"), delimiter=",", skiprows=1,
                            ndmin=2)[:, 2]
        if not np.all(np.isfinite(losses)):
            problems.append("L_f trace is not finite")
        first, last = smoothed_endpoints(losses, window=self.steps_per_call // 2)
        self.record_ratio(i, last / first)
        return problems


class GenerateCfg(Workload):
    """30-step cfg-7.5 `generate` at batch 1 with an adapted embedding, fresh seed per call."""

    name = "generate-cfg"
    steps_per_call = 30
    ratio_calls = 8
    min_calls = 8

    def setup(self, d: str) -> None:
        self.dir = d
        self.ckpt = train_checkpoint(d, self.seed, steps=20)
        self.cond = gen(os.path.join(d, "cond"), "highfreq_particles:1", 2 * self.seed + 1)
        emb_cfg = write_json(os.path.join(d, "emb.json"),
                             {"adapt": {"steps": 2, "sample_steps": 4, "n_draws": 1}})
        cli("adapt", "--checkpoint", self.ckpt, "--input", self.cond, "--config", emb_cfg,
            "--out", os.path.join(d, "emb"))
        self.embedding = os.path.join(d, "emb", "adapted.fvl1")
        self.cfg = write_json(os.path.join(d, "sample.json"),
                              {"sample": {"steps": self.steps_per_call, "cfg_scale": 7.5}})
        warm = write_json(os.path.join(d, "warmup.json"), {"sample": {"steps": 2, "cfg_scale": 7.5}})
        self._generate(warm, os.path.join(d, "warmup"), 0)
        self.out = os.path.join(d, "run")
        self.top_k = ModelConfig().top_k
        self.ref_desc = None
        self.first_sha = None

    def _generate(self, cfg: str, out: str, seed: int) -> None:
        cli("generate", "--checkpoint", self.ckpt, "--input", self.cond,
            "--embedding", self.embedding, "--config", cfg, "--out", out,
            "--seed", str(seed))

    def call(self, i: int) -> None:
        self._generate(self.cfg, self.out, self.call_seed(i))

    def check(self, i: int) -> list[str]:
        path = os.path.join(self.out, "sample.fvl1")
        entries = read_container_file(path)
        problems = []
        video, desc, pi = entries["video"], entries["descriptors"], entries["pi_cond"]
        if not np.all(np.isfinite(video)):
            problems.append("sample is not finite")
        for half in (desc[..., :3], desc[..., 3:]):
            if np.any(half < -SIMPLEX_TOL) or \
                    np.max(np.abs(half.sum(axis=-1) - 1.0)) > SIMPLEX_TOL:
                problems.append("descriptor half off the simplex")
        if np.max(np.abs(pi.sum(axis=-1) - 1.0)) > SIMPLEX_TOL:
            problems.append("routing rows do not sum to 1")
        if np.max(np.count_nonzero(pi, axis=-1)) > self.top_k:
            problems.append(f"routing rows have more than top_k={self.top_k} experts")
        if i == 0:
            self.first_sha = file_sha256(path)
        if i < self.ratio_calls:
            self.record_ratio(i, self.descriptor_ratio(video, desc))
        return problems

    def descriptor_ratio(self, video: np.ndarray, desc: np.ndarray) -> float:
        """L1 descriptor distance to the reference: final sample over initial noise."""
        if self.ref_desc is None:
            self.ref_desc = joint_descriptor_detached(read_container_file(self.cond)["videos"])
        final = np.abs(joint_descriptor_detached(video) - self.ref_desc).sum()
        start = np.abs(desc[0] - self.ref_desc).sum()
        return float(final / start)

    def extra_checks(self) -> tuple[int, list[str]]:
        """Re-run the first call's seed; the sample must repeat byte for byte."""
        out = os.path.join(self.dir, "repeat")
        self._generate(self.cfg, out, self.call_seed(0))
        if file_sha256(os.path.join(out, "sample.fvl1")) != self.first_sha:
            return 1, ["same seed gave different sample bytes"]
        return 1, []


WORKLOADS = {w.name: w for w in (TrainDesk, AdaptUnroll, GenerateCfg)}
