"""Command-line surface tying the pipeline stages together.

Subcommands:

* ``gen``       synthetic labeled dataset -> dataset.fvl1
* ``analyze``   joint descriptors of every video in a container -> CSV
* ``train``     router + expert training -> checkpoint.fvl1 + metrics.csv
* ``adapt``     per-reference embedding fit -> adapted.fvl1 + trace.csv
* ``generate``  guided sampling from a checkpoint -> sample.fvl1 + CSV
* ``report``    re-emit the descriptor CSV from a stored trajectory
* ``selfcheck`` built-in invariant suite

Every artifact-writing run drops a ``<artifact>.manifest.json`` beside its
output recording config, seeds, and the sha256 of each input, so any stage can
verify what its predecessor ran with. Exit codes: 0 success, 1 failed checks
or incompatible/corrupt artifacts, 2 usage errors (bad flags, missing files,
malformed config).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .adapt import adapt
from .config import AdaptConfig, ModelConfig, SampleConfig, TrainConfig, from_dict, to_dict
from .container import (RunManifest, check_config_compatible, manifest_path_for,
                        read_container_file, read_manifest, restore_state, save_checkpoint,
                        sha256_file, write_container_file, write_manifest)
from .denoiser import build_adapter_stack, build_conditioning, build_denoiser
from .errors import ContainerError, FreqVfxError, ParameterError, ShapeError
from .reports import adapt_trace_csv, emit_spectral_report, train_metrics_csv, write_text
from .sampling import sample
from .schedule import NoiseSchedule
from .selfcheck import run_selfcheck
from .spectral import joint_descriptor_detached
from .synthgen import CLASS_REGISTRY, Sample, build_dataset
from .tensor import Tensor
from .train import class_routing_separation, smoothed_endpoints, train_stage1

_CLASSES_BY_ID = {c.class_id: c for c in CLASS_REGISTRY.values()}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return doc


def _section(doc: dict, name: str, cls):
    return from_dict(cls, doc.get(name, {}))


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _input_hash(path: str) -> dict:
    return {os.path.basename(path): sha256_file(path)}


def _parse_class_spec(text: str):
    spec = []
    for part in text.split(","):
        name, _, count = part.partition(":")
        name = name.strip()
        if name not in CLASS_REGISTRY:
            raise ParameterError(
                f"unknown effect class {name!r}; choose from {sorted(CLASS_REGISTRY)}")
        try:
            n = int(count)
        except ValueError:
            raise ParameterError(f"bad class count in {part!r}") from None
        spec.append((CLASS_REGISTRY[name], n))
    return tuple(spec)


def _dataset_entries(dataset) -> dict[str, np.ndarray]:
    videos = np.stack([s.video for s in dataset.samples])
    class_ids = np.array([s.class_id for s in dataset.samples], dtype=np.float64)
    entries = {"videos": videos, "class_ids": class_ids}
    for s in dataset.samples:
        entries.setdefault(f"text.{s.effect.name}", s.text_tokens)
    return entries


def _entry(entries: dict[str, np.ndarray], name: str, source: str) -> np.ndarray:
    """A container entry that must be there; a missing one is a corrupt artifact."""
    if name not in entries:
        raise ContainerError(f"{source} has no {name!r} entry")
    return entries[name]


def _samples_from_entries(entries: dict[str, np.ndarray]) -> list[Sample]:
    """The labeled samples of a dataset container; a missing entry or a class id
    that names no effect class is a ContainerError naming the entry."""
    videos = _entry(entries, "videos", "dataset")
    class_ids = _entry(entries, "class_ids", "dataset")
    if videos.ndim < 1 or class_ids.shape != videos.shape[:1]:
        raise ContainerError(f"'class_ids' {class_ids.shape} does not give one id per "
                             f"video of 'videos' {videos.shape}")
    samples = []
    for video, cid in zip(videos, class_ids):
        effect = _CLASSES_BY_ID.get(float(cid))  # NaN and non-integers match no id
        if effect is None:
            raise ContainerError(f"'class_ids' holds {cid!r}, which names no effect class; "
                                 f"known ids: {sorted(_CLASSES_BY_ID)}")
        tokens = _entry(entries, f"text.{effect.name}", "dataset")
        samples.append(Sample(video=video, effect=effect, class_id=effect.class_id,
                              text_tokens=tokens))
    return samples


def _build_model(model_cfg: ModelConfig, rng: np.random.Generator):
    """Backbone, then adapter stack, drawn from `rng` in that order."""
    params = build_denoiser(rng, latent_shape=tuple(model_cfg.latent_shape),
                            width=model_cfg.width, n_blocks=model_cfg.n_blocks,
                            patch=model_cfg.patch, num_steps=model_cfg.num_steps,
                            diag_bias=model_cfg.diag_bias,
                            cross_gain=model_cfg.cross_gain)
    stack = build_adapter_stack(rng, params, n_experts=model_cfg.n_experts,
                                total_rank=model_cfg.total_rank, top_k=model_cfg.top_k,
                                tau=model_cfg.tau, router_hidden=model_cfg.router_hidden)
    return params, stack


def _restore_model(checkpoint_path: str):
    """Rebuild params/stack/schedule bit-exactly from a checkpoint + manifest."""
    manifest_path = manifest_path_for(checkpoint_path)
    manifest = read_manifest(manifest_path)
    if "model" not in manifest.config:
        raise ContainerError(f"manifest {manifest_path} has no 'model' config section")
    model_cfg = from_dict(ModelConfig, manifest.config["model"])
    params, stack = _build_model(model_cfg, np.random.default_rng(0))
    entries = read_container_file(checkpoint_path)
    restore_state(entries, params, stack)
    schedule = NoiseSchedule(alphas=_entry(entries, "schedule.alphas", checkpoint_path),
                             sigmas=_entry(entries, "schedule.sigmas", checkpoint_path))
    return params, stack, schedule, entries, manifest


def _stored_text_tokens(entries: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    prefix = "cond.text."
    return {name[len(prefix):]: arr for name, arr in entries.items()
            if name.startswith(prefix)}


def _pick_text(entries: dict[str, np.ndarray], class_name: str | None,
               source: str) -> np.ndarray:
    """The stored text tokens of `class_name` (default: the first stored class);
    a checkpoint with none is corrupt, an unknown class a usage error."""
    stored = _stored_text_tokens(entries)
    if not stored:
        raise ContainerError(f"{source} has no 'cond.text.<class>' entry")
    if class_name is None:
        class_name = sorted(stored)[0]
    if class_name not in stored:
        raise ParameterError(
            f"no text tokens for class {class_name!r}; stored: {sorted(stored)}")
    return stored[class_name]


def _load_embedding(path: str, params) -> Tensor:
    """The adapted vfx tokens of an embedding container, checked against the model."""
    entries = read_container_file(path)
    if "vfx_embedding.tokens" not in entries:
        raise ContainerError(f"{path} holds no adapted embedding")
    tokens = entries["vfx_embedding.tokens"]
    dtype, width = params.embed_w.dtype, params.width
    if tokens.dtype != dtype or tokens.ndim != 2 or tokens.shape[0] < 1 \
            or tokens.shape[1] != width:
        raise ContainerError(f"{path}: vfx_embedding.tokens is {tokens.dtype} "
                             f"{tokens.shape}, the model needs {dtype} (L >= 1, {width})")
    if not np.isfinite(tokens).all():
        raise ContainerError(f"{path}: vfx_embedding.tokens holds non-finite values")
    return Tensor(tokens)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    doc = _load_config(args.config)
    model = _section(doc, "model", ModelConfig)
    spec = _parse_class_spec(args.classes)
    dataset = build_dataset(spec, args.seed, latent_shape=tuple(model.latent_shape),
                            text_width=model.width, n_text_tokens=model.n_text_tokens)
    out = os.path.join(_outdir(args), "dataset.fvl1")
    write_container_file(out, _dataset_entries(dataset))
    manifest = RunManifest(
        stage="gen",
        config={"classes": [[c.name, n] for c, n in spec], "model": to_dict(model)},
        seeds={"seed": args.seed})
    write_manifest(manifest_path_for(out), manifest)
    print(f"wrote {out} ({len(dataset.samples)} samples)")
    return 0


def cmd_analyze(args) -> int:
    entries = read_container_file(args.input)
    desc = joint_descriptor_detached(Tensor(_entry(entries, "videos", args.input)))
    csv = emit_spectral_report(desc, timesteps=np.arange(desc.shape[0]))
    out = os.path.join(_outdir(args), "descriptors.csv")
    write_text(out, csv)
    manifest = RunManifest(stage="analyze", config={}, seeds={"seed": args.seed},
                           inputs=_input_hash(args.input))
    write_manifest(manifest_path_for(out), manifest)
    print(f"wrote {out} ({desc.shape[0]} rows)")
    return 0


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    model = _section(doc, "model", ModelConfig)
    train_cfg = _section(doc, "train", TrainConfig)
    if args.seed is not None:
        train_cfg.seed = args.seed

    samples = _samples_from_entries(read_container_file(args.input))
    params, stack = _build_model(model, np.random.default_rng(train_cfg.seed))
    schedule = NoiseSchedule.cosine(model.num_steps)
    result = train_stage1(samples, train_cfg, params, stack, schedule)

    first, last = smoothed_endpoints(result.losses)
    extra = {
        "loss_ratio_threshold": 0.5,
        "routing_separation_threshold": 0.1,
        "smoothed_initial_loss": first,
        "smoothed_final_loss": last,
        "loss_ratio": last / first if first else float("nan"),
    }
    try:
        extra["routing_separation_l1"] = class_routing_separation(result.metrics)
    except ParameterError:
        pass  # single-class dataset: separation undefined

    out = os.path.join(_outdir(args), "checkpoint.fvl1")
    text_tokens = {s.effect.name: s.text_tokens for s in samples}
    manifest = RunManifest(stage="train",
                           config={"model": to_dict(model), "train": to_dict(train_cfg)},
                           seeds={"seed": train_cfg.seed},
                           inputs=_input_hash(args.input), extra=extra)
    save_checkpoint(out, params, stack, schedule, text_tokens=text_tokens,
                    manifest=manifest)
    write_text(os.path.join(args.out, "metrics.csv"), train_metrics_csv(result.metrics))
    print(f"wrote {out} (loss {first:.4f} -> {last:.4f})")
    return 0


def cmd_adapt(args) -> int:
    doc = _load_config(args.config)
    adapt_cfg = _section(doc, "adapt", AdaptConfig)
    if args.seed is not None:
        adapt_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest = _restore_model(args.checkpoint)
    ref = _entry(read_container_file(args.input), "videos", args.input).astype(np.float32)
    text = _pick_text(entries, args.class_name, args.checkpoint)
    cond = build_conditioning(params, ref, text)

    result = adapt(ref, cond, adapt_cfg, params, stack, schedule)
    first, last = smoothed_endpoints(result.losses, window=10)

    out = os.path.join(_outdir(args), "adapted.fvl1")
    manifest = RunManifest(
        stage="adapt",
        config={"model": ckpt_manifest.config["model"], "adapt": to_dict(adapt_cfg)},
        seeds={"seed": adapt_cfg.seed},
        inputs={**_input_hash(args.checkpoint), **_input_hash(args.input)},
        extra={"smoothed_initial_loss": first, "smoothed_final_loss": last,
               "loss_reduction": 1.0 - last / first if first else 0.0})
    save_checkpoint(out, params, stack, schedule, embedding=result.embedding,
                    text_tokens=_stored_text_tokens(entries), manifest=manifest)
    write_text(os.path.join(args.out, "trace.csv"), adapt_trace_csv(result.trace))
    print(f"wrote {out} (L_f {first:.4f} -> {last:.4f})")
    return 0


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    sample_cfg = _section(doc, "sample", SampleConfig)
    if args.seed is not None:
        sample_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest = _restore_model(args.checkpoint)
    if "model" in doc:
        check_config_compatible(ckpt_manifest.config["model"], doc["model"],
                                stage=ckpt_manifest.stage)

    z0 = _entry(read_container_file(args.input), "videos", args.input).astype(np.float32)
    text = _pick_text(entries, args.class_name, args.checkpoint)
    cond = build_conditioning(params, z0, text)

    inputs = {**_input_hash(args.checkpoint), **_input_hash(args.input)}
    if args.embedding is not None:
        cond = cond.with_vfx(_load_embedding(args.embedding, params))
        inputs.update(_input_hash(args.embedding))

    result = sample(params, stack, schedule, cond, steps=sample_cfg.steps,
                    cfg_scale=sample_cfg.cfg_scale, seed=sample_cfg.seed)

    out = os.path.join(_outdir(args), "sample.fvl1")
    entries_out = {
        "video": result.video.data,
        "descriptors": result.descriptors,
        "timesteps": result.timesteps[:-1].astype(np.float64),
    }
    if result.pi_cond is not None:
        entries_out["pi_cond"] = result.pi_cond
    write_container_file(out, entries_out)
    manifest = RunManifest(
        stage="generate",
        config={"model": ckpt_manifest.config["model"], "sample": to_dict(sample_cfg)},
        seeds={"seed": sample_cfg.seed}, inputs=inputs)
    write_manifest(manifest_path_for(out), manifest)
    csv = emit_spectral_report(result.descriptors, timesteps=result.timesteps[:-1])
    write_text(os.path.join(args.out, "spectral.csv"), csv)
    print(f"wrote {out} (batch {result.video.shape[0]}, {sample_cfg.steps} steps)")
    return 0


def cmd_report(args) -> int:
    entries = read_container_file(args.input)
    descriptors = _entry(entries, "descriptors", args.input)
    ts = entries.get("timesteps")
    csv = emit_spectral_report(descriptors,
                               timesteps=None if ts is None else ts.astype(np.int64))
    out = os.path.join(_outdir(args), "spectral.csv")
    write_text(out, csv)
    manifest = RunManifest(stage="report", config={}, seeds={},
                           inputs=_input_hash(args.input))
    write_manifest(manifest_path_for(out), manifest)
    print(f"wrote {out}")
    return 0


def cmd_selfcheck(args) -> int:
    failures = run_selfcheck(seed=args.seed)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freqvfx",
                                     description="frequency-routed video effects toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=None,
                       help="override the stage seed")
        p.add_argument("--config", default=None, help="JSON config file")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="write a synthetic labeled dataset")
    common(p)
    p.add_argument("--classes", default="lowfreq_field:4,highfreq_particles:4",
                   help="comma list of name:count pairs")
    p.set_defaults(fn=cmd_gen, seed=0)

    p = sub.add_parser("analyze", help="joint descriptors of stored videos")
    common(p)
    p.add_argument("--input", required=True, help="container with a 'videos' entry")
    p.set_defaults(fn=cmd_analyze, seed=0)

    p = sub.add_parser("train", help="router + expert training")
    common(p)
    p.add_argument("--input", required=True, help="dataset container")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("adapt", help="fit the embedding to a reference")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="reference video container")
    p.add_argument("--class-name", default=None, help="conditioning class")
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("generate", help="guided sampling from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="conditioning video container")
    p.add_argument("--embedding", default=None, help="adapted embedding container")
    p.add_argument("--class-name", default=None, help="conditioning class")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("report", help="descriptor trajectory to CSV")
    common(p)
    p.add_argument("--input", required=True, help="container with 'descriptors'")
    p.set_defaults(fn=cmd_report, seed=0)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParameterError, ShapeError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FreqVfxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
