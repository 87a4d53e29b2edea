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
verify what its predecessor ran with. A stage checks what it reads, and what
it writes, against `container.SCHEMA`. Exit codes: 0 success, 1 failed checks
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
from .container import (RunManifest, check_config_compatible, check_entries,
                        checkpoint_entries, manifest_path_for, read_container_file,
                        read_manifest, restore_state, sha256_file, write_container_file,
                        write_manifest)
from .denoiser import build_conditioning, build_model
from .errors import ContainerError, FreqVfxError, ParameterError, ShapeError
from .reports import adapt_trace_csv, emit_spectral_report, train_metrics_csv, write_text
from .sampling import sample
from .schedule import NoiseSchedule
from .selfcheck import run_selfcheck
from .spectral import joint_descriptor_detached
from .synthgen import CLASS_NAMES, build_dataset, read_dataset
from .tensor import Tensor
from .train import class_routing_separation, smoothed_endpoints, train_stage1


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as err:  # malformed JSON or not UTF-8
        raise ParameterError(f"config file {path} is not UTF-8 JSON text: {err}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return doc


def _section(doc: dict, name: str, cls):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ParameterError(f"config section {name!r} must be a JSON object, "
                             f"got {section!r}")
    return from_dict(cls, section)


def _seed(text: str) -> int:
    """A `--seed` value: an integer >= 0, as numpy's generators take it. argparse
    reports a non-integer as an invalid value itself."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _input_hash(path: str) -> dict:
    return {os.path.basename(path): sha256_file(path)}


def _parse_class_spec(text: str) -> tuple[tuple[str, int], ...]:
    spec = []
    for part in text.split(","):
        name, _, count = part.partition(":")
        try:
            spec.append((name.strip(), int(count)))
        except ValueError:
            raise ParameterError(f"bad class count in {part!r}") from None
    return tuple(spec)


def _restore_model(checkpoint_path: str):
    """Rebuild params/stack/schedule bit-exactly from a checkpoint + manifest, each
    entry checked against the recorded model (`restore_state`, `check_entries`)."""
    manifest_path = manifest_path_for(checkpoint_path)
    manifest = read_manifest(manifest_path)
    section = manifest.config.get("model") if isinstance(manifest.config, dict) else None
    if not isinstance(section, dict):
        raise ContainerError(f"manifest {manifest_path} has no 'model' config section "
                             f"holding a JSON object")
    try:
        model = from_dict(ModelConfig, section)
        entries = read_container_file(checkpoint_path)
        params, stack = restore_state(entries, model)
    except ParameterError as err:  # the recorded model is corrupt, not this run's usage
        raise ContainerError(f"manifest {manifest_path}: {err}") from None
    check_entries("checkpoint", entries, model, "checkpoint")
    try:
        schedule = NoiseSchedule(entries["schedule.alphas"], entries["schedule.sigmas"])
    except ParameterError as err:  # not variance preserving or not decreasing
        raise ContainerError(f"{checkpoint_path}: 'schedule.alphas' and 'schedule.sigmas': "
                             f"{err}") from None
    return params, stack, schedule, entries, manifest, model


def _stored_text_tokens(entries: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    prefix = "cond.text."
    return {name[len(prefix):]: arr for name, arr in entries.items()
            if name.startswith(prefix)}


def _pick_text(entries: dict[str, np.ndarray], class_name: str | None) -> np.ndarray:
    """The stored text tokens of `class_name` (default: the first stored class);
    an unknown class is a usage error."""
    stored = _stored_text_tokens(entries)
    name = min(stored) if class_name is None else class_name
    if name not in stored:
        raise ParameterError(f"no text tokens for class {name!r}; stored: {sorted(stored)}")
    return stored[name]


def _input_videos(path: str) -> np.ndarray:
    """The `videos` entry of the container at `path`, checked."""
    return check_entries("videos", read_container_file(path), None, path)["videos"]


def _write_checked(path: str, kind: str, entries: dict[str, np.ndarray], model: ModelConfig,
                   manifest: RunManifest) -> None:
    """Write `entries` at `path`, and `manifest` beside them, once they fit the
    table of `kind`; entries that do not write nothing."""
    check_entries(kind, entries, model, path)
    write_container_file(path, entries)
    write_manifest(manifest_path_for(path), manifest)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    doc = _load_config(args.config)
    model = _section(doc, "model", ModelConfig)
    spec = _parse_class_spec(args.classes)
    entries = build_dataset(spec, args.seed, model)
    out = os.path.join(_outdir(args), "dataset.fvl1")
    manifest = RunManifest(
        stage="gen", config={"classes": [list(pair) for pair in spec], "model": to_dict(model)},
        seeds={"seed": args.seed})
    _write_checked(out, "dataset", entries, model, manifest)
    print(f"wrote {out} ({len(entries['videos'])} samples)")
    return 0


def cmd_analyze(args) -> int:
    desc = joint_descriptor_detached(Tensor(_input_videos(args.input)))
    csv = emit_spectral_report(desc, timesteps=np.arange(desc.shape[0]))
    out = os.path.join(_outdir(args), "descriptors.csv")
    write_text(out, csv)
    manifest = RunManifest(stage="analyze", config={}, seeds={},
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

    videos, class_ids, text = read_dataset(read_container_file(args.input), args.input)
    if text.shape[1] != model.n_text_tokens:  # their width is build_conditioning's to check
        raise ParameterError(f"{args.input}: 'text.{CLASS_NAMES[class_ids[0]]}' holds "
                             f"{text.shape[1]} text tokens, ModelConfig.n_text_tokens is "
                             f"{model.n_text_tokens}")
    params, stack = build_model(model, np.random.default_rng(train_cfg.seed))
    schedule = NoiseSchedule.cosine(model.num_steps)
    result = train_stage1(videos, class_ids, text, train_cfg, params, stack, schedule)

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
    text_tokens = {CLASS_NAMES[cid]: tokens for cid, tokens in zip(class_ids, text)}
    manifest = RunManifest(stage="train",
                           config={"model": to_dict(model), "train": to_dict(train_cfg)},
                           seeds={"seed": train_cfg.seed},
                           inputs=_input_hash(args.input), extra=extra)
    entries = checkpoint_entries(params, stack, schedule, text_tokens=text_tokens)
    _write_checked(out, "checkpoint", entries, model, manifest)
    write_text(os.path.join(args.out, "metrics.csv"), train_metrics_csv(result.metrics))
    print(f"wrote {out} (loss {first:.4f} -> {last:.4f})")
    return 0


def cmd_adapt(args) -> int:
    doc = _load_config(args.config)
    adapt_cfg = _section(doc, "adapt", AdaptConfig)
    if args.seed is not None:
        adapt_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest, model = _restore_model(args.checkpoint)
    ref = _input_videos(args.input).astype(np.float32)
    text = _pick_text(entries, args.class_name)
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
    _write_checked(out, "adapted",
                   checkpoint_entries(params, stack, schedule, result.embedding,
                                      _stored_text_tokens(entries)), model, manifest)
    write_text(os.path.join(args.out, "trace.csv"), adapt_trace_csv(result.trace))
    print(f"wrote {out} (L_f {first:.4f} -> {last:.4f})")
    return 0


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    sample_cfg = _section(doc, "sample", SampleConfig)
    if args.seed is not None:
        sample_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest, model = _restore_model(args.checkpoint)
    if "model" in doc:
        _section(doc, "model", ModelConfig)  # a malformed section is a usage error
        check_config_compatible(ckpt_manifest.config["model"], doc["model"],
                                stage=ckpt_manifest.stage)

    z0 = _input_videos(args.input).astype(np.float32)
    text = _pick_text(entries, args.class_name)
    cond = build_conditioning(params, z0, text)

    inputs = {**_input_hash(args.checkpoint), **_input_hash(args.input)}
    if args.embedding is not None:
        stored = check_entries("embedding", read_container_file(args.embedding), model,
                               args.embedding)
        cond = cond.with_vfx(Tensor(stored["vfx_embedding.tokens"]))
        inputs.update(_input_hash(args.embedding))

    result = sample(params, stack, schedule, cond, steps=sample_cfg.steps,
                    cfg_scale=sample_cfg.cfg_scale, seed=sample_cfg.seed)

    out = os.path.join(_outdir(args), "sample.fvl1")
    entries_out = {
        "video": result.video.data,
        "descriptors": result.descriptors,
        "timesteps": result.timesteps[:-1].astype(np.float64),
        "pi_cond": result.pi_cond,
    }
    manifest = RunManifest(
        stage="generate",
        config={"model": ckpt_manifest.config["model"], "sample": to_dict(sample_cfg)},
        seeds={"seed": sample_cfg.seed}, inputs=inputs)
    _write_checked(out, "sample", entries_out, model, manifest)
    csv = emit_spectral_report(result.descriptors, timesteps=result.timesteps[:-1])
    write_text(os.path.join(args.out, "spectral.csv"), csv)
    print(f"wrote {out} (batch {result.video.shape[0]}, {sample_cfg.steps} steps)")
    return 0


def cmd_report(args) -> int:
    stored = check_entries("trajectory", read_container_file(args.input), None, args.input)
    desc, ts = stored["descriptors"], stored["timesteps"]
    whole = (ts >= 0) & (ts < 2.0 ** 63) & (ts == np.floor(ts))  # each exact in int64
    if ts.shape != desc.shape[:1] or not whole.all():
        raise ContainerError(f"{args.input}: 'timesteps' is not one whole number in "
                             f"[0, 2**63) per row of 'descriptors'")
    csv = emit_spectral_report(desc, timesteps=ts.astype(np.int64))
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

    def common(p):
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the stage seed")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="write a synthetic labeled dataset")
    common(p)
    p.add_argument("--classes", default="lowfreq_field:4,highfreq_particles:4",
                   help="comma list of name:count pairs")
    p.set_defaults(fn=cmd_gen, seed=0)

    p = sub.add_parser("analyze", help="joint descriptors of stored videos")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--input", required=True, help="container with a 'videos' entry")
    p.set_defaults(fn=cmd_analyze)

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
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--input", required=True, help="container with 'descriptors'")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--seed", type=_seed, default=0)
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
    except (ParameterError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FreqVfxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
