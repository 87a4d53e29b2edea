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
output recording config, seeds, the sha256 of the bytes it read from each input,
and what the stage cost (``extra["resources"]``), so any stage can verify what
its predecessor ran with. A stage checks what it reads, and what it writes,
against `container.SCHEMA`. Exit codes: 0 success, 1 failed checks or
incompatible/corrupt artifacts, 2 usage errors (bad flags, missing files,
malformed config).

On glibc, `main` first pins malloc's mmap and trim thresholds, so the arrays a
tape frees stay in the process for the next step instead of going back to the
kernel and faulting in again.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

import numpy as np

from .adapt import adapt
from .config import AdaptConfig, ModelConfig, SampleConfig, TrainConfig, from_dict, to_dict
from .container import (RunManifest, check_config_compatible, check_entries,
                        checkpoint_entries, manifest_path_for, read_container_file,
                        read_manifest, restore_state, write_container_file, write_manifest)
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

# glibc's mallopt(3) parameter numbers, and the values `main` pins them to:
# glibc's own ceiling for its dynamic mmap threshold on 64-bit, and twice that
# for the trim threshold, as its dynamic rule would set it
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, which it otherwise moves with each
    freed block: a tape step's arrays then come from the heap and go back to it,
    so the next step reuses warm pages instead of faulting in fresh ones. Does
    nothing where the C library has no `mallopt` (macOS) or there is none to load."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _usage() -> tuple[float, resource.struct_rusage]:
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)


def _resources(started: tuple[float, resource.struct_rusage]) -> dict:
    """What this process spent since `started` (a `_usage()`), and its peak RSS."""
    wall0, r0 = started
    wall1, r1 = _usage()
    return {"wall_s": wall1 - wall0, "user_s": r1.ru_utime - r0.ru_utime,
            "sys_s": r1.ru_stime - r0.ru_stime, "minor_faults": r1.ru_minflt - r0.ru_minflt,
            "max_rss_mb": r1.ru_maxrss / 1024.0}


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


def _read_input(path: str, inputs: dict) -> dict[str, np.ndarray]:
    """The entries of the container at `path`; the sha256 of the bytes they were
    decoded from goes into `inputs` under the file's name."""
    entries = read_container_file(path)
    inputs[os.path.basename(path)] = entries.sha256
    return entries


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
    entry checked against the recorded model (`restore_state`, `check_entries`).
    The last value is a stage's inputs so far: the checkpoint's sha256 by name."""
    manifest_path = manifest_path_for(checkpoint_path)
    manifest = read_manifest(manifest_path)
    section = manifest.config.get("model") if isinstance(manifest.config, dict) else None
    if not isinstance(section, dict):
        raise ContainerError(f"manifest {manifest_path} has no 'model' config section "
                             f"holding a JSON object")
    try:
        model = from_dict(ModelConfig, section)
        inputs = {}
        entries = _read_input(checkpoint_path, inputs)
        params, stack = restore_state(entries, model)
    except ParameterError as err:  # the recorded model is corrupt, not this run's usage
        raise ContainerError(f"manifest {manifest_path}: {err}") from None
    check_entries("checkpoint", entries, model, "checkpoint")
    try:
        schedule = NoiseSchedule(entries["schedule.alphas"], entries["schedule.sigmas"])
    except ParameterError as err:  # not variance preserving or not decreasing
        raise ContainerError(f"{checkpoint_path}: 'schedule.alphas' and 'schedule.sigmas': "
                             f"{err}") from None
    return params, stack, schedule, entries, manifest, model, inputs


def _check_model_section(doc: dict, manifest: RunManifest) -> None:
    """A `model` section in this run's config `doc` must be well formed (else a
    usage error) and agree with the model that the restored checkpoint's
    `manifest` records."""
    if "model" in doc:
        _section(doc, "model", ModelConfig)
        check_config_compatible(manifest.config["model"], doc["model"], stage=manifest.stage)


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


def _input_videos(path: str, inputs: dict) -> np.ndarray:
    """The `videos` entry of the container at `path`, checked (`_read_input`)."""
    return check_entries("videos", _read_input(path, inputs), None, path)["videos"]


def _write_checked(path: str, kind: str, entries: dict[str, np.ndarray], model: ModelConfig,
                   manifest: RunManifest, started) -> None:
    """Write `entries` at `path`, and `manifest` beside them with the stage's
    `_resources` since `started`, once they fit the table of `kind`; entries
    that do not write nothing."""
    check_entries(kind, entries, model, path)
    manifest.extra["resources"] = _resources(started)
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
    _write_checked(out, "dataset", entries, model, manifest, args.started)
    print(f"wrote {out} ({len(entries['videos'])} samples)")
    return 0


def cmd_analyze(args) -> int:
    inputs = {}
    desc = joint_descriptor_detached(Tensor(_input_videos(args.input, inputs)))
    csv = emit_spectral_report(desc, timesteps=np.arange(desc.shape[0]))
    out = os.path.join(_outdir(args), "descriptors.csv")
    manifest = RunManifest(stage="analyze", config={}, seeds={}, inputs=inputs,
                           extra={"resources": _resources(args.started)})
    write_text(out, csv)
    write_manifest(manifest_path_for(out), manifest)
    print(f"wrote {out} ({desc.shape[0]} rows)")
    return 0


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    model = _section(doc, "model", ModelConfig)
    train_cfg = _section(doc, "train", TrainConfig)
    if args.seed is not None:
        train_cfg.seed = args.seed

    inputs = {}
    videos, class_ids, text = read_dataset(_read_input(args.input, inputs), args.input)
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
                           seeds={"seed": train_cfg.seed}, inputs=inputs, extra=extra)
    entries = checkpoint_entries(params, stack, schedule, text_tokens)
    _write_checked(out, "checkpoint", entries, model, manifest, args.started)
    write_text(os.path.join(args.out, "metrics.csv"), train_metrics_csv(result.metrics))
    print(f"wrote {out} (loss {first:.4f} -> {last:.4f})")
    return 0


def cmd_adapt(args) -> int:
    doc = _load_config(args.config)
    adapt_cfg = _section(doc, "adapt", AdaptConfig)
    if args.seed is not None:
        adapt_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest, model, inputs = \
        _restore_model(args.checkpoint)
    _check_model_section(doc, ckpt_manifest)
    ref = _input_videos(args.input, inputs).astype(np.float32)
    text = _pick_text(entries, args.class_name)
    cond = build_conditioning(params, ref, text)

    result = adapt(ref, cond, adapt_cfg, params, stack, schedule)
    first, last = smoothed_endpoints(result.losses, window=10)

    out = os.path.join(_outdir(args), "adapted.fvl1")
    manifest = RunManifest(
        stage="adapt",
        config={"model": ckpt_manifest.config["model"], "adapt": to_dict(adapt_cfg)},
        seeds={"seed": adapt_cfg.seed},
        inputs=inputs,
        extra={"smoothed_initial_loss": first, "smoothed_final_loss": last,
               "loss_reduction": 1.0 - last / first if first else 0.0})
    _write_checked(out, "adapted",
                   checkpoint_entries(params, stack, schedule, _stored_text_tokens(entries),
                                      result.embedding), model, manifest,
                   args.started)
    write_text(os.path.join(args.out, "trace.csv"), adapt_trace_csv(result.trace))
    print(f"wrote {out} (L_f {first:.4f} -> {last:.4f})")
    return 0


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    sample_cfg = _section(doc, "sample", SampleConfig)
    if args.seed is not None:
        sample_cfg.seed = args.seed

    params, stack, schedule, entries, ckpt_manifest, model, inputs = \
        _restore_model(args.checkpoint)
    _check_model_section(doc, ckpt_manifest)
    z0 = _input_videos(args.input, inputs).astype(np.float32)
    text = _pick_text(entries, args.class_name)
    cond = build_conditioning(params, z0, text)

    if args.embedding is not None:
        stored = check_entries("embedding", _read_input(args.embedding, inputs), model,
                               args.embedding)
        cond = cond.with_vfx(Tensor(stored["vfx_embedding.tokens"]))

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
    _write_checked(out, "sample", entries_out, model, manifest, args.started)
    csv = emit_spectral_report(result.descriptors, timesteps=result.timesteps[:-1])
    write_text(os.path.join(args.out, "spectral.csv"), csv)
    print(f"wrote {out} (batch {result.video.shape[0]}, {sample_cfg.steps} steps)")
    return 0


def cmd_report(args) -> int:
    inputs = {}
    stored = check_entries("trajectory", _read_input(args.input, inputs), None, args.input)
    desc, ts = stored["descriptors"], stored["timesteps"]
    whole = (ts >= 0) & (ts < 2.0 ** 63) & (ts == np.floor(ts))  # each exact in int64
    if ts.shape != desc.shape[:1] or not whole.all():
        raise ContainerError(f"{args.input}: 'timesteps' is not one whole number in "
                             f"[0, 2**63) per row of 'descriptors'")
    csv = emit_spectral_report(desc, timesteps=ts.astype(np.int64))
    out = os.path.join(_outdir(args), "spectral.csv")
    manifest = RunManifest(stage="report", config={}, seeds={}, inputs=inputs,
                           extra={"resources": _resources(args.started)})
    write_text(out, csv)
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
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = _usage()
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
