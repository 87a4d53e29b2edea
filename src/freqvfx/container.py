"""FVL1 tensor container, the entries each kind of artifact holds (`SCHEMA`),
run manifests, and checkpoint plumbing.

FVL1 layout (all integers little-endian):

    magic   4 bytes  b"FVL1"
    version u16
    count   u16
    entries, each:
        name length  u16
        name         UTF-8 bytes
        dtype tag    u8   (1 = float32, 2 = float64)
        rank         u8
        dims         u32 per axis
        payload      row-major little-endian values
    crc32   u32 over every preceding byte

Reads are strict: wrong magic, a failing checksum, and short data raise
distinct errors so callers can tell corruption from mis-addressed files.
All file writes go through write-to-temp-then-rename, so a crashed run
never leaves a half-written artifact at the target path.
"""

from __future__ import annotations

import json
import hashlib
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import __version__
from .config import ModelConfig
from .denoiser import load_model
from .errors import (BadMagicError, ChecksumError, ContainerError,
                     ManifestConflictError, ParameterError, TruncatedError)

MAGIC = b"FVL1"
VERSION = 1

_TAG_BY_DTYPE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_DTYPE_BY_TAG = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def _normalize_entries(entries: Mapping[str, np.ndarray]) -> list[tuple[str, np.ndarray]]:
    out = []
    for name, arr in entries.items():
        if not isinstance(name, str) or not name:
            raise ParameterError(f"entry name must be a nonempty string, got {name!r}")
        arr = np.asarray(arr)
        if arr.dtype not in _TAG_BY_DTYPE:
            raise ParameterError(
                f"entry {name!r}: dtype {arr.dtype} not storable (float32/float64 only)")
        out.append((name, arr))
    return out


def write_container(entries: Mapping[str, np.ndarray]) -> bytes:
    """Serialize named float arrays; read_container(write_container(x)) == x."""
    pairs = _normalize_entries(entries)
    if len(pairs) > 0xFFFF:
        raise ParameterError(f"too many entries: {len(pairs)}")
    chunks = [struct.pack("<4sHH", MAGIC, VERSION, len(pairs))]
    for name, arr in pairs:
        nameb = name.encode("utf-8")
        if len(nameb) > 0xFFFF:
            raise ParameterError(f"entry name too long: {len(nameb)} bytes")
        if arr.ndim > 0xFF:
            raise ParameterError(f"entry {name!r}: rank {arr.ndim} exceeds 255")
        if any(d > 0xFFFFFFFF for d in arr.shape):
            raise ParameterError(f"entry {name!r}: dimension exceeds u32 range")
        chunks.append(struct.pack("<H", len(nameb)))
        chunks.append(nameb)
        chunks.append(struct.pack("<BB", _TAG_BY_DTYPE[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        le = arr.astype(_DTYPE_BY_TAG[_TAG_BY_DTYPE[arr.dtype]], copy=False)
        chunks.append(np.ascontiguousarray(le).tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedError(
                f"container ends inside {what}: need {n} bytes at offset {self.pos}, "
                f"have {len(self.blob) - self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out


def read_container(blob: bytes) -> dict[str, np.ndarray]:
    """Decode an FVL1 blob into name -> array (native-order, writable copies)."""
    if len(blob) < 4:
        raise TruncatedError(f"container shorter than magic: {len(blob)} bytes")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    r = _Reader(blob)
    r.take(4, "magic")
    version, count = struct.unpack("<HH", r.take(4, "header"))
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        (nlen,) = struct.unpack("<H", r.take(2, f"entry {k} name length"))
        try:
            name = r.take(nlen, f"entry {k} name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContainerError(f"entry {k}: name is not valid UTF-8") from e
        tag, rank = struct.unpack("<BB", r.take(2, f"entry {name!r} header"))
        if tag not in _DTYPE_BY_TAG:
            raise ContainerError(f"entry {name!r}: unknown dtype tag {tag}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"entry {name!r} dims"))
        dtype = _DTYPE_BY_TAG[tag]
        n_items = 1
        for d in dims:
            n_items *= d
        payload = r.take(n_items * dtype.itemsize, f"entry {name!r} payload")
        if name in out:
            raise ContainerError(f"duplicate entry name {name!r}")
        try:
            arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
        except ValueError as e:  # an empty payload with dims numpy cannot represent
            raise ContainerError(f"entry {name!r}: dims {dims} are not a valid array "
                                 f"shape ({e})") from e
        out[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    body_end = r.pos
    (stored,) = struct.unpack("<I", r.take(4, "checksum"))
    if r.pos != len(blob):
        raise ContainerError(f"{len(blob) - r.pos} trailing bytes after checksum")
    actual = zlib.crc32(blob[:body_end]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(f"crc mismatch: stored {stored:#010x}, computed {actual:#010x}")
    return out


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def write_container_file(path, entries: Mapping[str, np.ndarray]) -> None:
    atomic_write_bytes(os.fspath(path), write_container(entries))


class ContainerEntries(dict):
    """A container's arrays by name, with `sha256`: the digest of the bytes they
    were decoded from."""

    def __init__(self, entries: dict[str, np.ndarray], sha256: str):
        super().__init__(entries)
        self.sha256 = sha256


def read_container_file(path) -> ContainerEntries:
    """The entries of the container file at `path`. The file is read once and
    its bytes both decoded and hashed, so a writer replacing it meanwhile cannot
    make the digest name bytes that were not decoded."""
    with open(path, "rb") as f:
        blob = f.read()
    return ContainerEntries(read_container(blob), hashlib.sha256(blob).hexdigest())


# ---------------------------------------------------------------------------
# run manifests


@dataclass
class RunManifest:
    """Provenance record written next to every artifact a run produces."""

    stage: str
    config: dict
    seeds: dict
    inputs: dict = field(default_factory=dict)   # file name -> sha256 of the bytes read
    extra: dict = field(default_factory=dict)
    code_version: str = __version__

    def to_json(self) -> str:
        doc = {
            "stage": self.stage,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "extra": self.extra,
            "code_version": self.code_version,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_manifest(path, manifest: RunManifest) -> None:
    atomic_write_bytes(os.fspath(path), manifest.to_json().encode("utf-8"))


def read_manifest(path) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as err:  # malformed JSON or not UTF-8
        raise ContainerError(f"manifest {path} is not UTF-8 JSON text: {err}") from None
    if not isinstance(doc, dict):
        raise ContainerError(f"manifest {path} must hold a JSON object, got "
                             f"{type(doc).__name__}")
    required = {"stage", "config", "seeds", "inputs", "extra", "code_version"}
    missing = required - doc.keys()
    if missing:
        raise ContainerError(f"manifest {path} missing fields: {sorted(missing)}")
    return RunManifest(stage=doc["stage"], config=doc["config"], seeds=doc["seeds"],
                       inputs=doc["inputs"], extra=doc["extra"],
                       code_version=doc["code_version"])


def manifest_path_for(artifact_path) -> str:
    return os.fspath(artifact_path) + ".manifest.json"


def check_config_compatible(recorded: dict, requested: dict, *, stage: str) -> None:
    """Raise if any shared config key changed between dependent runs."""
    clashes = []
    for k in sorted(set(recorded) & set(requested)):
        a = recorded.get(k)
        b = requested.get(k)
        if _json_round(a) != _json_round(b):
            clashes.append(f"{k}: checkpoint has {a!r}, requested {b!r}")
    if clashes:
        raise ManifestConflictError(
            f"config recorded at stage {stage!r} conflicts with this run: " + "; ".join(clashes))


def _json_round(v):
    # tuples become lists through JSON; compare in the JSON domain
    return json.loads(json.dumps(v))


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_entries(params, stack, schedule, text_tokens: Mapping[str, np.ndarray],
                       embedding=None) -> dict[str, np.ndarray]:
    """Flatten model state into container entries: the backbone, the stack, the
    schedule, the embedding if any, then each class's text tokens as
    `cond.text.<class>`, which `SCHEMA["checkpoint"]` requires."""
    out: dict[str, np.ndarray] = {}
    for name, t in params.named_arrays().items():
        out[name] = t.data
    for name, t in stack.parameters().items():
        out[name] = t.data
    out["schedule.alphas"] = schedule.alphas
    out["schedule.sigmas"] = schedule.sigmas
    if embedding is not None:
        out["vfx_embedding.tokens"] = embedding.tokens.data
    for cname, toks in text_tokens.items():
        out[f"cond.text.{cname}"] = np.asarray(toks)
    return out


def checked_entry(entries: Mapping[str, np.ndarray], name: str, shape: tuple[int | None, ...],
                  dtype, source: str) -> np.ndarray:
    """`entries[name]`, which must exist with `shape` (a None axis is any size
    >= 1) and `dtype` (None is either stored float) and hold only finite values;
    anything else is a corrupt artifact, named by its entry."""
    if name not in entries:
        raise ContainerError(f"{source} is missing entry {name!r}")
    stored = entries[name]
    if stored.ndim != len(shape) or any(s < 1 if d is None else s != d
                                        for s, d in zip(stored.shape, shape)):
        want = str(tuple(shape)).replace("None", ">=1")
        raise ContainerError(f"{source} entry {name!r} has shape {stored.shape}, expected {want}")
    if dtype is not None and stored.dtype != dtype:
        raise ContainerError(f"{source} entry {name!r} is {stored.dtype}, expected "
                             f"{np.dtype(dtype)}")
    # min and max propagate a NaN, and unlike isfinite(stored) allocate no flag array
    if not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
        raise ContainerError(f"{source} entry {name!r} holds non-finite values")
    return stored


# The entries of each kind of artifact: name (a trailing `*` stands for a class
# name and matches each entry of that prefix, one at least) -> (dtype, shape of
# the ModelConfig), as `checked_entry` reads them. A checkpoint also holds the
# `load_model` entries that `restore_state` checks. Rules relating two entries
# stay with their readers (`read_dataset`, `cmd_report`, `NoiseSchedule`).
_VIDEOS = {"videos": (None, lambda m: (None,) * 5)}
_TRAJECTORY = {"descriptors": (None, lambda m: (None, None, 6)),
               "timesteps": (None, lambda m: (None,))}
SCHEMA = {
    "videos": _VIDEOS,  # the --input of analyze, adapt and generate
    "dataset": {**_VIDEOS, "class_ids": (None, lambda m: (None,)),
                "text.*": (np.float32, lambda m: (None, None))},
    "checkpoint": {"schedule.alphas": (np.float64, lambda m: (m.num_steps,)),
                   "schedule.sigmas": (np.float64, lambda m: (m.num_steps,)),
                   "cond.text.*": (np.float32, lambda m: (m.n_text_tokens, m.width))},
    "embedding": {"vfx_embedding.tokens": (np.float32, lambda m: (None, m.width))},
    "trajectory": _TRAJECTORY,  # what report reads of a sample
    "sample": {"video": (None, lambda m: (None, *m.latent_shape)), **_TRAJECTORY,
               "pi_cond": (None, lambda m: (None, None, m.n_experts))},
}
SCHEMA["adapted"] = {**SCHEMA["checkpoint"], **SCHEMA["embedding"]}  # what adapt writes


def check_entries(kind: str, entries: Mapping[str, np.ndarray], model: ModelConfig | None,
                  source: str) -> Mapping[str, np.ndarray]:
    """`entries` when every row of `kind`'s table in SCHEMA holds, each shape
    computed from `model` (None will do where no row reads it); otherwise a
    ContainerError naming the first bad entry of `source`."""
    for row, (dtype, shape) in SCHEMA[kind].items():
        names = [n for n in entries if n.startswith(row[:-1])] if row.endswith("*") else [row]
        if not names:
            raise ContainerError(f"{source} has no {row[:-1] + '<class>'!r} entry")
        for name in names:
            checked_entry(entries, name, shape(model), dtype, source)
    return entries


def restore_state(entries: Mapping[str, np.ndarray], model: ModelConfig):
    """(params, stack) of `model` from a checkpoint's entries. Each backbone and
    stack entry is checked (`checked_entry`) as the model is built from it: the
    backbone holds the entries read-only, without drawing anything, and the
    stack's leaves are copies."""
    return load_model(model, lambda name, shape: checked_entry(entries, name, shape,
                                                               np.float32, "checkpoint"))
