"""FVL1 codec, manifests, checkpoints, and CSV report round-trips."""

import json
import struct
import zlib

import numpy as np
import pytest

from freqvfx import container as ct
from freqvfx import reports as rp
from freqvfx.cli import _restore_model
from freqvfx.config import ModelConfig, to_dict
from freqvfx.denoiser import build_model
from freqvfx.errors import (BadMagicError, ChecksumError, ContainerError,
                            ManifestConflictError, ParameterError, ShapeError,
                            TruncatedError)
from freqvfx.schedule import NoiseSchedule

import oracles

# 52-byte fixture computed by hand from the layout: magic, version 1, one
# entry named "golden_entry", f32 rank-2 dims (2,2), payload [1,2,3,4], crc.
GOLDEN = bytes.fromhex(
    "46564c31010001000c00676f6c64656e5f656e747279010202000000020000"
    "000000803f0000004000004040000080406cc02df6"
)


def test_golden_bytes_match_writer():
    blob = ct.write_container({"golden_entry": np.array([[1, 2], [3, 4]], dtype=np.float32)})
    assert len(blob) == 52
    assert blob == GOLDEN


def test_golden_bytes_parse():
    out = ct.read_container(GOLDEN)
    assert list(out) == ["golden_entry"]
    assert out["golden_entry"].dtype == np.float32
    np.testing.assert_array_equal(out["golden_entry"], [[1.0, 2.0], [3.0, 4.0]])


def test_empty_container_round_trips():
    blob = ct.write_container({})
    assert ct.read_container(blob) == {}


def test_round_trip_random_containers():
    rng = np.random.default_rng(0)
    for trial in range(50):
        entries = {}
        for k in range(rng.integers(1, 6)):
            rank = int(rng.integers(0, 5))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            dt = np.float32 if rng.random() < 0.5 else np.float64
            entries[f"entry_{trial}_{k}"] = rng.standard_normal(shape).astype(dt)
        out = ct.read_container(ct.write_container(entries))
        assert set(out) == set(entries)
        for name, arr in entries.items():
            assert out[name].dtype == arr.dtype
            assert out[name].shape == arr.shape
            assert out[name].tobytes() == arr.tobytes()


def test_rank_zero_and_unicode_names():
    entries = {"scalar": np.float64(3.5), "μ/σ tags": np.ones(3, dtype=np.float32)}
    out = ct.read_container(ct.write_container(entries))
    assert out["scalar"].shape == ()
    assert float(out["scalar"]) == 3.5
    assert "μ/σ tags" in out


def test_flip_one_payload_byte_fails_checksum():
    blob = bytearray(GOLDEN)
    blob[33] ^= 0x01  # inside the payload (bytes 32..47)
    with pytest.raises(ChecksumError):
        ct.read_container(bytes(blob))


def test_every_single_byte_flip_is_detected():
    for i in range(len(GOLDEN)):
        blob = bytearray(GOLDEN)
        blob[i] ^= 0xFF
        with pytest.raises((ChecksumError, BadMagicError, ContainerError, TruncatedError)):
            ct.read_container(bytes(blob))


def test_bad_magic_is_distinct():
    with pytest.raises(BadMagicError):
        ct.read_container(b"NOPE" + GOLDEN[4:])


def test_truncation_is_distinct():
    for cut in (2, 10, len(GOLDEN) - 3):
        with pytest.raises(TruncatedError):
            ct.read_container(GOLDEN[:cut])


def test_trailing_garbage_rejected():
    with pytest.raises(ContainerError):
        ct.read_container(GOLDEN + b"\x00")


def test_unsupported_version():
    body = b"FVL1" + struct.pack("<HH", 9, 0)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(ContainerError):
        ct.read_container(blob)


def test_unrepresentable_dims_are_named_container_errors():
    """A valid checksum over an empty payload whose dims numpy cannot represent:
    too many elements in total, or more axes than numpy allows."""
    for dims in ((2**31, 2**31, 0), (1,) * 65 + (0,)):
        body = (b"FVL1" + struct.pack("<HHH", 1, 1, 4) + b"huge"
                + struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims))
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ContainerError, match="entry 'huge'"):
            ct.read_container(blob)


def test_writer_rejects_bad_entries():
    with pytest.raises(ParameterError):
        ct.write_container({"ints": np.arange(3)})
    with pytest.raises(ParameterError):
        ct.write_container({"": np.zeros(1, np.float32)})


def test_file_round_trip_atomic(tmp_path):
    p = tmp_path / "state.fvl"
    entries = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    ct.write_container_file(p, entries)
    assert not list(tmp_path.glob("*.tmp.*"))
    out = ct.read_container_file(p)
    assert out["a"].tobytes() == entries["a"].tobytes()


def test_manifest_round_trip(tmp_path):
    man = ct.RunManifest(stage="train", config={"lr": 1e-4, "shape": [8, 4, 8, 8]},
                         seeds={"train": 7}, inputs={"dataset": "ab" * 32},
                         extra={"loss_ratio_threshold": 0.5})
    p = tmp_path / "run.manifest.json"
    ct.write_manifest(p, man)
    back = ct.read_manifest(p)
    assert back == man
    doc = json.loads(p.read_text())
    assert doc["stage"] == "train"
    assert doc["code_version"]


def test_manifest_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"stage": "x"}))
    with pytest.raises(ContainerError):
        ct.read_manifest(p)


def test_config_conflict_detection():
    rec = {"width": 64, "latent_shape": (8, 4, 8, 8), "n_experts": 4}
    ok = {"width": 64, "latent_shape": [8, 4, 8, 8], "n_experts": 4}
    ct.check_config_compatible(rec, ok, stage="train")
    with pytest.raises(ManifestConflictError):
        ct.check_config_compatible(rec, {"width": 32}, stage="train")


def test_checkpoint_save_restore(tmp_path):
    rng = np.random.default_rng(0)
    params, stack = build_model(ModelConfig(), rng)
    sched = NoiseSchedule.cosine(num_steps=params.num_steps)
    # make adapters nonzero so restoration is observable
    for t in stack.parameters().values():
        t.data += 0.01
    p = tmp_path / "ckpt.fvl"
    man = ct.RunManifest(stage="train", config={"width": 64}, seeds={"train": 0})
    ct.write_container_file(p, ct.checkpoint_entries(params, stack, sched, {}))
    ct.write_manifest(ct.manifest_path_for(p), man)
    assert (tmp_path / "ckpt.fvl.manifest.json").exists()

    entries = ct.read_container_file(p)
    params2, stack2 = ct.restore_state(entries, ModelConfig())
    for name, t in params.named_arrays().items():
        assert np.array_equal(t.data, params2.named_arrays()[name].data), name
    for name, t in stack.parameters().items():
        assert np.array_equal(t.data, stack2.parameters()[name].data), name
    np.testing.assert_array_equal(entries["schedule.alphas"], sched.alphas)


def test_frozen_arrays_refuse_writes(tmp_path):
    """Every backbone array, the stack's expert layout and the schedule are
    read-only, in a fresh build and in a model restored from its checkpoint: a
    write into any of them raises numpy's read-only ValueError."""
    model = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10)
    params, stack = build_model(model, np.random.default_rng(0))
    sched = NoiseSchedule.cosine(num_steps=params.num_steps)
    path = tmp_path / "checkpoint.fvl1"
    text = {"lowfreq_field": np.zeros((model.n_text_tokens, model.width), np.float32)}
    ct.write_container_file(path, ct.checkpoint_entries(params, stack, sched, text_tokens=text))
    ct.write_manifest(ct.manifest_path_for(path), ct.RunManifest(
        stage="train", config={"model": to_dict(model)}, seeds={}))
    restored = _restore_model(str(path))[:3]
    for p, s, sch in ((params, stack, sched), restored):
        frozen = {name: t.data for name, t in p.named_arrays().items()}
        frozen.update({"owner": s.owner, "schedule.alphas": sch.alphas,
                       "schedule.sigmas": sch.sigmas})
        assert len(frozen) == 6 + 2 * 2 * 4 + 3
        for name, arr in frozen.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
            assert not arr.flags.writeable, name


def test_restore_rejects_shape_and_missing(tmp_path):
    params, stack = build_model(ModelConfig(), np.random.default_rng(0))
    sched = NoiseSchedule.cosine(num_steps=params.num_steps)
    entries = ct.checkpoint_entries(params, stack, sched, {})
    bad = dict(entries)
    bad["backbone.pos"] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ContainerError):
        ct.restore_state(bad, ModelConfig())
    missing = dict(entries)
    del missing["router.w1"]
    with pytest.raises(ContainerError):
        ct.restore_state(missing, ModelConfig())


def test_restore_rejects_dtype_and_nonfinite_entries():
    """A valid container can still carry a cast or a NaN: restore names the entry."""
    params, stack = build_model(ModelConfig(), np.random.default_rng(0))
    sched = NoiseSchedule.cosine(num_steps=params.num_steps)
    entries = ct.checkpoint_entries(params, stack, sched, {})
    name = "adapter.block1.cross.v.a"
    cases = [("backbone.pos", entries["backbone.pos"].astype(np.float64), "float64"),
             ("router.w1", entries["router.w1"].astype(np.float16), "float16")]
    for value in (np.nan, np.inf, -np.inf):
        arr = entries[name].copy()
        arr[0, 1] = value
        cases.append((name, arr, "non-finite"))
    stored = {k: v.copy() for k, v in entries.items()}
    for key, arr, message in cases:
        with pytest.raises(ContainerError, match=message) as err:
            ct.restore_state({**stored, key: arr}, ModelConfig())
        assert repr(key) in str(err.value)
    # a restore builds a new model and only reads the entries: their values and
    # write flags are left as they were
    ct.restore_state(stored, ModelConfig())
    for k, v in stored.items():
        assert v.flags.writeable and v.tobytes() == entries[k].tobytes(), k


# ---------------------------------------------------------------------------
# CSV reports


def test_spectral_report_one_step():
    csv = rp.emit_spectral_report(np.full((1, 6), 1 / 3), timesteps=[0])
    lines = csv.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "t,e_app_0,e_app_1,e_app_2,e_vfx_0,e_vfx_1,e_vfx_2"
    assert lines[1].startswith("0,")


def test_spectral_report_round_trip_precision():
    rng = np.random.default_rng(3)
    traj = rng.random((30, 6))
    ts = np.arange(999, 999 - 30, -1)
    csv = rp.emit_spectral_report(traj, timesteps=ts)
    t_back, vals = oracles.parse_spectral_report(csv)
    np.testing.assert_array_equal(t_back, ts)
    assert np.max(np.abs(vals - traj)) < 1e-5
    assert vals.shape == (30, 6)


def test_spectral_report_batch_mean_and_rows():
    traj = np.stack([np.zeros((4, 6)), np.ones((4, 6))], axis=1)  # (4, 2, 6)
    csv = rp.emit_spectral_report(traj, timesteps=range(4))
    _, vals = oracles.parse_spectral_report(csv)
    assert vals.shape == (4, 6)
    assert np.allclose(vals, 0.5)


def test_spectral_report_empty_rejected():
    with pytest.raises(ParameterError):
        rp.emit_spectral_report(np.zeros((0, 6)), timesteps=[])
    with pytest.raises(ShapeError):
        rp.emit_spectral_report(np.zeros((3, 5)), timesteps=range(3))


def test_train_metrics_csv():
    from freqvfx.train import StepMetrics
    rows = [StepMetrics(step=0, loss=1.25, class_id=0, pi_mean=np.array([0.25, 0.75])),
            StepMetrics(step=1, loss=0.5, class_id=1, pi_mean=np.array([0.5, 0.5]))]
    csv = rp.train_metrics_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "step,loss,pi_mean_0,pi_mean_1,class_id"
    assert lines[1] == "0,1.25,0.25,0.75,0"
    with pytest.raises(ParameterError):
        rp.train_metrics_csv([])


def test_adapt_trace_csv():
    from freqvfx.adapt import AdaptStep
    rows = [AdaptStep(step=0, t=500, loss=0.125), AdaptStep(step=1, t=300, loss=0.0625)]
    csv = rp.adapt_trace_csv(rows)
    assert csv.splitlines()[0] == "step,t,loss"
    assert csv.splitlines()[1] == "0,500,0.125"
    with pytest.raises(ParameterError):
        rp.adapt_trace_csv([])
