import json
import struct
import zlib

import numpy as np
import pytest

from freqvfx import container as ct
from freqvfx.cli import main
from freqvfx.reports import parse_spectral_report

CFG = {
    "model": {"latent_shape": [2, 2, 4, 4], "width": 16, "num_steps": 10},
    "train": {"steps": 20, "batch_size": 2, "lr": 0.001, "seed": 0},
    "adapt": {"steps": 3, "sample_steps": 2, "embed_tokens": 4},
    "sample": {"steps": 4, "cfg_scale": 7.5, "seed": 5},
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return str(p)


def run(*argv) -> int:
    return main(list(argv))


class TestArgumentHandling:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run()
        assert e.value.code == 2

    def test_missing_input_file(self, tmp_path):
        rc = run("analyze", "--input", str(tmp_path / "nope.fvl1"),
                 "--out", str(tmp_path))
        assert rc == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run("gen", "--out", str(tmp_path), "--config", str(bad))
        assert rc == 2

    def test_unknown_class_name(self, tmp_path):
        rc = run("gen", "--out", str(tmp_path), "--classes", "wizards:4")
        assert rc == 2


class TestSelfcheck:
    def test_green_build_exits_zero(self, capsys):
        assert run("selfcheck") == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_failing_check_is_counted(self, monkeypatch, capsys):
        import freqvfx.selfcheck as sc

        def boom(rng):
            raise AssertionError("injected")

        monkeypatch.setattr(sc, "CHECKS", (sc.CHECKS[0], ("boom", boom)))
        assert sc.run_selfcheck() == 1
        assert "FAIL boom: injected" in capsys.readouterr().out

    def test_cli_maps_failures_to_exit_one(self, monkeypatch):
        import freqvfx.cli as cli
        monkeypatch.setattr(cli, "run_selfcheck", lambda seed: 3)
        assert run("selfcheck") == 1


class TestPipeline:
    def _gen(self, tmp_path, cfg_path, classes="lowfreq_field:3,highfreq_particles:3"):
        d = tmp_path / "data"
        rc = run("gen", "--out", str(d), "--seed", "11", "--config", cfg_path,
                 "--classes", classes)
        assert rc == 0
        return str(d / "dataset.fvl1")

    def _train(self, tmp_path, cfg_path, dataset):
        d = tmp_path / "trained"
        rc = run("train", "--input", dataset, "--config", cfg_path, "--out", str(d))
        assert rc == 0
        return str(d / "checkpoint.fvl1")

    def test_end_to_end_manifest_chain(self, tmp_path, cfg_path):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)

        adapted_dir = tmp_path / "adapted"
        rc = run("adapt", "--checkpoint", ckpt, "--input", dataset,
                 "--config", cfg_path, "--out", str(adapted_dir),
                 "--class-name", "highfreq_particles")
        assert rc == 0
        adapted = str(adapted_dir / "adapted.fvl1")

        sample_dir = tmp_path / "sampled"
        rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                 "--embedding", adapted, "--config", cfg_path,
                 "--out", str(sample_dir))
        assert rc == 0
        sample = str(sample_dir / "sample.fvl1")

        report_dir = tmp_path / "report"
        assert run("report", "--input", sample, "--out", str(report_dir)) == 0

        # each stage's manifest records the sha256 of its actual inputs
        train_m = ct.read_manifest(ct.manifest_path_for(ckpt))
        assert train_m.inputs["dataset.fvl1"] == ct.sha256_file(dataset)
        assert 0.0 < train_m.extra["loss_ratio_threshold"] <= 0.5

        adapt_m = ct.read_manifest(ct.manifest_path_for(adapted))
        assert adapt_m.inputs["checkpoint.fvl1"] == ct.sha256_file(ckpt)
        assert adapt_m.inputs["dataset.fvl1"] == ct.sha256_file(dataset)

        gen_m = ct.read_manifest(ct.manifest_path_for(sample))
        assert gen_m.inputs["checkpoint.fvl1"] == ct.sha256_file(ckpt)
        assert gen_m.inputs["adapted.fvl1"] == ct.sha256_file(adapted)
        assert gen_m.config["model"] == train_m.config["model"]

        entries = ct.read_container_file(sample)
        assert entries["video"].shape == (6, 2, 2, 4, 4)
        assert entries["descriptors"].shape == (4, 6, 6)
        ts, vals = parse_spectral_report(
            (report_dir / "spectral.csv").read_text())
        assert len(ts) == 4
        assert np.all(np.isfinite(vals))

    def test_generate_is_seed_deterministic(self, tmp_path, cfg_path):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        videos = []
        for name in ("s1", "s2"):
            d = tmp_path / name
            assert run("generate", "--checkpoint", ckpt, "--input", dataset,
                       "--config", cfg_path, "--out", str(d)) == 0
            videos.append(ct.read_container_file(str(d / "sample.fvl1"))["video"])
        assert videos[0].tobytes() == videos[1].tobytes()

    def test_adapted_embedding_changes_generation(self, tmp_path, cfg_path):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        ad = tmp_path / "ad"
        assert run("adapt", "--checkpoint", ckpt, "--input", dataset,
                   "--config", cfg_path, "--out", str(ad)) == 0
        plain_dir, emb_dir = tmp_path / "plain", tmp_path / "emb"
        assert run("generate", "--checkpoint", ckpt, "--input", dataset,
                   "--config", cfg_path, "--out", str(plain_dir)) == 0
        assert run("generate", "--checkpoint", ckpt, "--input", dataset,
                   "--embedding", str(ad / "adapted.fvl1"),
                   "--config", cfg_path, "--out", str(emb_dir)) == 0
        a = ct.read_container_file(str(plain_dir / "sample.fvl1"))["video"]
        b = ct.read_container_file(str(emb_dir / "sample.fvl1"))["video"]
        assert not np.array_equal(a, b)

    def test_generate_refuses_conflicting_config(self, tmp_path, cfg_path):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        clash = dict(CFG)
        clash["model"] = dict(CFG["model"], width=32)
        clash_path = tmp_path / "clash.json"
        clash_path.write_text(json.dumps(clash))
        rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                 "--config", str(clash_path), "--out", str(tmp_path / "x"))
        assert rc == 1

    def test_corrupt_checkpoint_fails_cleanly(self, tmp_path, cfg_path):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        blob = bytearray(open(ckpt, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(ckpt, "wb").write(bytes(blob))
        rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                 "--config", cfg_path, "--out", str(tmp_path / "x"))
        assert rc == 1

    def test_generate_rejects_bad_checkpoint_entries(self, tmp_path, cfg_path, capsys):
        """A checkpoint with a valid CRC but a NaN or recast entry exits 1."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(ckpt)
        name = "adapter.block0.self.q.expert1.b"
        nan = entries[name].copy()
        nan[0, 0] = np.nan
        for tag, arr in (("nan", nan), ("f64", entries["backbone.pos"].astype(np.float64))):
            key = name if tag == "nan" else "backbone.pos"
            ct.write_container_file(ckpt, {**entries, key: arr})
            out = tmp_path / f"out_{tag}"
            capsys.readouterr()
            rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                     "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, tag
            assert repr(key) in err and "Traceback" not in err, err
            assert not (out / "sample.fvl1").exists(), tag

    def test_train_rejects_top_k_outside_the_experts(self, tmp_path, cfg_path, capsys):
        dataset = self._gen(tmp_path, cfg_path)
        for top_k in (0, 5):
            bad = tmp_path / f"top_k{top_k}.json"
            bad.write_text(json.dumps(dict(CFG, model=dict(CFG["model"], top_k=top_k))))
            capsys.readouterr()
            rc = run("train", "--input", dataset, "--config", str(bad),
                     "--out", str(tmp_path / f"t{top_k}"))
            err = capsys.readouterr().err
            assert rc == 2, top_k
            assert f"top_k must lie in [1, 4], got {top_k}" in err, err

    @pytest.mark.parametrize("defect, entry", [
        ("no_videos", "videos"), ("no_class_ids", "class_ids"),
        ("no_text", "text.highfreq_particles"), ("unknown_class_id", "class_ids"),
        ("nan_class_id", "class_ids"), ("short_class_ids", "class_ids")])
    def test_train_rejects_hostile_dataset(self, tmp_path, cfg_path, capsys, defect, entry):
        """A dataset container missing an entry, or whose class ids name no effect
        class, exits 1 with the entry named."""
        dataset = self._gen(tmp_path, cfg_path)
        entries = ct.read_container_file(dataset)
        ids = entries["class_ids"].copy()
        if defect.startswith("no_"):
            del entries[entry]
        elif defect == "short_class_ids":
            entries[entry] = ids[:2]
        else:
            ids[-1] = 7.0 if defect == "unknown_class_id" else np.nan
            entries[entry] = ids
        hostile = tmp_path / f"{defect}.fvl1"
        ct.write_container_file(str(hostile), entries)
        capsys.readouterr()
        rc = run("train", "--input", str(hostile), "--config", cfg_path,
                 "--out", str(tmp_path / defect))
        err = capsys.readouterr().err
        assert rc == 1, defect
        assert repr(entry) in err and "Traceback" not in err, err
        assert not (tmp_path / defect / "checkpoint.fvl1").exists()

    @pytest.mark.parametrize("missing", ["schedule.alphas", "schedule.sigmas", "model",
                                         "cond.text.<class>"])
    def test_generate_rejects_incomplete_checkpoint(self, tmp_path, cfg_path, capsys,
                                                    missing):
        """A checkpoint with a valid CRC but no schedule entry or no stored text
        tokens, or whose manifest has no model section, exits 1 naming what is
        missing in both stages that restore it."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        if missing == "model":
            manifest = ct.manifest_path_for(ckpt)
            with open(manifest) as f:
                doc = json.load(f)
            del doc["config"]["model"]
            with open(manifest, "w") as f:
                json.dump(doc, f)
        else:
            entries = ct.read_container_file(ckpt)
            prefix = missing.replace("<class>", "")
            kept = {name: arr for name, arr in entries.items() if not name.startswith(prefix)}
            assert len(kept) < len(entries)
            ct.write_container_file(ckpt, kept)
        for stage, artifact in (("generate", "sample.fvl1"), ("adapt", "adapted.fvl1")):
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--checkpoint", ckpt, "--input", dataset,
                     "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, stage
            assert repr(missing) in err and "Traceback" not in err, err
            assert not (out / artifact).exists()

    def test_unknown_class_name_is_usage_error(self, tmp_path, cfg_path, capsys):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        for stage in ("generate", "adapt"):
            capsys.readouterr()
            rc = run(stage, "--checkpoint", ckpt, "--input", dataset, "--config", cfg_path,
                     "--class-name", "wizards", "--out", str(tmp_path / stage))
            assert rc == 2, stage
            assert "'wizards'" in capsys.readouterr().err

    def test_every_stage_rejects_a_dataset_without_videos(self, tmp_path, cfg_path, capsys):
        """A container holding only `class_ids` is a corrupt input to all four
        stages that read videos: each exits 1 naming the entry."""
        ckpt = self._train(tmp_path, cfg_path, self._gen(tmp_path, cfg_path))
        hostile = str(tmp_path / "ids_only.fvl1")
        ct.write_container_file(hostile, {"class_ids": np.array([1.0, 2.0])})
        stages = {"analyze": (), "train": ("--config", cfg_path),
                  "adapt": ("--checkpoint", ckpt, "--config", cfg_path),
                  "generate": ("--checkpoint", ckpt, "--config", cfg_path)}
        for stage, extra in stages.items():
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--input", hostile, *extra, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, stage
            assert "'videos'" in err and "Traceback" not in err, err
            assert not out.exists() or not any(out.iterdir()), stage

    def test_model_config_accepts_only_null_alpha(self, tmp_path, cfg_path, capsys):
        """Expert updates are unscaled: `alpha` survives only as null, the value
        every stored manifest records."""
        dataset = self._gen(tmp_path, cfg_path)
        bad = tmp_path / "alpha.json"
        bad.write_text(json.dumps(dict(CFG, model=dict(CFG["model"], alpha=8.0))))
        capsys.readouterr()
        rc = run("train", "--input", dataset, "--config", str(bad),
                 "--out", str(tmp_path / "alpha"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "alpha must be null, got 8.0" in err and "Traceback" not in err, err
        assert not (tmp_path / "alpha" / "checkpoint.fvl1").exists()

    def test_generate_rejects_hostile_embedding(self, tmp_path, cfg_path, capsys):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        width = CFG["model"]["width"]
        good = np.zeros((4, width), dtype=np.float32)
        nan = good.copy()
        nan[1, 2] = np.nan
        hostile = {"nan": nan, "f64": good.astype(np.float64),
                   "shape": np.zeros((width, 7), dtype=np.float32)}
        hostile = {name: {"vfx_embedding.tokens": tokens} for name, tokens in hostile.items()}
        hostile["missing"] = {"embedding.tokens": good}
        for name, entries in hostile.items():
            emb = tmp_path / f"{name}.fvl1"
            ct.write_container_file(str(emb), entries)
            out = tmp_path / f"out_{name}"
            capsys.readouterr()
            rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                     "--embedding", str(emb), "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, name
            assert str(emb) in err and "Traceback" not in err, err
            assert not (out / "sample.fvl1").exists(), name

    def test_adapt_config_accepts_only_unroll(self, tmp_path, cfg_path, capsys):
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)

        def adapt_with(name, section):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"adapt": section}))
            capsys.readouterr()
            rc = run("adapt", "--checkpoint", ckpt, "--input", dataset,
                     "--config", str(path), "--out", str(tmp_path / name))
            return rc, capsys.readouterr().err

        rejected = [("onestep", {"mode": "onestep"}, "unknown adaptation mode 'onestep'"),
                    ("refresh", {"refresh_every": 2}, "unknown AdaptConfig field 'refresh_every'"),
                    ("mixed", {"lambda_diffusion": 0.5},
                     "unknown AdaptConfig field 'lambda_diffusion'"),
                    ("unshared", {"shared_noise": False},
                     "unknown AdaptConfig field 'shared_noise'")]
        for name, section, message in rejected:
            rc, err = adapt_with(name, section)
            assert rc == 2, name
            assert message in err and "Traceback" not in err, err
            assert not (tmp_path / name / "adapted.fvl1").exists()
        # the benchmark's adapt-unroll settings (bench/workloads.py ADAPT_UNROLL)
        unroll = {"mode": "unroll", "sample_steps": 8, "sample_cfg": 3.0, "n_draws": 4}
        rc, err = adapt_with("unroll", {**unroll, "steps": 2, "embed_tokens": 4})
        assert rc == 0, err
        assert (tmp_path / "unroll" / "adapted.fvl1").exists()

    def test_report_requires_descriptors(self, tmp_path):
        p = tmp_path / "plain.fvl1"
        ct.write_container_file(str(p), {"videos": np.zeros((1, 2, 1, 4, 4),
                                                            dtype=np.float32)})
        assert run("report", "--input", str(p), "--out", str(tmp_path)) == 1


class TestAnalyze:
    def test_static_video_has_zero_motion_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal((1, 1, 2, 8, 8)).astype(np.float32)
        static = np.repeat(frame, 4, axis=1)
        p = tmp_path / "static.fvl1"
        ct.write_container_file(str(p), {"videos": static})
        out = tmp_path / "an"
        assert run("analyze", "--input", str(p), "--out", str(out)) == 0
        ts, vals = parse_spectral_report((out / "descriptors.csv").read_text())
        assert np.array_equal(ts, [0])
        assert np.all(vals[:, 3:] == 0.0)
        assert abs(vals[0, :3].sum() - 1.0) < 1e-5

    def test_unrepresentable_dims_exit_one(self, tmp_path, capsys):
        dims = (2**31, 2**31, 0)
        body = (b"FVL1" + struct.pack("<HHH", 1, 1, 6) + b"videos"
                + struct.pack("<BB3I", 1, 3, *dims))
        p = tmp_path / "hostile.fvl1"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        rc = run("analyze", "--input", str(p), "--out", str(tmp_path / "an"))
        err = capsys.readouterr().err
        assert rc == 1
        assert "entry 'videos'" in err and "Traceback" not in err, err

    def test_class_profiles_visible_in_report(self, tmp_path):
        # default latent size: the class contracts need room for interior sites
        d = tmp_path / "data"
        assert run("gen", "--out", str(d), "--seed", "3",
                   "--classes", "lowfreq_field:2,highfreq_particles:2") == 0
        out = tmp_path / "an"
        assert run("analyze", "--input", str(d / "dataset.fvl1"),
                   "--out", str(out)) == 0
        _, vals = parse_spectral_report((out / "descriptors.csv").read_text())
        # spec order: two low-frequency rows then two high-frequency rows
        assert np.argmax(vals[0, :3]) == 0 and np.argmax(vals[1, :3]) == 0
        assert np.argmax(vals[2, :3]) == 2 and np.argmax(vals[3, :3]) == 2
