import ctypes
import hashlib
import json
import os
import platform
import resource
import struct
import subprocess
import sys
import textwrap
import zlib

import numpy as np
import pytest

from freqvfx import cli
from freqvfx import container as ct
from freqvfx.cli import main

import oracles
from test_bench_targets import load_bench

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

    def test_class_count_beyond_any_array_size(self, tmp_path, capsys):
        """A `--classes` count whose videos no array could hold exits 2 before
        anything is allocated, naming the count."""
        out = tmp_path / "out"
        rc = run("gen", "--out", str(out), "--classes", f"lowfreq_field:{10 ** 30}")
        err = capsys.readouterr().err
        assert rc == 2
        assert "dataset spec count" in err and "Traceback" not in err, err
        assert not out.exists()

    def test_repeated_class_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run("gen", "--out", str(out), "--classes", "lowfreq_field:2,lowfreq_field:3")
        err = capsys.readouterr().err
        assert rc == 2
        assert "'lowfreq_field' is named twice" in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("stage, flag", [("analyze", "--seed"), ("analyze", "--config"),
                                             ("report", "--seed"), ("report", "--config")])
    def test_stages_without_seed_or_config_reject_the_flags(self, tmp_path, stage, flag):
        """`analyze` and `report` read no seed and no config, so neither flag parses."""
        with pytest.raises(SystemExit) as e:
            run(stage, "--input", str(tmp_path / "x.fvl1"), "--out", str(tmp_path), flag, "1")
        assert e.value.code == 2


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
        assert sc.run_selfcheck(0) == 1
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
        assert train_m.inputs["dataset.fvl1"] == oracles.sha256_file(dataset)
        assert 0.0 < train_m.extra["loss_ratio_threshold"] <= 0.5

        adapt_m = ct.read_manifest(ct.manifest_path_for(adapted))
        assert adapt_m.inputs["checkpoint.fvl1"] == oracles.sha256_file(ckpt)
        assert adapt_m.inputs["dataset.fvl1"] == oracles.sha256_file(dataset)

        gen_m = ct.read_manifest(ct.manifest_path_for(sample))
        assert gen_m.inputs["checkpoint.fvl1"] == oracles.sha256_file(ckpt)
        assert gen_m.inputs["adapted.fvl1"] == oracles.sha256_file(adapted)
        assert gen_m.config["model"] == train_m.config["model"]

        entries = ct.read_container_file(sample)
        assert entries["video"].shape == (6, 2, 2, 4, 4)
        assert entries["descriptors"].shape == (4, 6, 6)
        ts, vals = oracles.parse_spectral_report(
            (report_dir / "spectral.csv").read_text())
        assert len(ts) == 4
        assert np.all(np.isfinite(vals))

        # and what each stage cost its own process
        for artifact in (dataset, ckpt, adapted, sample, str(report_dir / "spectral.csv")):
            used = ct.read_manifest(ct.manifest_path_for(artifact)).extra["resources"]
            assert sorted(used) == ["max_rss_mb", "minor_faults", "sys_s", "user_s", "wall_s"]
            assert all(isinstance(v, (int, float)) and v >= 0 for v in used.values()), used
            assert isinstance(used["minor_faults"], int), used

    def test_each_stage_hashes_the_bytes_it_parsed(self, tmp_path, cfg_path, monkeypatch):
        """An input replaced right after a stage read it, as by a concurrent run
        writing the same file, leaves the manifest naming the bytes the stage used."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        assert run("adapt", "--checkpoint", ckpt, "--input", dataset, "--config", cfg_path,
                   "--out", str(tmp_path / "adapted")) == 0
        adapted = str(tmp_path / "adapted" / "adapted.fvl1")
        assert run("generate", "--checkpoint", ckpt, "--input", dataset, "--embedding",
                   adapted, "--config", cfg_path, "--out", str(tmp_path / "sampled")) == 0
        sample = str(tmp_path / "sampled" / "sample.fvl1")
        originals = {}
        for path in (dataset, ckpt, adapted, sample):
            with open(path, "rb") as f:
                originals[path] = f.read()
        decode = ct.read_container

        def decode_then_replace(blob):
            entries = decode(blob)
            for path, data in originals.items():
                if data == blob:
                    ct.write_container_file(path, {"replaced": np.zeros(1, np.float32)})
            return entries

        monkeypatch.setattr(ct, "read_container", decode_then_replace)
        stages = [
            (["train", "--input", dataset, "--config", cfg_path], "checkpoint.fvl1", [dataset]),
            (["adapt", "--checkpoint", ckpt, "--input", dataset, "--config", cfg_path],
             "adapted.fvl1", [ckpt, dataset]),
            (["generate", "--checkpoint", ckpt, "--input", dataset, "--embedding", adapted,
              "--config", cfg_path], "sample.fvl1", [ckpt, dataset, adapted]),
            (["analyze", "--input", dataset], "descriptors.csv", [dataset]),
            (["report", "--input", sample], "spectral.csv", [sample]),
        ]
        for k, (argv, artifact, read) in enumerate(stages):
            out = tmp_path / f"again{k}"
            assert run(*argv, "--out", str(out)) == 0, argv[0]
            manifest = ct.read_manifest(ct.manifest_path_for(str(out / artifact)))
            assert manifest.inputs == {os.path.basename(path):
                                       hashlib.sha256(originals[path]).hexdigest()
                                       for path in read}, argv[0]
            for path in read:
                assert oracles.sha256_file(path) != manifest.inputs[os.path.basename(path)]
                with open(path, "wb") as f:
                    f.write(originals[path])

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
        """A checkpoint with a valid CRC but a NaN or recast entry, or a schedule
        that is not a float64 vector of num_steps finite values, exits 1 naming
        the entry."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(ckpt)
        nan = entries["adapter.block0.self.q.b"].copy()
        nan[0, 0] = np.nan
        alphas = entries["schedule.alphas"]
        nan_alphas = alphas.copy()
        nan_alphas[3] = np.nan
        cases = {"nan": ("adapter.block0.self.q.b", nan),
                 "f64": ("backbone.pos", entries["backbone.pos"].astype(np.float64)),
                 "nan_schedule": ("schedule.alphas", nan_alphas),
                 "short_schedule": ("schedule.sigmas", entries["schedule.sigmas"][:-1]),
                 "2d_schedule": ("schedule.alphas", alphas[None]),
                 "f32_schedule": ("schedule.alphas", alphas.astype(np.float32)),
                 "rising_schedule": ("schedule.alphas", alphas[::-1].copy())}
        for tag, (key, arr) in cases.items():
            ct.write_container_file(ckpt, {**entries, key: arr})
            out = tmp_path / f"out_{tag}"
            capsys.readouterr()
            rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                     "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, tag
            assert repr(key) in err and "Traceback" not in err, err
            assert not (out / "sample.fvl1").exists(), tag

    def test_per_expert_checkpoint_layout_is_refused(self, tmp_path, cfg_path, capsys):
        """A checkpoint that stores each expert's block of a packed pair as its own
        `adapter.<layer>.expert<m>.{a,b}` entry, beside all-zero embed and unembed
        biases, is not this model's layout: exit 1 naming the first missing pair."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(ckpt)
        width = CFG["model"]["width"]
        split = {"backbone.embed_b": np.zeros(width, np.float32),
                 "backbone.unembed_b": np.zeros(entries["backbone.unembed_w"].shape[0],
                                                np.float32)}
        for name, arr in entries.items():
            if not name.startswith("adapter."):
                split[name] = arr
                continue
            layer, ab = name.rsplit(".", 1)
            for m, block in enumerate(np.split(arr, 4, axis=0 if ab == "a" else 1)):
                split[f"{layer}.expert{m}.{ab}"] = block
        ct.write_container_file(ckpt, split)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run("generate", "--checkpoint", ckpt, "--input", dataset,
                 "--config", cfg_path, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1
        assert "checkpoint is missing entry 'adapter.block0.self.q.a'" in err, err
        assert "Traceback" not in err and not (out / "sample.fvl1").exists()

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
        ("nan_class_id", "class_ids"), ("short_class_ids", "class_ids"),
        ("nan_video", "videos"), ("text_shapes", "text.highfreq_particles"),
        ("nan_text", "text.lowfreq_field")])
    def test_train_rejects_hostile_dataset(self, tmp_path, cfg_path, capsys, defect, entry):
        """A dataset container missing an entry, holding a non-finite value or text
        entries of two shapes, or whose class ids name no effect class, exits 1
        with the entry named."""
        dataset = self._gen(tmp_path, cfg_path)
        entries = ct.read_container_file(dataset)
        ids = entries["class_ids"].copy()
        if defect.startswith("no_"):
            del entries[entry]
        elif defect == "short_class_ids":
            entries[entry] = ids[:2]
        elif defect == "text_shapes":
            entries[entry] = entries[entry][:1]
        elif defect in ("nan_video", "nan_text"):
            entries[entry] = entries[entry].copy()
            entries[entry].flat[-1] = np.nan
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

    def test_train_rejects_text_of_another_width(self, tmp_path, cfg_path, capsys):
        """Text tokens narrower than the model are a mismatch with the model, as a
        latent shape is: exit 2, whether or not a step drops the conditioning."""
        entries = ct.read_container_file(self._gen(tmp_path, cfg_path))
        for name in ("text.lowfreq_field", "text.highfreq_particles"):
            entries[name] = entries[name][:, :8]
        narrow = tmp_path / "narrow.fvl1"
        ct.write_container_file(str(narrow), entries)
        capsys.readouterr()
        rc = run("train", "--input", str(narrow), "--config", cfg_path,
                 "--out", str(tmp_path / "narrow"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "text tokens" in err and "Traceback" not in err, err
        assert not (tmp_path / "narrow" / "checkpoint.fvl1").exists()

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

    @pytest.mark.parametrize("defect", ["nan", "float64", "wide"])
    def test_restore_rejects_bad_text_tokens(self, tmp_path, cfg_path, capsys, defect):
        """A checkpoint with a valid CRC whose stored text tokens hold a NaN, are
        float64 or do not match the model's (n_text_tokens, width) exits 1 naming
        the entry, in both stages that restore it, and writes nothing."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(ckpt)
        name = "cond.text.lowfreq_field"
        bad = {"nan": entries[name].copy(), "float64": entries[name].astype(np.float64),
               "wide": np.zeros((2, CFG["model"]["width"] + 1), dtype=np.float32)}[defect]
        if defect == "nan":
            bad[1, 3] = np.nan
        ct.write_container_file(ckpt, {**entries, name: bad})
        for stage, artifact in (("generate", "sample.fvl1"), ("adapt", "adapted.fvl1")):
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--checkpoint", ckpt, "--input", dataset, "--config", cfg_path,
                     "--class-name", "lowfreq_field", "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, stage
            assert repr(name) in err and "Traceback" not in err, err
            assert not (out / artifact).exists()

    @pytest.mark.parametrize("section, named", [
        ([16, 2], "'model'"), ({**CFG["model"], "width": "16"}, "ModelConfig.width")],
        ids=["list", "string_width"])
    def test_restore_rejects_malformed_model_section(self, tmp_path, cfg_path, capsys,
                                                     section, named):
        """A checkpoint whose manifest records a model section that is no object, or
        one with a malformed field, is a corrupt artifact: both stages that restore
        it exit 1 naming the manifest and what is wrong."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        manifest = ct.manifest_path_for(ckpt)
        with open(manifest) as f:
            doc = json.load(f)
        doc["config"]["model"] = section
        with open(manifest, "w") as f:
            json.dump(doc, f)
        for stage, artifact in (("generate", "sample.fvl1"), ("adapt", "adapted.fvl1")):
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--checkpoint", ckpt, "--input", dataset,
                     "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, stage
            assert manifest in err and named in err and "Traceback" not in err, err
            assert not (out / artifact).exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", "\udcff"],
                             ids=["list", "malformed", "not_utf8"])
    def test_restore_rejects_malformed_manifest(self, tmp_path, cfg_path, capsys, text):
        """A checkpoint manifest that is not a JSON object is a corrupt artifact:
        both stages that restore it exit 1 naming the manifest."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        manifest = ct.manifest_path_for(ckpt)
        with open(manifest, "wb") as f:
            f.write(text.encode("utf-8", "surrogateescape"))
        for stage, artifact in (("generate", "sample.fvl1"), ("adapt", "adapted.fvl1")):
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--checkpoint", ckpt, "--input", dataset,
                     "--config", cfg_path, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1, stage
            assert manifest in err and "Traceback" not in err, err
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
        """A container holding only `class_ids`, or whose `videos` hold a NaN or
        are not (N, T, C, H, W), is a corrupt input to all four stages that read
        videos: each exits 1 naming the entry."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(dataset)
        nan = entries["videos"].copy()
        nan[0, 0, 0, 0, 0] = np.nan
        hostile = {"ids_only": {"class_ids": entries["class_ids"]},
                   "nan": {**entries, "videos": nan},
                   "4d": {**entries, "videos": entries["videos"][0]}}
        stages = {"analyze": (), "train": ("--config", cfg_path),
                  "adapt": ("--checkpoint", ckpt, "--config", cfg_path),
                  "generate": ("--checkpoint", ckpt, "--config", cfg_path)}
        for defect, defect_entries in hostile.items():
            path = str(tmp_path / f"{defect}.fvl1")
            ct.write_container_file(path, defect_entries)
            for stage, extra in stages.items():
                out = tmp_path / f"out_{defect}_{stage}"
                capsys.readouterr()
                rc = run(stage, "--input", path, *extra, "--out", str(out))
                err = capsys.readouterr().err
                assert rc == 1, (defect, stage)
                assert "'videos'" in err and "Traceback" not in err, err
                assert not out.exists() or not any(out.iterdir()), (defect, stage)

    def test_model_config_refuses_an_alpha_key(self, tmp_path, cfg_path, capsys):
        """Expert updates are unscaled and `ModelConfig` has no `alpha`: the key is
        an unknown field, null (what older manifests recorded) or not."""
        dataset = self._gen(tmp_path, cfg_path)
        for value in (None, 8.0):
            bad = tmp_path / "alpha.json"
            bad.write_text(json.dumps(dict(CFG, model=dict(CFG["model"], alpha=value))))
            capsys.readouterr()
            rc = run("train", "--input", dataset, "--config", str(bad),
                     "--out", str(tmp_path / "alpha"))
            err = capsys.readouterr().err
            assert rc == 2
            assert "unknown ModelConfig field 'alpha'" in err and "Traceback" not in err, err
            assert not (tmp_path / "alpha").exists() or not any((tmp_path / "alpha").iterdir())

    @pytest.mark.parametrize("stage, config, field", [
        ("train", {"train": {"steps": "5"}}, "steps"),
        ("train", {"train": {"lr": "x"}}, "lr"),
        ("train", {"train": {"batch_size": 0}}, "batch_size"),
        ("train", {"train": {"betas": [0.9]}}, "betas"),
        ("train", {"train": {"cond_dropout": 2.0}}, "cond_dropout"),
        ("train", {"train": {"seed": -1}}, "seed"),
        ("train", {"train": [1]}, "'train'"),
        ("train", {"model": {"latent_shape": [8, 4, 8]}}, "latent_shape"),
        ("train", {"model": {"width": 0}}, "width"),
        ("train", "--seed -1", "--seed"),
        ("train", b'{"train": {"steps": "\xff"}}', "UTF-8"),
        ("generate", {"sample": {"cfg_scale": "7"}}, "cfg_scale"),
        ("generate", {"model": 5}, "'model'"),
        ("train", {"train": {"lr": 10 ** 400}}, "lr"),  # an int too large for a float
        ("train", b"{not json", "bad.json"),
        ("train", {"model": {"width": 10 ** 30}}, "width"),  # beyond any array size
        ("train", {"train": {"batch_size": 10 ** 30}}, "TrainConfig.batch_size"),
        ("adapt", {"adapt": {"embed_tokens": 10 ** 30}}, "AdaptConfig.embed_tokens"),
    ])
    def test_malformed_config_is_usage_error_naming_the_field(self, tmp_path, cfg_path,
                                                              capsys, stage, config, field):
        """Each malformed value exits 2 before any work, naming what is wrong."""
        dataset = self._gen(tmp_path, cfg_path, classes="lowfreq_field:2,highfreq_particles:2")
        argv = ["--input", dataset, "--out", str(tmp_path / "out")]
        if stage in ("generate", "adapt"):
            argv += ["--checkpoint", self._train(tmp_path, cfg_path, dataset)]
        if config == "--seed -1":
            argv += ["--config", cfg_path, "--seed", "-1"]
        else:
            bad = tmp_path / "bad.json"
            if isinstance(config, bytes):
                bad.write_bytes(config)
            else:
                bad.write_text(json.dumps(config))
            argv += ["--config", str(bad)]
        capsys.readouterr()
        try:
            rc = run(stage, *argv)
        except SystemExit as e:  # argparse rejects a bad flag value itself
            rc = e.code
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cfg_scale", [1e20, 1e38])
    def test_generate_writes_no_non_finite_sample(self, tmp_path, cfg_path, capsys, cfg_scale):
        """A guidance scale that drives the sample past float32 stops the sampler
        at the first step whose latent is not finite (the second step at 1e20,
        the first at 1e38): exit 1 naming that step, and no sample, manifest or
        CSV written. The overflow on the way emits no RuntimeWarning, which this
        test turns into an error."""
        step = {1e20: 1, 1e38: 0}[cfg_scale]
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"sample": {"steps": 3, "cfg_scale": cfg_scale}}))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run("generate", "--checkpoint", ckpt, "--input", dataset, "--config", str(huge),
                 "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"non-finite at sampler step {step}\n" in err and "Traceback" not in err, err
        assert not out.exists() or not any(out.iterdir())

    def test_train_rejects_text_of_another_token_count(self, tmp_path, cfg_path, capsys):
        """A dataset whose text entries hold another number of tokens than the
        model's `n_text_tokens` is a mismatch with the model: exit 2 naming both
        before any step, and no checkpoint, where the checkpoint once written
        was one that `generate` refused."""
        dataset = self._gen(tmp_path, cfg_path)
        three = tmp_path / "three.json"
        three.write_text(json.dumps(dict(CFG, model=dict(CFG["model"], n_text_tokens=3))))
        capsys.readouterr()
        rc = run("train", "--input", dataset, "--config", str(three),
                 "--out", str(tmp_path / "t"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "n_text_tokens" in err and "'text.lowfreq_field'" in err, err
        assert "Traceback" not in err and not (tmp_path / "t").exists()

    @pytest.mark.parametrize("defect", ["channels", "frame_size"])
    def test_stages_reject_videos_of_another_frame_shape(self, tmp_path, cfg_path, capsys,
                                                         defect):
        """Videos whose (C, H, W) differ from the model's latent are a mismatch
        with the model in the three stages that condition on them: exit 2 with one
        error line naming the shapes, and no artifact. Fewer channels cannot be
        projected to image tokens, and smaller frames would give fewer of them."""
        dataset = self._gen(tmp_path, cfg_path)
        ckpt = self._train(tmp_path, cfg_path, dataset)
        entries = ct.read_container_file(dataset)
        videos = entries["videos"][:, :, :1] if defect == "channels" else \
            entries["videos"][..., :2, :2]
        path = str(tmp_path / f"{defect}.fvl1")
        ct.write_container_file(path, {**entries, "videos": np.ascontiguousarray(videos)})
        stages = {"train": ("--config", cfg_path),
                  "adapt": ("--checkpoint", ckpt, "--config", cfg_path),
                  "generate": ("--checkpoint", ckpt, "--config", cfg_path)}
        for stage, extra in stages.items():
            out = tmp_path / f"out_{stage}"
            capsys.readouterr()
            rc = run(stage, "--input", path, *extra, "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 2, stage
            assert err.count("error:") == 1 and "(C, H, W)" in err, err
            assert "Traceback" not in err, err
            assert not out.exists() or not any(out.iterdir()), stage

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
        # the benchmark's adapt-unroll settings
        unroll = load_bench("workloads").ADAPT_UNROLL
        rc, err = adapt_with("unroll", {**unroll, "steps": 2, "embed_tokens": 4})
        assert rc == 0, err
        assert (tmp_path / "unroll" / "adapted.fvl1").exists()

    @pytest.mark.parametrize("defect, entry", [
        ("nan_descriptors", "descriptors"), ("1d_descriptors", "descriptors"),
        ("nan_timestep", "timesteps"), ("huge_timestep", "timesteps"),
        ("negative_timestep", "timesteps"), ("fractional_timestep", "timesteps"),
        ("short_timesteps", "timesteps")])
    def test_report_rejects_hostile_trajectory(self, tmp_path, capsys, defect, entry):
        """`report` checks the trajectory it reads: finite (steps, B, 6)
        descriptors, as generate writes them, and one whole timestep >= 0 per row
        that int64 holds exactly. Anything else exits 1 naming the entry."""
        desc = np.full((4, 1, 6), 0.5)
        ts = np.array([999.0, 666.0, 333.0, 0.0])
        if defect == "nan_descriptors":
            desc[2, 0, 1] = np.nan
        elif defect == "1d_descriptors":
            desc = desc.ravel()
        elif defect == "short_timesteps":
            ts = ts[:3]
        else:
            ts[1] = {"nan_timestep": np.nan, "huge_timestep": 1e300,
                     "negative_timestep": -1.0, "fractional_timestep": 2.5}[defect]
        p = tmp_path / "sample.fvl1"
        ct.write_container_file(str(p), {"descriptors": desc, "timesteps": ts})
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run("report", "--input", str(p), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1, defect
        assert repr(entry) in err and "Traceback" not in err, err
        assert not (out / "spectral.csv").exists()

    def test_report_requires_descriptors(self, tmp_path):
        p = tmp_path / "plain.fvl1"
        ct.write_container_file(str(p), {"videos": np.zeros((1, 2, 1, 4, 4),
                                                            dtype=np.float32)})
        assert run("report", "--input", str(p), "--out", str(tmp_path)) == 1


class TestMallocPin:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc")
    def test_freed_arrays_stay_in_the_process(self, tmp_path):
        """After `main` ran once, even only to a usage error, 64 arrays of 256 KiB
        allocated and dropped 20 times reuse the same pages: under glibc's dynamic
        thresholds every round gives its 16 MiB back and faults it in again."""
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from freqvfx.cli import main
            assert main(["report", "--input", sys.argv[1], "--out", sys.argv[2]]) == 2

            def rounds(n):
                for _ in range(n):
                    arrays = [np.ones(32768) for _ in range(64)]
                    del arrays

            rounds(1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rounds(20)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "missing.fvl1"),
                               str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        one_round = 64 * (256 << 10) // resource.getpagesize()
        assert int(proc.stdout.split()[-1]) < one_round // 4

    @pytest.mark.parametrize("library", ["no mallopt", "no C library"])
    def test_cli_runs_without_mallopt(self, tmp_path, monkeypatch, library):
        """Where the C library has no `mallopt` (macOS), or none can be loaded,
        `main` leaves malloc alone and runs as usual."""
        class NoMallopt:
            def __init__(self, name):
                if library == "no C library":
                    raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        assert run("report", "--input", str(tmp_path / "missing.fvl1"),
                   "--out", str(tmp_path)) == 2
        p = tmp_path / "videos.fvl1"
        ct.write_container_file(str(p), {"videos": np.zeros((1, 2, 1, 4, 4), np.float32)})
        assert run("analyze", "--input", str(p), "--out", str(tmp_path / "an")) == 0


class TestAnalyze:
    def test_static_video_has_zero_motion_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal((1, 1, 2, 8, 8)).astype(np.float32)
        static = np.repeat(frame, 4, axis=1)
        p = tmp_path / "static.fvl1"
        ct.write_container_file(str(p), {"videos": static})
        out = tmp_path / "an"
        assert run("analyze", "--input", str(p), "--out", str(out)) == 0
        ts, vals = oracles.parse_spectral_report((out / "descriptors.csv").read_text())
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
        _, vals = oracles.parse_spectral_report((out / "descriptors.csv").read_text())
        # spec order: two low-frequency rows then two high-frequency rows
        assert np.argmax(vals[0, :3]) == 0 and np.argmax(vals[1, :3]) == 0
        assert np.argmax(vals[2, :3]) == 2 and np.argmax(vals[3, :3]) == 2
