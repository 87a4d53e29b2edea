import json
import os

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
        assert run("report", "--input", str(p), "--out", str(tmp_path)) == 2


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
