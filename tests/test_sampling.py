import importlib.util
import os

import numpy as np
import pytest

import freqvfx.denoiser
import freqvfx.sampling
import freqvfx.tensor as fx
from freqvfx.config import ModelConfig, SampleConfig
from freqvfx.denoiser import build_conditioning, build_model, denoise_guided, denoise_step
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.moe import route
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule, sampling_grid
from freqvfx.spectral import joint_descriptor_detached

import oracles

LATENT = (4, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10
CFG = SampleConfig().cfg_scale
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_setup(seed=0, b=2):
    rng = np.random.default_rng(seed)
    params, stack = build_model(
        ModelConfig(latent_shape=LATENT, width=WIDTH, num_steps=NUM_STEPS, total_rank=8), rng)
    # move the experts off their zero cold start so routing actually matters
    for name, t in stack.parameters().items():
        if name.endswith(".b") or name == "router.w2":
            t.data[...] += 0.03
    sched = NoiseSchedule.cosine(NUM_STEPS)
    z0 = rng.standard_normal((b,) + LATENT).astype(np.float32)
    text = rng.standard_normal((2, WIDTH)).astype(np.float32)
    cond = build_conditioning(params, z0, text)
    return params, stack, sched, cond


def manual_sample(params, stack, sched, cond, steps, cfg_scale, init_noise):
    """Straight-line reimplementation of the guided update for comparison."""
    grid = sampling_grid(sched.num_steps, steps)
    z = fx.Tensor(init_noise.copy())
    for k in range(steps):
        t, t_next = int(grid[k]), int(grid[k + 1])
        pi = route(joint_descriptor_detached(z), stack.router, stack.top_k)
        eps_c = denoise_step(z, t, cond, params, stack, pi=pi)
        if cfg_scale == 1.0:
            eps_hat = eps_c
        else:
            eps_u = denoise_step(z, t, None, params, stack, pi=pi)
            eps_hat = oracles.add(eps_u, oracles.mul(cfg_scale, oracles.sub(eps_c, eps_u)))
        a_t, s_t = sched.alphas[t], sched.sigmas[t]
        a_n, s_n = sched.alphas[t_next], sched.sigmas[t_next]
        ratio = a_n / a_t
        c = float(s_n - ratio * s_t)
        z = oracles.add(oracles.mul(float(ratio), z), oracles.mul(c, eps_hat))
    return z.data


class TestDeterminism:
    def test_same_seed_same_video(self):
        params, stack, sched, cond = small_setup()
        r1 = sample(params, stack, sched, cond, steps=5, cfg_scale=7.5, seed=3)
        r2 = sample(params, stack, sched, cond, steps=5, cfg_scale=7.5, seed=3)
        assert r1.video.data.tobytes() == r2.video.data.tobytes()
        assert np.array_equal(r1.descriptors, r2.descriptors)
        assert np.array_equal(r1.pi_cond, r2.pi_cond)
        r3 = sample(params, stack, sched, cond, steps=5, cfg_scale=7.5, seed=4)
        assert r1.video.data.tobytes() != r3.video.data.tobytes()

    def test_a_tape_changes_no_byte_of_a_guided_sample(self):
        """A guided rollout with vfx tokens gives the same bytes whether or not
        a tape records it: adapt samples under a tape and its self-reference
        fixpoint compares with a sample drawn without one."""
        params, stack, sched, cond = small_setup()
        vfx = fx.tensor(np.random.default_rng(5).normal(0.0, 0.1, (3, WIDTH)).astype(np.float32))
        cond = cond.with_vfx(vfx)
        free = sample(params, stack, sched, cond, steps=4, cfg_scale=3.0, seed=6)
        with fx.Tape([vfx]):
            taped = sample(params, stack, sched, cond, steps=4, cfg_scale=3.0, seed=6)
            assert fx.is_live(taped.video)
        assert taped.video.data.tobytes() == free.video.data.tobytes()
        assert taped.descriptors.tobytes() == free.descriptors.tobytes()
        assert taped.pi_cond.tobytes() == free.pi_cond.tobytes()

    def test_seed_and_rng_agree(self):
        params, stack, sched, cond = small_setup()
        r1 = sample(params, stack, sched, cond, steps=3, cfg_scale=CFG, seed=11)
        noise = np.random.default_rng(11).standard_normal((2,) + LATENT).astype(np.float32)
        r2 = sample(params, stack, sched, cond, steps=3, cfg_scale=CFG, init_noise=noise)
        assert r1.video.data.tobytes() == r2.video.data.tobytes()

    def test_explicit_init_noise(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        r1 = sample(params, stack, sched, cond, steps=3, cfg_scale=CFG, init_noise=noise)
        r2 = sample(params, stack, sched, cond, steps=3, cfg_scale=CFG, init_noise=noise)
        assert r1.video.data.tobytes() == r2.video.data.tobytes()


class TestGuidance:
    def test_unguided_run_matches_conditional_only_loop(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        got = sample(params, stack, sched, cond, steps=4, cfg_scale=1.0,
                     init_noise=noise)
        ref = manual_sample(params, stack, sched, cond, 4, 1.0, noise)
        assert got.video.data.tobytes() == ref.tobytes()

    def test_guided_run_matches_manual_update(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(2)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        got = sample(params, stack, sched, cond, steps=4, cfg_scale=7.5,
                     init_noise=noise)
        ref = manual_sample(params, stack, sched, cond, 4, 7.5, noise)
        assert got.video.data.tobytes() == ref.tobytes()

    def test_guidance_strength_changes_result(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        a = sample(params, stack, sched, cond, steps=3, cfg_scale=1.0,
                   init_noise=noise)
        b = sample(params, stack, sched, cond, steps=3, cfg_scale=7.5,
                   init_noise=noise)
        assert not np.array_equal(a.video.data, b.video.data)

    def test_cfg_zero_is_purely_unconditional(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        got = sample(params, stack, sched, cond, steps=3, cfg_scale=0.0,
                     init_noise=noise)
        ref = manual_sample(params, stack, sched, cond, 3, 0.0, noise)
        assert got.video.data.tobytes() == ref.tobytes()


class TestSharedRouting:
    def test_both_branches_reuse_one_routing(self, monkeypatch):
        params, stack, sched, cond = small_setup()
        calls, heads = [], []
        real, real_head = denoise_guided, freqvfx.denoiser._head

        def recorder(z_t, t, c, p, s, *, pi=None):
            calls.append((int(t), c, pi))
            return real(z_t, t, c, p, s, pi=pi)

        def head_recorder(x, c, p, s, pi):
            heads.append((c, pi))
            return real_head(x, c, p, s, pi)

        monkeypatch.setattr(freqvfx.sampling, "denoise_guided", recorder)
        monkeypatch.setattr(freqvfx.denoiser, "_head", head_recorder)
        sample(params, stack, sched, cond, steps=4, cfg_scale=7.5, seed=0)
        assert len(calls) == 4 and len(heads) == 8
        for k, (_, c, pi) in enumerate(calls):
            assert c is cond and pi is not None
            (c_c, pi_c), (c_u, pi_u) = heads[2 * k], heads[2 * k + 1]
            assert c_c is cond and c_u is None
            assert pi_c is pi and pi_u is pi

    def test_unguided_run_never_calls_uncond_branch(self, monkeypatch):
        params, stack, sched, cond = small_setup()
        conds, guided = [], []
        real = denoise_step

        def recorder(z_t, t, c, p, s, *, pi=None):
            conds.append(c)
            return real(z_t, t, c, p, s, pi=pi)

        monkeypatch.setattr(freqvfx.sampling, "denoise_step", recorder)
        monkeypatch.setattr(freqvfx.sampling, "denoise_guided",
                            lambda *a, **k: guided.append(a))
        sample(params, stack, sched, cond, steps=4, cfg_scale=1.0, seed=0)
        assert conds == [cond] * 4
        assert guided == []


class TestLoggingAndShapes:
    def test_result_fields(self):
        params, stack, sched, cond = small_setup()
        r = sample(params, stack, sched, cond, steps=5, cfg_scale=7.5, seed=0)
        assert r.video.shape == (2,) + LATENT
        assert r.video.dtype == np.float32
        assert np.array_equal(r.timesteps, sampling_grid(NUM_STEPS, 5))
        assert r.descriptors.shape == (5, 2, 6)
        assert np.all(np.isfinite(r.descriptors))
        assert r.pi_cond.shape == (5, 2, 4)
        assert np.allclose(r.pi_cond.sum(axis=2), 1.0, atol=1e-6)

    def test_descriptors_track_the_trajectory(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        r = sample(params, stack, sched, cond, steps=3, cfg_scale=1.0,
                   init_noise=noise)
        first = joint_descriptor_detached(fx.Tensor(noise))
        assert np.allclose(r.descriptors[0], first, atol=1e-12)

    def test_validation(self):
        params, stack, sched, cond = small_setup()
        with pytest.raises(ParameterError):
            sample(params, stack, sched, cond, steps=3, cfg_scale=-0.5)
        with pytest.raises(ParameterError):
            sample(params, stack, NoiseSchedule.cosine(20), cond, steps=3, cfg_scale=CFG)
        with pytest.raises(ParameterError):
            sample(params, stack, sched, cond, steps=NUM_STEPS, cfg_scale=CFG)
        bad = np.zeros((2, 4, 2, 4, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            sample(params, stack, sched, cond, steps=3, cfg_scale=CFG, init_noise=bad)


class TestRoundingProbeArithmetics:
    """`tools/rounding_probe.py` runs outside tier-1, so this keeps its two
    patched arithmetics working: each replaces `sampling.ddim_update` in a taped
    guided rollout with vfx tokens, differs from it in rounding only, and still
    passes a gradient to the tokens."""

    @pytest.fixture(scope="class")
    def probe(self):
        spec = importlib.util.spec_from_file_location(
            "rounding_probe", os.path.join(ROOT, "tools", "rounding_probe.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def rollout(seed):
        """The sample and the vfx gradient of a 4-step cfg-3 rollout under a tape."""
        params, stack, sched, cond = small_setup(seed)
        vfx = fx.tensor(np.random.default_rng(5).normal(0.0, 0.1, (3, WIDTH)).astype(np.float32))
        with fx.Tape([vfx]) as tape:
            z = sample(params, stack, sched, cond.with_vfx(vfx), steps=4, cfg_scale=3.0,
                       seed=6).video
            loss = oracles.reduce_sum(oracles.square(z))
        return z.data, fx.backward(tape, loss)[vfx].data

    @pytest.mark.parametrize("name", ["combine", "update"])
    def test_variant_differs_from_today_only_in_rounding(self, probe, monkeypatch, name):
        assert probe.ARITHMETICS["today"] is freqvfx.sampling.ddim_update
        z, grad = self.rollout(0)
        monkeypatch.setattr(freqvfx.sampling, "ddim_update", probe.ARITHMETICS[name])
        z_var, grad_var = self.rollout(0)
        assert z_var.tobytes() != z.tobytes()
        assert np.max(np.abs(z_var - z)) <= 1e-5 * np.max(np.abs(z))
        assert np.max(np.abs(grad_var - grad)) <= 1e-5 * np.max(np.abs(grad))
        assert np.any(grad_var != 0.0)
