import numpy as np
import pytest

import freqvfx.denoiser
import freqvfx.sampling
import freqvfx.tensor as fx
from freqvfx.denoiser import (build_adapter_stack, build_conditioning, build_denoiser,
                              denoise_guided, denoise_step)
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.moe import route
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule, sampling_grid
from freqvfx.spectral import joint_descriptor_detached

LATENT = (4, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10


def small_setup(seed=0, b=2):
    rng = np.random.default_rng(seed)
    params = build_denoiser(rng, latent_shape=LATENT, width=WIDTH, n_blocks=2,
                            patch=2, num_steps=NUM_STEPS)
    stack = build_adapter_stack(rng, params, n_experts=4, total_rank=8, top_k=3)
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
        pi = None
        if stack is not None:
            pi = route(joint_descriptor_detached(z), stack.router, stack.top_k)
        eps_c = denoise_step(z, t, cond, params, stack, pi=pi)
        if cfg_scale == 1.0:
            eps_hat = eps_c
        else:
            eps_u = denoise_step(z, t, None, params, stack, pi=pi)
            eps_hat = eps_u + cfg_scale * (eps_c - eps_u)
        a_t, s_t = sched.alphas[t], sched.sigmas[t]
        a_n, s_n = sched.alphas[t_next], sched.sigmas[t_next]
        ratio = a_n / a_t
        z = float(ratio) * z + float(s_n - ratio * s_t) * eps_hat
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

    def test_seed_and_rng_agree(self):
        params, stack, sched, cond = small_setup()
        r1 = sample(params, stack, sched, cond, steps=3, seed=11)
        noise = np.random.default_rng(11).standard_normal((2,) + LATENT).astype(np.float32)
        r2 = sample(params, stack, sched, cond, steps=3, init_noise=noise)
        assert r1.video.data.tobytes() == r2.video.data.tobytes()

    def test_explicit_init_noise(self):
        params, stack, sched, cond = small_setup()
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((2,) + LATENT).astype(np.float32)
        r1 = sample(params, stack, sched, cond, steps=3, init_noise=noise)
        r2 = sample(params, stack, sched, cond, steps=3, init_noise=noise)
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

    def test_without_stack(self):
        params, _, sched, cond = small_setup()
        r = sample(params, None, sched, cond, steps=3, cfg_scale=7.5, seed=0)
        assert r.pi_cond is None
        assert np.all(np.isfinite(r.video.data))

    def test_validation(self):
        params, stack, sched, cond = small_setup()
        with pytest.raises(ParameterError):
            sample(params, stack, sched, cond, steps=3, cfg_scale=-0.5)
        with pytest.raises(ParameterError):
            sample(params, stack, NoiseSchedule.cosine(20), cond, steps=3)
        with pytest.raises(ParameterError):
            sample(params, stack, sched, cond, steps=NUM_STEPS)
        bad = np.zeros((2, 4, 2, 4, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            sample(params, stack, sched, cond, steps=3, init_noise=bad)
