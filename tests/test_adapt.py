import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx.adapt import (VfxEmbedding, adapt, freq_constraint_loss,
                           reference_latents, timestep_window)
from freqvfx.config import AdaptConfig, ModelConfig, from_dict
from freqvfx.denoiser import build_adapter_stack, build_conditioning, build_denoiser, build_model
from freqvfx.errors import AdaptationDivergedError, ParameterError, ShapeError
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule
from freqvfx.synthgen import build_dataset

import oracles

LATENT = (2, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10
MODEL = ModelConfig(latent_shape=LATENT, width=WIDTH, num_steps=NUM_STEPS, total_rank=8)
STD = AdaptConfig().embed_std


def small_setup(seed=0, b=2):
    rng = np.random.default_rng(seed)
    params, stack = build_model(MODEL, rng)
    sched = NoiseSchedule.cosine(NUM_STEPS)
    z0 = rng.standard_normal((b,) + LATENT).astype(np.float32)
    text = rng.standard_normal((2, WIDTH)).astype(np.float32)
    cond = build_conditioning(params, z0, text)
    return params, stack, sched, cond


def quick_config(**overrides):
    base = dict(steps=3, lr=0.02, seed=0, sample_steps=2, sample_cfg=1.0,
                sample_seed=0, embed_tokens=4, t_low_frac=0.25, t_high_frac=0.75)
    base.update(overrides)
    return AdaptConfig(**base)


class TestVfxEmbedding:
    def test_init_contract(self):
        emb = VfxEmbedding.init(np.random.default_rng(0), length=16, width=64, std=STD)
        assert emb.tokens.shape == (16, 64)
        assert emb.tokens.dtype == np.float32
        sd = emb.tokens.data.std()
        assert 0.015 < sd < 0.025

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            VfxEmbedding.init(np.random.default_rng(0), length=0, width=64, std=STD)


class TestFreqConstraintLoss:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((2, 3, 1, 6, 6)).astype(np.float32)
        assert float(freq_constraint_loss(z, z.copy()).data) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((2, 3, 1, 6, 6)).astype(np.float32)
            b = rng.standard_normal((2, 3, 1, 6, 6)).astype(np.float32)
            lab = float(freq_constraint_loss(a, b).data)
            lba = float(freq_constraint_loss(b, a).data)
            assert lab == lba
            assert 0.0 <= lab <= 4.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 1, 6, 6)).astype(np.float32)
        b = rng.standard_normal((2, 3, 1, 6, 6)).astype(np.float32)
        from freqvfx.spectral import EPS_DEFAULT, SIGMA1_DEFAULT, SIGMA2_DEFAULT
        jd_a = oracles.joint_descriptor_scalar(a, SIGMA1_DEFAULT, SIGMA2_DEFAULT,
                                               EPS_DEFAULT)
        jd_b = oracles.joint_descriptor_scalar(b, SIGMA1_DEFAULT, SIGMA2_DEFAULT,
                                               EPS_DEFAULT)
        want = float(np.mean(np.sum(np.abs(jd_a - jd_b), axis=1)))
        got = float(freq_constraint_loss(a, b).data)
        assert abs(got - want) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            freq_constraint_loss(np.zeros((1, 2, 1, 4, 4), dtype=np.float32),
                                 np.zeros((1, 2, 1, 4, 5), dtype=np.float32))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        zg_arr = rng.standard_normal((1, 2, 1, 5, 5))
        zr_arr = rng.standard_normal((1, 2, 1, 5, 5))

        def value(zg, zr):
            return float(freq_constraint_loss(fx.Tensor(zg), fx.Tensor(zr)).data)

        zg = fx.tensor(zg_arr.copy())
        with fx.Tape([zg]) as tape:
            loss = freq_constraint_loss(zg, fx.Tensor(zr_arr))
        grads = fx.backward(tape, loss)
        num = oracles.fd_grad(value, [zg_arr, zr_arr], wrt=0, step=1e-6)
        oracles.assert_grads_close(grads[zg].data, num, rtol=1e-5, atol=1e-8)


class TestLatentConstruction:
    def test_reference_formula_and_detachment(self):
        _, _, sched, _ = small_setup()
        rng = np.random.default_rng(5)
        ref = fx.tensor(rng.standard_normal((2,) + LATENT).astype(np.float32))
        eps = rng.standard_normal((2,) + LATENT).astype(np.float32)
        t = 4
        with fx.Tape([ref]) as tape:
            z_ref = reference_latents(ref, t, fx.Tensor(eps), sched)
            loss = oracles.reduce_sum(oracles.square(z_ref))
        a, s = sched.coefficients(t)
        want = float(a) * ref.data + float(s) * eps
        assert np.allclose(z_ref.data, want, rtol=1e-6)
        assert tape.nodes == []
        with pytest.raises(ParameterError):
            fx.backward(tape, loss)

class TestTimestepWindow:
    def test_mid_window(self):
        sched = NoiseSchedule.cosine(1000)
        assert np.array_equal(timestep_window(sched, 0.25, 0.75),
                              np.arange(250, 750))

    def test_full_window(self):
        sched = NoiseSchedule.cosine(NUM_STEPS)
        assert np.array_equal(timestep_window(sched, 0.0, 1.0), np.arange(10))

    def test_empty_window_rejected(self):
        sched = NoiseSchedule.cosine(NUM_STEPS)
        with pytest.raises(ParameterError):
            timestep_window(sched, 0.5, 0.55)


class TestAdapt:
    def _reference(self, b=2, seed=3):
        return build_dataset((("highfreq_particles", b),), seed, MODEL)["videos"]

    def test_self_reference_fixpoint_stays_at_zero(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config(steps=3)
        emb = VfxEmbedding.init(np.random.default_rng(cfg.seed),
                                length=cfg.embed_tokens, width=WIDTH, std=cfg.embed_std)
        before = emb.tokens.data.copy()
        ref = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                     steps=cfg.sample_steps, cfg_scale=cfg.sample_cfg,
                     seed=cfg.sample_seed).video.data
        result = adapt(ref, cond, cfg, params, stack, sched, embedding=emb)
        assert [s.loss for s in result.trace] == [0.0, 0.0, 0.0]
        assert np.array_equal(emb.tokens.data, before)

    def test_updates_only_the_embedding(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config(steps=5, lr=0.05)
        emb = VfxEmbedding.init(np.random.default_rng(0), length=4, width=WIDTH, std=STD)
        before_emb = emb.tokens.data.copy()
        frozen = oracles.state_hashes(params, stack)
        result = adapt(self._reference(), cond, cfg, params, stack, sched,
                       embedding=emb)
        assert oracles.state_hashes(params, stack) == frozen
        assert not np.array_equal(emb.tokens.data, before_emb)
        assert result.embedding is emb
        assert np.all(np.isfinite(result.losses))
        window = timestep_window(sched, cfg.t_low_frac, cfg.t_high_frac)
        for s in result.trace:
            assert s.t in window

    def test_backward_returns_exactly_the_embedding(self, monkeypatch):
        params, stack, sched, cond = small_setup()
        seen = []
        backward = fx.backward

        def capture(tape, loss):
            grads = backward(tape, loss)
            seen.append(list(grads))
            return grads

        monkeypatch.setattr(fx, "backward", capture)
        result = adapt(self._reference(), cond, quick_config(steps=2, sample_cfg=3.0),
                       params, stack, sched)
        assert seen == [[result.embedding.tokens]] * 2

    def test_float64_step_gradient_matches_finite_differences(self, monkeypatch):
        """A float64 model adapts in float64: its default embedding and every noise
        draw take the model's dtype, and one step's embedding gradient agrees with
        central differences of that step's loss."""
        rng = np.random.default_rng(0)
        params = build_denoiser(rng, latent_shape=LATENT, width=WIDTH, n_blocks=MODEL.n_blocks,
                                patch=MODEL.patch, num_steps=NUM_STEPS,
                                diag_bias=MODEL.diag_bias, cross_gain=MODEL.cross_gain,
                                dtype=np.float64)
        stack = build_adapter_stack(rng, params, MODEL, dtype=np.float64)
        sched = NoiseSchedule.cosine(NUM_STEPS)
        ref = self._reference().astype(np.float64)
        cond = build_conditioning(params, ref, rng.standard_normal((2, WIDTH)))
        cfg = quick_config(steps=1, sample_cfg=3.0, n_draws=2)
        assert adapt(ref, cond, cfg, params, stack, sched).embedding.tokens.dtype == np.float64

        grads = []
        backward = fx.backward

        def capture(tape, loss):
            out = backward(tape, loss)
            grads.extend(g.data.copy() for g in out.values())
            return out

        def step_loss(tokens):
            emb = VfxEmbedding(fx.tensor(tokens.copy()))
            return adapt(ref, cond, cfg, params, stack, sched, embedding=emb).trace[0].loss

        tokens = VfxEmbedding.init(np.random.default_rng(1), length=cfg.embed_tokens,
                                   width=WIDTH, std=cfg.embed_std,
                                   dtype=np.float64).tokens.data.copy()
        monkeypatch.setattr(fx, "backward", capture)
        step_loss(tokens)
        monkeypatch.undo()
        assert len(grads) == 1 and grads[0].dtype == np.float64 and np.any(grads[0] != 0)
        coords = range(0, tokens.size, 5)
        numeric = oracles.fd_grad(step_loss, [tokens], 0, coords=coords)
        oracles.assert_grads_close(grads[0], numeric, coords=coords)

    def test_fresh_embedding_created_when_missing(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config(steps=2)
        result = adapt(self._reference(), cond, cfg, params, stack, sched)
        assert result.embedding.tokens.shape == (cfg.embed_tokens, WIDTH)
        assert len(result.trace) == 2

    def test_zero_lr_keeps_embedding(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config(steps=3, lr=0.0)
        emb = VfxEmbedding.init(np.random.default_rng(0), length=4, width=WIDTH, std=STD)
        before = emb.tokens.data.copy()
        adapt(self._reference(), cond, cfg, params, stack, sched, embedding=emb)
        assert np.array_equal(emb.tokens.data, before)

    def test_absurd_lr_diverges(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config(steps=4, lr=1e18)
        with pytest.raises(AdaptationDivergedError), np.errstate(all="ignore"):
            adapt(self._reference(), cond, cfg, params, stack, sched)

    def test_reference_shape_validated(self):
        params, stack, sched, cond = small_setup()
        cfg = quick_config()
        bad = np.zeros((2, 2, 2, 4, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            adapt(bad, cond, cfg, params, stack, sched)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            AdaptConfig(mode="other")
        with pytest.raises(ParameterError, match="only mode is 'unroll'"):
            AdaptConfig(mode="onestep")
        for removed in ({"refresh_every": 2}, {"lambda_diffusion": 0.5},
                        {"shared_noise": False}):
            with pytest.raises(ParameterError, match="unknown AdaptConfig field"):
                from_dict(AdaptConfig, removed)
        assert from_dict(AdaptConfig, {"mode": "unroll"}).mode == "unroll"
        with pytest.raises(ParameterError):
            AdaptConfig(steps=0)
        with pytest.raises(ParameterError):
            AdaptConfig(t_low_frac=0.8, t_high_frac=0.2)
