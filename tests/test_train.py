import numpy as np
import pytest

import freqvfx.tensor as fx
import freqvfx.train
from freqvfx.adapt import state_hashes
from freqvfx.config import TrainConfig
from freqvfx.denoiser import build_adapter_stack, build_conditioning, build_denoiser
from freqvfx.errors import ParameterError, TrainingDivergedError
from freqvfx.schedule import NoiseSchedule
from freqvfx.synthgen import HIGHFREQ_PARTICLES, LOWFREQ_FIELD, build_dataset
from freqvfx.train import (AdamW, StepMetrics, _dropout_conditioning,
                           diffusion_loss, smoothed_endpoints, train_stage1)

LATENT = (2, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    params = build_denoiser(rng, latent_shape=LATENT, width=WIDTH, n_blocks=2,
                            patch=2, num_steps=NUM_STEPS)
    stack = build_adapter_stack(rng, params, n_experts=4, total_rank=8, top_k=3)
    return params, stack


class TestAdamW:
    def test_first_step_closed_form(self):
        p = fx.tensor(np.array([0.7, -1.3]))
        g = np.array([0.25, 2.0])
        lr, wd, eps = 0.01, 0.1, 1e-8
        opt = AdamW([p], lr=lr, weight_decay=wd, eps=eps)
        opt.step({p: fx.Tensor(g.copy())})
        # bias-corrected first step reduces to g / (|g| + eps), decoupled decay
        expected = np.array([0.7, -1.3])
        expected = expected - lr * (g / (np.abs(g) + eps)) - lr * wd * expected
        assert np.allclose(p.data, expected, rtol=1e-12, atol=0)

    def test_quadratic_convergence(self):
        p = fx.tensor(np.array([5.0]))
        opt = AdamW([p], lr=0.1)
        for _ in range(300):
            with fx.Tape(opt.params) as tape:
                loss = fx.reduce_sum(fx.square(p - fx.Tensor(np.array([3.0]))))
            opt.step(fx.backward(tape, loss))
        assert abs(float(p.data[0]) - 3.0) < 1e-3

    def test_zero_lr_freezes_parameters(self):
        p = fx.tensor(np.array([1.0, 2.0]))
        before = p.data.tobytes()
        opt = AdamW([p], lr=0.0, weight_decay=0.01)
        opt.step({p: fx.Tensor(np.array([10.0, -10.0]))})
        assert p.data.tobytes() == before

    def test_decay_is_decoupled_from_gradient(self):
        p = fx.tensor(np.array([2.0]))
        lr, wd = 0.5, 0.1
        opt = AdamW([p], lr=lr, weight_decay=wd)
        opt.step({p: fx.Tensor(np.array([0.0]))})
        assert np.allclose(p.data, np.array([2.0]) * (1.0 - lr * wd), rtol=1e-12)

    def test_missing_grads_skipped(self):
        a = fx.tensor(np.array([1.0]))
        b = fx.tensor(np.array([2.0]))
        before = b.data.tobytes()
        opt = AdamW([a, b], lr=0.1)
        opt.step({a: fx.Tensor(np.array([1.0]))})
        assert b.data.tobytes() == before
        assert a.data[0] != 1.0

    def test_dict_input_accepted(self):
        p = fx.tensor(np.array([1.0]))
        opt = AdamW({"p": p}, lr=0.1)
        opt.step({p: fx.Tensor(np.array([1.0]))})
        assert p.data[0] != 1.0

    def test_negative_lr_rejected(self):
        with pytest.raises(ParameterError):
            AdamW([], lr=-0.1)


class TestDiffusionLoss:
    def setup_method(self):
        self.params, self.stack = small_model()
        self.sched = NoiseSchedule.cosine(NUM_STEPS)

    def _cond(self, z0):
        rng = np.random.default_rng(99)
        text = rng.standard_normal((2, WIDTH)).astype(np.float32)
        return build_conditioning(self.params, z0, text)

    def test_zero_predictor_gives_unit_loss(self, monkeypatch):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((8, 8, 4, 8, 8)).astype(np.float32)
        big = build_denoiser(np.random.default_rng(1), latent_shape=(8, 4, 8, 8),
                             width=WIDTH, num_steps=NUM_STEPS)
        cond = build_conditioning(big, z0, np.zeros((2, WIDTH), dtype=np.float32))

        def zero(z_t, *args, **kwargs):
            return fx.Tensor(np.zeros(z_t.shape, dtype=np.float32))

        monkeypatch.setattr(freqvfx.train, "denoise_step", zero)
        loss = diffusion_loss(z0, cond, big, None, self.sched, np.random.default_rng(7))
        # predicting zero leaves the true noise: mean eps^2 -> 1 over 16k draws
        assert abs(float(loss.data) - 1.0) < 0.06

    def test_perfect_predictor_gives_zero_loss(self, monkeypatch):
        a2 = np.array([0.999, 0.8, 0.5, 0.2])
        sched = NoiseSchedule(alphas=np.sqrt(a2), sigmas=np.sqrt(1 - a2))
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((4,) + LATENT).astype(np.float32)
        cond = self._cond(z0)

        def perfect(z_t, t, *args, **kwargs):
            alpha, sigma = sched.coefficients(t)
            shape = (-1, 1, 1, 1, 1)
            eps = (z_t.data - alpha.reshape(shape) * z0) / sigma.reshape(shape)
            return fx.Tensor(eps.astype(np.float32))

        monkeypatch.setattr(freqvfx.train, "denoise_step", perfect)
        loss = diffusion_loss(z0, cond, self.params, None, sched, np.random.default_rng(5))
        assert float(loss.data) < 1e-10

    def test_deterministic_under_seeded_rng(self):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((2,) + LATENT).astype(np.float32)
        cond = self._cond(z0)
        l1 = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                            np.random.default_rng(42))
        l2 = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                            np.random.default_rng(42))
        assert float(l1.data) == float(l2.data)

    def test_details_report_timesteps_and_routing(self):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((3,) + LATENT).astype(np.float32)
        cond = self._cond(z0)
        loss, info = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                                    np.random.default_rng(1), return_details=True)
        assert info["t"].shape == (3,)
        assert np.all((info["t"] >= 0) & (info["t"] < NUM_STEPS))
        assert info["pi"].shape == (3, 4)
        assert np.allclose(info["pi"].sum(axis=1), 1.0, atol=1e-6)
        _, info2 = diffusion_loss(z0, cond, self.params, None, self.sched,
                                  np.random.default_rng(1), return_details=True)
        assert info2["pi"] is None

    def test_batch_validation(self):
        cond = self._cond(np.zeros((1,) + LATENT, dtype=np.float32))
        with pytest.raises(ParameterError):
            diffusion_loss(np.zeros(LATENT, dtype=np.float32), cond, self.params,
                           None, self.sched, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            diffusion_loss(np.zeros((0,) + LATENT, dtype=np.float32), cond,
                           self.params, None, self.sched, np.random.default_rng(0))


class TestConditioningDropout:
    def test_dropped_rows_become_null(self):
        params, _ = small_model()
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((2,) + LATENT).astype(np.float32)
        text = rng.standard_normal((2, WIDTH)).astype(np.float32)
        cond = build_conditioning(params, z0, text)
        orig_img = cond.image_tokens.data.copy()
        out = _dropout_conditioning(cond, np.array([True, False]), params)
        null = params.null_token.data[0]
        assert np.all(out.image_tokens.data[0] == null)
        assert np.all(out.text_tokens.data[0] == null)
        assert np.array_equal(out.image_tokens.data[1], orig_img[1])
        # the original conditioning is left untouched
        assert np.array_equal(cond.image_tokens.data, orig_img)

    def test_no_drop_returns_same_object(self):
        params, _ = small_model()
        z0 = np.zeros((2,) + LATENT, dtype=np.float32)
        cond = build_conditioning(params, z0, np.zeros((2, WIDTH), dtype=np.float32))
        assert _dropout_conditioning(cond, np.array([False, False]), params) is cond


class TestStageOne:
    def _samples(self, seed=5):
        return build_dataset(((LOWFREQ_FIELD, 4), (HIGHFREQ_PARTICLES, 4)),
                             seed=seed, latent_shape=LATENT, text_width=WIDTH).samples

    def test_smoke_run_trains_only_adapters(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        before = state_hashes(params, stack)
        cfg = TrainConfig(steps=25, batch_size=2, lr=1e-3, seed=0)
        result = train_stage1(self._samples(), cfg, params, stack, sched)
        after = state_hashes(params, stack)

        assert result.losses.shape == (25,)
        assert np.all(np.isfinite(result.losses))
        for name in before:
            if name.startswith("backbone."):
                assert before[name] == after[name], name
        changed = [n for n in before if not n.startswith("backbone.")
                   and before[n] != after[n]]
        assert changed, "no adapter parameter moved"

        seen = {m.class_id for m in result.metrics}
        assert seen == {0, 1}
        for m in result.metrics:
            assert isinstance(m, StepMetrics)
            assert m.pi_mean.shape == (4,)
            assert abs(m.pi_mean.sum() - 1.0) < 1e-5

    def test_backward_returns_exactly_the_stack_leaves(self, monkeypatch):
        params, stack = small_model()
        seen = []
        backward = fx.backward

        def capture(tape, loss):
            grads = backward(tape, loss)
            seen.append(list(grads))
            return grads

        monkeypatch.setattr(fx, "backward", capture)
        cfg = TrainConfig(steps=2, batch_size=2, seed=0)
        train_stage1(self._samples(), cfg, params, stack, NoiseSchedule.cosine(NUM_STEPS))
        leaves = list(stack.parameters().values())
        assert len(leaves) == 4 + 16 * 2
        assert seen == [leaves] * 2
        backbone = {id(t) for t in params.named_arrays().values()}
        assert not backbone & {id(t) for t in leaves}

    def test_zero_lr_changes_nothing(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        before = state_hashes(params, stack)
        cfg = TrainConfig(steps=5, batch_size=2, lr=0.0, seed=0)
        train_stage1(self._samples(), cfg, params, stack, sched)
        assert state_hashes(params, stack) == before

    def test_repeat_run_is_deterministic(self):
        sched = NoiseSchedule.cosine(NUM_STEPS)
        cfg = TrainConfig(steps=8, batch_size=2, lr=1e-3, seed=3)
        losses = []
        for _ in range(2):
            params, stack = small_model()
            r = train_stage1(self._samples(), cfg, params, stack, sched)
            losses.append(r.losses)
        assert np.array_equal(losses[0], losses[1])

    def test_empty_dataset_rejected(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        with pytest.raises(ParameterError):
            train_stage1([], TrainConfig(steps=1), params, stack, sched)

    def test_absurd_lr_diverges(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        cfg = TrainConfig(steps=30, batch_size=2, lr=1e14, seed=0)
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train_stage1(self._samples(), cfg, params, stack, sched)


class TestSmoothedEndpoints:
    def test_window_means(self):
        first, last = smoothed_endpoints(np.arange(10.0), window=3)
        assert first == 1.0 and last == 8.0

    def test_window_clipped_to_trace(self):
        first, last = smoothed_endpoints(np.array([2.0, 4.0]), window=50)
        assert first == 3.0 and last == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            smoothed_endpoints(np.zeros(0))
