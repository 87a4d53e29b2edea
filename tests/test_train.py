import numpy as np
import pytest

import freqvfx.tensor as fx
import freqvfx.train
from freqvfx.config import ModelConfig, TrainConfig
from freqvfx.denoiser import build_adapter_stack, build_conditioning, build_model
from freqvfx.errors import ParameterError, TrainingDivergedError
from freqvfx.schedule import NoiseSchedule
from freqvfx.synthgen import build_dataset, read_dataset
from freqvfx.train import (AdamW, StepMetrics, _dropout_conditioning,
                           diffusion_loss, smoothed_endpoints, train_stage1)

import oracles

LATENT = (2, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10
MODEL = ModelConfig(latent_shape=LATENT, width=WIDTH, num_steps=NUM_STEPS, total_rank=8)


def small_model(seed=0):
    return build_model(MODEL, np.random.default_rng(seed))


def adamw(params, lr, weight_decay=0.0, eps=1e-8):
    """AdamW with the betas and eps both stage configs use, and no weight decay
    unless asked."""
    return AdamW(params, lr=lr, betas=(0.9, 0.999), eps=eps, weight_decay=weight_decay)


class TestAdamW:
    def test_first_step_closed_form(self):
        p = fx.tensor(np.array([0.7, -1.3]))
        g = np.array([0.25, 2.0])
        lr, wd, eps = 0.01, 0.1, 1e-8
        opt = adamw([p], lr=lr, weight_decay=wd, eps=eps)
        opt.step({p: fx.Tensor(g.copy())})
        # bias-corrected first step reduces to g / (|g| + eps), decoupled decay
        expected = np.array([0.7, -1.3])
        expected = expected - lr * (g / (np.abs(g) + eps)) - lr * wd * expected
        assert p.data.dtype == np.float64
        assert np.allclose(p.data, expected, rtol=1e-12, atol=0)

    def test_quadratic_convergence(self):
        p = fx.tensor(np.array([5.0]))
        opt = adamw([p], lr=0.1)
        for _ in range(300):
            with fx.Tape(opt.params) as tape:
                gap = oracles.sub(p, fx.Tensor(np.array([3.0])))
                loss = oracles.reduce_sum(oracles.square(gap))
            opt.step(fx.backward(tape, loss))
        assert abs(float(p.data[0]) - 3.0) < 1e-3

    def test_zero_lr_freezes_parameters(self):
        p = fx.tensor(np.array([1.0, 2.0]))
        before = p.data.tobytes()
        opt = adamw([p], lr=0.0, weight_decay=0.01)
        opt.step({p: fx.Tensor(np.array([10.0, -10.0]))})
        assert p.data.tobytes() == before

    def test_decay_is_decoupled_from_gradient(self):
        p = fx.tensor(np.array([2.0]))
        lr, wd = 0.5, 0.1
        opt = adamw([p], lr=lr, weight_decay=wd)
        opt.step({p: fx.Tensor(np.array([0.0]))})
        assert np.allclose(p.data, np.array([2.0]) * (1.0 - lr * wd), rtol=1e-12)

    def test_missing_grad_is_an_error_naming_the_leaf(self):
        """`backward` returns a gradient for every leaf, so a step without one is
        a caller's error: it names the leaf and changes nothing."""
        a = fx.tensor(np.array([1.0]))
        b = fx.tensor(np.array([2.0]))
        opt = adamw([a, b], lr=0.1)
        with pytest.raises(ParameterError, match=r"no gradient for leaf 1 \(1,\)"):
            opt.step({a: fx.Tensor(np.array([1.0]))})
        assert (a.data[0], b.data[0], opt.t) == (1.0, 2.0, 0)
        params, stack = small_model()
        leaves = stack.parameters()
        opt = adamw(leaves, lr=0.1)
        grads = {t: fx.Tensor(np.ones_like(t.data)) for t in leaves.values()}
        del grads[leaves["adapter.block1.cross.v.b"]]
        with pytest.raises(ParameterError, match="no gradient for adapter.block1.cross.v.b"):
            opt.step(grads)

    def test_flat_update_matches_per_leaf_reference_bytes(self):
        """Over 20 steps with distinct gradients and weight decay, the one sweep
        over a stack's buffer gives every leaf the bytes of the per-leaf loop."""
        _, stack = small_model()
        leaves = list(stack.parameters().values())
        copies = [fx.Tensor(t.data.copy()) for t in leaves]
        kw = dict(lr=1e-2, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.05)
        opt, ref = AdamW(stack.parameters(), **kw), oracles.AdamWPerLeaf(copies, **kw)
        rng = np.random.default_rng(21)
        for _ in range(20):
            gs = [rng.normal(0.0, 10.0 ** rng.uniform(-6, 1), size=t.shape).astype(np.float32)
                  for t in leaves]
            opt.step({t: fx.Tensor(g) for t, g in zip(leaves, gs)})
            ref.step({t: fx.Tensor(g.copy()) for t, g in zip(copies, gs)})
        for name, t, r in zip(stack.parameters(), leaves, copies):
            assert t.data.dtype == np.float32 and t.data.tobytes() == r.data.tobytes(), name
        assert opt.flat.tobytes() == b"".join(r.data.tobytes() for r in copies)

    def test_leaves_become_views_of_its_buffer_in_order(self):
        """The optimizer copies its leaves end to end, in the order given, into
        one buffer of their dtype, and each leaf's `.data` becomes a view of its
        span with its shape and values kept; another optimizer over the same
        leaves in another order copies them into a buffer of its own. No leaves
        make no buffer."""
        leaves = [fx.tensor(np.full(s, i, dtype=np.float32)) for i, s in
                  enumerate([(2, 3), (4,), (1, 2)])]
        opt = adamw(leaves, lr=0.1)
        assert opt.flat.dtype == np.float32
        assert opt.flat.tolist() == [0.0] * 6 + [1.0] * 4 + [2.0] * 2
        assert [t.shape for t in leaves] == [(2, 3), (4,), (1, 2)]
        assert all(t.data.base is opt.flat for t in leaves)
        flipped = adamw(leaves[::-1], lr=0.1)
        assert flipped.flat is not opt.flat
        assert flipped.flat.tolist() == [2.0] * 2 + [1.0] * 4 + [0.0] * 6
        assert all(t.data.base is flipped.flat for t in leaves)
        with pytest.raises(ParameterError, match="no leaves"):
            adamw([], lr=0.1)

    def test_writes_through_stack_leaves_land_in_its_buffer(self):
        """Over an adapter stack, a write through `stack.parameters()` is a
        write into the buffer the optimizer updates, at the leaf's offset in
        `parameters()` order."""
        _, stack = small_model()
        leaves = stack.parameters()
        before = b"".join(t.data.tobytes() for t in leaves.values())
        opt = adamw(leaves, lr=0.1)
        assert opt.flat.ndim == 1 and opt.flat.dtype == np.float32
        assert opt.flat.tobytes() == before
        off = 0
        for name, t in leaves.items():
            t.data[...] = np.arange(t.size, dtype=np.float32).reshape(t.shape) + 0.5
            np.testing.assert_array_equal(opt.flat[off:off + t.size], t.data.reshape(-1))
            off += t.size

    def test_embedding_leaf_goes_through_the_same_buffer(self):
        """A lone leaf that owns its array is copied into a buffer of its own,
        its `.data` becoming a view of it with the same values."""
        tokens = fx.tensor(np.random.default_rng(3).normal(size=(4, WIDTH)).astype(np.float32))
        before = tokens.data.tobytes()
        opt = adamw([tokens], lr=0.1)
        assert tokens.data.base is opt.flat and tokens.data.tobytes() == before
        opt.step({tokens: fx.Tensor(np.ones((4, WIDTH), dtype=np.float32))})
        assert tokens.data.tobytes() == opt.flat.tobytes() != before

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ParameterError, match="one dtype"):
            adamw([fx.tensor(np.ones(2)), fx.tensor(np.ones(2, dtype=np.float32))], lr=0.1)

    def test_dict_input_accepted(self):
        p = fx.tensor(np.array([1.0]))
        opt = adamw({"p": p}, lr=0.1)
        opt.step({p: fx.Tensor(np.array([1.0]))})
        assert p.data[0] != 1.0

    def test_negative_lr_rejected(self):
        with pytest.raises(ParameterError):
            adamw([], lr=-0.1)


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
        big_cfg = ModelConfig(latent_shape=(8, 4, 8, 8), width=WIDTH, num_steps=NUM_STEPS)
        big, _ = build_model(big_cfg, np.random.default_rng(1))  # backbone drawn first
        cond = build_conditioning(big, z0, np.zeros((2, WIDTH), dtype=np.float32))

        def zero(z_t, *args, **kwargs):
            return fx.Tensor(np.zeros(z_t.shape, dtype=np.float32))

        monkeypatch.setattr(freqvfx.train, "denoise_step", zero)
        stack = build_adapter_stack(np.random.default_rng(2), big, big_cfg)
        loss, _ = diffusion_loss(z0, cond, big, stack, self.sched, np.random.default_rng(7))
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
        loss, _ = diffusion_loss(z0, cond, self.params, self.stack, sched,
                                 np.random.default_rng(5))
        assert float(loss.data) < 1e-10

    def test_deterministic_under_seeded_rng(self):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((2,) + LATENT).astype(np.float32)
        cond = self._cond(z0)
        l1, _ = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                               np.random.default_rng(42))
        l2, _ = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                               np.random.default_rng(42))
        assert float(l1.data) == float(l2.data)

    def test_details_report_timesteps_and_routing(self):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((3,) + LATENT).astype(np.float32)
        cond = self._cond(z0)
        loss, info = diffusion_loss(z0, cond, self.params, self.stack, self.sched,
                                    np.random.default_rng(1))
        assert info["t"].shape == (3,)
        assert np.all((info["t"] >= 0) & (info["t"] < NUM_STEPS))
        assert info["pi"].shape == (3, 4)
        assert np.allclose(info["pi"].sum(axis=1), 1.0, atol=1e-6)

    def test_batch_validation(self):
        cond = self._cond(np.zeros((1,) + LATENT, dtype=np.float32))
        with pytest.raises(ParameterError):
            diffusion_loss(np.zeros(LATENT, dtype=np.float32), cond, self.params,
                           self.stack, self.sched, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            diffusion_loss(np.zeros((0,) + LATENT, dtype=np.float32), cond,
                           self.params, self.stack, self.sched, np.random.default_rng(0))


class TestConditioningDropout:
    def test_dropped_rows_become_null(self):
        params, _ = small_model()
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((2,) + LATENT).astype(np.float32)
        text = rng.standard_normal((2, WIDTH)).astype(np.float32)
        cond = build_conditioning(params, z0, text)
        orig = cond.tokens.copy()
        out = _dropout_conditioning(cond, np.array([True, False]), params)
        null = params.null_token[0]
        assert np.all(out.tokens[0] == null)
        assert np.array_equal(out.tokens[1], orig[1])
        # the original conditioning is left untouched
        assert np.array_equal(cond.tokens, orig)

    def test_no_drop_returns_same_object(self):
        params, _ = small_model()
        z0 = np.zeros((2,) + LATENT, dtype=np.float32)
        cond = build_conditioning(params, z0, np.zeros((2, WIDTH), dtype=np.float32))
        assert _dropout_conditioning(cond, np.array([False, False]), params) is cond


class TestStageOne:
    def _dataset(self, seed=5):
        """(videos, class_ids, text) of 4 + 4 videos, as `train` reads them."""
        spec = (("lowfreq_field", 4), ("highfreq_particles", 4))
        return read_dataset(build_dataset(spec, seed, MODEL), "dataset")

    def test_smoke_run_trains_only_adapters(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        before = oracles.state_hashes(params, stack)
        cfg = TrainConfig(steps=25, batch_size=2, lr=1e-3, seed=0)
        result = train_stage1(*self._dataset(), cfg, params, stack, sched)
        after = oracles.state_hashes(params, stack)

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
        train_stage1(*self._dataset(), cfg, params, stack, NoiseSchedule.cosine(NUM_STEPS))
        leaves = list(stack.parameters().values())
        assert len(leaves) == 4 + 16 * 2
        assert seen == [leaves] * 2
        backbone = {id(t) for t in params.named_arrays().values()}
        assert not backbone & {id(t) for t in leaves}

    def test_zero_lr_changes_nothing(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        before = oracles.state_hashes(params, stack)
        cfg = TrainConfig(steps=5, batch_size=2, lr=0.0, seed=0)
        train_stage1(*self._dataset(), cfg, params, stack, sched)
        assert oracles.state_hashes(params, stack) == before

    def test_repeat_run_is_deterministic(self):
        sched = NoiseSchedule.cosine(NUM_STEPS)
        cfg = TrainConfig(steps=8, batch_size=2, lr=1e-3, seed=3)
        losses = []
        for _ in range(2):
            params, stack = small_model()
            r = train_stage1(*self._dataset(), cfg, params, stack, sched)
            losses.append(r.losses)
        assert np.array_equal(losses[0], losses[1])

    def test_empty_dataset_rejected(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        with pytest.raises(ParameterError):
            train_stage1(np.zeros((0,) + LATENT, dtype=np.float32), np.zeros(0),
                         np.zeros((0, 2, WIDTH), dtype=np.float32), TrainConfig(steps=1),
                         params, stack, sched)

    def test_absurd_lr_diverges(self):
        params, stack = small_model()
        sched = NoiseSchedule.cosine(NUM_STEPS)
        cfg = TrainConfig(steps=30, batch_size=2, lr=1e14, seed=0)
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train_stage1(*self._dataset(), cfg, params, stack, sched)


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
