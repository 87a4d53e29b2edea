import math

import mpmath as mp
import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.schedule import (ALPHA_BAR_FLOOR, COSINE_S, NoiseSchedule,
                              forward_noise, sampling_grid)

import oracles


def alpha_bar_mp(t: int, num_steps: int, s: float = COSINE_S) -> float:
    """Renormalized cosine alpha-bar at index t, evaluated at 50 digits."""
    with mp.workdps(50):
        u = mp.mpf(t) / (num_steps - 1)
        sm = mp.mpf(s)
        f = mp.cos(((u + sm) / (1 + sm)) * mp.pi / 2) ** 2
        f0 = mp.cos((sm / (1 + sm)) * mp.pi / 2) ** 2
        return float(f / f0)


def two_step_schedule() -> NoiseSchedule:
    return NoiseSchedule(alphas=np.array([1.0, 0.6]), sigmas=np.array([0.0, 0.8]))


class TestCosineCurve:
    def test_matches_high_precision_reference(self):
        sched = NoiseSchedule.cosine(1000)
        for t in (1, 17, 123, 500, 777, 998):
            ref = alpha_bar_mp(t, 1000)
            got = float(sched.alphas[t]) ** 2
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-30), f"t={t}"

    def test_identity_at_zero(self):
        sched = NoiseSchedule.cosine(1000)
        assert sched.alphas[0] == 1.0
        assert sched.sigmas[0] == 0.0

    def test_floor_hits_only_last_index(self):
        sched = NoiseSchedule.cosine(1000)
        assert sched.alphas[999] ** 2 == pytest.approx(ALPHA_BAR_FLOOR, rel=1e-12)
        assert sched.alphas[999] == pytest.approx(math.sqrt(ALPHA_BAR_FLOOR), rel=1e-12)
        # second-to-last stays above the floor, so the clamp is local to t=T-1
        assert sched.alphas[998] ** 2 > ALPHA_BAR_FLOOR
        raw = alpha_bar_mp(998, 1000)
        assert sched.alphas[998] ** 2 == pytest.approx(raw, rel=1e-12)

    def test_variance_preserving_and_strictly_decreasing(self):
        sched = NoiseSchedule.cosine(1000)
        vp = sched.alphas ** 2 + sched.sigmas ** 2
        assert np.max(np.abs(vp - 1.0)) <= 1e-12
        assert np.all(np.diff(sched.alphas) < 0)

    def test_short_lengths(self):
        for n in (2, 3, 10, 50):
            sched = NoiseSchedule.cosine(n)
            assert sched.num_steps == n
            assert sched.alphas[0] == 1.0
            assert np.all(np.diff(sched.alphas) < 0)

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            NoiseSchedule.cosine(1)


class TestScheduleValidation:
    def test_num_steps_inferred(self):
        sched = two_step_schedule()
        assert sched.num_steps == 2

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            NoiseSchedule(alphas=np.array([1.0, 0.6]), sigmas=np.array([0.0]))

    def test_not_variance_preserving(self):
        with pytest.raises(ParameterError):
            NoiseSchedule(alphas=np.array([1.0, 0.5]), sigmas=np.array([0.0, 0.5]))

    def test_increasing_alpha_rejected(self):
        a = np.array([0.6, 1.0])
        with pytest.raises(ParameterError):
            NoiseSchedule(alphas=a, sigmas=np.sqrt(1.0 - a ** 2))

    def test_flat_stretch_allowed(self):
        a = np.array([1.0, 0.5, 0.5])
        sched = NoiseSchedule(alphas=a, sigmas=np.sqrt(1.0 - a ** 2))
        assert sched.num_steps == 3


class TestCoefficients:
    def test_scalar_and_vector(self):
        sched = two_step_schedule()
        a, s = sched.coefficients(1)
        assert float(a) == 0.6 and float(s) == 0.8
        a, s = sched.coefficients(np.array([0, 1]))
        assert np.array_equal(a, np.array([1.0, 0.6]))
        assert np.array_equal(s, np.array([0.0, 0.8]))

    def test_float_timestep_rejected(self):
        with pytest.raises(ParameterError):
            two_step_schedule().coefficients(0.5)

    def test_out_of_range(self):
        sched = two_step_schedule()
        with pytest.raises(ParameterError):
            sched.coefficients(2)
        with pytest.raises(ParameterError):
            sched.coefficients(-1)
        with pytest.raises(ParameterError):
            sched.coefficients(np.array([0, 5]))


class TestForwardNoise:
    def test_exact_formula(self):
        sched = two_step_schedule()
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((3, 2, 1, 4, 4)).astype(np.float32)
        eps = rng.standard_normal(z0.shape).astype(np.float32)
        zt = forward_noise(z0, 1, eps, sched)
        assert np.allclose(zt.data, 0.6 * z0 + 0.8 * eps, rtol=1e-6, atol=0)
        assert zt.dtype == np.float32

    def test_identity_at_t_zero(self):
        sched = two_step_schedule()
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((2, 2, 1, 4, 4)).astype(np.float32)
        eps = rng.standard_normal(z0.shape).astype(np.float32)
        zt = forward_noise(z0, 0, eps, sched)
        assert np.array_equal(zt.data, z0)

    def test_per_sample_timesteps(self):
        sched = two_step_schedule()
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((2, 2, 1, 4, 4)).astype(np.float32)
        eps = rng.standard_normal(z0.shape).astype(np.float32)
        zt = forward_noise(z0, np.array([0, 1]), eps, sched)
        assert np.array_equal(zt.data[0], z0[0])
        assert np.allclose(zt.data[1], 0.6 * z0[1] + 0.8 * eps[1], rtol=1e-6)

    def test_shape_errors(self):
        sched = two_step_schedule()
        z0 = np.zeros((2, 2, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            forward_noise(z0[0], 1, np.zeros((2, 1, 4, 4), dtype=np.float32), sched)
        with pytest.raises(ShapeError):
            forward_noise(z0, 1, np.zeros((2, 2, 1, 4, 5), dtype=np.float32), sched)
        with pytest.raises(ShapeError):
            forward_noise(z0, np.array([0, 1, 1]), np.zeros_like(z0), sched)
        with pytest.raises(ParameterError):
            forward_noise(z0, np.array([0.0, 1.0]), np.zeros_like(z0), sched)
        with pytest.raises(ParameterError):
            forward_noise(z0, 7, np.zeros_like(z0), sched)

    def test_dtype_mismatch_is_refused(self):
        """The `noise` node computes in the latent's dtype and promotes nothing:
        noise of another dtype is refused, either way round, naming both."""
        sched = two_step_schedule()
        z0 = np.zeros((2, 2, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ParameterError, match="latent float32 vs noise float64"):
            forward_noise(z0, 1, np.zeros(z0.shape), sched)
        with pytest.raises(ParameterError, match="latent float64 vs noise float32"):
            forward_noise(fx.tensor(z0.astype(np.float64)), 1, fx.tensor(z0), sched)

    def test_unit_variance_preserved(self):
        sched = NoiseSchedule.cosine(1000)
        rng = np.random.default_rng(7)
        z0 = rng.standard_normal((20, 8, 4, 8, 8)).astype(np.float32)
        eps = rng.standard_normal(z0.shape).astype(np.float32)
        for t in (100, 500, 900):
            zt = forward_noise(z0, t, eps, sched).data
            assert abs(zt.var() - 1.0) < 0.05, f"t={t}: var={zt.var():.4f}"

    def test_gradients_match_finite_differences(self):
        sched = two_step_schedule()
        rng = np.random.default_rng(3)
        z0_arr = rng.standard_normal((1, 2, 1, 4, 4))
        eps_arr = rng.standard_normal(z0_arr.shape)

        def loss(z0, eps):
            return oracles.reduce_sum(oracles.square(forward_noise(z0, 1, eps, sched)))

        def value(z0a, epsa):
            return float(loss(fx.Tensor(z0a), fx.Tensor(epsa)).data)

        oracles.check_gradients(loss, value, [z0_arr, eps_arr], rtol=1e-6, atol=1e-7)


class TestSamplingGrid:
    def test_default_run(self):
        grid = sampling_grid(1000, 30)
        assert grid.shape == (31,)
        assert grid[0] == 999 and grid[-1] == 0
        assert np.all(np.diff(grid) < 0)
        assert np.issubdtype(grid.dtype, np.integer)

    def test_single_step(self):
        assert np.array_equal(sampling_grid(1000, 1), np.array([999, 0]))

    def test_dense_grid_covers_all(self):
        grid = sampling_grid(50, 49)
        assert np.array_equal(grid, np.arange(49, -1, -1))

    def test_bounds(self):
        with pytest.raises(ParameterError):
            sampling_grid(1000, 0)
        with pytest.raises(ParameterError):
            sampling_grid(1000, 1000)
        with pytest.raises(ParameterError):
            sampling_grid(1, 1)
