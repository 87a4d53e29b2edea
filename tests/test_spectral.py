import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx import spectral as sp
from freqvfx import synthgen as sg
from freqvfx.errors import DomainError, ParameterError, ShapeError

import oracles

S1, S2 = sp.SIGMA1_DEFAULT, sp.SIGMA2_DEFAULT


def oracle_fei(proxy: np.ndarray, sigma1=S1, sigma2=S2, eps=sp.EPS_DEFAULT) -> np.ndarray:
    """Composed scalar-loop + extended-precision pipeline, one proxy -> (B,3)."""
    k1 = np.outer(oracles.gaussian_taps_scalar(sigma1), oracles.gaussian_taps_scalar(sigma1))
    k2 = np.outer(oracles.gaussian_taps_scalar(sigma2), oracles.gaussian_taps_scalar(sigma2))
    b, c, h, w = proxy.shape
    out = np.zeros((b, 3), dtype=np.float64)
    for bi in range(b):
        coarse = np.zeros((c, h, w))
        band = np.zeros((c, h, w))
        detail = np.zeros((c, h, w))
        for ci in range(c):
            l1 = oracles.conv2d_replicate_scalar(proxy[bi, ci], k1)
            l2 = oracles.conv2d_replicate_scalar(proxy[bi, ci], k2)
            coarse[ci] = l2
            band[ci] = l1 - l2
            detail[ci] = proxy[bi, ci] - l1
        energies = [float(np.sum(p.astype(np.float64) ** 2)) for p in (coarse, band, detail)]
        out[bi] = oracles.normalize_mp(energies, eps)
    return out


# ---------------------------------------------------------------------------
# proxies


def test_appearance_of_identical_frames():
    rng = np.random.default_rng(0)
    frame = rng.normal(size=(1, 1, 2, 3, 3))
    z = np.repeat(frame, 4, axis=1)
    out = sp.appearance_proxy(z)
    np.testing.assert_allclose(out, frame[:, 0], rtol=0, atol=1e-12)


def test_appearance_cancellation():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(1, 1, 2, 3, 3))
    z = np.concatenate([f, -f], axis=1)
    out = sp.appearance_proxy(z)
    np.testing.assert_allclose(out, 0.0, rtol=0, atol=1e-12)


def test_appearance_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(1, 4, 2, 3, 3))
    got = sp.appearance_proxy(z)
    np.testing.assert_allclose(got, oracles.appearance_scalar(z), rtol=0, atol=1e-9)


def test_appearance_shape_error():
    with pytest.raises(ShapeError):
        sp.appearance_proxy(np.zeros((2, 3, 3)))


def test_vfx_static_video_is_zero():
    frame = np.random.default_rng(3).normal(size=(2, 1, 2, 4, 4))
    z = np.repeat(frame, 5, axis=1)
    out = sp.vfx_proxy(z)
    assert np.array_equal(out, np.zeros_like(out))


def test_vfx_constant_difference_gives_log2():
    f = np.random.default_rng(4).normal(size=(1, 1, 1, 3, 3))
    z = np.concatenate([f, f + 1.0], axis=1)
    out = sp.vfx_proxy(z)
    np.testing.assert_allclose(out, np.log(2.0), rtol=0, atol=1e-12)


def test_vfx_matches_scalar_oracle_and_nonnegative():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(1, 5, 2, 4, 4))
    p = sp.vfx_proxy(z)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p, oracles.vfx_scalar(z), rtol=0, atol=1e-9)


def test_vfx_requires_two_frames():
    with pytest.raises(ShapeError):
        sp.vfx_proxy(np.zeros((1, 1, 2, 3, 3)))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_constant_input():
    x = np.full((1, 2, 5, 5), 3.25)
    coarse, band, detail = sp.decompose(x)
    np.testing.assert_allclose(coarse, 3.25, rtol=0, atol=1e-9)
    np.testing.assert_allclose(band, 0.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(detail, 0.0, rtol=0, atol=1e-9)


def test_decompose_matches_oracle_blurs():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 7, 6))
    coarse, band, detail = sp.decompose(x, S1, S2)
    k1 = np.outer(oracles.gaussian_taps_scalar(S1), oracles.gaussian_taps_scalar(S1))
    k2 = np.outer(oracles.gaussian_taps_scalar(S2), oracles.gaussian_taps_scalar(S2))
    for ci in range(2):
        l1 = oracles.conv2d_replicate_scalar(x[0, ci], k1)
        l2 = oracles.conv2d_replicate_scalar(x[0, ci], k2)
        np.testing.assert_allclose(coarse[0, ci], l2, rtol=0, atol=1e-6)
        np.testing.assert_allclose(band[0, ci], l1 - l2, rtol=0, atol=1e-6)
        np.testing.assert_allclose(detail[0, ci], x[0, ci] - l1, rtol=0, atol=1e-6)


@pytest.mark.parametrize("sigmas", [(S1, S2), (0.3, 1.1), (0.8, 2.5)])
def test_telescoping_identity(sigmas):
    rng = np.random.default_rng(7)
    for trial in range(3):
        x = rng.normal(size=(2, 3, 6, 5))
        coarse, band, detail = sp.decompose(x, *sigmas)
        recon = coarse + band + detail
        assert np.max(np.abs(recon - x)) <= 1e-6


def test_decompose_sigma_order_enforced():
    x = np.zeros((1, 1, 4, 4))
    with pytest.raises(ParameterError):
        sp.decompose(x, 1.0, 1.0)
    with pytest.raises(ParameterError):
        sp.decompose(x, 2.0, 1.0)


# ---------------------------------------------------------------------------
# gaussian blur: the separable blur of `decompose`


def _blur(x, sigma):
    return sp.blur_apply(x, sp.blur_matrices(x.shape[-2], x.shape[-1], sigma))


def test_blur_requires_rank4():
    with pytest.raises(ShapeError):
        sp.decompose(np.zeros((4, 4)))


def test_blur_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    a, b = 1.7, -0.4
    lhs = _blur(a * x + b * y, 0.9375)
    rhs = a * _blur(x, 0.9375) + b * _blur(y, 0.9375)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-6)


@pytest.mark.parametrize("sigma", [0.46875, 0.9375, 1.7])
def test_blur_preserves_constants(sigma):
    x = np.full((2, 3, 6, 5), 2.75, dtype=np.float64)
    np.testing.assert_allclose(_blur(x, sigma), 2.75, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.46875, 0.9375, 1.3])
@pytest.mark.parametrize("hw", [(8, 8), (5, 9), (1, 7), (3, 1)])
def test_blur_matches_scalar_convolution(sigma, hw):
    h, w = hw
    rng = np.random.default_rng(h * 100 + w)
    x = rng.normal(size=(2, 2, h, w))
    out = _blur(x, sigma)
    k1 = oracles.gaussian_taps_scalar(sigma)
    k2 = np.outer(k1, k1)
    for b in range(2):
        for c in range(2):
            want = oracles.conv2d_replicate_scalar(x[b, c], k2)
            np.testing.assert_allclose(out[b, c], want, rtol=0, atol=1e-12)


def test_blur_matrix_cache_is_read_only():
    m = sp.blur_matrix(8, 0.5)
    with pytest.raises(ValueError):
        m[:] = 0
    np.testing.assert_allclose(sp.blur_matrix(8, 0.5).sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # the transposed copy the blur multiplies by is cached once and read-only
    mt = sp.blur_matrix_t(8, 0.5)
    assert sp.blur_matrix_t(8, 0.5) is mt
    assert mt.flags.c_contiguous and not mt.flags.writeable
    with pytest.raises(ValueError):
        mt[:] = 0


def test_blur_matrix_matches_the_tap_loop_bytes():
    """`blur_matrix` adds each clamped tap onto its column in the loop's (row,
    tap) order, so it has the loop's bytes."""
    for sigma in (0.1, 0.3, 0.46875, 0.5, 0.9375, 1.2, 1.5, 2.0, 3.7, 10.0):
        for n in range(1, 71):
            assert sp.blur_matrix(n, sigma).tobytes() == \
                oracles.blur_matrix_loop(n, sigma).tobytes(), (n, sigma)


def test_synthgen_and_spectral_read_the_same_clamp_taps():
    """`synthgen`'s blur and a `blur_matrix` build read the one cached table:
    each of the blur's two passes and the build hit the entry already made."""
    assert sg.clamp_taps is sp.clamp_taps
    idx, taps = sp.clamp_taps(13, 1.5)
    assert not idx.flags.writeable and not taps.flags.writeable
    before = sp.clamp_taps.cache_info()
    sg._blur2d(np.ones((2, 13, 13)), 1.5)
    sp.blur_matrix.__wrapped__(13, 1.5)  # the build, past its own cache
    after = sp.clamp_taps.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    assert sp.clamp_taps(13, 1.5) == (idx, taps)


def test_grad_blur():
    """The blur's gradient is its adjoint: <blur_apply(x), g> == <x, blur_adjoint(g)>
    in float64."""
    rng = np.random.default_rng(26)
    for shape, sigma in (((1, 2, 4, 5), 0.8), ((3, 1, 6, 3), 0.46875)):
        mats = sp.blur_matrices(shape[2], shape[3], sigma)
        x, g = rng.normal(size=shape), rng.normal(size=shape)
        lhs = np.sum(sp.blur_apply(x, mats) * g)
        rhs = np.sum(x * sp.blur_adjoint(g, mats))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# energies and normalization


def test_band_energies_zero_and_constant():
    zero = np.zeros((1, 2, 3, 3))
    np.testing.assert_array_equal(sp.band_energies((zero, zero, zero)), np.zeros((1, 3)))

    const = np.full((1, 2, 3, 3), 1.5)
    e = sp.band_energies((const, zero, zero))
    np.testing.assert_allclose(e, [[18 * 1.5 ** 2, 0.0, 0.0]], rtol=0, atol=1e-12)


def test_band_energies_match_scalar_oracle():
    rng = np.random.default_rng(8)
    parts = [rng.normal(size=(2, 2, 3, 4)) for _ in range(3)]
    got = sp.band_energies(parts)
    for k, p in enumerate(parts):
        np.testing.assert_allclose(got[:, k], oracles.energy_scalar(p), rtol=0, atol=1e-9)


def test_band_energies_shape_mismatch():
    a = np.zeros((1, 2, 3, 3))
    b = np.zeros((1, 2, 3, 4))
    with pytest.raises(ShapeError):
        sp.band_energies((a, a, b))


def test_normalize_zero_energies():
    out = sp.normalize_energies(np.zeros((2, 3)))
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_normalize_known_ratio():
    out = sp.normalize_energies(np.array([[1.0, 1.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.25, 0.25, 0.50]], rtol=0, atol=1e-7)


def test_normalize_matches_extended_precision():
    rng = np.random.default_rng(9)
    for _ in range(20):
        e = rng.uniform(0.0, 50.0, size=3)
        got = sp.normalize_energies(e[None, :])[0]
        want = oracles.normalize_mp(e, 1e-8)
        assert np.max(np.abs(got - want)) < 1e-9


def test_normalize_rejects_bad_input():
    with pytest.raises(DomainError):
        sp.normalize_energies(np.array([[1.0, -0.1, 0.0]]))
    with pytest.raises(ShapeError):
        sp.normalize_energies(np.ones((1, 4)))


# ---------------------------------------------------------------------------
# fei and the joint descriptor


def test_fei_constant_input_is_coarse_dominant():
    x = np.full((1, 2, 6, 6), 2.0)
    e = sp.fei(x)[0]
    assert e[0] > 1.0 - 1e-6
    assert abs(e[1]) < 1e-6 and abs(e[2]) < 1e-6


def test_fei_zero_input():
    e = sp.fei(np.zeros((1, 1, 5, 5)))
    np.testing.assert_array_equal(e, np.zeros((1, 3)))


def test_fei_checkerboard_is_detail_dominant():
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    board = np.where((i + j) % 2 == 0, 1.0, -1.0)[None, None]
    e = sp.fei(board)[0]
    want = oracle_fei(board)[0]
    np.testing.assert_allclose(e, want, rtol=0, atol=1e-9)
    assert e[2] > e[1] and e[2] > e[0]


def test_fei_matches_oracle_on_random_input():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 2, 6, 6))
    got = sp.fei(x)
    np.testing.assert_allclose(got, oracle_fei(x), rtol=0, atol=1e-9)


def test_descriptor_range_property():
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 40.0):
        x = rng.normal(size=(3, 2, 5, 5)) * scale
        e = sp.fei(x)
        assert np.all(e >= 0) and np.all(e <= 1)
        assert np.all(e.sum(axis=1) <= 1.0 + 1e-12)


def test_energy_scale_property():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 2, 5, 5))
    base = sp.band_energies(sp.decompose(x))
    for s in (0.1, 2.0, 10.0):
        scaled = sp.band_energies(sp.decompose(s * x))
        np.testing.assert_allclose(scaled, s * s * base, rtol=1e-10, atol=0)
        # normalized descriptor only drifts through eps
        e0 = sp.fei(x)
        e1 = sp.fei(s * x)
        total = base.sum(axis=1, keepdims=True)
        bound = sp.EPS_DEFAULT / np.minimum(total, s * s * total) + 1e-9
        assert np.all(np.abs(e1 - e0) <= bound)


def test_time_permutation_invariance():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(1, 6, 2, 4, 4))
    perm = rng.permutation(6)
    a0 = sp.appearance_proxy(z)
    a1 = sp.appearance_proxy(z[:, perm])
    np.testing.assert_allclose(a0, a1, rtol=0, atol=1e-12)
    v0 = sp.vfx_proxy(z)
    v1 = sp.vfx_proxy(z[:, ::-1].copy())
    np.testing.assert_allclose(v0, v1, rtol=0, atol=1e-12)


def test_joint_descriptor_static_and_constant():
    frame = np.random.default_rng(14).normal(size=(1, 1, 2, 4, 4))
    static = np.repeat(frame, 4, axis=1)
    jd = sp.joint_descriptor(fx.tensor(static)).data[0]
    np.testing.assert_array_equal(jd[3:], np.zeros(3))

    const = np.full((1, 4, 2, 4, 4), 0.7)
    jd = sp.joint_descriptor(fx.tensor(const)).data[0]
    assert jd[0] > 1.0 - 1e-6
    np.testing.assert_allclose(jd[1:], 0.0, rtol=0, atol=1e-6)


def test_joint_descriptor_matches_composed_oracles():
    rng = np.random.default_rng(15)
    z = rng.normal(size=(2, 5, 2, 5, 5))
    got = sp.joint_descriptor(fx.tensor(z)).data
    want = np.concatenate([oracle_fei(oracles.appearance_scalar(z)),
                           oracle_fei(oracles.vfx_scalar(z))], axis=1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_joint_descriptor_halves_are_independent():
    rng = np.random.default_rng(16)
    z = rng.normal(size=(1, 4, 1, 4, 4))
    jd = sp.joint_descriptor(fx.tensor(z)).data
    app = sp.fei(sp.appearance_proxy(z))
    vfx = sp.fei(sp.vfx_proxy(z))
    np.testing.assert_array_equal(jd[:, :3], app)
    np.testing.assert_array_equal(jd[:, 3:], vfx)


def test_detached_descriptor_never_records():
    """On a live video under a tape, the detached descriptor appends no node and
    has the bytes of the `descriptor` node's value."""
    z = fx.tensor(np.random.default_rng(18).normal(size=(2, 3, 1, 4, 4)).astype(np.float32))
    with fx.Tape([z]) as tape:
        d = sp.joint_descriptor_detached(z)
        assert len(tape.nodes) == 0
        value = sp.joint_descriptor(z).data
    assert [n.op for n in tape.nodes] == ["descriptor"]
    assert d.shape == (2, 6) and d.tobytes() == value.tobytes()


def test_appearance_descriptor_scale_invariant():
    # the energy shares of the appearance half are ratios of quadratic
    # quantities, so rescaling the latent must not shift them; the motion
    # half goes through log1p and deliberately is not invariant
    rng = np.random.default_rng(14)
    z = rng.normal(size=(3, 4, 2, 6, 6)).astype(np.float32)
    base = sp.joint_descriptor_detached(z)[:, :3]
    for s in (0.1, 0.5, 2.0, 10.0):
        scaled = sp.joint_descriptor_detached((s * z).astype(np.float32))[:, :3]
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 2, 1, 5, 5), (2, 3, 4, 8, 8), (3, 8, 4, 16, 16),
                                   (7, 5, 3, 6, 10), (16, 2, 4, 9, 7), (128, 8, 4, 16, 16)])
def test_detached_descriptor_matches_two_pass_bytes(shape, dtype):
    """`fei` run once on both proxies stacked along the batch axis gives the
    bytes of one `fei` per proxy, on moving and on static videos: the
    `descriptor` node's value on a constant video and on a live one under a
    tape, and the detached descriptor."""
    rng = np.random.default_rng(shape[0] * 31 + shape[-1])
    z = rng.normal(size=shape).astype(dtype)
    for video in (z, np.repeat(z[:, :1], shape[1], axis=1)):
        want = oracles.joint_descriptor_two_pass(video).tobytes()
        assert sp.joint_descriptor(video).data.tobytes() == want
        live = fx.Tensor(video)
        with fx.Tape([live]) as tape:
            assert sp.joint_descriptor(live).data.tobytes() == want
        assert [n.op for n in tape.nodes] == ["descriptor"]
        assert sp.joint_descriptor_detached(video).tobytes() == want
