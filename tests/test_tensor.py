import numpy as np
import pytest

import freqvfx.spectral as sp
import freqvfx.tensor as fx
from freqvfx.errors import ParameterError, ShapeError, TapeConsistencyError

import oracles


def grad_check(fn, shapes, seed=0, rtol=1e-6, atol=1e-8, step=1e-5, transform=None):
    """Compare backward() against central finite differences on random inputs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    if transform is not None:
        arrays = [transform(a) for a in arrays]
    probe = fn(*[fx.tensor(a) for a in arrays])
    w = rng.normal(size=probe.shape)
    wt = fx.tensor(w)
    params = [fx.tensor(a.copy()) for a in arrays]
    with fx.Tape(params) as tape:
        out = fn(*params)
        loss = oracles.reduce_sum(oracles.mul(out, wt))
    grads = fx.backward(tape, loss)

    def f(*arrs):
        o = fn(*[fx.Tensor(a) for a in arrs])
        return float(np.sum(o.data * w))

    for i, p in enumerate(params):
        num = oracles.fd_grad(f, arrays, i, step=step)
        oracles.assert_grads_close(grads[p].data, num, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# construction and basic hygiene


def test_tensor_rejects_nonfinite():
    with pytest.raises(ParameterError):
        fx.tensor([1.0, np.nan])
    with pytest.raises(ParameterError):
        fx.tensor([np.inf])
    t = fx.Tensor(np.array([1.0, np.nan]))  # the raw constructor does not check
    assert np.isnan(t.data[1])


def test_dtype_mismatch_rejected():
    a = fx.tensor(np.ones(3, dtype=np.float32))
    b = fx.tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(ParameterError):
        oracles.add(a, b)


def test_scalar_promotion_matches_dtype():
    a = fx.tensor(np.ones(3, dtype=np.float32))
    out = oracles.add(oracles.mul(2.0, a), 1.0)
    assert out.dtype == np.float32
    assert np.allclose(out.data, 3.0)


# ---------------------------------------------------------------------------
# known values


def test_softmax_uniform_on_equal_logits():
    out = oracles.softmax(fx.tensor(np.array([0.5, 0.5, 0.5, 0.5], dtype=np.float64)), tau=1.0)
    assert np.allclose(out.data, 0.25, atol=1e-15)
    assert abs(out.data.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("tau", [0.25, 1.0, 3.0])
def test_softmax_matches_high_precision(tau):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(scale=4.0, size=6)
        got = oracles.softmax(fx.tensor(x), tau=tau).data
        want = oracles.softmax_mp(x, tau)
        assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_large_tau_flattens():
    x = fx.tensor(np.array([3.0, -1.0, 0.5], dtype=np.float64))
    out = oracles.softmax(x, tau=1e6).data
    assert np.max(np.abs(out - 1.0 / 3.0)) < 1e-5


def test_softmax_bad_temperature():
    x = fx.tensor([1.0, 2.0])
    with pytest.raises(ParameterError):
        oracles.softmax(x, tau=0.0)
    with pytest.raises(ParameterError):
        oracles.softmax(x, tau=-1.0)


# ---------------------------------------------------------------------------
# gaussian blur: the separable blur of `spectral.decompose`


def _blur(x, sigma):
    return sp.blur_apply(x, sp.blur_matrices(x.shape[-2], x.shape[-1], sigma))


@pytest.mark.parametrize("sigma,taps", [(0.46875, 5), (0.9375, 7), (2.0, 13)])
def test_kernel_radius_and_normalization(sigma, taps):
    k = sp.gaussian_kernel_1d(sigma)
    assert len(k) == taps
    assert abs(k.sum() - 1.0) < 1e-12
    assert np.array_equal(k, k[::-1])  # symmetric
    np.testing.assert_allclose(k, oracles.gaussian_taps_scalar(sigma), rtol=0, atol=1e-15)


def test_kernel_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        sp.gaussian_kernel_1d(0.0)
    with pytest.raises(ParameterError):
        sp.decompose(np.zeros((1, 1, 4, 4)), -0.5, 1.0)


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


# ---------------------------------------------------------------------------
# gradients of every primitive


def test_grad_add_sub_broadcast():
    grad_check(lambda a, b: oracles.add(a, b), [(3, 4), (4,)], seed=1)
    grad_check(lambda a, b: oracles.sub(a, b), [(3, 4), (3, 1)], seed=2)


def test_grad_mul_div_broadcast():
    grad_check(lambda a, b: oracles.mul(a, b), [(2, 3, 4), (3, 4)], seed=3)
    grad_check(oracles.div, [(3, 4), (4,)], seed=4,
               transform=lambda a: a + 3.0 * np.sign(a) + 0.5)  # keep denominators off 0


def test_grad_unary():
    grad_check(oracles.square, [(3, 3)], seed=6)
    grad_check(oracles.absolute, [(4, 4)], seed=7,
               transform=lambda a: a + 0.2 * np.sign(a))  # stay away from the kink
    grad_check(oracles.log1p, [(3, 5)], seed=8, transform=lambda a: np.abs(a) * 0.5)
    grad_check(oracles.gelu, [(4, 3)], seed=10, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("tau", [0.7, 1.0, 2.5])
def test_grad_softmax(tau):
    grad_check(lambda a: oracles.softmax(a, tau=tau), [(3, 5)], seed=11, rtol=1e-5, atol=1e-8)


def test_grad_matmul_variants():
    grad_check(oracles.matmul, [(3, 4), (4, 5)], seed=12)
    grad_check(oracles.matmul, [(2, 3, 4), (4, 5)], seed=13)
    grad_check(oracles.matmul, [(2, 3, 4), (2, 4, 5)], seed=14)
    grad_check(oracles.linear, [(3, 4), (5, 4)], seed=27)
    grad_check(oracles.linear, [(2, 3, 4), (5, 4)], seed=28)


@pytest.mark.parametrize("h_shape", [(3, 4), (2, 3, 4)])
def test_linear_is_bit_identical_to_matmul_of_transpose(h_shape):
    """linear replaces the oracle chain matmul(h, swap_last2(w)) without changing a
    byte: with a trainable weight for both operands, and with a frozen array
    weight, a constant of the node, for h."""
    rng = np.random.default_rng(29)
    h0 = rng.normal(size=h_shape).astype(np.float32)
    w0 = rng.normal(size=(5, 4)).astype(np.float32)
    g0 = rng.normal(size=h_shape[:-1] + (5,)).astype(np.float32)

    def run(project, n_live):
        h, w = fx.tensor(h0), fx.tensor(w0)
        live = [h, w][:n_live]
        with fx.Tape(live) as tape:
            out = project(h, w)
            loss = oracles.reduce_sum(oracles.mul(out, fx.tensor(g0)))
        grads = fx.backward(tape, loss)
        return [x.data.tobytes() for x in (out, *(grads[t] for t in live))], len(tape.nodes)

    def chain(h, w):
        return oracles.matmul(h, oracles.swap_last2(w))

    fused, n_fused = run(oracles.linear, 2)
    plain, n_plain = run(chain, 2)
    assert fused == plain
    assert n_fused == n_plain - 1
    assert run(lambda h, w: oracles.linear(h, w.data), 1) == run(chain, 1)


def test_fd_grad_perturbs_column_views():
    """A column slice is not contiguous: the oracle must perturb the array itself."""
    rng = np.random.default_rng(30)
    h = rng.normal(size=(3, 4))
    w = fx.tensor(rng.normal(size=(5, 4)))
    coef = rng.normal(size=(3, 5))
    with fx.Tape([w]) as tape:
        loss = oracles.reduce_sum(oracles.mul(oracles.linear(fx.tensor(h), w), fx.tensor(coef)))
    grad = fx.backward(tape, loss)[w].data
    view = w.data[:, 1:3]
    assert not view.flags.c_contiguous

    def f(*_):
        return float(np.sum((h @ w.data.T) * coef))

    num = oracles.fd_grad(f, [view], 0)
    assert np.any(num != 0.0)
    oracles.assert_grads_close(grad[:, 1:3], num, rtol=1e-6, atol=1e-8)


def test_broadcast_to_returns_read_only_view():
    a = fx.tensor(np.arange(6.0).reshape(2, 3))
    out = oracles.broadcast_to(a, (4, 2, 3)).data
    assert np.shares_memory(out, a.data)
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0, 0] = 1.0
    np.testing.assert_array_equal(out, np.broadcast_to(a.data, (4, 2, 3)))


def test_grad_shape_ops():
    grad_check(lambda a: oracles.reshape(a, (6, 2)), [(3, 4)], seed=15)
    grad_check(lambda a: oracles.transpose(a, (2, 0, 1)), [(2, 3, 4)], seed=16)
    grad_check(lambda a: oracles.broadcast_to(a, (5, 3, 4)), [(3, 4)], seed=18)
    grad_check(lambda a: oracles.slice_axis(a, 1, 1, 3), [(2, 5, 3)], seed=19)
    grad_check(lambda a, b: oracles.concat([a, b], axis=1), [(2, 3), (2, 2)], seed=20)


def test_grad_reductions():
    grad_check(lambda a: oracles.reduce_sum(a, axes=(1,)), [(3, 4, 2)], seed=21)
    grad_check(lambda a: oracles.reduce_sum(a, axes=(0, 2), keepdims=True), [(3, 4, 2)], seed=22)
    grad_check(lambda a: oracles.reduce_mean(a, axes=(1, 2)), [(2, 3, 4)], seed=23)
    grad_check(lambda a: oracles.reduce_mean(a), [(4, 4)], seed=24)


@pytest.mark.parametrize("shape", [(1, 3, 2, 4, 5), (2, 2, 1, 5, 4)])
def test_grad_joint_descriptor(shape):
    """Both proxies, all three bands and the normalisation, at T=3 and at T=2."""
    grad_check(sp.joint_descriptor, [shape], seed=34)


def test_grad_accumulates_on_reuse():
    x = fx.tensor(np.array([1.0, -2.0, 3.0]))
    with fx.Tape([x]) as tape:
        loss = oracles.reduce_sum(oracles.add(oracles.mul(x, x), oracles.mul(3.0, x)))
    g = fx.backward(tape, loss)[x].data
    np.testing.assert_allclose(g, 2.0 * x.data + 3.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar_loss():
    x = fx.tensor(np.ones(3))
    with fx.Tape([x]) as tape:
        y = oracles.mul(x, 2.0)
    with pytest.raises(ShapeError):
        fx.backward(tape, y)


def test_backward_rejects_foreign_loss():
    x = fx.tensor(np.ones(3))
    with fx.Tape([x]) as tape:
        _ = oracles.mul(x, 2.0)
        # recorded nowhere
        constant = oracles.reduce_sum(oracles.mul(fx.tensor(np.ones(3)), 3.0))
    with fx.Tape([x]) as other:
        loss = oracles.reduce_sum(oracles.mul(x, 1.0))
    for foreign in (loss, constant):
        with pytest.raises(ParameterError):
            fx.backward(tape, foreign)
    assert fx.backward(other, loss)[x].data.shape == (3,)


def test_unreachable_parameter_gets_zero_grad():
    x = fx.tensor(np.ones(3))
    z = fx.tensor(np.ones(2))  # on the tape, unused by the loss
    with fx.Tape([x, z]) as tape:
        loss = oracles.reduce_sum(oracles.mul(x, x))
    grads = fx.backward(tape, loss)
    assert list(grads) == [x, z]
    np.testing.assert_array_equal(grads[z].data, np.zeros(2))
    np.testing.assert_allclose(grads[x].data, 2.0, atol=1e-12)


def test_tape_records_only_ops_on_live_tensors():
    """Live means a wrt leaf or a recorded output; each node lists a constant
    input with no key, and its vjp returns gradients only for the live inputs."""
    x = fx.tensor(np.ones((2, 3)))
    c = fx.tensor(np.full((2, 3), 2.0))
    assert not fx.is_live(x)  # no active tape
    with fx.Tape([x]) as tape:
        k = oracles.add(oracles.mul(c, 3.0), 1.0)  # constants alone: no node
        h = oracles.linear(x, k.data)
        loss = oracles.reduce_sum(oracles.mul(h, h))
        assert [fx.is_live(t) for t in (x, c, k, h, loss)] == [True, False, False, True, True]
    assert [(n.op, tuple(k is not None for k in n.inputs)) for n in tape.nodes] == [
        ("linear", (True, False)), ("mul", (True, True)), ("sum", (True,))]
    node = tape.nodes[0]
    gx, gk = node.vjp(np.ones((2, 2)))
    assert gx.shape == (2, 3) and gk is None
    assert list(fx.backward(tape, loss)) == [x]


def test_forward_determinism_same_bytes():
    def run():
        rng = np.random.default_rng(42)
        a = fx.tensor(rng.normal(size=(8, 8)).astype(np.float32))
        b = fx.tensor(rng.normal(size=(8, 8)).astype(np.float32))
        h = oracles.linear(a, b.data)
        out = oracles.attention_chain(h, h, h, 0.8)
        return oracles.reduce_sum(out).data.tobytes()

    assert run() == run()


def test_shape_errors():
    with pytest.raises(ShapeError):
        oracles.concat([fx.tensor(np.ones((2, 3))), fx.tensor(np.ones((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        oracles.reduce_sum(fx.tensor(np.ones(3)), axes=(2,))


def test_concat_reads_plain_parts_at_the_tensor_dtype():
    """A plain part takes the dtype of the first Tensor part, wherever it sits, as
    a binary op's plain operand does; Tensor parts of two dtypes are refused."""
    wide = np.arange(6.0).reshape(2, 3)
    live = fx.tensor(np.ones((2, 2)))
    for parts in ([wide, live], [live, wide]):
        out = oracles.concat(parts, axis=1)
        assert out.dtype == np.float64
        assert np.array_equal(out.data[:, :3] if parts[0] is wide else out.data[:, 2:], wide)
    assert oracles.concat([wide, wide], axis=0).dtype == np.float32
    with pytest.raises(ParameterError, match="dtype mismatch"):
        oracles.concat([live, fx.tensor(wide.astype(np.float32))], axis=1)


def test_frozen_weight_is_a_constant_input():
    """A plain-array input of `record` enters the node as it is: listed with no
    key, never live, no gradient, and the gradient of the live input equals the
    one it gets beside a constant Tensor weight; the frozen array refuses writes."""
    rng = np.random.default_rng(31)
    w = fx.frozen(rng.normal(size=(5, 4)))
    x = fx.tensor(rng.normal(size=(3, 4)))
    with fx.Tape([x]) as tape:
        loss = oracles.reduce_sum(oracles.square(oracles.linear(x, w)))
    (node, *_), grads = tape.nodes, fx.backward(tape, loss)
    assert node.op == "linear" and node.inputs == (x.key, None)
    assert node.shapes == (x.shape, w.shape)
    with fx.Tape([x]) as tape2:
        loss2 = oracles.reduce_sum(oracles.square(oracles.linear(x, fx.Tensor(w))))
    assert grads[x].data.tobytes() == fx.backward(tape2, loss2)[x].data.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 1.0


def test_tape_refuses_a_leaf_that_is_not_a_tensor():
    """A frozen weight is a constant, so no tape lists it among its leaves: the
    refusal names the leaf's index and type, and no tape is made."""
    x = fx.tensor(np.ones((3, 4)))
    for leaf, kind in ((fx.frozen(np.ones((5, 4))), "ndarray"), (2.0, "float")):
        with pytest.raises(ParameterError, match=rf"wrt leaf 1 is a {kind}, not a Tensor"):
            fx.Tape([x, leaf])
    assert fx.active_tape() is None


def test_replay_records_the_span_run_again_without_recomputing_it():
    """A replayed span is what running its ops again on the same inputs records:
    the same ops, input shapes and live inputs, the originals' vjps under fresh
    output keys, inputs made inside the span taken from the copies, and the same
    gradient bytes; the returned tensor holds the original's array."""
    rng = np.random.default_rng(5)
    w = fx.frozen(rng.normal(size=(4, 3)))
    x = fx.tensor(rng.normal(size=(2, 3)))
    c = fx.tensor(rng.normal(size=(2, 4)))

    def span(v):
        return oracles.square(oracles.add(oracles.linear(v, w), c))

    runs = []
    for again in (span, None):
        with fx.Tape([x]) as tape:
            h = oracles.square(x)
            y = span(h)
            head = oracles.reduce_sum(oracles.mul(y, 2.0))
            y2 = span(h) if again else fx.replay(1, 4, y)
            loss = oracles.add(head, oracles.reduce_sum(oracles.absolute(y2)))
        runs.append((tape, y, y2, fx.backward(tape, loss)[x].data.tobytes()))
    (tape_a, _, _, g_again), (tape_r, y, y2, g_replay) = runs
    assert [(n.op, n.shapes, tuple(k is not None for k in n.inputs)) for n in tape_r.nodes] == \
        [(n.op, n.shapes, tuple(k is not None for k in n.inputs)) for n in tape_a.nodes]
    assert g_replay == g_again
    copies, originals = tape_r.nodes[6:9], tape_r.nodes[1:4]
    assert all(cp.vjp is orig.vjp and cp.shapes == orig.shapes
               for cp, orig in zip(copies, originals))
    assert len({n.out for n in tape_r.nodes}) == len(tape_r.nodes)  # every key fresh
    assert y2.data is y.data and (y2.key, y.key) == (copies[-1].out, originals[-1].out)
    # the copy of `linear` reads h, made before the span; the copy of the add
    # reads the copy of `linear`'s output, and the constant c (no key) as it is
    assert copies[0].inputs[0] == originals[0].inputs[0]
    assert copies[1].inputs == (copies[0].out, None)


def test_replay_needs_a_span_of_the_active_tape_that_made_out():
    x = fx.tensor(np.ones(3))
    with pytest.raises(TapeConsistencyError, match="no span"):
        fx.replay(0, 0, x)
    with fx.Tape([x]) as tape:
        y = oracles.square(x)
        z = oracles.square(y)
        with pytest.raises(TapeConsistencyError, match="no span"):
            fx.replay(1, 3, z)
        with pytest.raises(TapeConsistencyError, match="did not make"):
            fx.replay(1, 2, y)
    assert len(tape.nodes) == 2  # a refused replay records nothing


def test_cast_refuses_non_float_dtypes():
    """Tensors hold float32 or float64, and `record` wraps an op's result as it
    is, so `cast` is where another dtype is refused."""
    x = fx.tensor(np.ones(3, dtype=np.float32))
    assert oracles.cast(x, np.float64).dtype == np.float64
    for dtype in (np.int32, np.float16, bool):
        with pytest.raises(ParameterError, match="float32 or float64"):
            oracles.cast(x, dtype)
