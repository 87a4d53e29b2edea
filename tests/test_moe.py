import re

import numpy as np
import pytest
from mpmath import mp, mpf

import freqvfx.tensor as fx
from freqvfx import denoiser, moe, spectral as sp
from freqvfx.config import ModelConfig
from freqvfx.errors import ParameterError, ShapeError

import oracles


def _router(rng, n_experts=4, hidden=16, tau=1.0, dtype=np.float64, zero=False):
    p = moe.RouterParams.init(rng, n_experts=n_experts, hidden=hidden, tau=tau, dtype=dtype)
    if not zero:
        # give the second layer signal; init() starts it at zero on purpose
        p.w2.data[...] = rng.normal(0.0, 0.8, size=p.w2.shape).astype(dtype)
        p.b2.data[...] = rng.normal(0.0, 0.3, size=p.b2.shape).astype(dtype)
    return p


def _gelu_mp(x):
    c = mp.sqrt(mpf(2) / mp.pi)
    x = mpf(x)
    return mpf("0.5") * x * (1 + mp.tanh(c * (x + mpf("0.044715") * x ** 3)))


def oracle_route_row(e_row, params, top_k):
    """Scalar-loop MLP + extended-precision softmax, sort, mask, renormalize."""
    old = mp.dps
    mp.dps = 60
    try:
        hidden = []
        for i in range(params.w1.shape[0]):
            acc = mpf(float(params.b1.data[i]))
            for j in range(6):
                acc += mpf(float(params.w1.data[i, j])) * mpf(float(e_row[j]))
            hidden.append(_gelu_mp(acc))
        logits = []
        for i in range(params.w2.shape[0]):
            acc = mpf(float(params.b2.data[i]))
            for j in range(len(hidden)):
                acc += mpf(float(params.w2.data[i, j])) * hidden[j]
            logits.append(acc)
        exps = [mp.exp(l / mpf(params.tau)) for l in logits]
        total = sum(exps)
        pi = [v / total for v in exps]
        m = len(pi)
        if top_k < m:
            order = sorted(range(m), key=lambda i: (-pi[i], i))
            keep = set(order[:top_k])
            pi = [p if i in keep else mpf(0) for i, p in enumerate(pi)]
            z = sum(pi)
            pi = [p / z for p in pi]
        return np.array([float(p) for p in pi])
    finally:
        mp.dps = old


# ---------------------------------------------------------------------------
# routing


def test_route_uniform_when_router_is_zero():
    rng = np.random.default_rng(0)
    p = _router(rng, zero=True)
    p.w1.data[...] = 0.0
    e = rng.normal(size=(3, 6))
    out = moe.route(e, p, top_k=4).data
    np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-12)


def test_route_fresh_init_is_uniform():
    # init() zeroes the second layer, so routing starts uniform by construction
    rng = np.random.default_rng(1)
    p = moe.RouterParams.init(rng, n_experts=4, hidden=16, tau=1.0, dtype=np.float64)
    out = moe.route(rng.normal(size=(2, 6)), p, top_k=4).data
    np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-12)


def test_route_top1_is_one_hot_and_tau_invariant():
    rng = np.random.default_rng(2)
    p = _router(rng)
    e = rng.normal(size=(5, 6))
    full = moe.route(e, p, top_k=4).data
    hard = moe.route(e, p, top_k=1).data
    for b in range(5):
        j = int(np.argmax(full[b]))
        want = np.zeros(4)
        want[j] = 1.0
        np.testing.assert_allclose(hard[b], want, rtol=0, atol=1e-12)
    # changing the temperature rescales logits but never moves the argmax
    for tau in (0.1, 3.0, 42.0):
        p2 = moe.RouterParams(p.w1, p.b1, p.w2, p.b2, tau=tau)
        hard2 = moe.route(e, p2, top_k=1).data
        np.testing.assert_array_equal(hard2, hard)


@pytest.mark.parametrize("top_k", [1, 2, 3, 4])
def test_route_matches_extended_precision_oracle(top_k):
    rng = np.random.default_rng(3)
    p = _router(rng, tau=0.7)
    e = rng.uniform(0.0, 1.0, size=(6, 6))
    got = moe.route(e, p, top_k=top_k).data
    for b in range(6):
        want = oracle_route_row(e[b], p, top_k)
        assert np.max(np.abs(got[b] - want)) < 1e-7


def test_route_row_properties():
    rng = np.random.default_rng(4)
    p = _router(rng)
    for top_k in (1, 2, 3, 4):
        pi = moe.route(rng.normal(size=(8, 6)), p, top_k=top_k).data
        assert np.all(pi >= 0)
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, rtol=0, atol=1e-6)
        assert np.all((pi > 0).sum(axis=1) <= top_k)


def test_route_top_k_bounds():
    rng = np.random.default_rng(5)
    p = _router(rng)
    e = np.zeros((1, 6))
    with pytest.raises(ParameterError):
        moe.route(e, p, top_k=0)
    with pytest.raises(ParameterError):
        moe.route(e, p, top_k=5)
    with pytest.raises(ShapeError):
        moe.route(np.zeros((1, 5)), p, top_k=2)


def test_route_descriptor_is_detached():
    rng = np.random.default_rng(6)
    p = _router(rng)
    z = fx.tensor(rng.normal(size=(1, 3, 1, 4, 4)))
    with fx.Tape([z, *p.parameters().values()]) as tape:
        d = sp.joint_descriptor(z)
        pi = moe.route(d, p, top_k=3)
        loss = oracles.reduce_sum(oracles.square(pi))
    grads = fx.backward(tape, loss)
    np.testing.assert_array_equal(grads[z].data, np.zeros_like(z.data))
    assert np.any(grads[p.w2].data != 0)  # router itself still learns


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("top_k", [3, 4])
def test_router_gradients_match_finite_differences(b, top_k):
    """Every coordinate of the four float64 router leaves, at criterion 3's
    relative 1e-5 above its 1e-9 floor."""
    rng = np.random.default_rng(20 + b)
    p = _router(rng, tau=1.5)
    e = rng.dirichlet(np.ones(6), size=b)
    wmix = rng.normal(size=(b, 4))
    leaves = list(p.parameters().values())
    with fx.Tape(leaves) as tape:
        loss = oracles.reduce_sum(oracles.mul(moe.route(e, p, top_k), fx.tensor(wmix)))
    grads = fx.backward(tape, loss)

    def value(*_):
        return float(np.sum(moe.route(e, p, top_k).data * wmix))

    for leaf in leaves:
        num = oracles.fd_grad(value, [leaf.data], 0)
        oracles.assert_grads_close(grads[leaf].data, num, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------------
# rank budget


def test_split_rank_budget_examples():
    assert moe.split_rank_budget(16, 4) == [4, 4, 4, 4]
    assert moe.split_rank_budget(10, 4) == [3, 3, 2, 2]
    assert moe.split_rank_budget(7, 7) == [1] * 7


def test_split_rank_budget_properties():
    for r in range(1, 30):
        for m in range(1, r + 1):
            ranks = moe.split_rank_budget(r, m)
            assert sum(ranks) == r
            assert max(ranks) - min(ranks) <= 1
            assert ranks == sorted(ranks, reverse=True)


def test_split_rank_budget_errors():
    with pytest.raises(ParameterError):
        moe.split_rank_budget(3, 4)
    with pytest.raises(ParameterError):
        moe.split_rank_budget(4, 0)


def _adapter(rng, d_in, d_out, n_experts, total_rank, dtype=np.float32):
    """An adapter over the split budget, with its rank layout's (M, R) owner and
    each expert's span of the rank axis."""
    ranks = moe.split_rank_budget(total_rank, n_experts)
    adapter = moe.MoeAdapter.init(rng, d_in=d_in, d_out=d_out, ranks=ranks, dtype=dtype)
    slices = [slice(end - r, end) for r, end in zip(ranks, np.cumsum(ranks))]
    return adapter, moe.expert_owner(ranks, dtype), slices


def test_adapter_param_count():
    rng = np.random.default_rng(7)
    a, _, _ = _adapter(rng, 8, 8, n_experts=4, total_rank=16)
    assert oracles.adapter_param_count(a) == 256
    b, _, _ = _adapter(rng, 8, 8, n_experts=1, total_rank=16)
    assert oracles.adapter_param_count(b) == oracles.adapter_param_count(a)
    # enumeration oracle on an uneven configuration: sum over the per-expert blocks
    c, _, slices = _adapter(rng, 5, 9, n_experts=3, total_rank=10)
    direct = sum(c.a.data[s].size + c.b.data[:, s].size for s in slices)
    assert oracles.adapter_param_count(c) == direct == 10 * (5 + 9)


def test_adapter_init_is_identity():
    rng = np.random.default_rng(8)
    a, _, _ = _adapter(rng, 6, 6, n_experts=4, total_rank=8)
    assert a.a.shape == (8, 6)
    assert np.all(a.b.data == 0)


def test_adapter_packing_layout():
    """Packed leaves hold the per-expert draws in expert order; owner and slices
    mark the same blocks."""
    a, owner, slices = _adapter(np.random.default_rng(14), 5, 7, n_experts=4, total_rank=9)
    ranks = (3, 2, 2, 2)
    assert a.a.shape == (9, 5) and a.b.shape == (7, 9)
    assert a.parameters("adapter.x") == {"adapter.x.a": a.a, "adapter.x.b": a.b}
    assert owner.shape == (4, 9)
    rng = np.random.default_rng(14)
    draws = [rng.normal(0.0, 0.02, size=(r, 5)).astype(np.float32) for r in ranks]
    for m, (draw, s) in enumerate(zip(draws, slices)):
        assert s.stop - s.start == ranks[m]
        assert a.a.data[s].tobytes() == draw.tobytes()
        np.testing.assert_array_equal(owner[m], np.repeat(np.eye(4)[m], ranks))
        np.testing.assert_array_equal(owner[m, s], 1.0)


# ---------------------------------------------------------------------------
# moe_forward


def _gate(pi, owner, h):
    """The routing gate pi @ owner, shaped to broadcast against h @ a^T."""
    gate = np.asarray(pi) @ owner
    return gate.reshape((gate.shape[0],) + (1,) * (np.ndim(h) - 2) + (gate.shape[1],))


def _uniform_weights(b, m, dtype=np.float64):
    return np.full((b, m), 1.0 / m, dtype=dtype)


def test_moe_forward_zero_experts_is_base_path():
    rng = np.random.default_rng(9)
    a, owner, _ = _adapter(rng, 6, 4, n_experts=4, total_rank=8, dtype=np.float64)
    a.a.data[...] = 0.0
    w = rng.normal(size=(4, 6))
    h = rng.normal(size=(2, 5, 6))
    out, _, _ = moe.moe_forward(h, w, a.a.data, a.b.data, _gate(_uniform_weights(2, 4), owner, h))
    np.testing.assert_array_equal(out, h @ w.T)


def test_moe_forward_one_hot_reduces_to_single_expert():
    rng = np.random.default_rng(10)
    a, owner, slices = _adapter(rng, 6, 4, n_experts=4, total_rank=8, dtype=np.float64)
    a.b.data[...] = rng.normal(size=a.b.shape)
    j = 2
    pi = np.zeros((3, 4))
    pi[:, j] = 1.0
    w = rng.normal(size=(4, 6))
    h = rng.normal(size=(3, 6))
    out, _, _ = moe.moe_forward(h, w, a.a.data, a.b.data, _gate(pi, owner, h))
    s = slices[j]
    want = h @ w.T + (h @ a.a.data[s].T) @ a.b.data[:, s].T
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def _block_model(dtype, total_rank):
    """A width-16 backbone and stack whose experts and router are off their zero
    init, and block 0's cross-attention layer name."""
    cfg = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10, total_rank=total_rank)
    rng = np.random.default_rng(15)
    params = denoiser.build_denoiser(rng, latent_shape=cfg.latent_shape, width=cfg.width,
                                     n_blocks=cfg.n_blocks, patch=cfg.patch,
                                     num_steps=cfg.num_steps, diag_bias=cfg.diag_bias,
                                     cross_gain=cfg.cross_gain, dtype=dtype)
    stack = denoiser.build_adapter_stack(rng, params, cfg, dtype=dtype)
    for leaf in stack.parameters().values():
        leaf.data[...] = rng.normal(0.0, 0.2, size=leaf.shape)
    return params, stack, "block0.cross"


def test_moe_forward_matches_scalar_oracle_f32():
    rng = np.random.default_rng(11)
    a, owner, slices = _adapter(rng, 6, 5, n_experts=4, total_rank=9, dtype=np.float32)
    a.b.data[...] = rng.normal(0.0, 0.3, size=a.b.shape).astype(np.float32)
    w = rng.normal(size=(5, 6)).astype(np.float32)
    h = rng.normal(size=(3, 3, 6)).astype(np.float32)
    pi = rng.dirichlet(np.ones(4), size=3).astype(np.float32)
    # last row as route() leaves it under top_k=2: experts 1 and 3 masked to exact zeros
    pi[2, [1, 3]] = 0.0
    pi[2] /= pi[2].sum()
    got, _, _ = moe.moe_forward(h, w, a.a.data, a.b.data, _gate(pi, owner, h))

    want = np.zeros((3, 3, 5), dtype=np.float64)
    for b in range(3):
        for n in range(3):
            hv = h[b, n].astype(np.float64)
            acc = w.astype(np.float64) @ hv
            for m, s in enumerate(slices):
                am = a.a.data[s].astype(np.float64)
                bm = a.b.data[:, s].astype(np.float64)
                acc += float(pi[b, m]) * (bm @ (am @ hv))
            want[b, n] = acc
    assert np.max(np.abs(got - want)) < 1e-6

    # that routing alone through an attention block: the masked experts' slices of
    # every projection receive exactly zero gradient
    params, stack, layer = _block_model(np.float32, 9)
    x = fx.Tensor(rng.normal(size=(1, 8, 16)).astype(np.float32))
    kv = rng.normal(size=(1, 5, 16)).astype(np.float32)
    adapters = [stack.layers[f"{layer}.{slot}"] for slot in "qkvo"]
    leaves = [t for ad in adapters for t in (ad.a, ad.b)]
    with fx.Tape(leaves) as tape:
        out = denoiser._attention(x, kv, params, stack, fx.tensor(pi[2:]), layer)
        loss = oracles.reduce_sum(oracles.square(out))
    grads = fx.backward(tape, loss)
    for ad in adapters:
        for m, s in enumerate(slices):
            for g in (grads[ad.a].data[s], grads[ad.b].data[:, s]):
                if m in (1, 3):
                    assert np.all(g == 0.0)
                else:
                    assert np.any(g != 0.0)


def test_moe_forward_shape_errors():
    rng = np.random.default_rng(12)
    a, owner, _ = _adapter(rng, 6, 4, n_experts=2, total_rank=4, dtype=np.float64)
    h, w = np.zeros((2, 6)), np.zeros((4, 6))
    gate = _gate(_uniform_weights(2, 2), owner, h)
    with pytest.raises(ShapeError, match=r"w \(4, 7\)"):
        moe.moe_forward(h, np.zeros((4, 7)), a.a.data, a.b.data, gate)
    with pytest.raises(ShapeError, match=r"h \(2, 7\)"):
        moe.moe_forward(np.zeros((2, 7)), w, a.a.data, a.b.data, gate)
    with pytest.raises(ShapeError, match=r"gate \(2, 3\)"):
        moe.moe_forward(h, w, a.a.data, a.b.data, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="2-D weights"):
        moe.moe_forward(h, np.zeros(6), a.a.data, a.b.data, gate)
    # packed leaves whose rank axes disagree with each other or with the gate
    for leaf, shape in (("b", (4, 3)), ("a", (3, 6))):
        pair = {"a": a.a.data, "b": a.b.data, leaf: np.zeros(shape)}
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            moe.moe_forward(h, w, pair["a"], pair["b"], gate)
    for name in ("w", "a", "b", "gate"):  # nothing is converted to h's dtype
        args = {"w": w, "a": a.a.data, "b": a.b.data, "gate": gate}
        args[name] = args[name].astype(np.float32)
        with pytest.raises(ParameterError, match="dtype mismatch: float64 vs float32"):
            moe.moe_forward(h, *args.values())


def test_route_and_moe_forward_gradients():
    """The router's leaves and every expert's a-rows and b-columns of the four
    projections of an attention block, routed inside the tape, against central
    differences."""
    rng = np.random.default_rng(13)
    params, stack, layer = _block_model(np.float64, 9)
    router = stack.router
    e = rng.normal(size=(2, 6))
    x = rng.normal(size=(2, 8, 16))
    kv = rng.normal(size=(2, 5, 16))
    wmix = rng.normal(size=(2, 8, 16))
    slices = [slice(end - r, end) for r, end in zip(stack.ranks, np.cumsum(stack.ranks))]
    assert [s.stop - s.start for s in slices] == [3, 2, 2, 2]

    # (leaf, index): whole router tensors, and every expert's a-rows and b-columns
    checks = {name: (p, ...) for name, p in router.parameters().items()}
    for slot in "qkvo":
        adapter = stack.layers[f"{layer}.{slot}"]
        for m, s in enumerate(slices):
            checks[f"{slot}.a{m}"] = (adapter.a, (s, slice(None)))
            checks[f"{slot}.b{m}"] = (adapter.b, (slice(None), s))
    with fx.Tape(stack.parameters().values()) as tape:
        pi = moe.route(e, router, top_k=3)
        out = denoiser._attention(fx.Tensor(x), kv, params, stack, pi, layer)
        loss = oracles.reduce_sum(oracles.mul(out, fx.tensor(wmix)))
    grads = fx.backward(tape, loss)

    def f_scalar():
        pi2 = moe.route(e, router, top_k=3)
        o = denoiser._attention(fx.Tensor(x), kv, params, stack, pi2, layer)
        return float(np.sum(o.data * wmix))

    nonzero = 0
    for p, idx in checks.values():
        num = oracles.fd_grad(lambda *_: f_scalar(), [p.data[idx]], 0, step=1e-5)
        nonzero += bool(np.any(num != 0.0))
        oracles.assert_grads_close(grads[p].data[idx], num, rtol=2e-4, atol=1e-8)
    # top-3 of 4 over two samples masks at most one expert out of both rows
    assert nonzero >= len(checks) - 2 * 4
