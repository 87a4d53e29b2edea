"""The fused tape ops against the op chains they replace (tests/oracles.py).

The denoiser's `attn_block` node (`denoiser._attention`) must give the bytes
of its chain of generic tape ops (`oracles.attn_block_chain`: each projection
a matmul, reshape, linear, linear, mul, linear, add chain, the core a
transpose, matmul, mul, add, softmax, matmul chain, then the residual add),
for all three forms of a block (self-attention under the diagonal bias,
cross-attention into a 22-token context and the null token's single-key
shortcut), in float32 and float64 at B=1 and B=4, for every live subset of
its inputs that a train, adapt or guided tape records. The loss adds the
block's output to x, so x's gradient is summed from several paths and any
change in the order `backward` adds them would show in its bytes. Its float64
gradients also agree with central differences, and its vjp, run twice with
every leaf live, gives the same bytes and writes no array it reads.
`moe.moe_forward` fed the token stream's contiguous transposes gives the
projection chain's bytes over 128 tokens at B=1 and B=4, and a premise
check names numpy's BLAS should it stop rounding the two layouts alike there.

`spectral.joint_descriptor` is held to the same bytes against the float64
cast and the chain of tape ops that its stage functions spell out (the blurs
as matmul and swap ops), in float32 and float64, at B=1 and B=4, on static
videos and at T=2; in float32 under a loss that reads the video itself too,
and in float64, where the chain's three slots would add into such a loss's
gradient one at a time, under one that does not (its float64 gradients, read
beside the video and alone, agree with central differences). So is `moe.route`'s `router`
node against its linear, add, gelu, linear, add, softmax (mul, sum, div)
chain, for every subset of live router leaves, in float32 and float64, at B=1
and B=4, with top-3 and top-4 of 4 experts. So are the denoiser's
`patch_embed` node, against its reshape, transpose, reshape, linear, add, add
chain with one shared t and with a t per sample, and its `unembed` node,
against its linear, reshape, transpose, reshape chain, in float32 and float64
at B=1 and B=4 on the default backbone; their float64 gradients also agree
with central differences. So is the sampler's `ddim` node
(`sampling.ddim_update`), against its sub, mul, add, mul, mul, add chain,
guided and at cfg 1, for every live subset a rollout records, in float32 and
float64 at B=1 and B=4, at the first and a later step of the 8-step grid;
its float64 gradients also agree with central differences.

So are the nodes of the loss tails, in float32 and float64 for every live
subset: `schedule.forward_noise`'s `noise` (mul, mul, add) with one t and a t
per sample and `train`'s `mse` (sub, square, mean) at B=1 and B=4,
`adapt.freq_constraint_loss`'s `freq_loss` (sub, abs, sum, mean, against the
full descriptor chain of each latent) at B=1 and B=4, and `adapt`'s
`draw_mean` (add, add, add, mul) over 2 and 4 scalar draw losses. The
`context` node that appends the vfx tokens is checked against its
reshape, broadcast_to, concat chain through a guided step in
`tests/test_denoiser.py`, and here its value and vjp at B=1 and B=4. The
float64 gradients of all five agree with central differences.
"""

import functools
import itertools
import re

import numpy as np
import pytest

import freqvfx.spectral as sp
import freqvfx.tensor as fx
from freqvfx import adapt, denoiser, moe, sampling, train
from freqvfx.config import ModelConfig
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.schedule import NoiseSchedule, forward_noise, sampling_grid

import oracles

WIDTH, RANK, N_TOKENS = 64, 16, 128
# the (M, R) expert layout of a default stack: 4 experts of rank 4
OWNER = fx.frozen(np.repeat(np.eye(4, dtype=np.float32), RANK // 4, axis=1))


def _subsets(names):
    return [s for n in range(len(names) + 1) for s in itertools.combinations(names, n)]


def _run(op, arrays, live, residual):
    """Forward bytes, gradient bytes of the live leaves, and the recorded nodes."""
    leaves = {name: fx.tensor(arr) for name, arr in arrays.items()}
    inputs = [leaves[name] for name in arrays]
    with fx.Tape([leaves[name] for name in live]) as tape:
        out = op(*inputs)
        weight = fx.tensor(np.random.default_rng(99).normal(size=out.shape).astype(out.dtype))
        loss = oracles.reduce_sum(oracles.mul(oracles.add(leaves[residual], out), weight))
    if not live:
        return out.data.tobytes(), {}, tape.nodes
    grads = fx.backward(tape, loss)
    return (out.data.tobytes(), {name: grads[leaves[name]].data.tobytes() for name in live},
            tape.nodes)


def _check_fused(fused, chain, arrays, live, residual, op_name, node_inputs):
    out, grads, nodes = _run(fused, arrays, live, residual)
    ref_out, ref_grads, _ = _run(chain, arrays, live, residual)
    assert out == ref_out
    assert grads == ref_grads
    if not live:
        assert not nodes
        return
    assert [n.op for n in nodes] == [op_name, "add", "mul", "sum"]
    node, residual_add = nodes[:2]
    keyed = tuple(k is not None for k in node.inputs)
    assert keyed == tuple(name in live for name in node_inputs)
    # the add reads the residual and the op's output, by key
    assert residual_add.inputs[1] == node.out
    g = np.ones(residual_add.shapes[1], dtype=np.float32)
    for name, grad in zip(node_inputs, node.vjp(g)):
        assert (grad is None) == (name not in live), name


def _lora_arrays(b, n):
    """A projection's inputs h, a, b and pi, and a weight w."""
    rng = np.random.default_rng(7 * b + n)
    arrays = {
        "h": rng.normal(size=(b, n, WIDTH)).astype(np.float32),
        "w": rng.normal(0.0, WIDTH ** -0.5, size=(WIDTH, WIDTH)).astype(np.float32),
        "a": rng.normal(0.0, 0.02, size=(RANK, WIDTH)).astype(np.float32),
        "b": rng.normal(0.0, 0.1, size=(WIDTH, RANK)).astype(np.float32),
        "pi": rng.dirichlet(np.ones(4), size=b).astype(np.float32),
    }
    return arrays


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
def test_moe_forward_on_the_token_stream_matches_chain_bytes(b, dtype):
    """`moe_forward` handed the token stream's operands, a projection's held
    transpose and contiguous transposes of its expert pair, gives the bytes of
    the projection chain (`oracles.lora_linear_chain`), which multiplies by
    `.T` views, over the default model's 128 tokens."""
    params = _backbone(np.dtype(dtype).name)
    w, w_t = params.projections["block1.self.wv"], params.transposed["block1.self.wv"]
    arrays = _lora_arrays(b, N_TOKENS)
    h, a, b_, pi = (arrays[k].astype(dtype) for k in ("h", "a", "b", "pi"))
    owner = OWNER.astype(dtype)
    gate = (pi @ owner).reshape(b, 1, RANK)
    out, down, gated = moe.moe_forward(h, w_t, np.ascontiguousarray(a.T),
                                       np.ascontiguousarray(b_.T), gate)
    want = oracles.lora_linear_chain(fx.Tensor(h), w, fx.Tensor(a), fx.Tensor(b_),
                                     fx.Tensor(pi), owner)
    assert out.tobytes() == want.data.tobytes()
    assert down.tobytes() == (h @ a.T).tobytes()
    assert gated.tobytes() == (h @ a.T * gate).tobytes()


def _blas() -> str:
    """numpy's version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
def test_blas_rounds_both_layouts_alike_on_the_token_stream(b, dtype):
    """The premise of the held transposes: over the default model's 128 tokens,
    multiplying by a C-contiguous transpose gives the bytes of multiplying by
    the `.T` view, for a (64, 64) projection, a (16, 64) down factor or
    `unembed_w`, and a (64, 16) up factor or `embed_w`, also from a token stream
    broadcast from one row (the single-key shortcut's o projection). The BLAS
    packs the two layouts differently, so an upgrade of numpy or of its BLAS may
    move this; then the token stream's projections must take `.T` views again."""
    rng = np.random.default_rng(41 + b)
    d, r = WIDTH, RANK
    cases = {"w": ((b, N_TOKENS, d), (d, d)), "a": ((b, N_TOKENS, d), (r, d)),
             "b": ((b, N_TOKENS, r), (d, r))}
    for name, (h_shape, w_shape) in cases.items():
        for _ in range(3):
            h = rng.normal(size=h_shape).astype(dtype)
            w = rng.normal(size=w_shape).astype(dtype)
            ones = np.broadcast_to(h[:, :1], h.shape)
            for x in (h, ones):
                assert (x @ w.T).tobytes() == (x @ np.ascontiguousarray(w.T)).tobytes(), (
                    f"{_blas()} rounds h {x.shape} @ {name}.T differently for a transposed "
                    f"view and a C-contiguous transpose")


def _video(b, t, dtype, motion):
    z = np.random.default_rng(13 * b + t).normal(size=(b, t, 4, 8, 8))
    if motion == "static":
        z = np.repeat(z[:, :1], t, axis=1)
    return z.astype(dtype)


def _run_descriptor(op, z, live, reads_z):
    """Forward bytes, the gradient bytes of z when it is live, and the recorded
    nodes, for a loss that reads the descriptor and, when `reads_z`, then z
    itself."""
    leaf = fx.tensor(z)
    rng = np.random.default_rng(99)
    w = fx.tensor(rng.normal(size=(z.shape[0], 6)))
    wz = fx.tensor(rng.normal(size=z.shape).astype(z.dtype))
    with fx.Tape([leaf] if live else []) as tape:
        d = op(leaf)
        loss = oracles.reduce_sum(oracles.mul(d, w))
        if reads_z:
            loss = oracles.add(loss, oracles.cast(oracles.reduce_sum(oracles.mul(leaf, wz)),
                                                  np.float64))
    grad = fx.backward(tape, loss)[leaf].data.tobytes() if live else None
    return d.data.tobytes(), grad, tape.nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, t, motion", [(1, 8, "moving"), (4, 8, "moving"),
                                          (4, 8, "static"), (1, 2, "moving"), (4, 2, "static")])
def test_joint_descriptor_matches_chain_bytes(dtype, b, t, motion):
    """The node lists the video once, in its own dtype. In float32 the loss reads
    z too: the chain's cast made the float64 video a key of its own, so its three
    slots were summed before they reached z. In float64 the chain's cast is a
    no-op and its slots add into z's gradient one at a time, so the loss reads
    the descriptor only; the float64 finite-difference test below reads both."""
    z = _video(b, t, dtype, motion)
    reads_z = dtype == np.float32
    for live in (False, True):
        out, grad, nodes = _run_descriptor(sp.joint_descriptor, z, live, reads_z)
        ref_out, ref_grad, _ = _run_descriptor(oracles.joint_descriptor_chain, z, live, reads_z)
        assert out == ref_out
        assert grad == ref_grad
        if not live:
            assert not nodes
            continue
        ops = [n.op for n in nodes]
        assert ops[0] == "descriptor" and ops.count("descriptor") == 1
        assert "cast" not in ops[:2]
        node = nodes[0]
        assert isinstance(node.inputs[0], int) and len(node.inputs) == 1
        assert node.shapes == (z.shape,)


@pytest.mark.parametrize("reads_z", [False, True])
def test_joint_descriptor_gradients_match_finite_differences(reads_z):
    """A float64 video, its descriptor read alone and beside the video itself:
    criterion 3's tolerance, relative 1e-5 above an absolute floor of 1e-9."""
    z = _video(2, 3, np.float64, "moving")
    rng = np.random.default_rng(99)
    w = rng.normal(size=(2, 6))
    wz = rng.normal(size=z.shape)

    def value(v):
        return np.sum(sp.joint_descriptor(v).data * w) + (np.sum(v * wz) if reads_z else 0.0)

    _, grad, _ = _run_descriptor(sp.joint_descriptor, z, True, reads_z)
    coords = np.random.default_rng(98).choice(z.size, size=24, replace=False)
    num = oracles.fd_grad(value, [z.copy()], 0, coords=coords)
    assert np.any(num.ravel()[coords] != 0.0)
    oracles.assert_grads_close(np.frombuffer(grad).reshape(z.shape), num, rtol=1e-5, atol=1e-9,
                               coords=coords)


def test_joint_descriptor_errors():
    with pytest.raises(ShapeError, match=r"\(B, T, C, H, W\)"):
        sp.joint_descriptor(np.zeros((2, 4, 8, 8)))
    with pytest.raises(ShapeError, match="T >= 2"):
        sp.joint_descriptor(np.zeros((2, 1, 4, 8, 8)))
    with pytest.raises(ShapeError, match="empty axis"):
        sp.joint_descriptor(np.zeros((2, 3, 0, 8, 8)))


def _router(dtype, b):
    """A default-sized router (4 experts, hidden 16, tau 1.5) with its second
    layer off the zero init, and a (B, 6) simplex descriptor."""
    rng = np.random.default_rng(17 * b)
    router = moe.RouterParams.build(moe.drawing(rng, dtype), n_experts=4, hidden=16, tau=1.5)
    router.w2.data[...] = rng.normal(0.0, 0.8, size=router.w2.shape)
    router.b2.data[...] = rng.normal(0.0, 0.3, size=router.b2.shape)
    return router, rng.dirichlet(np.ones(6), size=b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("top_k", [3, 4])
def test_router_matches_chain_bytes(dtype, b, top_k):
    router, e = _router(dtype, b)
    leaves = list(router.parameters().values())
    weight = fx.tensor(np.random.default_rng(99).normal(size=(b, 4)).astype(dtype))
    for live in _subsets(range(4)):
        runs = []
        for op in (moe.route, oracles.route_chain):
            with fx.Tape([leaves[i] for i in live]) as tape:
                pi = op(e, router, top_k)
                loss = oracles.reduce_sum(oracles.mul(oracles.square(pi), weight))
            grads = fx.backward(tape, loss) if live else {}
            runs.append(([n.op for n in tape.nodes], pi.data.tobytes(),
                         [grads[leaves[i]].data.tobytes() for i in live]))
        (ops, out, grads), (_, ref_out, ref_grads) = runs
        assert (out, grads) == (ref_out, ref_grads)
        assert ops == (["router", "square", "mul", "sum"] if live else [])


@functools.lru_cache(maxsize=2)
def _backbone(dtype: str):
    """The default-sized frozen backbone in `dtype`."""
    m = ModelConfig()
    return denoiser.build_denoiser(
        np.random.default_rng(23), latent_shape=m.latent_shape, width=m.width,
        n_blocks=m.n_blocks, patch=m.patch, num_steps=m.num_steps, diag_bias=m.diag_bias,
        cross_gain=m.cross_gain, dtype=np.dtype(dtype))


def _token_op(kind, dtype, b, t_kind="shared"):
    """(op, chain, input array) of the `patch_embed` or `unembed` node."""
    params = _backbone(np.dtype(dtype).name)
    rng = np.random.default_rng(19 * b + len(t_kind))
    if kind == "unembed":
        x = rng.normal(size=(b, params.pos.shape[0], params.width)).astype(dtype)
        return (lambda h: denoiser.unembed(h, params),
                lambda h: oracles.unembed_chain(h, params), x)
    t = (rng.integers(0, params.num_steps, size=b) if t_kind == "per-sample"
         else np.asarray(int(rng.integers(params.num_steps))))
    z = rng.normal(size=(b,) + params.latent_shape).astype(dtype)
    return (lambda v: denoiser.patch_embed(v, t, params),
            lambda v: oracles.patch_embed_chain(v, t, params), z)


def _run_token_op(op, x, live):
    """Forward bytes, the input's gradient bytes when it is live, and the
    recorded nodes, for a loss that reads the output and then the input itself."""
    leaf = fx.tensor(x)
    rng = np.random.default_rng(99)
    with fx.Tape([leaf] if live else []) as tape:
        out = op(leaf)
        w, wx = (fx.tensor(rng.normal(size=s).astype(x.dtype)) for s in (out.shape, x.shape))
        loss = oracles.add(oracles.reduce_sum(oracles.mul(out, w)),
                           oracles.reduce_sum(oracles.mul(leaf, wx)))
    grad = fx.backward(tape, loss)[leaf].data.tobytes() if live else None
    return out.data.tobytes(), grad, tape.nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("kind, t_kind", [("patch_embed", "shared"),
                                          ("patch_embed", "per-sample"), ("unembed", None)])
def test_token_plumbing_matches_chain_bytes(kind, t_kind, b, dtype):
    fused, chain, x = _token_op(kind, dtype, b, t_kind or "shared")
    for live in (False, True):
        out, grad, nodes = _run_token_op(fused, x, live)
        ref_out, ref_grad, _ = _run_token_op(chain, x, live)
        assert out == ref_out
        assert grad == ref_grad
        if not live:
            assert not nodes
            continue
        assert [n.op for n in nodes] == [kind, "mul", "sum", "mul", "sum", "add"]
        # the node lists the input once, by the key the residual's mul reads
        assert nodes[0].inputs == (nodes[3].inputs[0],) and nodes[0].shapes == (x.shape,)


@pytest.mark.parametrize("kind, t_kind", [("patch_embed", "shared"),
                                          ("patch_embed", "per-sample"), ("unembed", None)])
def test_token_plumbing_gradients_match_finite_differences(kind, t_kind):
    """Criterion 3's tolerance: relative 1e-5 above an absolute floor of 1e-9."""
    fused, _, x = _token_op(kind, np.float64, 2, t_kind or "shared")
    w = np.random.default_rng(98).normal(size=fused(fx.tensor(x)).shape)
    leaf = fx.tensor(x.copy())
    with fx.Tape([leaf]) as tape:
        loss = oracles.reduce_sum(oracles.mul(fused(leaf), fx.tensor(w)))
    got = fx.backward(tape, loss)[leaf].data
    coords = np.random.default_rng(97).choice(x.size, size=24, replace=False)
    num = oracles.fd_grad(lambda v: np.sum(fused(fx.tensor(v)).data * w), [x], 0,
                          coords=coords)
    assert np.any(num.ravel()[coords] != 0.0)
    oracles.assert_grads_close(got, num, rtol=1e-5, atol=1e-9, coords=coords)


SCHEDULE = NoiseSchedule.cosine(1000)
# the first step of criterion 7's 8-step grid, whose ratio a_n / a_t is 193.8,
# and a later one
DDIM_STEPS = [tuple(int(x) for x in sampling_grid(1000, 8)[k:k + 2]) for k in (0, 5)]


def _ddim_arrays(dtype, b, guided):
    rng = np.random.default_rng(31 * b + np.dtype(dtype).itemsize)
    names = ("z", "eps_c", "eps_u") if guided else ("z", "eps_c")
    return {name: rng.normal(size=(b, 2, 4, 8, 8)).astype(dtype) for name in names}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("cfg_scale", [3.0, 1.0])
def test_ddim_update_matches_chain_bytes(dtype, b, cfg_scale):
    """z is live after the first step and eps_u whenever z is; eps_c is live
    whenever vfx tokens are. The loss adds the output to eps_c, so eps_c's
    gradient from the node is added into one it already holds, in the order
    `backward` adds them."""
    guided = cfg_scale != 1.0
    arrays = _ddim_arrays(dtype, b, guided)
    node_inputs = ("z", "eps_u", "eps_c") if guided else ("z", "eps_c")
    subsets = [("eps_c",) + s for s in _subsets(("z", "eps_u") if guided else ("z",))]
    for t, t_next in DDIM_STEPS:
        def fused(z, eps_c, eps_u=None):
            return sampling.ddim_update(z, eps_c, eps_u, cfg_scale, SCHEDULE, t, t_next)

        def chain(z, eps_c, eps_u=None):
            return oracles.ddim_update_chain(z, eps_c, eps_u, cfg_scale, SCHEDULE, t, t_next)

        for live in subsets:
            _check_fused(fused, chain, arrays, live, "eps_c", "ddim", node_inputs)


def test_ddim_update_gradients_match_finite_differences():
    """A guided float64 node with all inputs live: criterion 3's tolerance,
    relative 1e-5 above an absolute floor of 1e-9."""
    arrays = list(_ddim_arrays(np.float64, 2, True).values())
    t, t_next = DDIM_STEPS[1]
    w = np.random.default_rng(96).normal(size=arrays[0].shape)

    def value(*xs):
        out = sampling.ddim_update(*(fx.Tensor(x) for x in xs), 3.0, SCHEDULE, t, t_next)
        return np.sum(out.data * w)

    leaves = [fx.tensor(x.copy()) for x in arrays]
    with fx.Tape(leaves) as tape:
        loss = oracles.reduce_sum(oracles.mul(
            sampling.ddim_update(*leaves, 3.0, SCHEDULE, t, t_next), fx.tensor(w)))
    grads = fx.backward(tape, loss)
    coords = np.random.default_rng(95).choice(arrays[0].size, size=12, replace=False)
    for i, leaf in enumerate(leaves):
        num = oracles.fd_grad(value, arrays, i, coords=coords)
        assert np.any(num.ravel()[coords] != 0.0)
        oracles.assert_grads_close(grads[leaf].data, num, rtol=1e-5, atol=1e-9, coords=coords)


def test_ddim_update_errors():
    """The noise predictions must have the latent's dtype and shape: no cast, and
    no broadcast that the chain's ops would have allowed."""
    z = fx.tensor(np.ones((2, 2, 4, 8, 8), dtype=np.float32))
    good = fx.tensor(np.ones(z.shape, dtype=np.float32))
    t, t_next = DDIM_STEPS[0]
    wide = fx.tensor(np.ones(z.shape, dtype=np.float64))
    for eps_c, eps_u in ((wide, good), (good, wide), (wide, None)):
        with pytest.raises(ParameterError, match="dtype mismatch"):
            sampling.ddim_update(z, eps_c, eps_u, 3.0, SCHEDULE, t, t_next)
    short = fx.tensor(np.ones((1,) + z.shape[1:], dtype=np.float32))
    for eps_c, eps_u, name in ((short, good, "eps_c"), (good, short, "eps_u"),
                               (short, None, "eps_c")):
        with pytest.raises(ShapeError, match=rf"{name} \(1, 2, 4, 8, 8\)"):
            sampling.ddim_update(z, eps_c, eps_u, 3.0, SCHEDULE, t, t_next)


# ---------------------------------------------------------------------------
# the denoiser's attention block


@functools.lru_cache(maxsize=2)
def _block_model(dtype: str):
    """The default-sized backbone in `dtype` and a stack whose experts and
    router are off their zero init."""
    params = _backbone(dtype)
    rng = np.random.default_rng(29)
    stack = denoiser.build_adapter_stack(rng, params, ModelConfig())
    for leaf in stack.parameters().values():
        leaf.data[...] = rng.normal(0.0, 0.1, size=leaf.shape)
    return params, stack


# the three forms of a block: self-attention under the diagonal bias, cross-
# attention into a 22-token context, and the single null token's shortcut
BLOCK_FORMS = {"self": "block1.self", "cross": "block0.cross", "null": "block1.cross"}
PROJECTIONS = tuple(f"{leaf}.{slot}" for slot in "qkvo" for leaf in "ab")


def _block_slots(form):
    """The names of an `attn_block` node's inputs, in its order."""
    kv = "x" if form == "self" else "kv"
    slots = ["x", "b.o", "pi", "a.o"]
    for slot, h in (("v", kv), ("k", kv), ("q", "x")):
        slots += [f"b.{slot}", "pi", h, f"a.{slot}", h]
    return slots[:9] if form == "null" else slots


def _block_inputs(form, dtype, b):
    """(params, stack, layer, bias, arrays): x, the routing weights and, for the
    cross form, the context; the null form's context is the constant null token
    broadcast, and the self form's is x."""
    params, stack = _block_model(np.dtype(dtype).name)
    rng = np.random.default_rng(37 * b + len(form))
    arrays = {"x": rng.normal(size=(b, N_TOKENS, WIDTH)).astype(dtype),
              "pi": rng.dirichlet(np.ones(4), size=b).astype(dtype)}
    if form == "cross":
        arrays["kv"] = rng.normal(size=(b, 22, WIDTH)).astype(dtype)
    bias = params.self_bias if form == "self" else None
    return params, stack, BLOCK_FORMS[form], bias, arrays


def _block_leaves(form, arrays, stack, layer):
    leaves = {name: fx.tensor(arr) for name, arr in arrays.items()}
    for name in PROJECTIONS:
        leaf, slot = name.split(".")
        leaves[name] = getattr(stack.layers[f"{layer}.{slot}"], leaf)
    return leaves


def _block_context(form, params, leaves, b):
    """The context a block of `form` reads: the null token broadcast, x or kv."""
    if form == "null":
        return np.broadcast_to(params.null_token, (b, 1, WIDTH))
    return leaves["x" if form == "self" else "kv"]


def _run_block(op, form, dtype, b, live):
    """Forward bytes, the live leaves' gradient bytes and the recorded nodes of
    op's block under a loss that adds x to the block's output."""
    params, stack, layer, bias, arrays = _block_inputs(form, dtype, b)
    leaves = _block_leaves(form, arrays, stack, layer)
    kv = _block_context(form, params, leaves, b)
    weight = fx.tensor(np.random.default_rng(99).normal(size=(b, N_TOKENS, WIDTH)).astype(dtype))
    with fx.Tape([leaves[name] for name in live]) as tape:
        out = op(leaves["x"], kv, params, stack, leaves["pi"], layer, bias)
        loss = oracles.reduce_sum(oracles.mul(oracles.add(leaves["x"], out), weight))
    if not tape.nodes:
        return out.data.tobytes(), {}, []
    grads = fx.backward(tape, loss)
    return (out.data.tobytes(), {name: grads[leaves[name]].data.tobytes() for name in live},
            tape.nodes)


def _block_subsets(form):
    """The live subsets to check: every subset of x, the context, pi and the
    layer's a and b leaves taken together, and each a or b leaf alone."""
    groups = ["x", "pi", "a", "b"] + (["kv"] if form == "cross" else [])
    out = []
    for subset in _subsets(groups):
        names = [n for g in subset for n in ([g] if g in ("x", "pi", "kv") else
                                            [p for p in PROJECTIONS if p[0] == g])]
        out.append(tuple(names))
    return out + [(name,) for name in PROJECTIONS]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("form", list(BLOCK_FORMS))
def test_attn_block_matches_chain_bytes(form, b, dtype):
    """The value and every live leaf's gradient equal the chain of `oracles`
    ops; the node lists a key and its vjp a gradient for exactly the live
    slots. The train tape has x dead in the trunk and live after it, with pi
    and every a and b live; adapt and guided tapes have x, the context or both
    live and the stack constant."""
    slots = _block_slots(form)
    for live in _block_subsets(form):
        out, grads, nodes = _run_block(denoiser._attention, form, dtype, b, live)
        ref_out, ref_grads, ref_nodes = _run_block(oracles.attn_block_chain, form, dtype, b, live)
        assert out == ref_out, live
        assert grads == ref_grads, live
        if not ref_nodes:
            assert not nodes
            continue
        assert [n.op for n in nodes] == ["attn_block", "add", "mul", "sum"]
        node = nodes[0]
        live_slots = tuple(name in live for name in slots)
        assert tuple(k is not None for k in node.inputs) == live_slots, live
        g = np.ones(node.shapes[0], dtype=dtype)
        assert tuple(x is not None for x in node.vjp(g)) == live_slots, live


@pytest.mark.parametrize("form", list(BLOCK_FORMS))
def test_attn_block_gradients_match_finite_differences(form):
    """Every input live, in float64 at B=2: criterion 3's tolerance, relative
    1e-5 above an absolute floor of 1e-9, at a few coordinates of each leaf."""
    params, stack, layer, bias, arrays = _block_inputs(form, np.float64, 2)
    leaves = _block_leaves(form, arrays, stack, layer)
    w = np.random.default_rng(94).normal(size=(2, N_TOKENS, WIDTH))

    def block(inputs):
        kv = _block_context(form, params, inputs, 2)
        return denoiser._attention(inputs["x"], kv, params, stack, inputs["pi"], layer, bias)

    def value(*_):
        return np.sum(block({name: fx.Tensor(leaf.data) for name, leaf in leaves.items()}).data
                      * w)

    with fx.Tape(leaves.values()) as tape:
        loss = oracles.reduce_sum(oracles.mul(block(leaves), fx.tensor(w)))
    grads = fx.backward(tape, loss)
    rng = np.random.default_rng(93)
    for name, leaf in leaves.items():
        if form == "null" and name[-1] in "qk":
            continue
        coords = rng.choice(leaf.size, size=4, replace=False)
        num = oracles.fd_grad(value, [leaf.data], 0, coords=coords)
        assert np.any(num.ravel()[coords] != 0.0), name
        oracles.assert_grads_close(grads[leaf].data, num, rtol=1e-5, atol=1e-9, coords=coords)


def _vjp_twice(op, leaves, constants):
    """Record op() on a tape of `leaves` and run its node's vjp twice on one
    upstream gradient; every input, constant and the gradient must keep its
    bytes throughout, the two calls must agree byte for byte, and each must give
    a gradient for exactly the keyed inputs."""
    arrays = [t.data for t in leaves] + list(constants)
    before = [a.tobytes() for a in arrays]
    with fx.Tape(leaves) as tape:
        out = op()
    (node,) = tape.nodes
    g = np.random.default_rng(42).normal(size=out.shape).astype(out.dtype)
    g_before, out_before = g.tobytes(), out.data.tobytes()
    first, second = ([None if x is None else x.tobytes() for x in node.vjp(g)]
                     for _ in range(2))
    assert first == second
    assert [x is None for x in first] == [k is None for k in node.inputs]
    assert [a.tobytes() for a in arrays] == before
    assert (g.tobytes(), out.data.tobytes()) == (g_before, out_before)


@pytest.mark.parametrize("form", list(BLOCK_FORMS))
def test_attn_block_writes_only_its_own_arrays(form):
    """Every leaf live at B=4: the vjp writes none of x, the context, pi and the
    expert leaves, nor the four backbone weights, `owner` and the bias or the
    broadcast null token."""
    params, stack, layer, bias, arrays = _block_inputs(form, np.float32, 4)
    leaves = _block_leaves(form, arrays, stack, layer)
    kv = _block_context(form, params, leaves, 4)
    constants = [params.projections[f"{layer}.w{slot}"] for slot in "qkvo"] + [stack.owner]
    constants += {"self": [bias], "cross": [], "null": [kv]}[form]
    _vjp_twice(lambda: denoiser._attention(leaves["x"], kv, params, stack, leaves["pi"], layer,
                                           bias), list(leaves.values()), constants)


def test_attn_block_errors():
    """Tokens, context, routing weights and bias must have the backbone's dtype
    and agreeing shapes: nothing is cast or broadcast."""
    params, stack, layer, bias, arrays = _block_inputs("self", np.float32, 2)
    x, pi = fx.tensor(arrays["x"]), fx.tensor(arrays["pi"])
    kv = np.random.default_rng(3).normal(size=(2, 22, WIDTH)).astype(np.float32)

    def call(x=x, kv=kv, pi=pi, bias=None, layer="block0.cross"):
        return denoiser._attention(x, kv, params, stack, pi, layer, bias)

    f64 = fx.tensor(arrays["x"].astype(np.float64))
    for kwargs in ({"x": f64}, {"kv": kv.astype(np.float64)},
                   {"pi": fx.tensor(arrays["pi"].astype(np.float64))},
                   {"bias": np.zeros((N_TOKENS, 22)), "layer": layer}):
        with pytest.raises(ParameterError, match="dtype mismatch"):
            call(**kwargs)
    for kwargs, shape in (({"x": fx.tensor(arrays["x"][0])}, (N_TOKENS, WIDTH)),
                          ({"kv": kv[:1]}, (1, 22, WIDTH)),
                          ({"kv": kv[..., :32]}, (2, 22, 32)),
                          ({"pi": fx.tensor(arrays["pi"][:1])}, (1, 4)),
                          ({"pi": fx.tensor(arrays["pi"][:, :3])}, (2, 3)),
                          ({"bias": bias, "layer": layer}, bias.shape)):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            call(**kwargs)


# ---------------------------------------------------------------------------
# the loss tails and the vfx context


def _tail_arrays(dtype, b, names, seed):
    rng = np.random.default_rng(seed * b + np.dtype(dtype).itemsize)
    return {name: rng.normal(size=(b, 2, 4, 8, 8)).astype(dtype) for name in names}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("t_kind", ["shared", "per-sample"])
def test_forward_noise_matches_chain_bytes(dtype, b, t_kind):
    """Every live subset of (z0, eps). The loss adds the output to z0, so z0's
    gradient from the node is added into one it already holds."""
    arrays = _tail_arrays(dtype, b, ("z0", "eps"), 43)
    t = 370 if t_kind == "shared" else np.arange(b) * 211 + 40

    def fused(z0, eps):
        return forward_noise(z0, t, eps, SCHEDULE)

    def chain(z0, eps):
        return oracles.noise_chain(z0, t, eps, SCHEDULE)

    for live in _subsets(("z0", "eps")):
        _check_fused(fused, chain, arrays, live, "z0", "noise", ("z0", "eps"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
def test_mse_matches_chain_bytes(dtype, b):
    """The prediction live and dead; the noise is a constant. The loss adds the
    scalar output to the prediction, so the prediction's gradient from the node
    is added into one it already holds."""
    arrays = _tail_arrays(dtype, b, ("eps_hat", "eps"), 47)
    eps = arrays.pop("eps")
    for live in _subsets(("eps_hat",)):
        _check_fused(lambda e: train._mse(e, eps), lambda e: oracles.mse_chain(e, eps),
                     arrays, live, "eps_hat", "mse", ("eps_hat",))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
def test_freq_constraint_loss_matches_chain_bytes(dtype, b):
    """Every live subset of the two latents, against the full reference chain:
    the cast and the descriptor's stage ops for each latent, then the sub, abs,
    sum, mean tail. The loss reads the node's output alone, so each descriptor
    is its latent's only consumer."""
    arrays = _tail_arrays(dtype, b, ("z_gen", "z_ref"), 53)
    for live in _subsets(("z_gen", "z_ref")):
        runs = []
        for op in (adapt.freq_constraint_loss, oracles.freq_loss_chain):
            leaves = {name: fx.tensor(arr) for name, arr in arrays.items()}
            with fx.Tape([leaves[name] for name in live]) as tape:
                out = op(leaves["z_gen"], leaves["z_ref"])
                loss = oracles.mul(out, 0.75)
            grads = fx.backward(tape, loss) if live else {}
            runs.append((out.data.tobytes(),
                         {name: grads[leaves[name]].data.tobytes() for name in live}, tape.nodes))
        (out, grads, nodes), (ref_out, ref_grads, _) = runs
        assert out == ref_out
        assert grads == ref_grads
        if not live:
            assert not nodes
            continue
        assert [n.op for n in nodes] == ["descriptor"] * len(live) + ["freq_loss", "mul"]
        node = nodes[len(live)]
        mask = tuple(name in live for name in ("z_gen", "z_ref"))
        assert tuple(k is not None for k in node.inputs) == mask
        assert tuple(g is not None for g in node.vjp(np.ones(()))) == mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 4])
def test_draw_mean_matches_chain_bytes(dtype, n):
    """Every live subset of n scalar draw losses. The loss adds the output to
    the first draw's loss, so its gradient from the node is added into one it
    already holds. One draw is its own mean and records nothing."""
    rng = np.random.default_rng(59 + n)
    names = tuple(f"l{i}" for i in range(n))
    arrays = {name: np.asarray(rng.uniform(0.5, 2.0), dtype=dtype) for name in names}
    for live in _subsets(names):
        _check_fused(lambda *terms: adapt._draw_mean(list(terms)),
                     lambda *terms: oracles.draw_mean_chain(list(terms)),
                     arrays, live, "l0", "draw_mean", names)
    one = fx.tensor(arrays["l0"])
    with fx.Tape([one]) as tape:
        assert adapt._draw_mean([one]) is one
    assert not tape.nodes


def _context_op(dtype, b):
    """`denoiser._context_tokens` of a small model's conditioning with the vfx
    tokens given to it appended, at batch b."""
    cfg = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10)
    params = denoiser.build_denoiser(np.random.default_rng(61), **denoiser._sizes(cfg),
                                     dtype=dtype)
    rng = np.random.default_rng(62 + b)
    z = rng.normal(size=(b,) + cfg.latent_shape).astype(dtype)
    text = rng.normal(size=(cfg.n_text_tokens, cfg.width)).astype(dtype)
    cond = denoiser.build_conditioning(params, z, text)

    def op(vfx):
        return denoiser._context_tokens(params, cond.with_vfx(vfx), b)

    return op, cond, rng.normal(size=(3, cfg.width)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 4])
def test_context_node_reads_the_vfx_rows_of_its_gradient(dtype, b):
    """The node's value is the conditioning tokens then the vfx tokens per
    sample; its vjp gives the vfx tokens the batch sum of the gradient's vfx
    rows (the rows themselves at B=1, a -0.0 kept), and without vfx tokens the
    context is the plain conditioning array."""
    op, cond, vfx0 = _context_op(dtype, b)
    vfx = fx.tensor(vfx0)
    with fx.Tape([vfx]) as tape:
        out = op(vfx)
    (node,) = tape.nodes
    n = cond.tokens.shape[1]
    assert node.op == "context" and node.inputs == (vfx.key,) and node.shapes == (vfx0.shape,)
    assert out.data.tobytes() == np.concatenate(
        [cond.tokens, np.broadcast_to(vfx0, (b,) + vfx0.shape)], axis=1).tobytes()
    g = np.random.default_rng(63).normal(size=out.shape).astype(dtype)
    g[0, n, 0] = -0.0
    (got,) = node.vjp(g)
    want = g[0, n:] if b == 1 else g[:, n:].sum(axis=(0,))
    assert got.tobytes() == want.tobytes()
    assert denoiser._context_tokens(None, cond, b) is cond.tokens


@pytest.mark.parametrize("name", ["noise", "mse", "freq_loss", "draw_mean", "context"])
def test_node_gradients_match_finite_differences(name):
    """Each node in float64, every input live, under a random linear loss:
    criterion 3's tolerance, relative 1e-5 above an absolute floor of 1e-9."""
    rng = np.random.default_rng(67)
    latent = (2, 3, 2, 6, 6)
    if name == "noise":
        arrays = [rng.normal(size=latent) for _ in range(2)]
        t = np.array([300, 650])

        def op(z0, eps):
            return forward_noise(z0, t, eps, SCHEDULE)
    elif name == "mse":
        arrays, eps = [rng.normal(size=latent)], rng.normal(size=latent)

        def op(eps_hat):
            return train._mse(eps_hat, eps)
    elif name == "freq_loss":
        arrays = [rng.normal(size=latent) for _ in range(2)]
        op = adapt.freq_constraint_loss
    elif name == "draw_mean":
        arrays = [np.asarray(rng.uniform(0.5, 2.0)) for _ in range(4)]

        def op(*terms):
            return adapt._draw_mean(list(terms))
    else:
        op, _, vfx0 = _context_op(np.float64, 2)
        arrays = [vfx0]
    w = rng.normal(size=op(*map(fx.Tensor, arrays)).shape)
    leaves = [fx.tensor(a.copy()) for a in arrays]
    with fx.Tape(leaves) as tape:
        loss = oracles.reduce_sum(oracles.mul(op(*leaves), fx.tensor(w)))
    grads = fx.backward(tape, loss)

    def value(*xs):
        return np.sum(op(*map(fx.Tensor, xs)).data * w)

    for i, leaf in enumerate(leaves):
        coords = rng.choice(leaf.size, size=min(leaf.size, 12), replace=False)
        num = oracles.fd_grad(value, arrays, i, coords=coords)
        assert np.any(num.ravel()[coords] != 0.0)
        oracles.assert_grads_close(grads[leaf].data, num, rtol=1e-5, atol=1e-9, coords=coords)
