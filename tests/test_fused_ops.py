"""The fused tape ops against the op chains they replace (tests/oracles.py).

`fx.lora_linear` and `fx.attention` must give the bytes of their chains: the
forward value and the gradient of every live input (for `lora_linear`, the
routing weights among them; its frozen weight and expert layout are arrays,
never live), for every subset of live inputs, at the model's
sizes (width 64, 128 latent tokens, a 22-token context and the one-token null
context), at B=1 and B=4, and for attention with and without the
self-attention diagonal bias. The loss adds each op's output to an
input it read, so that input's gradient is summed from several paths and any
change in the order `backward` adds them would show in its bytes.

`spectral.joint_descriptor` is held to the same bytes against the chain of
tape ops that its stage functions spell out (the blurs as matmul and swap
ops), in float32 and float64, at B=1 and B=4, on static videos and at T=2,
under a loss that reads the video itself too.
"""

import itertools
import re

import numpy as np
import pytest

import freqvfx.spectral as sp
import freqvfx.tensor as fx
from freqvfx.errors import ParameterError, ShapeError

import oracles

WIDTH, RANK, N_TOKENS = 64, 16, 128
# the (M, R) expert layout of a default stack: 4 experts of rank 4
OWNER = fx.frozen(np.repeat(np.eye(4, dtype=np.float32), RANK // 4, axis=1))
SCALE = WIDTH ** -0.5


def _subsets(names):
    return [s for n in range(len(names) + 1) for s in itertools.combinations(names, n)]


def _run(op, arrays, live, residual):
    """Forward bytes, gradient bytes of the live leaves, and the recorded nodes."""
    leaves = {name: fx.tensor(arr) for name, arr in arrays.items()}
    inputs = [leaves[name] for name in arrays]
    with fx.Tape([leaves[name] for name in live]) as tape:
        out = op(*inputs)
        weight = fx.tensor(np.random.default_rng(99).normal(size=out.shape).astype(out.dtype))
        loss = fx.reduce_sum((leaves[residual] + out) * weight)
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
    """The inputs h, a, b, pi, and the frozen weight w as the denoiser holds it."""
    rng = np.random.default_rng(7 * b + n)
    arrays = {
        "h": rng.normal(size=(b, n, WIDTH)).astype(np.float32),
        "w": rng.normal(0.0, WIDTH ** -0.5, size=(WIDTH, WIDTH)).astype(np.float32),
        "a": rng.normal(0.0, 0.02, size=(RANK, WIDTH)).astype(np.float32),
        "b": rng.normal(0.0, 0.1, size=(WIDTH, RANK)).astype(np.float32),
        "pi": rng.dirichlet(np.ones(4), size=b).astype(np.float32),
    }
    return arrays, fx.frozen(arrays.pop("w"))


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("n", [N_TOKENS, 22, 1])
def test_lora_linear_matches_chain_bytes(b, n):
    arrays, w = _lora_arrays(b, n)

    def fused(h, a, b, pi):
        return fx.lora_linear(h, w, a, b, pi, OWNER)

    def chain(h, a, b, pi):
        return oracles.lora_linear_chain(h, w, a, b, pi, OWNER)

    for live in _subsets(tuple(arrays)):
        _check_fused(fused, chain, arrays, live, "h", "lora", ("b", "pi", "h", "a", "h"))


def _diag_bias():
    bias = 8.0 * np.eye(N_TOKENS, dtype=np.float32)
    bias.setflags(write=False)
    return bias


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("n_keys, bias", [(N_TOKENS, None), (N_TOKENS, "diag"), (22, None),
                                          (1, None)])
def test_attention_matches_chain_bytes(b, n_keys, bias):
    rng = np.random.default_rng(11 * b + n_keys)
    arrays = {"q": rng.normal(size=(b, N_TOKENS, WIDTH)).astype(np.float32),
              "k": rng.normal(size=(b, n_keys, WIDTH)).astype(np.float32),
              "v": rng.normal(size=(b, n_keys, WIDTH)).astype(np.float32)}
    bias = _diag_bias() if bias == "diag" else None

    def fused(q, k, v):
        return fx.attention(q, k, v, SCALE, bias)

    def chain(q, k, v):
        return oracles.attention_chain(q, k, v, SCALE, bias)

    for live in _subsets(tuple(arrays)):
        _check_fused(fused, chain, arrays, live, "q", "attention", ("v", "q", "k"))


@pytest.mark.parametrize("bias", [None, "diag"])
def test_self_attention_on_one_tensor_matches_chain_bytes(bias):
    """q, k and v all one tensor: its three gradients are summed in chain order."""
    x = np.random.default_rng(5).normal(size=(2, N_TOKENS, WIDTH)).astype(np.float32)
    bias = _diag_bias() if bias == "diag" else None
    _check_fused(lambda t: fx.attention(t, t, t, SCALE, bias),
                 lambda t: oracles.attention_chain(t, t, t, SCALE, bias),
                 {"x": x}, ("x",), "x", "attention", ("x", "x", "x"))


def test_lora_linear_errors():
    f32 = np.float32
    good = {name: np.ones(shape, dtype=f32) for name, shape in (
        ("h", (2, 3, 6)), ("w", (4, 6)), ("a", (5, 6)), ("b", (4, 5)), ("pi", (2, 2)),
        ("owner", (2, 5)))}

    def call(**bad):
        args = dict(good, **bad)
        return fx.lora_linear(*(x if name in ("w", "owner") else fx.tensor(x)
                                for name, x in args.items()))

    bad = {
        "h": np.ones(6, dtype=f32), "w": np.ones((4, 7), dtype=f32),
        "a": np.ones((5, 7), dtype=f32), "b": np.ones((4, 3), dtype=f32),
        "pi": np.ones((3, 2), dtype=f32),  # batch 3 against h's batch 2
        "owner": np.ones((3, 5), dtype=f32),  # 3 experts against pi's 2
    }
    for name, arr in bad.items():
        with pytest.raises(ShapeError, match=re.escape(str(arr.shape))):
            call(**{name: arr})
    with pytest.raises(ShapeError, match=r"\(3, 5\)"):  # up factor's rank off by its d_out
        call(b=np.ones((3, 5), dtype=f32))
    with pytest.raises(ShapeError, match=r"owner \(2, 4\)"):  # rank 4 against a's rank 5
        call(owner=np.ones((2, 4), dtype=f32))
    for name in ("a", "w", "owner"):  # w and owner are not converted to h's dtype either
        with pytest.raises(ParameterError, match="dtype mismatch"):
            call(**{name: good[name].astype(np.float64)})
    for name in ("w", "owner"):  # constants of the node: a Tensor is refused
        with pytest.raises(ParameterError, match="w and owner as constant arrays"):
            fx.lora_linear(*(fx.tensor(x) if key in ("h", "a", "b", "pi", name) else x
                             for key, x in good.items()))


def test_attention_errors():
    f32 = np.float32
    q, k, v = (np.ones(s, dtype=f32) for s in ((2, 3, 4), (2, 5, 4), (2, 5, 6)))
    bad = {"q": np.ones(4, dtype=f32), "k": np.ones((2, 5, 3), dtype=f32),
           "v": np.ones((2, 7, 6), dtype=f32)}
    for name, arr in bad.items():
        args = dict(q=q, k=k, v=v)
        args[name] = arr
        with pytest.raises(ShapeError, match=re.escape(str(arr.shape))):
            fx.attention(*(fx.tensor(args[x]) for x in "qkv"), SCALE)
    with pytest.raises(ShapeError, match=r"\(3, 5, 4\)"):  # batch 3 against batch 2
        fx.attention(fx.tensor(q), fx.tensor(np.ones((3, 5, 4), dtype=f32)), fx.tensor(v),
                     SCALE)
    with pytest.raises(ShapeError, match=r"bias \(5, 5\)"):  # scores are (3, 5)
        fx.attention(fx.tensor(q), fx.tensor(k), fx.tensor(v), SCALE, np.eye(5, dtype=f32))
    with pytest.raises(ParameterError, match="dtype mismatch"):
        fx.attention(fx.tensor(q), fx.tensor(k.astype(np.float64)), fx.tensor(v), SCALE)


def _video(b, t, dtype, motion):
    z = np.random.default_rng(13 * b + t).normal(size=(b, t, 4, 8, 8))
    if motion == "static":
        z = np.repeat(z[:, :1], t, axis=1)
    return z.astype(dtype)


def _run_descriptor(op, z, live):
    """Forward bytes, the gradient bytes of z when it is live, and the recorded
    nodes, for a loss that reads the descriptor and then z itself."""
    leaf = fx.tensor(z)
    rng = np.random.default_rng(99)
    w = fx.tensor(rng.normal(size=(z.shape[0], 6)))
    wz = fx.tensor(rng.normal(size=z.shape).astype(z.dtype))
    with fx.Tape([leaf] if live else []) as tape:
        d = op(leaf)
        loss = fx.reduce_sum(d * w) + fx.cast(fx.reduce_sum(leaf * wz), np.float64)
    grad = fx.backward(tape, loss)[leaf].data.tobytes() if live else None
    return d.data.tobytes(), grad, tape.nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, t, motion", [(1, 8, "moving"), (4, 8, "moving"),
                                          (4, 8, "static"), (1, 2, "moving"), (4, 2, "static")])
def test_joint_descriptor_matches_chain_bytes(dtype, b, t, motion):
    z = _video(b, t, dtype, motion)
    for live in (False, True):
        out, grad, nodes = _run_descriptor(sp.joint_descriptor, z, live)
        ref_out, ref_grad, _ = _run_descriptor(oracles.joint_descriptor_chain, z, live)
        assert out == ref_out
        assert grad == ref_grad
        if not live:
            assert not nodes
            continue
        ops = [n.op for n in nodes]
        cast = ["cast"] if dtype == np.float32 else []
        assert ops[:len(cast) + 1] == cast + ["descriptor"]
        assert ops.count("descriptor") == 1
        node = nodes[len(cast)]
        video = node.inputs[0]
        assert isinstance(video, int) and node.shapes == (z.shape,) * 3
        assert node.inputs == (video, video, video)


def test_joint_descriptor_errors():
    with pytest.raises(ShapeError, match=r"\(B, T, C, H, W\)"):
        sp.joint_descriptor(np.zeros((2, 4, 8, 8)))
    with pytest.raises(ShapeError, match="T >= 2"):
        sp.joint_descriptor(np.zeros((2, 1, 4, 8, 8)))
    with pytest.raises(ShapeError, match="empty axis"):
        sp.joint_descriptor(np.zeros((2, 3, 0, 8, 8)))


@pytest.mark.parametrize("kind", ["self", "cross"])
def test_block_attention_at_batch_4_matches_chain_bytes(kind):
    """The two calls a denoiser block makes, at B=4: self-attention reads q, k
    and v from one token tensor under the diagonal bias, and cross-attention
    reads k and v from one 22-token context."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=(4, N_TOKENS, WIDTH)).astype(np.float32)
    if kind == "self":
        bias = _diag_bias()
        _check_fused(lambda t: fx.attention(t, t, t, SCALE, bias),
                     lambda t: oracles.attention_chain(t, t, t, SCALE, bias),
                     {"x": x}, ("x",), "x", "attention", ("x", "x", "x"))
        return
    arrays = {"x": x, "c": rng.normal(size=(4, 22, WIDTH)).astype(np.float32)}
    for live in _subsets(tuple(arrays)):
        _check_fused(lambda t, c: fx.attention(t, c, c, SCALE),
                     lambda t, c: oracles.attention_chain(t, c, c, SCALE),
                     arrays, live, "x", "attention", ("c", "x", "c"))


def _vjp_twice(op, leaves, constants):
    """Record op(*leaves) and run its node's vjp twice on one upstream gradient;
    every input, constant and the gradient must keep its bytes throughout, and
    the two calls must agree byte for byte."""
    arrays = [t.data for t in leaves] + list(constants)
    before = [a.tobytes() for a in arrays]
    with fx.Tape(leaves) as tape:
        out = op()
    (node,) = tape.nodes
    g = np.random.default_rng(42).normal(size=out.shape).astype(out.dtype)
    g_before, out_before = g.tobytes(), out.data.tobytes()
    first, second = ([None if x is None else x.tobytes() for x in node.vjp(g)]
                     for _ in range(2))
    assert first == second and None not in first[:len(leaves)]
    assert [a.tobytes() for a in arrays] == before
    assert (g.tobytes(), out.data.tobytes()) == (g_before, out_before)


@pytest.mark.parametrize("n_keys, bias", [(N_TOKENS, "diag"), (22, None)])
def test_attention_writes_only_its_own_arrays(n_keys, bias):
    rng = np.random.default_rng(43)
    q = fx.tensor(rng.normal(size=(4, N_TOKENS, WIDTH)).astype(np.float32))
    k, v = (fx.tensor(rng.normal(size=(4, n_keys, WIDTH)).astype(np.float32)) for _ in "kv")
    bias = _diag_bias() if bias else None
    _vjp_twice(lambda: fx.attention(q, k, v, SCALE, bias), [q, k, v],
               [] if bias is None else [bias])


@pytest.mark.parametrize("n", [N_TOKENS, 22])
def test_lora_linear_writes_only_its_own_arrays(n):
    arrays, w = _lora_arrays(4, n)
    h, a, b, pi = (fx.tensor(arrays[name]) for name in ("h", "a", "b", "pi"))
    _vjp_twice(lambda: fx.lora_linear(h, w, a, b, pi, OWNER), [h, a, b, pi], [w, OWNER])
