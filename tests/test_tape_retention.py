"""The tape keeps only what `backward` reads.

A node refers to tensors by key and holds no Tensor and no array; each vjp
keeps only the arrays that its live inputs' gradients read. So an array that
no vjp reads is freed as soon as its caller drops it, even while the tape that
recorded its op is still active, and a recorded adapt step in the
acceptance-criterion-7 setting (8-step unroll, cfg 3, 4 draws) keeps well
under the 51 MB that a tape holding every node's inputs and output did.
"""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx import denoiser, sampling, train
from freqvfx.adapt import _draw_mean, adapt, freq_constraint_loss
from freqvfx.config import AdaptConfig, ModelConfig
from freqvfx.denoiser import build_conditioning, build_model
from freqvfx.moe import RouterParams, route
from freqvfx.schedule import NoiseSchedule, forward_noise
from freqvfx.synthgen import build_dataset, read_dataset

import oracles

ADAPT_TAPE_MB = 25.0


class _Stop(Exception):
    """Ends the adapt step once its tape has been measured."""


def _flat(x):
    """The leaves of nested tuples and lists."""
    return [v for item in x for v in _flat(item)] if isinstance(x, (tuple, list)) else [x]


def test_output_no_vjp_reads_is_freed_while_the_tape_is_active():
    x = fx.tensor(np.ones((64, 64)))
    with fx.Tape([x]) as tape:
        y = oracles.add(x, 1.0)
        freed = weakref.ref(y.data)
        loss = oracles.reduce_sum(y)  # the sum's vjp reads only y's shape
        del y
        assert freed() is None
        kept = oracles.square(loss)
        read = weakref.ref(loss.data)  # the square's vjp reads its input
        del loss
        assert read() is not None
    assert [n.op for n in tape.nodes] == ["add", "sum", "square"]
    np.testing.assert_array_equal(fx.backward(tape, kept)[x].data,
                                  np.full((64, 64), 2.0 * 64 * 64 * 2.0))


@pytest.mark.parametrize("op", [oracles.add, oracles.sub, oracles.mul, oracles.div, oracles.linear])
def test_one_live_operand_gets_the_gradient_of_both_live(op):
    """Each vjp keeps the arrays its live inputs' gradients read: with one
    operand live it still gives that operand the bytes it gets with both live
    (`div` and the trainable-weight `linear` are the reference chains' ops)."""
    rng = np.random.default_rng(3)
    second = (4, 4) if op is oracles.linear else (1, 4)  # a broadcast operand
    arrays = [rng.normal(size=(3, 4)) + 2.0, rng.normal(size=second) + 2.0]
    both = [fx.tensor(a) for a in arrays]
    with fx.Tape(both) as tape:
        loss = oracles.reduce_sum(oracles.square(op(*both)))
    want = [fx.backward(tape, loss)[t].data.tobytes() for t in both]
    for i in range(2):
        one = [fx.tensor(a) for a in arrays]
        with fx.Tape([one[i]]) as tape:
            loss = oracles.reduce_sum(oracles.square(op(*one)))
        assert tuple(k is not None for k in tape.nodes[0].inputs) == (i == 0, i == 1)
        assert fx.backward(tape, loss)[one[i]].data.tobytes() == want[i]


def test_token_plumbing_vjps_keep_only_shapes_and_the_frozen_weight():
    """A constant latent records no `patch_embed` node; on a live one, neither
    token node's vjp keeps an activation, only shapes, the patch size and its
    frozen weight."""
    m = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10)
    params, _ = build_model(m, np.random.default_rng(4))
    z = fx.tensor(np.random.default_rng(5).normal(size=(2,) + m.latent_shape).astype(np.float32))
    with fx.Tape([]) as tape:
        denoiser.patch_embed(z, np.asarray(3), params)
    assert not tape.nodes
    with fx.Tape([z]) as tape:
        denoiser.unembed(denoiser.patch_embed(z, np.asarray(3), params), params)
    assert [n.op for n in tape.nodes] == ["patch_embed", "unembed"]
    for node, weight in zip(tape.nodes, (params.embed_w, params.unembed_w)):
        cells = [c.cell_contents for c in node.vjp.__closure__]
        arrays = [v for v in cells if isinstance(v, (np.ndarray, fx.Tensor))]
        assert len(arrays) == 1 and arrays[0] is weight
        assert all(isinstance(v, (int, tuple)) for v in cells if v is not weight)


@pytest.mark.parametrize("guided", [True, False])
def test_ddim_vjp_keeps_only_its_scalars(guided):
    """For every live subset a rollout records (z and eps_u live or dead, eps_c
    live), the `ddim` node lists no key and its vjp no gradient for exactly the
    dead inputs, and the vjp keeps no array but the 0-d scalars r, c and w."""
    rng = np.random.default_rng(9)
    shape = (2, 2, 4, 4, 4)
    sched = NoiseSchedule.cosine(10)
    for z_live, u_live in itertools.product((False, True), (False, True) if guided else (None,)):
        z, eps_c = (fx.tensor(rng.normal(size=shape).astype(np.float32)) for _ in range(2))
        eps_u = fx.tensor(rng.normal(size=shape).astype(np.float32)) if guided else None
        wrt = [eps_c] + ([z] if z_live else []) + ([eps_u] if u_live else [])
        with fx.Tape(wrt) as tape:
            sampling.ddim_update(z, eps_c, eps_u, 3.0, sched, 7, 3)
        (node,) = tape.nodes
        live = (z_live, u_live, True) if guided else (z_live, True)
        assert tuple(k is not None for k in node.inputs) == live
        g = np.ones(shape, dtype=np.float32)
        assert tuple(x is not None for x in node.vjp(g)) == live
        cells = [c.cell_contents for c in node.vjp.__closure__]
        assert not any(isinstance(v, fx.Tensor) for v in cells)
        assert all(v.shape == () for v in cells if isinstance(v, np.ndarray))


def _kept_arrays(node):
    """The arrays a node's vjp closes over, by its names for them; it must close
    over no Tensor."""
    cells = dict(zip(node.vjp.__code__.co_freevars,
                     (c.cell_contents for c in node.vjp.__closure__ or ())))
    assert not any(isinstance(v, fx.Tensor) for v in _flat(list(cells.values())))
    return {name: v for name, v in cells.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("t", [7, np.array([3, 8])])
def test_noise_vjp_keeps_only_the_scalars_its_live_inputs_read(t):
    """With z0, eps or both live, the `noise` node lists no key and its vjp no
    gradient for exactly the dead input, and the vjp keeps only the coefficient
    a (for z0) or s (for eps), 0-d or one per sample, never the latent or the
    noise."""
    rng = np.random.default_rng(10)
    sched = NoiseSchedule.cosine(10)
    for live in ((True, False), (False, True), (True, True)):
        z0, eps = (fx.tensor(rng.normal(size=(2, 2, 4, 4, 4)).astype(np.float32))
                   for _ in range(2))
        with fx.Tape([x for x, hit in zip((z0, eps), live) if hit]) as tape:
            forward_noise(z0, t, eps, sched)
        (node,) = tape.nodes
        assert tuple(k is not None for k in node.inputs) == live
        assert tuple(g is not None for g in node.vjp(np.ones(z0.shape, np.float32))) == live
        kept = _kept_arrays(node)
        assert {name for name, v in kept.items() if v is not None} == {
            name for name, hit in zip("as", live) if hit}
        assert all(v.size == np.size(t) for v in kept.values())


def test_loss_vjps_keep_only_their_differences():
    """The `mse` vjp keeps the (B, T, C, H, W) difference d and the `freq_loss`
    vjp the (B, 6) descriptor difference, nothing else; the `draw_mean` vjp keeps
    its 0-d weight and the `context` vjp no array."""
    rng = np.random.default_rng(11)
    shape = (2, 2, 2, 4, 4)
    z, eps_hat = (fx.tensor(rng.normal(size=shape).astype(np.float32)) for _ in range(2))
    terms = [fx.tensor(np.float64(v)) for v in (0.5, 1.5)]
    cfg = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10)
    params, _ = build_model(cfg, np.random.default_rng(12))
    vfx = fx.tensor(rng.normal(size=(3, 16)).astype(np.float32))
    cond = build_conditioning(params, z.data, rng.normal(size=(2, 16)).astype(np.float32))
    with fx.Tape([z, eps_hat, vfx] + terms) as tape:
        train._mse(eps_hat, rng.normal(size=shape).astype(np.float32))
        freq_constraint_loss(z, z.data[::-1].copy())
        _draw_mean(terms)
        denoiser._context_tokens(params, cond.with_vfx(vfx), 2)
    assert [n.op for n in tape.nodes] == ["mse", "descriptor", "freq_loss", "draw_mean",
                                          "context"]
    mse, _, freq_loss, draw_mean, context = (_kept_arrays(n) for n in tape.nodes)
    assert list(mse) == ["d"] and mse["d"].shape == shape
    assert list(freq_loss) == ["d"] and freq_loss["d"].shape == (2, 6)
    assert list(draw_mean) == ["w"] and draw_mean["w"].shape == ()
    assert context == {}


def _router_reads(live, masks):
    """The arrays the `router` vjp's gradients read, by its names for them: the
    softmax output always, the top-k mask, its product and row sum when it masks,
    the hidden activation for w2, the hidden pre-activation and w2 for w1 or b1,
    and the descriptor for w1."""
    w1, b1, w2, _ = live
    return ({"pi"} | ({"masked", "s", "mask"} if masks else set()) | ({"h"} if w2 else set())
            | ({"a1", "w2d"} if w1 or b1 else set()) | ({"ed"} if w1 else set()))


@pytest.mark.parametrize("top_k", [3, 4])
def test_router_vjp_keeps_only_what_its_live_leaves_read(top_k):
    """With any subset of (w1, b1, w2, b2) live, the `router` node lists no key
    and its vjp no gradient for exactly the dead leaves, keeps only the arrays the
    live leaves' gradients read, and gives each live leaf the bytes it gets with
    all four live."""
    rng = np.random.default_rng(8)
    router = RouterParams.init(rng, n_experts=4, hidden=16, tau=1.5)
    router.w2.data[...] = rng.normal(0.0, 0.8, size=router.w2.shape)
    e = rng.dirichlet(np.ones(6), size=4)
    leaves = list(router.parameters().values())
    want = None
    for n in range(4, 0, -1):
        for subset in itertools.combinations(range(4), n):
            live = tuple(i in subset for i in range(4))
            with fx.Tape([leaves[i] for i in subset]) as tape:
                loss = oracles.reduce_sum(oracles.square(route(e, router, top_k)))
            node = tape.nodes[0]
            assert tuple(k is not None for k in node.inputs) == live
            g = np.ones((4, 4), dtype=np.float32)
            assert tuple(x is not None for x in node.vjp(g)) == live
            assert set(_kept_arrays(node)) == _router_reads(live, top_k < 4)
            grads = fx.backward(tape, loss)
            got = {i: grads[leaves[i]].data.tobytes() for i in subset}
            want = want or got
            assert got == {i: want[i] for i in subset}


def test_adapt_step_tape_keeps_only_what_backward_reads(monkeypatch):
    params, stack = build_model(ModelConfig(), np.random.default_rng(0))
    spec = (("lowfreq_field", 2), ("highfreq_particles", 2))
    z0, _, text = read_dataset(build_dataset(spec, 1, ModelConfig()), "dataset")
    cond = build_conditioning(params, z0, text)
    sched = NoiseSchedule.cosine(params.num_steps)
    seen = []

    def measure(tape, loss):
        """The bytes that dropping the tape's nodes frees, then stop."""
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        nodes, tape.nodes = tape.nodes, []
        fields = _flat([getattr(n, name) for n in nodes for name in type(n).__slots__])
        cells = [c.cell_contents for n in nodes for c in n.vjp.__closure__ or ()]
        seen.append((len(nodes),
                     {type(v).__name__ for v in fields if isinstance(v, (fx.Tensor, np.ndarray))},
                     {type(v).__name__ for v in cells if isinstance(v, fx.Tensor)}))
        del nodes, fields, cells
        gc.collect()
        seen.append((held - tracemalloc.get_traced_memory()[0]) / 2 ** 20)
        raise _Stop

    monkeypatch.setattr(fx, "backward", measure)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            adapt(z0, cond, AdaptConfig(steps=1, sample_cfg=3.0, n_draws=4),
                  params, stack, sched)
    finally:
        tracemalloc.stop()
    (n_nodes, in_fields, in_cells), tape_mb = seen
    assert n_nodes == 117
    # a node holds its op, keys, shapes and vjp: no Tensor, no array
    assert not in_fields
    # and a vjp keeps arrays, never a Tensor (which would keep its key's array)
    assert not in_cells
    assert 0 < tape_mb <= ADAPT_TAPE_MB, f"adapt step tape holds {tape_mb:.1f} MB"


def _block_reads(live, form):
    """The arrays an `attn_block` vjp's gradients read, by its names for them.
    A projection's output is live when b, a, pi or its input is, and the mixed
    values (o's input) when the v, k or q output is. Per projection: the gated
    down output for b, the down output for pi, b and the gate for pi, the input
    or a, a and the frozen weight for the input, the input for a; `owner` for
    pi; the core's scores and scale for the mixed values, v for q or k, k^T for
    q and q for k."""
    slots = "vo" if form == "null" else "qkvo"
    context = ("x" if form == "self" else "kv") in live
    h_live = {"q": "x" in live, "k": context, "v": context}
    out_live = {s: h_live[s] or "pi" in live or f"a.{s}" in live or f"b.{s}" in live
                for s in slots if s != "o"}
    h_live["o"] = True in out_live.values()
    reads = {"owner"} if "pi" in live else set()
    for s in slots:
        lb, la, lh, lpi = f"b.{s}" in live, f"a.{s}" in live, h_live[s], "pi" in live
        reads |= {f"{s}.{name}" for name, keep in (
            ("gated", lb), ("down", lpi), ("b", lpi or lh or la), ("a", lh), ("h", la),
            ("w", lh)) if keep}
        if lpi or lh or la:
            reads.add("gate")
    if form != "null" and h_live["o"]:
        reads |= {"p", "scale"}
        reads |= ({"vd"} if out_live["q"] or out_live["k"] else set())
        reads |= ({"kt"} if out_live["q"] else set()) | ({"qd"} if out_live["k"] else set())
    return reads


@pytest.mark.parametrize("form", ["self", "cross", "null"])
def test_attn_block_vjp_keeps_only_what_its_live_slots_read(form):
    """For every subset of x, the context, pi and the layer's eight a and b
    leaves that records a node, the `attn_block` vjp's closure holds no Tensor,
    and its arrays are exactly those the live slots' gradients read."""
    cfg = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10)
    params, stack = build_model(cfg, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    layer = "block1.self" if form == "self" else "block0.cross"
    x = fx.tensor(rng.normal(size=(2, 8, 16)).astype(np.float32))
    leaves = {"x": x, "pi": fx.tensor(rng.dirichlet(np.ones(4), size=2).astype(np.float32))}
    if form == "cross":
        leaves["kv"] = fx.tensor(rng.normal(size=(2, 5, 16)).astype(np.float32))
    kv = {"self": x, "cross": leaves.get("kv"),
          "null": np.broadcast_to(params.null_token, (2, 1, 16))}[form]
    for slot in "qkvo":
        adapter = stack.layers[f"{layer}.{slot}"]
        leaves[f"a.{slot}"], leaves[f"b.{slot}"] = adapter.a, adapter.b
    bias = params.self_bias if form == "self" else None
    names = list(leaves)
    for live in itertools.chain.from_iterable(itertools.combinations(names, n)
                                              for n in range(1, len(names) + 1)):
        with fx.Tape([leaves[name] for name in live]) as tape:
            denoiser._attention(x, kv, params, stack, leaves["pi"], layer, bias)
        if not tape.nodes:
            assert form == "null" and set(live) <= {"a.q", "b.q", "a.k", "b.k"}
            continue
        (node,) = tape.nodes
        cells = dict(zip(node.vjp.__code__.co_freevars,
                         (c.cell_contents for c in node.vjp.__closure__)))
        kept = cells.pop("kept")
        assert set(kept) == _block_reads(set(live), form), live
        assert all(isinstance(v, np.ndarray) for v in kept.values())
        others = _flat(list(cells.values()))
        assert not any(isinstance(v, (fx.Tensor, np.ndarray)) for v in others), live
