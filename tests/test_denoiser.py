import numpy as np
import pytest

import freqvfx.denoiser
import freqvfx.tensor as fx
from freqvfx.config import ModelConfig
from freqvfx.container import (checkpoint_entries, read_container_file, restore_state,
                               write_container_file)
from freqvfx.denoiser import (build_adapter_stack, build_conditioning, build_denoiser,
                              build_model, denoise_guided, denoise_step, patchify, unpatchify)
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.moe import route
from freqvfx.schedule import NoiseSchedule
from freqvfx.spectral import joint_descriptor_detached

import oracles

LATENT = (2, 2, 4, 4)
WIDTH = 16
NUM_STEPS = 10
MODEL = ModelConfig(latent_shape=LATENT, width=WIDTH, num_steps=NUM_STEPS, total_rank=8)


def small_model(seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = build_denoiser(rng, latent_shape=LATENT, width=WIDTH, n_blocks=2,
                            patch=2, num_steps=NUM_STEPS, diag_bias=MODEL.diag_bias,
                            cross_gain=MODEL.cross_gain, dtype=dtype)
    stack = build_adapter_stack(rng, params, MODEL, dtype=dtype)
    return params, stack


def small_batch(seed=10, b=2, dtype=np.float32):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((b,) + LATENT).astype(dtype)
    text = rng.standard_normal((2, WIDTH)).astype(dtype)
    return z, text


def woken_model(dtype=np.float32):
    """small_model with the cold-start zeros (expert B matrices, router second
    layer) moved, so adapters change the output and gradients do not vanish."""
    params, stack = small_model(dtype=dtype)
    for name, t in stack.parameters().items():
        if name.endswith(".b") or name == "router.w2":
            t.data[...] += 0.05
    return params, stack


def guided_eps(eps_c, eps_u, w):
    """The guidance combine eps_u + w (eps_c - eps_u) as the chain's ops."""
    return oracles.add(eps_u, oracles.mul(w, oracles.sub(eps_c, eps_u)))


def routed(z, stack):
    """The routing weights of latent z, computed as the sampler computes them."""
    return route(joint_descriptor_detached(z), stack.router, stack.top_k)


def bytes_of(t) -> bytes:
    return np.ascontiguousarray(t.data).tobytes()


class TestBuild:
    def test_build_is_deterministic(self):
        p1, s1 = small_model(seed=3)
        p2, s2 = small_model(seed=3)
        for name, t in p1.named_arrays().items():
            assert bytes_of(t) == bytes_of(p2.named_arrays()[name]), name
        for name, t in s1.parameters().items():
            assert bytes_of(t) == bytes_of(s2.parameters()[name]), name
        p3, _ = small_model(seed=4)
        assert p1.embed_w.tobytes() != p3.embed_w.tobytes()

    def test_backbone_frozen_adapters_trainable(self):
        params, stack = small_model()
        leaves = list(stack.parameters().values())
        for name, t in params.named_arrays().items():
            assert not any(np.shares_memory(t.data, p.data) for p in leaves), name

    def test_adapter_stack_layout(self):
        params, stack = small_model()
        expected = {f"block{i}.{attn}.{slot}"
                    for i in range(2) for attn in ("self", "cross")
                    for slot in ("q", "k", "v", "o")}
        assert set(stack.layers) == expected
        # 4 router tensors + one packed (a, b) pair per layer ...
        leaves = stack.parameters()
        assert len(leaves) == 4 + 16 * 2
        assert leaves["adapter.block0.self.q.a"].shape == (8, WIDTH)
        assert leaves["adapter.block0.self.q.b"].shape == (WIDTH, 8)
        assert stack.n_experts == 4

    def test_one_rank_layout_per_stack(self):
        """The stack holds the expert split once: each layer is one packed (a, b)
        pair whose rows (of a) and columns (of b) follow `ranks`, and a checkpoint
        stores exactly that pair as `adapter.<layer>.{a,b}`."""
        params, stack = small_model()
        assert stack.ranks == (2, 2, 2, 2)
        assert stack.owner.shape == (4, 8)
        edges = np.cumsum((0,) + stack.ranks)
        for m in range(4):
            np.testing.assert_array_equal(stack.owner[m, edges[m]:edges[m + 1]], 1.0)
            assert stack.owner[m].sum() == stack.ranks[m]
        for adapter in stack.layers.values():
            assert set(vars(adapter)) == {"a", "b"}
            assert adapter.a.shape == (8, WIDTH)
            assert adapter.b.shape == (WIDTH, 8)
        # the entry order fixes the checkpoint bytes: backbone, router, then
        # each layer's a before b
        layers = [f"block{i}.{attn}.{slot}" for i in range(2)
                  for attn in ("self", "cross") for slot in "qkvo"]
        adapter_names = [f"adapter.{name}.{ab}" for name in layers for ab in "ab"]
        assert list(stack.parameters()) == (["router.w1", "router.b1", "router.w2",
                                              "router.b2"] + adapter_names)
        entries = checkpoint_entries(params, stack, NoiseSchedule.cosine(NUM_STEPS))
        assert list(entries) == (list(params.named_arrays()) + list(stack.parameters())
                                 + ["schedule.alphas", "schedule.sigmas"])
        for name, t in stack.parameters().items():
            assert bytes_of(entries[name]) == bytes_of(t), name

    def test_entries_follow_uneven_rank_split(self, tmp_path):
        """At an uneven split, R=9 over four experts as (3, 2, 2, 2), each layer's
        entry is the whole packed pair, and restoring a saved checkpoint into a
        fresh build gives the leaves back byte for byte."""
        cfg = ModelConfig(latent_shape=LATENT, width=WIDTH, num_steps=NUM_STEPS, total_rank=9)
        params, stack = build_model(cfg, np.random.default_rng(5))
        assert stack.ranks == (3, 2, 2, 2)
        assert stack.owner.shape == (4, 9)
        rng = np.random.default_rng(6)
        for t in stack.parameters().values():
            t.data[...] = rng.normal(size=t.shape)
        path = tmp_path / "ckpt.fvl1"
        write_container_file(path, checkpoint_entries(params, stack,
                                                      NoiseSchedule.cosine(NUM_STEPS)))
        entries = read_container_file(path)
        assert entries["adapter.block0.self.q.a"].shape == (9, WIDTH)
        assert entries["adapter.block1.cross.o.b"].shape == (WIDTH, 9)
        assert not any(".expert" in name for name in entries)

        _, fresh = restore_state(entries, cfg)
        assert list(fresh.parameters()) == list(stack.parameters())
        for name, t in stack.parameters().items():
            assert bytes_of(fresh.parameters()[name]) == bytes_of(t), name
        # each expert's block sits at its offset in the restored pair
        edges = np.cumsum((0,) + stack.ranks)
        layer, saved = fresh.layers["block1.self.v"], stack.layers["block1.self.v"]
        for m in range(4):
            s = slice(edges[m], edges[m + 1])
            assert layer.a.data[s].tobytes() == saved.a.data[s].tobytes()
            assert layer.b.data[:, s].tobytes() == saved.b.data[:, s].tobytes()

    def test_model_properties(self):
        params, _ = small_model()
        assert params.self_bias.shape == (2 * 2 * 2, 2 * 2 * 2)
        assert params.num_steps == NUM_STEPS
        assert len(params.named_arrays()) == 6 + 2 * 2 * 4

    def test_indivisible_patch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            build_model(ModelConfig(latent_shape=(2, 2, 5, 4), patch=2), rng)


class TestTokenPlumbing:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 8, 4, 8, 8)).astype(np.float32)
        back = unpatchify(patchify(z, 2), (8, 4, 8, 8), 2)
        assert np.array_equal(back, z)

    def test_token_layout(self):
        rng = np.random.default_rng(6)
        t, c, h, w, p = 8, 4, 8, 8, 2
        hp, wp = h // p, w // p
        z = rng.standard_normal((2, t, c, h, w)).astype(np.float32)
        tok = patchify(z, p)
        for _ in range(50):
            bi = rng.integers(2)
            ti, ci = rng.integers(t), rng.integers(c)
            i, j = rng.integers(hp), rng.integers(wp)
            di, dj = rng.integers(p), rng.integers(p)
            row = (ti * hp + i) * wp + j
            col = (ci * p + di) * p + dj
            assert tok[bi, row, col] == z[bi, ti, ci, i * p + di, j * p + dj]

    def test_patchify_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((2, 4, 8, 8), dtype=np.float32), 2)
        with pytest.raises(ShapeError):
            patchify(np.zeros((1, 2, 2, 5, 4), dtype=np.float32), 2)

    def test_unpatchify_rejects_bad_tokens(self):
        with pytest.raises(ShapeError):
            unpatchify(np.zeros((1, 7, 8), dtype=np.float32), LATENT, 2)

    def test_build_conditioning_shapes(self):
        params, _ = small_model()
        z, text = small_batch(b=3)
        cond = build_conditioning(params, z, text)
        assert cond.tokens.shape == (3, 2 * 2 + 2, WIDTH)
        assert cond.vfx_tokens is None
        vfx = fx.Tensor(np.zeros((5, WIDTH), dtype=np.float32))
        assert cond.with_vfx(vfx).vfx_tokens is vfx

    def test_build_conditioning_refusals(self):
        """A context that would not fit the step is refused where it is built."""
        params, stack = small_model()
        z, text = small_batch(b=3)
        shared = build_conditioning(params, z, text)
        per_sample = build_conditioning(params, z, np.stack([text] * 3))
        assert per_sample.tokens.tobytes() == shared.tokens.tobytes()
        assert not shared.tokens.flags.writeable
        with pytest.raises(ShapeError, match="batch 3"):
            build_conditioning(params, z, np.stack([text] * 2))
        with pytest.raises(ParameterError, match="dtype mismatch"):
            build_conditioning(params, z, text.astype(np.float64))
        for shape in ((3, 5, WIDTH), (5, WIDTH + 1), (WIDTH,)):
            with pytest.raises(ShapeError, match="vfx tokens"):
                shared.with_vfx(fx.Tensor(np.zeros(shape, dtype=np.float32)))
        with pytest.raises(ParameterError, match="dtype mismatch"):
            shared.with_vfx(fx.Tensor(np.zeros((5, WIDTH))))
        with pytest.raises(ShapeError, match="batch 3"):
            denoise_step(z[:2], 3, shared, params, stack, pi=routed(z[:2], stack))


    def test_build_conditioning_refuses_a_video_of_another_dtype(self):
        """A float64 video and text for a float32 model, or the other way round,
        are refused where the context is built, naming both dtypes, not at the
        first projection of the first step."""
        for model_dtype, video_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
            params, _ = small_model(dtype=model_dtype)
            z, text = small_batch(dtype=video_dtype)
            want = (f"dtype mismatch: conditioning video {np.dtype(video_dtype)} vs model "
                    f"{np.dtype(model_dtype)}")
            with pytest.raises(ParameterError, match=want):
                build_conditioning(params, z, text)


class TestDenoiseStep:
    def test_shape_and_determinism(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        out1 = denoise_step(z, 3, cond, params, stack, pi=pi)
        out2 = denoise_step(z, 3, cond, params, stack, pi=pi)
        assert out1.shape == z.shape
        assert out1.dtype == np.float32
        assert bytes_of(out1) == bytes_of(out2)

    def test_scalar_vs_per_sample_t(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        a = denoise_step(z, 3, cond, params, stack, pi=pi)
        b = denoise_step(z, np.array([3, 3]), cond, params, stack, pi=pi)
        assert bytes_of(a) == bytes_of(b)
        c = denoise_step(z, np.array([3, 7]), cond, params, stack, pi=pi)
        assert np.array_equal(c.data[0], b.data[0])
        assert not np.array_equal(c.data[1], b.data[1])

    def test_distinct_timesteps_change_output(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        a = denoise_step(z, 0, cond, params, stack, pi=pi)
        b = denoise_step(z, 9, cond, params, stack, pi=pi)
        assert not np.array_equal(a.data, b.data)

    def test_t_validation(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        with pytest.raises(ParameterError):
            denoise_step(z, 0.5, cond, params, stack, pi=pi)
        with pytest.raises(ParameterError):
            denoise_step(z, -1, cond, params, stack, pi=pi)
        with pytest.raises(ParameterError):
            denoise_step(z, NUM_STEPS, cond, params, stack, pi=pi)
        with pytest.raises(ShapeError):
            denoise_step(z, np.array([1, 2, 3]), cond, params, stack, pi=pi)

    def test_latent_shape_validation(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        with pytest.raises(ShapeError):
            denoise_step(z[:, :, :, :, :3], 1, cond, params, stack, pi=pi)

    def test_uncond_matches_missing_conditioning(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        c1, u1 = denoise_guided(z, 3, cond, params, stack, pi=pi)
        u2 = denoise_step(z, 3, None, params, stack, pi=pi)
        c = denoise_step(z, 3, cond, params, stack, pi=pi)
        assert bytes_of(u1) == bytes_of(u2)
        assert bytes_of(c1) == bytes_of(c)
        assert not np.array_equal(u1.data, c.data)

    def test_zero_init_adapters_match_base_model(self, monkeypatch):
        """Fresh experts leave the output of the frozen backbone, every projection
        a plain linear, bit-exact."""
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        with_stack = denoise_step(z, 3, cond, params, stack, pi=pi)
        monkeypatch.setattr(freqvfx.denoiser, "moe_forward",
                            lambda h, w, a, b, gate: (h @ w.T, None, None))
        base = denoise_step(z, 3, cond, params, stack, pi=pi)
        assert np.array_equal(with_stack.data, base.data)

    def test_stack_without_routing_is_rejected(self):
        """The denoiser never routes for itself: a step needs the caller's pi."""
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        with pytest.raises(TypeError, match="'pi'"):
            denoise_step(z, 3, cond, params, stack)
        with pytest.raises(TypeError, match="'pi'"):
            denoise_guided(z, 3, cond, params, stack)

    def test_vfx_tokens_change_output(self):
        params, stack = small_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        rng = np.random.default_rng(11)
        vfx = fx.Tensor(rng.standard_normal((4, WIDTH)).astype(np.float32))
        a = denoise_step(z, 3, cond.with_vfx(vfx), params, stack, pi=pi)
        b = denoise_step(z, 3, cond, params, stack, pi=pi)
        assert not np.array_equal(a.data, b.data)

    def test_gradients_reach_adapters_not_backbone(self):
        params, stack = woken_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        with fx.Tape(stack.parameters().values()) as tape:
            out = denoise_step(z, 3, cond, params, stack, pi=routed(z, stack))
            loss = oracles.reduce_sum(oracles.square(out))
        grads = fx.backward(tape, loss)
        for name, t in params.named_arrays().items():
            g = grads.get(t)
            assert g is None or not np.any(g.data), f"backbone grad leaked into {name}"
        for name in ("router.w1", "router.b1", "router.w2", "router.b2"):
            g = grads.get(stack.parameters()[name])
            assert g is not None and np.any(g.data), name
        live_a = 0
        for adapter in stack.layers.values():
            g = grads[adapter.a].data
            live_a += sum(bool(np.any(g[end - r:end]))
                          for r, end in zip(stack.ranks, np.cumsum(stack.ranks)))
        # every layer has at least top_k of its experts selected somewhere
        assert live_a >= 16 * 3

    def test_float64_build_runs(self):
        params, stack = small_model(dtype=np.float64)
        z, text = small_batch(dtype=np.float64)
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        out = denoise_step(z, 3, cond, params, stack, pi=pi)
        assert out.dtype == np.float64
        assert out.shape == z.shape
        assert np.all(np.isfinite(out.data))


def _wiring(tape):
    """Each node's op, live inputs and input shapes, and where each input came
    from: the index of the node that made it, a wrt leaf's index, or None for a
    constant."""
    made = {leaf.key: ("leaf", i) for i, leaf in enumerate(tape.wrt)}
    rows = []
    for i, n in enumerate(tape.nodes):
        rows.append((n.op, tuple(k is not None for k in n.inputs), n.shapes,
                     tuple(made.get(k) for k in n.inputs)))
        made[n.out] = i
    return rows


class TestGuidedStep:
    @pytest.mark.parametrize("woken", [True, False])
    @pytest.mark.parametrize("b, t", [(1, 3), (2, 3), (2, np.array([3, 7]))])
    def test_matches_two_steps_byte_for_byte(self, woken, b, t):
        """With moved adapters, and at their cold start, where the step is the
        frozen backbone's."""
        params, stack = woken_model() if woken else small_model()
        z, text = small_batch(b=b)
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)
        eps_c, eps_u = denoise_guided(z, t, cond, params, stack, pi=pi)
        assert bytes_of(eps_c) == bytes_of(denoise_step(z, t, cond, params, stack, pi=pi))
        assert bytes_of(eps_u) == bytes_of(denoise_step(z, t, None, params, stack, pi=pi))

    def test_live_trunk_records_the_nodes_of_two_steps(self):
        """With z on the tape, or with the stack's leaves on it, the unconditional
        branch reads a replay of the trunk's nodes: the same nodes and gradient
        bytes as two denoise_step calls, each input read from the same node."""
        params, stack = woken_model()
        z, text = small_batch()
        cond = build_conditioning(params, z, text)
        pi = routed(z, stack)

        def guided(zt):
            return denoise_guided(zt, 3, cond, params, stack, pi=pi)

        def two_steps(zt):
            return (denoise_step(zt, 3, cond, params, stack, pi=pi),
                    denoise_step(zt, 3, None, params, stack, pi=pi))

        for on_tape in ("z", "stack"):
            seen = []
            for fn in (guided, two_steps):
                zt = fx.tensor(z)
                wrt = [zt] if on_tape == "z" else list(stack.parameters().values())
                with fx.Tape(wrt) as tape:
                    eps_c, eps_u = fn(zt)
                    loss = oracles.reduce_sum(oracles.square(guided_eps(eps_c, eps_u, 7.5)))
                grads = fx.backward(tape, loss)
                seen.append((_wiring(tape),
                             [bytes_of(grads[leaf]) for leaf in wrt]))
            assert seen[0] == seen[1], on_tape

    def test_constant_trunk_is_shared(self, monkeypatch):
        """With only the vfx tokens on the tape (an adapt rollout's first step),
        the trunk records nothing; with z on it too (every later step), the
        trunk's nodes are replayed. Either way it runs once for both branches."""
        params, stack = woken_model()
        z, text = small_batch()
        vfx = fx.tensor(np.random.default_rng(4).standard_normal((3, WIDTH)),
                        dtype=np.float32)
        cond = build_conditioning(params, z, text).with_vfx(vfx)
        calls = []
        real = freqvfx.denoiser._trunk

        def counting_trunk(*args):
            calls.append(args)
            return real(*args)

        pi = routed(z, stack)
        expected = bytes_of(denoise_step(z, 3, None, params, stack, pi=pi))
        monkeypatch.setattr(freqvfx.denoiser, "_trunk", counting_trunk)
        for live_z in (False, True):
            calls.clear()
            zt = fx.tensor(z)
            with fx.Tape([vfx, zt] if live_z else [vfx]):
                _, eps_u = denoise_guided(zt, 3, cond, params, stack, pi=pi)
            assert len(calls) == 1, live_z
            assert bytes_of(eps_u) == expected, live_z

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 4])
    def test_context_matches_three_group_chain(self, monkeypatch, b, dtype):
        """One read-only context array, with the vfx tokens appended per head
        by one `context` node, gives the bytes of the three-group concat it
        replaced: both guided heads' outputs and the gradients of the vfx
        tokens and of z, with z dead (an adapt rollout's first step) and live,
        and without vfx tokens."""
        params, stack = woken_model(dtype)
        z, text = small_batch(b=b, dtype=dtype)
        cond = build_conditioning(params, z, text)
        vfx0 = np.random.default_rng(4).standard_normal((3, WIDTH)).astype(dtype)
        pi = routed(z, stack)
        runs, ops = [], []
        for context in (freqvfx.denoiser._context_tokens, oracles.context_tokens_chain):
            monkeypatch.setattr(freqvfx.denoiser, "_context_tokens", context)
            for with_vfx, live_z in ((True, False), (True, True), (False, True)):
                vfx, zt = fx.tensor(vfx0), fx.tensor(z)
                wrt = ([vfx] if with_vfx else []) + ([zt] if live_z else [])
                with fx.Tape(wrt) as tape:
                    eps_c, eps_u = denoise_guided(zt, 3, cond.with_vfx(vfx if with_vfx else None),
                                                  params, stack, pi=pi)
                    loss = oracles.reduce_sum(oracles.square(guided_eps(eps_c, eps_u, 3.0)))
                grads = fx.backward(tape, loss)
                ops.append([n.op for n in tape.nodes])
                runs.append((bytes_of(eps_c), bytes_of(eps_u),
                             [bytes_of(grads[leaf]) for leaf in wrt]))
        assert runs[:3] == runs[3:]
        assert [op.count("context") for op in ops[:3]] == [1, 1, 0]
        assert [op.count("concat") for op in ops[3:]] == [1, 1, 0]

    def test_single_key_shortcut_matches_full_attention(self):
        """Cross-attention into the one null token skips q, k and the softmax;
        a zero bias forces the full path, which must agree with it."""
        params, stack = woken_model()
        z, _ = small_batch()
        kv = freqvfx.denoiser._context_tokens(params, None, z.shape[0])
        zero = np.zeros((params.pos.shape[0], 1), dtype=np.float32)
        leaves = stack.parameters()
        runs = []
        for bias in (None, zero):
            # the trunk runs on the tape, so x carries block 0's self adapters
            # and the router, and the residual takes cross-attention's dx back
            # to them: the full path's zero q-gradient must add nothing there
            with fx.Tape(leaves.values()) as tape:
                pi = routed(z, stack)
                x = freqvfx.denoiser._trunk(z, 3, params, stack, pi)
                out = freqvfx.denoiser._attention(x, kv, params, stack, pi, "block0.cross",
                                                  bias)
                loss = oracles.reduce_sum(oracles.square(out))
            block = [node for node in tape.nodes if node.op == "attn_block"][-1]
            runs.append((bytes_of(out), len(block.inputs), fx.backward(tape, loss)))
        (short, n_short, g_short), (full, n_full, g_full) = runs
        assert short == full
        # the shortcut's node lists x and the o and v projections' inputs only
        assert (n_short, n_full) == (9, 19)
        for name, leaf in leaves.items():
            assert np.array_equal(g_short[leaf].data, g_full[leaf].data), name
        upstream = ["router.w1", "router.w2"] + [f"adapter.block0.self.{slot}.a"
                                                 for slot in "qkvo"]
        assert all(np.any(g_short[leaves[name]].data) for name in upstream)
