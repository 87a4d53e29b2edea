"""Built-in invariant suite behind the `selfcheck` subcommand.

Each check re-derives an expected value independently of the code under test
(closed forms, finite differences, frozen golden bytes) and raises on any
mismatch. The runner prints one line per check and reports the failure count,
so a green build exits 0 and any regression exits 1 through the CLI.
"""

from __future__ import annotations

import numpy as np

from . import tensor as fx
from .config import ModelConfig
from .container import read_container, write_container
from .denoiser import build_adapter_stack, build_conditioning, build_denoiser, denoise_guided
from .errors import ContainerError, FreqVfxError
from .moe import RouterParams, route
from .sampling import ddim_update
from .schedule import NoiseSchedule, sampling_grid
from .spectral import (SIGMA1_DEFAULT, SIGMA2_DEFAULT, blur_matrix, decompose, joint_descriptor,
                       joint_descriptor_detached)

# 2x2 f32 [[1,2],[3,4]] under the container layout; duplicated from the format
# documentation so a codec regression cannot hide behind its own writer
_GOLDEN = bytes.fromhex(
    "46564c31010001000c00676f6c64656e5f656e747279010202000000020000"
    "000000803f0000004000004040000080406cc02df6"
)


def _check_blur_rows_normalized(rng):
    for sigma in (SIGMA1_DEFAULT, SIGMA2_DEFAULT, 2.0):
        m = blur_matrix(17, sigma)
        err = np.max(np.abs(m.sum(axis=1) - 1.0))
        assert err <= 1e-12, f"blur rows off by {err:.3e} at sigma={sigma}"
        assert np.all(m >= 0)


def _check_telescoping(rng):
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    coarse, band, detail = decompose(x)
    rebuilt = coarse + band + detail
    err = np.max(np.abs(rebuilt - x))
    assert err <= 1e-6, f"telescoping residual {err:.3e}"


def _check_descriptor_simplex(rng):
    z = rng.standard_normal((2, 4, 2, 8, 8)).astype(np.float32)
    d = joint_descriptor_detached(fx.Tensor(z))
    assert d.shape == (2, 6)
    assert np.all(np.isfinite(d)) and np.all(d >= 0)
    for half in (d[:, :3], d[:, 3:]):
        err = np.max(np.abs(half.sum(axis=1) - 1.0))
        assert err <= 1e-6, f"descriptor half sums off by {err:.3e}"


def _router(rng, dtype):
    """A default-sized router with its second layer off the zero init."""
    m = ModelConfig()
    router = RouterParams.init(rng, n_experts=m.n_experts, hidden=m.router_hidden, tau=m.tau,
                               dtype=dtype)
    router.w2.data[...] = rng.normal(0.0, 0.3, size=router.w2.shape)
    return router


def _check_softmax(rng):
    """`route` keeping every expert is the temperature softmax of the router's
    logits, here in plain numpy."""
    router = _router(rng, np.float64)
    d = rng.dirichlet(np.ones(6), size=5)
    got = route(d, router, top_k=router.n_experts).data
    a1 = d @ router.w1.data.T + router.b1.data
    h = 0.5 * a1 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (a1 + 0.044715 * a1 ** 3)))
    x = (h @ router.w2.data.T + router.b2.data) / router.tau
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12


def _check_routing(rng):
    top_k = ModelConfig().top_k
    d = np.abs(rng.standard_normal((8, 6)))
    d = d / d.sum(axis=1, keepdims=True)
    pi = route(d, _router(rng, np.float32), top_k=top_k).data
    assert np.all(pi >= 0)
    assert np.max(np.abs(pi.sum(axis=1) - 1.0)) <= 1e-6
    assert np.all((pi > 0).sum(axis=1) <= top_k)


def _probe_vjp(live, weights):
    weights = [w if hit else None for w, hit in zip(weights, live)]

    def vjp(g):
        return tuple(None if w is None else g * w for w in weights)

    return vjp


def _probe(outputs, weights):
    """sum_i sum(outputs[i] * weights[i]) as one `probe` node: the scalar a
    gradient check differentiates, linear in each output so that the output's
    gradient is its weight."""
    value = sum(float(np.sum(out.data * w)) for out, w in zip(outputs, weights))
    return fx.record("probe", outputs, np.float64(value), _probe_vjp, weights)


def _agree_with_central_differences(g, value, x, coords, floor, step=1e-6):
    """Flat gradient g of value() against central differences of width 2 `step`
    in x's flat coords, to relative 1e-5 of the larger magnitude or of `floor`."""
    flat = x.reshape(-1)  # a view: x is contiguous
    for j in coords:
        orig = flat[j]
        flat[j] = orig + step
        fp = value()
        flat[j] = orig - step
        fm = value()
        flat[j] = orig
        num = (fp - fm) / (2 * step)
        assert abs(g[j] - num) <= 1e-5 * max(abs(g[j]), abs(num), floor), (
            f"gradient mismatch at {j}: analytic {g[j]:.6e} vs fd {num:.6e}")


def _check_gradients(rng):
    """The fused descriptor's gradient under a tape against central differences
    of the detached descriptor, the `router` node's float64 leaf gradients
    against central differences of untaped `route`, the gradients of the
    latent, the routing weights and four projections' a and b through one
    float64 guided step (`patch_embed`, `attn_block` nodes of all three forms
    and `unembed`) against central differences of untaped steps, and the
    gradients of a guided float64 `ddim` node, all three inputs live, against
    central differences of the untaped update."""
    x = rng.standard_normal((1, 3, 1, 5, 5))
    wd = rng.standard_normal((1, 6))
    p = fx.tensor(x.copy())
    with fx.Tape([p]) as tape:
        loss = _probe([joint_descriptor(p)], [wd])
    g = fx.backward(tape, loss)[p].data.ravel()
    _agree_with_central_differences(
        g, lambda: float(np.sum(joint_descriptor_detached(x) * wd)), x,
        rng.choice(x.size, size=6, replace=False), 1e-10)

    router = _router(rng, np.float64)
    d = rng.dirichlet(np.ones(6), size=4)
    w = rng.standard_normal((4, router.n_experts))
    top_k = ModelConfig().top_k
    with fx.Tape(router.parameters().values()) as tape:
        loss = _probe([route(d, router, top_k)], [w])
    grads = fx.backward(tape, loss)
    for leaf in router.parameters().values():
        # criterion 3's floor: a masked expert's logit has a gradient of 0 up to rounding
        _agree_with_central_differences(
            grads[leaf].data.ravel(), lambda: float(np.sum(route(d, router, top_k).data * w)),
            leaf.data, rng.choice(leaf.size, size=min(4, leaf.size), replace=False), 1e-4)

    # criterion 3's small model, its experts off their zero init, at B=2 with a
    # timestep per sample, constant routing and a constant conditioning video
    m = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10, total_rank=8)
    params = build_denoiser(rng, latent_shape=m.latent_shape, width=m.width,
                            n_blocks=m.n_blocks, patch=m.patch, num_steps=m.num_steps,
                            diag_bias=m.diag_bias, cross_gain=m.cross_gain, dtype=np.float64)
    stack = build_adapter_stack(rng, params, m, dtype=np.float64)
    for leaf in stack.parameters().values():
        leaf.data[...] = rng.normal(0.0, 0.1, size=leaf.shape)
    cond = build_conditioning(params, rng.standard_normal((2,) + m.latent_shape),
                              rng.standard_normal((m.n_text_tokens, m.width)))
    pi = fx.tensor(rng.dirichlet(np.ones(m.n_experts), size=2))
    t = np.array([3, 7])
    z = rng.standard_normal((2,) + m.latent_shape)
    w = rng.standard_normal(z.shape)
    latent = fx.tensor(z.copy())
    # both guided heads: `attn_block` nodes of self-attention (block0.self),
    # cross-attention (block0.cross in the conditional head) and the null token's
    # shortcut (block1.cross in the unconditional one, whose v and o the
    # conditional head reads too), with the latent, pi and four expert pairs live
    pairs = [stack.layers[name] for name in ("block0.self.q", "block0.cross.k",
                                             "block1.cross.v", "block1.cross.o")]
    leaves = [latent, pi] + [leaf for pair in pairs for leaf in (pair.a, pair.b)]

    with fx.Tape(leaves) as tape:
        eps_c, eps_u = denoise_guided(latent, t, cond, params, stack, pi=pi)
        loss = _probe([eps_c, eps_u], [w, w[::-1]])
    grads = fx.backward(tape, loss)

    def value():
        eps_c, eps_u = denoise_guided(z, t, cond, params, stack, pi=pi)
        return float(np.sum(eps_c.data * w) + np.sum(eps_u.data * w[::-1]))

    # the step's output sums terms far larger than it, so its rounding is about
    # 1e-14: a step of 1e-4 keeps that below 1e-5 of the smallest gradient here
    for leaf in leaves:
        arr = z if leaf is latent else leaf.data
        _agree_with_central_differences(grads[leaf].data.ravel(), value, arr,
                                        rng.choice(arr.size, size=4, replace=False), 1e-4,
                                        step=1e-4)

    # the sampler's guided update at cfg 3, from t=7 to t=3 of a 10-step schedule
    sched = NoiseSchedule.cosine(m.num_steps)
    noisy = [rng.standard_normal(z.shape) for _ in range(3)]  # z, eps_c, eps_u
    leaves = [fx.tensor(x.copy()) for x in noisy]
    with fx.Tape(leaves) as tape:
        loss = _probe([ddim_update(*leaves, 3.0, sched, 7, 3)], [w])
    grads = fx.backward(tape, loss)
    for leaf, arr in zip(leaves, noisy):
        _agree_with_central_differences(
            grads[leaf].data.ravel(),
            lambda: float(np.sum(ddim_update(*map(fx.Tensor, noisy), 3.0, sched, 7, 3).data
                                 * w)), arr, rng.choice(arr.size, size=4, replace=False), 1e-4)


def _check_schedule(rng):
    sched = NoiseSchedule.cosine(1000)
    assert sched.alphas[0] == 1.0 and sched.sigmas[0] == 0.0
    vp = sched.alphas ** 2 + sched.sigmas ** 2
    assert np.max(np.abs(vp - 1.0)) <= 1e-12
    assert np.all(np.diff(sched.alphas) < 0)
    grid = sampling_grid(1000, 30)
    assert grid[0] == 999 and grid[-1] == 0 and len(grid) == 31


def _check_container(rng):
    entries = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal((2, 2, 2)),
        "scalar": np.float64(3.5).reshape(()),
    }
    blob = write_container(entries)
    back = read_container(blob)
    for name, arr in entries.items():
        assert back[name].dtype == arr.dtype
        assert np.asarray(back[name]).tobytes() == np.asarray(arr).tobytes(), name

    golden = write_container({"golden_entry": np.array([[1, 2], [3, 4]], dtype=np.float32)})
    assert golden == _GOLDEN, "golden container bytes drifted"

    corrupt = bytearray(_GOLDEN)
    corrupt[35] ^= 0xFF
    try:
        read_container(bytes(corrupt))
    except ContainerError:
        pass
    else:
        raise AssertionError("corrupted container was accepted")


CHECKS = (
    ("blur_rows_normalized", _check_blur_rows_normalized),
    ("telescoping_identity", _check_telescoping),
    ("descriptor_simplex", _check_descriptor_simplex),
    ("softmax_reference", _check_softmax),
    ("routing_contracts", _check_routing),
    ("gradient_check", _check_gradients),
    ("schedule_sanity", _check_schedule),
    ("container_codec", _check_container),
)


def run_selfcheck(seed: int = 0) -> int:
    """Run every check; returns the number of failures (0 on a green build)."""
    failures = 0
    for name, check in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            check(rng)
        except (AssertionError, FreqVfxError) as err:
            failures += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    return failures
