"""Built-in invariant suite behind the `selfcheck` subcommand.

Each check re-derives an expected value independently of the code under test
(closed forms, finite differences, frozen golden bytes) and raises on any
mismatch. The runner prints one line per check and reports the failure count,
so a green build exits 0 and any regression exits 1 through the CLI.
"""

from __future__ import annotations

import numpy as np

from . import tensor as fx
from .container import read_container, write_container
from .errors import ContainerError, FreqVfxError
from .moe import RouterParams, route
from .schedule import NoiseSchedule, sampling_grid
from .spectral import SIGMA1_DEFAULT, SIGMA2_DEFAULT, decompose, fei, joint_descriptor_detached

# 2x2 f32 [[1,2],[3,4]] under the container layout; duplicated from the format
# documentation so a codec regression cannot hide behind its own writer
_GOLDEN = bytes.fromhex(
    "46564c31010001000c00676f6c64656e5f656e747279010202000000020000"
    "000000803f0000004000004040000080406cc02df6"
)


def _check_blur_rows_normalized(rng):
    for sigma in (SIGMA1_DEFAULT, SIGMA2_DEFAULT, 2.0):
        m = fx.blur_matrix(17, sigma)
        err = np.max(np.abs(m.sum(axis=1) - 1.0))
        assert err <= 1e-12, f"blur rows off by {err:.3e} at sigma={sigma}"
        assert np.all(m >= 0)


def _check_telescoping(rng):
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    coarse, band, detail = decompose(x)
    rebuilt = coarse.data + band.data + detail.data
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


def _check_softmax(rng):
    x = rng.standard_normal((5, 7))
    got = fx.softmax(fx.Tensor(x), axis=-1).data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12


def _check_routing(rng):
    router = RouterParams.init(rng, n_experts=4, hidden=16)
    router.w2.data[...] = rng.normal(0.0, 0.3, size=router.w2.shape)
    d = np.abs(rng.standard_normal((8, 6)))
    d = d / d.sum(axis=1, keepdims=True)
    pi = route(d, router, top_k=3).data
    assert np.all(pi >= 0)
    assert np.max(np.abs(pi.sum(axis=1) - 1.0)) <= 1e-6
    assert np.all((pi > 0).sum(axis=1) <= 3)


def _check_gradients(rng):
    x = rng.standard_normal((1, 1, 5, 5))

    def value(a):
        return float(fx.reduce_sum(fx.square(fei(fx.Tensor(a)))).data)

    p = fx.tensor(x.copy())
    with fx.Tape([p]) as tape:
        loss = fx.reduce_sum(fx.square(fei(p)))
    g = fx.backward(tape, loss)[p].data.ravel()
    flat = x.ravel()
    step = 1e-6
    for j in rng.choice(x.size, size=6, replace=False):
        orig = flat[j]
        flat[j] = orig + step
        fp = value(x)
        flat[j] = orig - step
        fm = value(x)
        flat[j] = orig
        num = (fp - fm) / (2 * step)
        denom = max(abs(g[j]), abs(num), 1e-10)
        assert abs(g[j] - num) / denom <= 1e-5, (
            f"gradient mismatch at {j}: analytic {g[j]:.6e} vs fd {num:.6e}")


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


def run_selfcheck(seed: int = 0, log=print) -> int:
    """Run every check; returns the number of failures (0 on a green build)."""
    failures = 0
    for name, check in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            check(rng)
        except (AssertionError, FreqVfxError) as err:
            failures += 1
            log(f"FAIL {name}: {err}")
        else:
            log(f"ok   {name}")
    return failures
