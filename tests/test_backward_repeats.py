"""`backward` run twice over one recorded step gives the same gradient bytes.

No vjp writes into an array it captured, and `fx.replay` relies on that: a
replayed node calls its original's vjp again, with the forward arrays that vjp
captured. A vjp that wrote into one of them would change the second sweep's
gradients. This checks a recorded train step and a recorded adapt step in the
acceptance-criterion-7 setting (8-step unroll, cfg 3, 4 draws), whose tape
holds replayed trunks.
"""

import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx.adapt import adapt
from freqvfx.denoiser import build_conditioning
from freqvfx.train import diffusion_loss

import scenarios


@pytest.fixture(scope="module")
def model():
    return scenarios.step_model()


def _sweeps(backward, tape, loss) -> list[list[bytes]]:
    """The gradient bytes of every wrt leaf, from two backward sweeps."""
    return [[g.data.tobytes() for g in backward(tape, loss).values()] for _ in range(2)]


def test_train_step_backward_repeats(model):
    params, stack, sched, z0, text = model
    cond = build_conditioning(params, z0, text)
    with fx.Tape(stack.parameters().values()) as tape:
        loss, _ = diffusion_loss(z0, cond, params, stack, sched, np.random.default_rng(0))
    first, second = _sweeps(fx.backward, tape, loss)
    assert first == second
    assert any(np.any(np.frombuffer(g, dtype=np.float32)) for g in first)


def test_adapt_step_backward_repeats(model, monkeypatch):
    params, stack, sched, z0, text = model
    seen = []
    backward = fx.backward

    def twice(tape, loss):
        copies = len(tape.nodes) - len({id(n.vjp) for n in tape.nodes})
        seen.append((len(tape.nodes), copies, _sweeps(backward, tape, loss)))
        return backward(tape, loss)

    monkeypatch.setattr(fx, "backward", twice)
    adapt(z0, build_conditioning(params, z0, text),
          scenarios.adapt_config(1), params, stack, sched)
    [(n_nodes, copies, (first, second))] = seen
    assert n_nodes == 117 and first == second
    assert np.any(np.frombuffer(first[0], dtype=np.float32))
    # the trunks of the 7 sampler steps after the first are replayed, and each
    # copy shares its original's vjp: 2 nodes a trunk (patch_embed and block 0's
    # self-attention block)
    assert copies == 7 * 2
