"""Exact tape node counts on a fresh default build: a machine-independent cost gate.

At these sizes Python dispatch per tape node sets the cost, and a node count is
the same on every machine and BLAS. A change that lowers a count updates the
number here and says so in CHANGES.md; none may raise one silently.

The same two tapes, a train step's and an adapt step's, hold every op that
`src/freqvfx` records: an op neither records is one no production path needs.
`selfcheck`'s private `probe` node, the scalar its gradient checks
differentiate, is the one exception.
"""

import ast
import collections
from pathlib import Path

import numpy as np
import pytest

import freqvfx.denoiser
import freqvfx.tensor as fx
from freqvfx.adapt import adapt, freq_constraint_loss
from freqvfx.denoiser import build_conditioning, denoise_step
from freqvfx.moe import route
from freqvfx.sampling import sample
from freqvfx.spectral import joint_descriptor_detached
from freqvfx.train import diffusion_loss

import scenarios

PACKAGE = Path(freqvfx.denoiser.__file__).resolve().parent


@pytest.fixture(scope="module")
def model():
    return scenarios.step_model()


@pytest.fixture(scope="module")
def step_ops(model):
    """The ops of the nodes of one train step and of one adapt step in the
    acceptance-criterion-7 setting (8-step unroll, cfg 3, 4 draws), in order."""
    params, stack, sched, z0, text = model
    with fx.Tape(stack.parameters().values()) as tape:
        diffusion_loss(z0, build_conditioning(params, z0, text), params, stack, sched,
                       np.random.default_rng(0))
    seen = []
    backward = fx.backward

    def listing_backward(tape, loss):
        seen.append([node.op for node in tape.nodes])
        return backward(tape, loss)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fx, "backward", listing_backward)
        adapt(z0, build_conditioning(params, z0, text),
              scenarios.adapt_config(1), params, stack, sched)
    (adapt_ops,) = seen
    return [node.op for node in tape.nodes], adapt_ops


def test_train_step_nodes(step_ops):
    ops = collections.Counter(step_ops[0])
    assert len(step_ops[0]) == 7
    # every attention block, its four adapted projections, routing gate, core
    # and residual add included, is one attn_block node, the router one router
    # node, the output projection with unpatchify one unembed node and the loss
    # one mse node; an unfused one would show up as add, linear, matmul,
    # transpose, reshape, softmax, sub, square, mean or mul nodes. The
    # latent is constant, so the embedding records nothing
    assert (ops["attn_block"], ops["router"], ops["unembed"], ops["mse"],
            ops["patch_embed"]) == (4, 1, 1, 1, 0)


def test_adapt_step_nodes(step_ops):
    # each of the 8 sampler steps records its guidance combine and DDIM update as
    # one ddim node and its conditional head's vfx context as one context node;
    # each of the 4 draws noises the sample in one noise node and reads it through
    # one descriptor and one freq_loss node, and one draw_mean node averages them
    assert collections.Counter(step_ops[1]) == {
        "attn_block": 59, "unembed": 15, "patch_embed": 14, "context": 8, "ddim": 8,
        "noise": 4, "descriptor": 4, "freq_loss": 4, "draw_mean": 1}
    assert len(step_ops[1]) == 117


def recorded_ops(tree: ast.Module) -> set[str]:
    """The op names a module passes to `record` as string literals, called by
    its name or as an attribute (`fx.record`)."""
    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    return {call.args[0].value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and name(call.func) == "record" and call.args
            and isinstance(call.args[0], ast.Constant)}


def test_every_op_the_package_records_is_on_a_step_tape(step_ops):
    ops = set()
    for path in sorted(PACKAGE.glob("*.py")):
        ops |= recorded_ops(ast.parse(path.read_text(encoding="utf-8")))
    assert ops - {"probe"} == {"attn_block", "router", "unembed", "mse", "patch_embed",
                               "context", "ddim", "noise", "descriptor", "freq_loss",
                               "draw_mean"}
    missing = ops - {"probe"} - set(step_ops[0]) - set(step_ops[1])
    assert not missing, f"ops no train or adapt step records: {sorted(missing)}"


def test_recorded_ops_reads_names_and_attributes():
    tree = ast.parse("from . import tensor as fx\nfrom .tensor import record\n"
                     "fx.record('a', (x,), y, vjp)\nrecord('b', (x,), y, vjp)\n"
                     "record(op)\n")
    assert recorded_ops(tree) == {"a", "b"}


def test_denoise_step_nodes(model):
    """A step at B=1 under a tape of the stack's leaves, routed inside it as the
    sampler routes, with the conditioning built from a stored (n_text, width) text
    table inside it, as `generate` builds it."""
    params, stack, _, z0, text = model
    with fx.Tape(stack.parameters().values()) as tape:
        cond = build_conditioning(params, z0[:1], text[0])
        pi = route(joint_descriptor_detached(z0[:1]), stack.router, stack.top_k)
        denoise_step(z0[:1], 500, cond, params, stack, pi=pi)
    assert len(tape.nodes) == 6


def test_freq_constraint_loss_nodes(model):
    """One draw on a live float32 latent: its descriptor, then the loss. The
    reference's descriptor reads a constant and records nothing."""
    _, _, _, z0, _ = model
    z = fx.tensor(z0)
    with fx.Tape([z]) as tape:
        freq_constraint_loss(z, z0[::-1].copy())
    assert [node.op for node in tape.nodes] == ["descriptor", "freq_loss"]


@pytest.mark.parametrize("cfg_scale, per_step", [(7.5, 24), (1.0, 16)])
def test_moe_forward_calls_per_sampler_step(model, monkeypatch, cfg_scale, per_step):
    """A guided step runs block 0's self-attention once for both branches, and the
    unconditional cross-attention into the one null token projects only v and o."""
    params, stack, sched, z0, text = model
    calls = []
    real = freqvfx.denoiser.moe_forward

    def counting_moe_forward(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(freqvfx.denoiser, "moe_forward", counting_moe_forward)
    sample(params, stack, sched, build_conditioning(params, z0[:1], text[0]), steps=3,
           cfg_scale=cfg_scale, seed=0)
    assert len(calls) == 3 * per_step
