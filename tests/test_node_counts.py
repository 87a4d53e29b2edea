"""Exact tape node counts on a fresh default build: a machine-independent cost gate.

At these sizes Python dispatch per tape node sets the cost, and a node count is
the same on every machine and BLAS. A change that lowers a count updates the
number here and says so in CHANGES.md; none may raise one silently.
"""

import collections

import numpy as np
import pytest

import freqvfx.denoiser
import freqvfx.tensor as fx
from freqvfx.adapt import adapt
from freqvfx.config import AdaptConfig
from freqvfx.denoiser import build_adapter_stack, build_conditioning, build_denoiser, denoise_step
from freqvfx.moe import route
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule
from freqvfx.spectral import joint_descriptor_detached
from freqvfx.synthgen import HIGHFREQ_PARTICLES, LOWFREQ_FIELD, build_dataset
from freqvfx.train import diffusion_loss


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    params = build_denoiser(rng)
    stack = build_adapter_stack(rng, params)
    ds = build_dataset(((LOWFREQ_FIELD, 2), (HIGHFREQ_PARTICLES, 2)), seed=1)
    z0 = np.stack([s.video for s in ds.samples])
    text = np.stack([s.text_tokens for s in ds.samples])
    return params, stack, NoiseSchedule.cosine(params.num_steps), z0, text


def test_train_step_nodes(model):
    params, stack, sched, z0, text = model
    cond = build_conditioning(params, z0, text)
    with fx.Tape(stack.parameters().values()) as tape:
        diffusion_loss(z0, cond, params, stack, sched, np.random.default_rng(0))
    ops = collections.Counter(node.op for node in tape.nodes)
    assert len(tape.nodes) == 73
    # every adapted projection is one lora node and every attention core one
    # attention node; an unfused one would show up as linear, matmul or mul nodes
    assert (ops["lora"], ops["attention"], ops["linear"], ops["matmul"], ops["transpose"],
            ops["concat"], ops["mul"]) == (16, 4, 3, 16, 1, 0, 1)


def test_adapt_step_nodes(model, monkeypatch):
    """One step in the acceptance-criterion-7 setting: 8-step unroll, cfg 3, 4 draws."""
    params, stack, sched, z0, text = model
    seen = []
    backward = fx.backward

    def counting_backward(tape, loss):
        seen.append(len(tape.nodes))
        return backward(tape, loss)

    monkeypatch.setattr(fx, "backward", counting_backward)
    adapt(z0, build_conditioning(params, z0, text),
          AdaptConfig(steps=1, sample_cfg=3.0, n_draws=4), params, stack, sched)
    assert seen == [775]


def test_denoise_step_nodes(model):
    """A step at B=1 under a tape of the stack's leaves, routed inside it as the
    sampler routes, with the conditioning built from a stored (n_text, width) text
    table inside it, as `generate` builds it."""
    params, stack, _, z0, text = model
    with fx.Tape(stack.parameters().values()) as tape:
        cond = build_conditioning(params, z0[:1], text[0])
        pi = route(joint_descriptor_detached(z0[:1]), stack.router, stack.top_k)
        denoise_step(z0[:1], 500, cond, params, stack, pi=pi)
    assert len(tape.nodes) == 70


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
