"""The tape keeps only what `backward` reads.

A node refers to tensors by key and holds no Tensor and no array; each vjp
keeps only the arrays that its live inputs' gradients read. So an array that
no vjp reads is freed as soon as its caller drops it, even while the tape that
recorded its op is still active, and a recorded adapt step in the
acceptance-criterion-7 setting (8-step unroll, cfg 3, 4 draws) keeps well
under the 51 MB that a tape holding every node's inputs and output did.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import freqvfx.tensor as fx
from freqvfx.adapt import adapt
from freqvfx.config import AdaptConfig, ModelConfig
from freqvfx.denoiser import build_conditioning, build_model
from freqvfx.schedule import NoiseSchedule
from freqvfx.synthgen import build_dataset, read_dataset

ADAPT_TAPE_MB = 25.0


class _Stop(Exception):
    """Ends the adapt step once its tape has been measured."""


def _flat(x):
    """The leaves of nested tuples and lists."""
    return [v for item in x for v in _flat(item)] if isinstance(x, (tuple, list)) else [x]


def test_output_no_vjp_reads_is_freed_while_the_tape_is_active():
    x = fx.tensor(np.ones((64, 64)))
    with fx.Tape([x]) as tape:
        y = x + 1.0
        freed = weakref.ref(y.data)
        loss = fx.reduce_sum(y)  # the sum's vjp reads only y's shape
        del y
        assert freed() is None
        kept = fx.square(loss)
        read = weakref.ref(loss.data)  # the square's vjp reads its input
        del loss
        assert read() is not None
    assert [n.op for n in tape.nodes] == ["add", "sum", "square"]
    np.testing.assert_array_equal(fx.backward(tape, kept)[x].data,
                                  np.full((64, 64), 2.0 * 64 * 64 * 2.0))


@pytest.mark.parametrize("op", [fx.add, fx.sub, fx.mul, fx.div, fx.matmul, fx.linear])
def test_one_live_operand_gets_the_gradient_of_both_live(op):
    """Each vjp keeps the arrays its live inputs' gradients read: with one
    operand live it still gives that operand the bytes it gets with both live."""
    rng = np.random.default_rng(3)
    second = (4, 4) if op in (fx.matmul, fx.linear) else (1, 4)  # a broadcast operand
    arrays = [rng.normal(size=(3, 4)) + 2.0, rng.normal(size=second) + 2.0]
    both = [fx.tensor(a) for a in arrays]
    with fx.Tape(both) as tape:
        loss = fx.reduce_sum(fx.square(op(*both)))
    want = [fx.backward(tape, loss)[t].data.tobytes() for t in both]
    for i in range(2):
        one = [fx.tensor(a) for a in arrays]
        with fx.Tape([one[i]]) as tape:
            loss = fx.reduce_sum(fx.square(op(*one)))
        assert tape.nodes[0].live == (i == 0, i == 1)
        assert fx.backward(tape, loss)[one[i]].data.tobytes() == want[i]


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
    assert n_nodes == 534
    # a node holds its op, keys, shapes, live mask and vjp: no Tensor, no array
    assert not in_fields
    # and a vjp keeps arrays, never a Tensor (which would keep its key's array)
    assert not in_cells
    assert 0 < tape_mb <= ADAPT_TAPE_MB, f"adapt step tape holds {tape_mb:.1f} MB"
