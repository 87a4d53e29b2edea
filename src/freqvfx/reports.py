"""CSV report emitters for descriptor trajectories and training traces."""

from __future__ import annotations

import io
import os

import numpy as np

from .container import atomic_write_bytes
from .errors import ParameterError, ShapeError

SPECTRAL_HEADER = "t,e_app_0,e_app_1,e_app_2,e_vfx_0,e_vfx_1,e_vfx_2"


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def emit_spectral_report(trajectory, timesteps) -> str:
    """CSV of joint descriptors over sampling steps, 6 significant digits.

    `trajectory` is (steps, 6) or (steps, B, 6); batched input is averaged
    over the batch axis. `timesteps` labels the rows, one per step.
    """
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.size == 0:
        raise ParameterError("descriptor trajectory is empty")
    if traj.ndim == 3:
        traj = traj.mean(axis=1)
    if traj.ndim != 2 or traj.shape[1] != 6:
        raise ShapeError(f"trajectory must be (steps, 6) or (steps, B, 6), got {np.asarray(trajectory).shape}")
    ts = [int(t) for t in np.asarray(timesteps).ravel()]
    if len(ts) != traj.shape[0]:
        raise ShapeError(f"{len(ts)} timesteps for {traj.shape[0]} trajectory rows")
    buf = io.StringIO()
    buf.write(SPECTRAL_HEADER + "\n")
    for t, row in zip(ts, traj):
        buf.write(",".join([str(t)] + [_fmt(v) for v in row]) + "\n")
    return buf.getvalue()


def train_metrics_csv(metrics) -> str:
    """Stage-1 trace: step,loss,pi_mean_0..pi_mean_{M-1},class_id."""
    if not metrics:
        raise ParameterError("no training metrics to report")
    m = len(metrics[0].pi_mean)
    buf = io.StringIO()
    cols = ["step", "loss"] + [f"pi_mean_{i}" for i in range(m)] + ["class_id"]
    buf.write(",".join(cols) + "\n")
    for row in metrics:
        if len(row.pi_mean) != m:
            raise ShapeError("inconsistent routing width across metric rows")
        cells = [str(row.step), _fmt(row.loss)]
        cells += [_fmt(v) for v in row.pi_mean]
        cells.append(str(row.class_id))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def adapt_trace_csv(trace) -> str:
    """Stage-2 trace: step,t,loss."""
    if not trace:
        raise ParameterError("no adaptation steps to report")
    buf = io.StringIO()
    buf.write("step,t,loss\n")
    for row in trace:
        buf.write(f"{row.step},{row.t},{_fmt(row.loss)}\n")
    return buf.getvalue()


def write_text(path, text: str) -> None:
    atomic_write_bytes(os.fspath(path), text.encode("utf-8"))
