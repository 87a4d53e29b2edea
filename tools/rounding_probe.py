"""Criterion 7's smoothed L_f drop under three arithmetics of the sampler step
that agree in exact arithmetic and differ only in rounding.

    PYTHONPATH=src python3 tools/rounding_probe.py

It builds criterion 7's setting from `tests/scenarios.py`: criterion 6's
desk run in a temporary directory, then, once per arithmetic, the warm-up and
the 100-step `adapt`, each sampling with that arithmetic. It prints the drop
1 - last / first of the 50-step smoothed losses:

- `today`: `freqvfx.sampling.ddim_update` as it stands, so the line reads the
  drop criterion 7 reads on the same tree;
- `combine`: the guidance combine written (1 - w) eps_u + w eps_c;
- `update`: the DDIM update written r (z + (c / r) eps_hat).

Each variant is a replacement for `ddim_update` written with the generic tape
ops of `tests/oracles.py`, with the one expression swapped, and the run
patches it in at `freqvfx.sampling.ddim_update`, where `sample` looks it up;
everything else is the package's sampler. A run takes a few minutes on one
core.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

import freqvfx.sampling

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402
import scenarios  # noqa: E402


def _coefficients(schedule, t, t_next):
    """The update's r = a_n / a_t and c = s_n - r s_t, as `ddim_update` forms them."""
    ratio = schedule.alphas[t_next] / schedule.alphas[t]
    return ratio, schedule.sigmas[t_next] - ratio * schedule.sigmas[t]


def combine_variant(z, eps_c, eps_u, cfg_scale, schedule, t, t_next):
    """`ddim_update` for a guided step with the combine written (1 - w) eps_u + w eps_c."""
    eps_hat = oracles.add(oracles.mul(float(1.0 - cfg_scale), eps_u),
                          oracles.mul(float(cfg_scale), eps_c))
    ratio, c = _coefficients(schedule, t, t_next)
    return oracles.add(oracles.mul(float(ratio), z), oracles.mul(float(c), eps_hat))


def update_variant(z, eps_c, eps_u, cfg_scale, schedule, t, t_next):
    """`ddim_update` for a guided step with the update written r (z + (c / r) eps_hat)."""
    eps_hat = oracles.add(eps_u, oracles.mul(cfg_scale, oracles.sub(eps_c, eps_u)))
    ratio, c = _coefficients(schedule, t, t_next)
    return oracles.mul(float(ratio), oracles.add(z, oracles.mul(float(c / ratio), eps_hat)))


ARITHMETICS = {
    "today": freqvfx.sampling.ddim_update,
    "combine": combine_variant,
    "update": update_variant,
}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="rounding_probe-") as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        params, stack, sched, _ = scenarios.stage1_model(Path(tmp))
    refs, cond, target = scenarios.stage2_setting(params)
    real = freqvfx.sampling.ddim_update
    for name, update in ARITHMETICS.items():
        freqvfx.sampling.ddim_update = update  # `sample`, and so `adapt`, look it up here
        try:
            emb, _, _ = scenarios.warm_up(params, stack, sched, cond, target)
            first, last = scenarios.adapt_drop(params, stack, sched, refs, cond, emb)
        finally:
            freqvfx.sampling.ddim_update = real
        print(f"{name:8s} drop {1.0 - last / first:6.1%}  smoothed L_f {first:.4f} -> {last:.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
