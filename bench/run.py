"""Run one freqvfx benchmark workload and print its metrics.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

Run it from the repository root: the program is imported from ``src/`` beside
this directory, never from an installed copy. With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it installs span wrappers
around each layer (see spans.py) and reports per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give the machine fingerprint
and each metric with its unit. Results and spans are also written to
``.bench_work/results/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5


def limit_blas_threads() -> int:
    """Cap BLAS threads before numpy loads: OPENBLAS_NUM_THREADS if set, else 1, at most nproc.

    One thread is the default because at these matrix sizes a second thread
    adds contention on a shared machine and no speed.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(int(os.environ.get("OPENBLAS_NUM_THREADS", "1")), nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import freqvfx from this checkout's src/; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "freqvfx", "__init__.py")):
        print(f"error: no freqvfx sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import freqvfx
    if os.path.dirname(os.path.dirname(os.path.abspath(freqvfx.__file__))) != SRC:
        print(f"error: freqvfx was imported from {freqvfx.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    return harness.run(workload, args.seconds, bool(args.trace), WORK, SETUP_REPEATS, threads)


if __name__ == "__main__":
    sys.exit(main())
