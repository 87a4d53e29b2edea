"""A small gen -> train -> adapt -> generate chain writes the same bytes whatever
the BLAS thread count.

The chain runs twice, each time in a fresh interpreter, once with
OPENBLAS_NUM_THREADS=1 and once with 2, and every artifact must have the same
sha256 in both runs. `CHAIN` is a standalone script (`python -c CHAIN DIR`), so
the same digests can be taken from two checkouts by putting each one's `src`
on PYTHONPATH; `python tests/test_golden_chain.py OTHER_SRC` does that for this
tree's `src` and OTHER_SRC at one BLAS thread, prints both digest sets and exits
1 naming every artifact that differs. For a differing `.fvl1` artifact it also
names the entries only one side holds and the shared entries whose bytes differ,
each with its largest absolute and relative difference from the other side's
values (or both dtypes and shapes, where those differ).
"""

import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ARTIFACTS = ("data/dataset.fvl1", "refs/dataset.fvl1", "train/checkpoint.fvl1",
             "train/metrics.csv", "adapt/adapted.fvl1", "adapt/trace.csv",
             "generate/sample.fvl1", "generate/spectral.csv")

# gen (8+8 videos seed 2, 4 references seed 3) -> 20-step train -> 5-step adapt
# in the criterion-7 unroll setting -> 30-step cfg-7.5 generate with the
# adapted embedding at seed 7; prints {stage dir/artifact: sha256} as JSON
CHAIN = r'''
import contextlib, hashlib, io, json, os, sys
from freqvfx.cli import main

root = sys.argv[1]


def path(*parts):
    return os.path.join(root, *parts)


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"freqvfx {argv[0]} exited with code {code}")


config = path("chain.json")
with open(config, "w") as f:
    json.dump({"train": {"steps": 20},
               "adapt": {"steps": 5, "sample_steps": 8, "sample_cfg": 3.0,
                         "n_draws": 4}}, f)
data, refs = path("data", "dataset.fvl1"), path("refs", "dataset.fvl1")
ckpt, adapted = path("train", "checkpoint.fvl1"), path("adapt", "adapted.fvl1")
run("gen", "--out", path("data"), "--classes", "lowfreq_field:8,highfreq_particles:8",
    "--seed", "2")
run("gen", "--out", path("refs"), "--classes", "highfreq_particles:4", "--seed", "3")
run("train", "--input", data, "--config", config, "--out", path("train"))
run("adapt", "--checkpoint", ckpt, "--input", refs, "--config", config,
    "--out", path("adapt"))
run("generate", "--checkpoint", ckpt, "--input", refs, "--embedding", adapted,
    "--seed", "7", "--out", path("generate"))
digests = {}
for stage in ("data", "refs", "train", "adapt", "generate"):
    for name in sorted(os.listdir(path(stage))):
        if not name.endswith(".json"):
            with open(path(stage, name), "rb") as f:
                digests[f"{stage}/{name}"] = hashlib.sha256(f.read()).hexdigest()
print(json.dumps(digests))
'''


def _chain_digests(root, threads: int = 1, src: str = SRC) -> dict[str, str]:
    """{artifact: sha256} of `CHAIN` run in a fresh interpreter on `src` in the new
    directory `root`."""
    os.mkdir(root)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", CHAIN, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"chain on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def test_chain_artifacts_are_identical_across_blas_threads(tmp_path):
    one = _chain_digests(tmp_path / "threads1", 1)
    two = _chain_digests(tmp_path / "threads2", 2)
    assert sorted(one) == sorted(ARTIFACTS)
    assert one == two


def _difference(ours, theirs) -> str:
    """How far an entry of this side is from the other side's: the largest
    absolute difference and the largest difference relative to the other side's
    value (inf where that is 0 and ours is not), or both dtypes and shapes where
    those differ."""
    import numpy as np

    if (ours.dtype, ours.shape) != (theirs.dtype, theirs.shape):
        return f"this {ours.dtype} {ours.shape}, other {theirs.dtype} {theirs.shape}"
    a, b = ours.astype(np.float64), theirs.astype(np.float64)
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(b))
    return f"max abs {diff.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"


def test_difference_reads_largest_absolute_and_relative_moves():
    import numpy as np

    theirs = np.array([[1.0, -2.0], [0.0, 4.0]], dtype=np.float32)
    ours = np.array([[1.0, -2.5], [0.0, 4.0]], dtype=np.float32)
    assert _difference(ours, theirs) == "max abs 0.5, max rel 0.25"
    ours[1, 0] = 1e-3  # a move off a zero is infinitely far, relatively
    assert _difference(ours, theirs) == "max abs 0.5, max rel inf"
    assert _difference(ours[:1], theirs) == "this float32 (1, 2), other float32 (2, 2)"


def _print_entry_diff(this_path: str, other_path: str) -> None:
    """Name the entries only one container holds, and the shared entries whose
    dtype, shape or bytes differ with how far they moved."""
    sys.path.insert(0, SRC)
    from freqvfx.container import read_container_file

    ours, theirs = read_container_file(this_path), read_container_file(other_path)
    changed = [name for name in ours if name in theirs
               and (ours[name].dtype, ours[name].shape, ours[name].tobytes())
               != (theirs[name].dtype, theirs[name].shape, theirs[name].tobytes())]
    print(f"  only this: {', '.join(n for n in ours if n not in theirs) or '-'}")
    print(f"  only other: {', '.join(n for n in theirs if n not in ours) or '-'}")
    print(f"  shared, bytes differ: {'' if changed else '-'}")
    for name in changed:
        print(f"    {name}: {_difference(ours[name], theirs[name])}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/test_golden_chain.py OTHER_SRC", file=sys.stderr)
        return 2
    other = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(src, _chain_digests(os.path.join(tmp, name), src=src))
                for name, src in (("this", SRC), ("other", other))]
        for src, digests in runs:
            print(src)
            for name in sorted(digests):
                print(f"  {digests[name]}  {name}")
        (_, ours), (_, theirs) = runs
        differ = sorted(name for name in set(ours) | set(theirs)
                        if ours.get(name) != theirs.get(name))
        if not differ:
            print(f"all {len(ours)} artifacts identical")
            return 0
        print("differ: " + ", ".join(differ))
        for name in differ:
            if name.endswith(".fvl1") and name in ours and name in theirs:
                print(name)
                _print_entry_diff(os.path.join(tmp, "this", name),
                                  os.path.join(tmp, "other", name))
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
