"""Every entry of every artifact table in `container.SCHEMA`, spoilt one way, is
refused by every CLI stage that reads that kind of artifact: the stage exits 1
naming the entry and writes nothing.

A kind, one of its entries (for a checkpoint, also any backbone or stack entry
that `restore_state` reads) and one defect are drawn with hypothesis: the entry
missing, a NaN in it, the other stored float where the table fixes the dtype,
one more axis, or an axis of size 0. The table is read at run time, so a row
added to it is covered here without an edit. The runs are derandomized and
bounded, so they repeat exactly and stay fast.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqvfx import container as ct
from freqvfx.cli import main

CFG = {
    "model": {"latent_shape": [2, 2, 4, 4], "width": 16, "num_steps": 10},
    "train": {"steps": 2, "batch_size": 2},
    "adapt": {"steps": 1, "sample_steps": 2, "embed_tokens": 4},
    "sample": {"steps": 2},
}

# the stages that read each kind: {kind: [(stage, its other arguments)]}, where
# {name} is an artifact of `artifacts` and the spoilt one takes its kind's flag
READERS = {
    "dataset": [("train", ("--config", "{cfg}"))],
    "videos": [("analyze", ()),
               ("adapt", ("--checkpoint", "{checkpoint}", "--config", "{cfg}")),
               ("generate", ("--checkpoint", "{checkpoint}", "--config", "{cfg}"))],
    "checkpoint": [(stage, ("--input", "{dataset}", "--config", "{cfg}"))
                   for stage in ("adapt", "generate")],
    "embedding": [("generate", ("--checkpoint", "{checkpoint}", "--input", "{dataset}",
                                "--config", "{cfg}"))],
    "trajectory": [("report", ())],
}
FLAG = {"dataset": "--input", "videos": "--input", "checkpoint": "--checkpoint",
        "embedding": "--embedding", "trajectory": "--input"}
# the artifact of each kind that the chain below writes
SOURCE = {"dataset": "dataset", "videos": "dataset", "checkpoint": "checkpoint",
          "embedding": "embedding", "trajectory": "sample"}

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None)


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """{name: path} of a gen -> train -> adapt -> generate chain on a tiny model."""
    root = tmp_path_factory.mktemp("chain")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    paths = {"cfg": str(cfg), "dataset": str(root / "data" / "dataset.fvl1"),
             "checkpoint": str(root / "train" / "checkpoint.fvl1"),
             "embedding": str(root / "adapt" / "adapted.fvl1"),
             "sample": str(root / "generate" / "sample.fvl1")}
    for argv in (("gen", "--out", root / "data", "--classes",
                  "lowfreq_field:2,highfreq_particles:2"),
                 ("train", "--input", paths["dataset"], "--out", root / "train"),
                 ("adapt", "--checkpoint", paths["checkpoint"], "--input", paths["dataset"],
                  "--out", root / "adapt"),
                 ("generate", "--checkpoint", paths["checkpoint"], "--input", paths["dataset"],
                  "--out", root / "generate")):
        code, err = run(*map(str, argv), "--config", paths["cfg"])
        assert code == 0, err
    return paths


def test_every_kind_with_a_reader_is_drawn():
    """Only two written kinds have no reader of their own: the sample, whose
    trajectory rows are `report`'s input, and an adapted checkpoint, which is
    read as a checkpoint and as an embedding."""
    assert set(READERS) == set(ct.SCHEMA) - {"sample", "adapted"}
    assert set(ct.SCHEMA["trajectory"]) <= set(ct.SCHEMA["sample"])
    assert ct.SCHEMA["adapted"] == {**ct.SCHEMA["checkpoint"], **ct.SCHEMA["embedding"]}


def entry_names(kind: str, entries: dict) -> list[str]:
    """The table rows of `kind` with each `*` row as its stored entries, and for a
    checkpoint every other entry but the embedding, which `restore_state` reads."""
    names = []
    for row in ct.SCHEMA[kind]:
        names += [n for n in entries if n.startswith(row[:-1])] if row.endswith("*") else [row]
    if kind == "checkpoint":
        names += [n for n in entries if n not in names and n != "vfx_embedding.tokens"]
    return names


def spoil(kind: str, entries: dict, data) -> tuple[dict, str]:
    """`entries` with one entry made bad, and the name the refusal must give."""
    name = data.draw(st.sampled_from(entry_names(kind, entries)), label="entry")
    row = next((r for r in ct.SCHEMA[kind] if r == name or r.endswith("*")
                and name.startswith(r[:-1])), None)
    dtype = ct.SCHEMA[kind][row][0] if row else np.float32
    defects = ["missing", "nan", "rank", "empty"] + (["dtype"] if dtype else [])
    defect = data.draw(st.sampled_from(defects), label="defect")
    arr = entries[name]
    if defect == "missing":
        if row and row.endswith("*"):  # a class's entry may be absent; none at all may not
            return ({n: a for n, a in entries.items() if not n.startswith(row[:-1])},
                    row[:-1] + "<class>")
        return {n: a for n, a in entries.items() if n != name}, name
    if defect == "nan":
        arr = arr.copy()
        arr.flat[data.draw(st.integers(0, arr.size - 1), label="at")] = np.nan
    elif defect == "rank":
        arr = arr[None]
    elif defect == "empty":
        arr = np.take(arr, [], axis=data.draw(st.integers(0, arr.ndim - 1), label="axis"))
    else:
        arr = arr.astype(np.float64 if np.dtype(dtype) == np.float32 else np.float32)
    return {**entries, name: arr}, name


@FUZZ
@given(st.data())
def test_spoilt_entry_is_refused_by_every_reader(artifacts, data):
    kind = data.draw(st.sampled_from(sorted(READERS)), label="kind")
    source = artifacts[SOURCE[kind]]
    entries, named = spoil(kind, ct.read_container_file(source), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, os.path.basename(source))
        ct.write_container_file(path, entries)
        if kind == "checkpoint":
            shutil.copy(ct.manifest_path_for(source), ct.manifest_path_for(path))
        for stage, rest in READERS[kind]:
            out = os.path.join(tmp, "out_" + stage)
            code, err = run(stage, FLAG[kind], path, *(a.format(**artifacts) for a in rest),
                            "--out", out)
            assert code == 1, (stage, err)
            assert repr(named) in err and "Traceback" not in err, (stage, err)
            assert not os.path.exists(out) or not os.listdir(out), stage
