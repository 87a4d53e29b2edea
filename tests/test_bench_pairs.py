"""The statistics of `tools/bench_pairs.py` on fake runs: quartiles, wins,
the claim rule, the regression bound, the alternating run order, and the merge
into an existing file, which keeps other workloads and seeds and adds pairs to
the same workload and seed."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_claim_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    parent = [90.0, 92.0, 93.0, 94.0, 95.0, 96.0, 97.0, 98.0, 99.0, 100.0]
    change = [p + 8.0 for p in parent]
    s = bench_pairs.compare(parent, change, "higher")
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["parent"]["median"] == 95.5 and s["change"]["median"] == 103.5
    assert s["parent_iqr"] == pytest.approx(97.75 - 93.25)
    assert s["claim_holds"]
    # a gain smaller than the parent's own spread is no claim, whatever the wins
    assert not bench_pairs.compare(parent, [p + 1.0 for p in parent], "higher")["claim_holds"]
    # two losses in ten pairs are too many; a tie counts for neither side
    mixed = change[:8] + [parent[8] - 1.0, parent[9]]
    s = bench_pairs.compare(parent, mixed, "higher")
    assert (s["wins"], s["losses"]) == (8, 1) and not s["claim_holds"]
    # for a metric where lower is better, the signs turn round
    s = bench_pairs.compare([1.0, 1.1, 1.2], [0.5, 0.6, 0.7], "lower")
    assert s["wins"] == 3 and s["claim_holds"] and s["median_ratio"] == pytest.approx(0.6 / 1.1)
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0], [], "higher")


def test_summarize_pairs_runs_by_index():
    runs = [{"pair": i, "side": side, "metrics": {"steps_per_s": v, "setup_s": 1.0}}
            for i, (p, c) in enumerate([(10.0, 12.0), (11.0, 13.0)])
            for side, v in (("parent", p), ("change", c))]
    spec = [{"name": "steps_per_s", "better": "higher", "bound": 0.15},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "absent", "better": "lower", "bound": 0.1}]
    out = bench_pairs.summarize(runs, spec)
    assert sorted(out) == ["setup_s", "steps_per_s"]
    assert out["steps_per_s"]["wins"] == 2 and out["setup_s"]["wins"] == 0
    assert out["steps_per_s"]["within_bound"] and out["setup_s"]["within_bound"]


@pytest.mark.parametrize("better, parent, change, bound, within", [
    ("higher", [100.0, 102.0, 98.0], [86.0, 85.0, 87.0], 0.15, True),   # -14% of 100
    ("higher", [100.0, 102.0, 98.0], [84.0, 85.0, 83.0], 0.15, False),  # -16%
    ("lower", [1.0, 1.1, 0.9], [1.2, 1.25, 1.15], 0.25, True),          # +20%
    ("lower", [1.0, 1.1, 0.9], [1.3, 1.25, 1.35], 0.25, False),         # +30%
    ("lower", [1.0, 1.1, 0.9], [0.1, 0.2, 0.3], 0.05, True),            # a gain
    ("higher", [1.0, 1.0, 1.0], [1.0, 1.0, 0.5], 0.01, True),           # medians tie
])
def test_within_bound_compares_medians_relative_to_the_parent(better, parent, change, bound,
                                                               within):
    """A regression beyond the bound is flagged whatever the wins; a gain, or a
    loss within the bound, is not."""
    stats = bench_pairs.compare(parent, change, better)
    assert bench_pairs.within_bound(stats, bound) is within


def _fake_runs(calls: list):
    """A `run_once` stand-in that notes (workload, side) in `calls` and reports
    the change twice as fast as the parent."""
    def fake_run(root, workload, seed, seconds):
        side = "change" if root == bench_pairs.ROOT else "parent"
        calls.append((workload, side))
        value = 2.0 if side == "change" else 1.0
        metrics = {"steps_per_s": {"value": value + len(calls) * 1e-3, "unit": "1/s"}}
        return {"fingerprint": {"nproc": 2, "seed": seed}, "metrics": metrics, "problems": [],
                **{k: [1.0] for k in bench_pairs._RAW}}

    return fake_run


def test_main_alternates_and_merges(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_runs(calls))
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload", "train-desk",
                             "--pairs", "3", "--out", str(out), "--parent-rev", "abc"]) == 0
    assert [side for _, side in calls] == ["parent", "change", "change", "parent", "parent",
                                           "change"]
    doc = json.loads(out.read_text())
    assert doc["workloads"]["other"] == {"kept": True}
    entry = doc["workloads"]["train-desk"]["seed1"]
    assert entry["revisions"]["parent"] == "abc"
    assert len(entry["runs"]) == 6 and entry["fingerprint"]["parent"]["nproc"] == 2
    assert entry["runs"][0]["raw_call_seconds"] == [1.0]
    summary = entry["summary"]["steps_per_s"]
    assert summary["wins"] == 3 and summary["claim_holds"] and summary["within_bound"]
    # a second invocation adds pairs 3 and 4 and counts all five
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload", "train-desk",
                             "--pairs", "2", "--out", str(out), "--parent-rev", "abc"]) == 0
    entry = json.loads(out.read_text())["workloads"]["train-desk"]["seed1"]
    assert [r["pair"] for r in entry["runs"]] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert entry["pairs"] == 5 and entry["summary"]["steps_per_s"]["pairs"] == 5
    # but not pairs of another parent, before any run
    calls.clear()
    with pytest.raises(SystemExit, match="holds train-desk seed 1 runs of"):
        bench_pairs.main(["--parent", str(tmp_path), "--workload", "train-desk",
                          "--pairs", "1", "--out", str(out), "--parent-rev", "def"])
    assert calls == []


def test_main_runs_a_list_of_workloads_into_one_file(tmp_path, monkeypatch):
    """A comma-separated `--workload` runs each workload's pairs in turn, in the
    order given, into one file; a confirming run at another seed goes into the
    same file beside the first seed's entries, each with its own statistics."""
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_runs(calls))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload",
                             "adapt-unroll,train-desk,generate-cfg", "--pairs", "2",
                             "--out", str(out), "--parent-rev", "abc"]) == 0
    assert calls == [(w, side) for w in ("adapt-unroll", "train-desk", "generate-cfg")
                     for side in ("parent", "change", "change", "parent")]
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["adapt-unroll", "generate-cfg", "train-desk"]
    for entries in doc["workloads"].values():
        assert list(entries) == ["seed1"]
        assert entries["seed1"]["pairs"] == 2 and entries["seed1"]["seed"] == 1
        assert entries["seed1"]["summary"]["steps_per_s"]["wins"] == 2
    calls.clear()
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload", "adapt-unroll",
                             "--pairs", "3", "--out", str(out), "--seed", "7",
                             "--parent-rev", "def"]) == 0
    assert calls == [("adapt-unroll", side) for side in ("parent", "change", "change",
                                                          "parent", "parent", "change")]
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]["adapt-unroll"]) == ["seed1", "seed7"]
    seed1, seed7 = (doc["workloads"]["adapt-unroll"][k] for k in ("seed1", "seed7"))
    assert seed1["pairs"] == 2 and [r["pair"] for r in seed7["runs"]] == [0, 0, 1, 1, 2, 2]
    assert seed7["seed"] == 7 and seed7["fingerprint"]["change"]["seed"] == 7
    assert (seed1["revisions"]["parent"], seed7["revisions"]["parent"]) == ("abc", "def")
    assert seed7["summary"]["steps_per_s"]["pairs"] == 3
