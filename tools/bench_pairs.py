"""Alternating before/after runs of benchmark workloads, with the statistics
that decide a performance claim.

    python3 tools/bench_pairs.py --parent DIR --workload adapt-unroll,train-desk --pairs 10 \
        --out BENCH_19.json
    python3 tools/bench_pairs.py --parent DIR --workload adapt-unroll --pairs 5 --seed 7 \
        --out BENCH_19.json

`--workload` takes one workload or a comma-separated list, whose pairs run one
workload after another into the one output file, which is written after each.
DIR is a checkout of the commit to compare against (a `git worktree`, or a
`git archive` of it unpacked). Pair i runs `bench/run.py --trace 0` once in
DIR and once in this tree, the parent first in even pairs and this tree first
in odd ones, one run at a time. After each run the tool reads the run's
`.bench_work/results/<workload>-seed<n>-trace0.json` before the next run in
that checkout overwrites it, and keeps its metrics, its raw and scaled call
and set-up seconds, its fingerprint, and what the run's process cost: its
minor page faults and user and system seconds, `getrusage(RUSAGE_CHILDREN)`
deltas around the run.

The output holds one entry per workload and seed, at
`["workloads"][<workload>]["seed<n>"]`: the two revisions compared, every
run's metrics, each side's median resource use (recorded, never claimed on),
and for each end-to-end metric of `BENCHMARK.json` each side's median and
quartiles, the number of pairs the change wins (ties count for
neither side) and whether a gain may be claimed: the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range; and whether the change stays within the
metric's `bound`: its median is not worse than the parent's by more than
`bound` times the parent's median. An existing
output file keeps its other entries, so one file collects the pairs at one seed
and a confirming run at another; the runs it already holds for this workload
and seed stay (they must compare the same revisions), the new pairs are
numbered after them, and the statistics cover all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the per-call and per-set-up times of a results file, before and after scaling
_RAW = ("raw_call_seconds", "call_scale", "raw_setup_seconds", "setup_scale")
# what a run's process cost, from `getrusage` deltas; recorded, never claimed on
RESOURCES = ("minor_faults", "user_s", "sys_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The claim statistics of one metric over pairs (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    return {
        "better": better,
        "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
        "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
        "median_ratio": cq[1] / pq[1] if pq[1] else None,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "parent_iqr": pq[2] - pq[0],
        "claim_holds": wins >= 0.9 * len(parent) and gain > pq[2] - pq[0],
    }


def within_bound(stats: dict, bound: float) -> bool:
    """Whether the change's median in `compare`'s `stats` is worse than the
    parent's by no more than `bound` times the parent's median."""
    sign = 1.0 if stats["better"] == "higher" else -1.0
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    return sign * (change - parent) >= -bound * abs(parent)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric `compare` over the runs of both sides, paired by `pair`, with
    `within_bound` of the metric's bound."""
    by_side = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side}
               for side in ("parent", "change")}
    pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        vals = [(by_side["parent"][i].get(name), by_side["change"][i].get(name)) for i in pairs]
        if pairs and all(p is not None and c is not None for p, c in vals):
            out[name] = compare([p for p, _ in vals], [c for _, c in vals], spec["better"])
            out[name]["within_bound"] = within_bound(out[name], spec["bound"])
    return out


def resource_medians(runs: list[dict]) -> dict:
    """Each side's median of each of `RESOURCES` over the runs that record it."""
    out = {}
    for side in ("parent", "change"):
        used = [r["resources"] for r in runs if r["side"] == side and "resources" in r]
        if used:
            out[side] = {k: statistics.median(u[k] for u in used) for k in RESOURCES}
    return out


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced `bench/run.py` run in checkout `root`: its results file, with
    `resources`, the run process's own `RESOURCES`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {root} exited {proc.returncode}:\n{proc.stderr}")
    path = os.path.join(root, ".bench_work", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as f:
        result = json.load(f)
    result["resources"] = {"minor_faults": after.ru_minflt - before.ru_minflt,
                           "user_s": after.ru_utime - before.ru_utime,
                           "sys_s": after.ru_stime - before.ru_stime}
    return result


def run_pairs(doc: dict, workload: str, pairs: int, seed: int, sides: dict[str, str],
              revisions: dict, bench: dict) -> dict:
    """Run `pairs` more alternating pairs of `workload` at `seed` and set its
    entry for that seed in `doc` to all of those runs with their summary and
    the `revisions` they compare; return the entry."""
    entries = doc["workloads"].setdefault(workload, {})
    earlier = entries.get(f"seed{seed}", {})
    runs, fingerprints = earlier.get("runs", []), earlier.get("fingerprint", {})
    first_pair = 1 + max((r["pair"] for r in runs), default=-1)
    for i in range(first_pair, first_pair + pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, seed, bench["run_seconds"])
            fingerprints.setdefault(side, result["fingerprint"])
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"pair": i, "side": side, "first": side == order[0],
                         "metrics": metrics, "resources": result["resources"],
                         "problems": result["problems"], **{k: result[k] for k in _RAW}})
            print(f"{workload} seed {seed} pair {i} {side}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in metrics.items() if v is not None), flush=True)
    entries[f"seed{seed}"] = entry = {
        "seed": seed, "revisions": revisions, "run_seconds": bench["run_seconds"],
        "pairs": len(runs) // 2, "fingerprint": fingerprints,
        "summary": summarize(runs, bench["end_to_end"]),
        "resources": resource_medians(runs), "runs": runs}
    return entry


def _revision(root: str) -> str | None:
    """HEAD of the git checkout `root`, with "+changes" when a tracked file of the
    program (under src/, bench/ or tools/) differs from it, so an edited document
    leaves the bare commit; None outside git."""
    def git(*cmd):
        return subprocess.run(["git", "-C", root, *cmd], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                "src", "bench", "tools").stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the commit to compare against")
    p.add_argument("--workload", required=True, help="a workload or a comma-separated list")
    p.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    p.add_argument("--out", required=True,
                   help="JSON file to write (other workloads and seeds kept)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--parent-rev", default=None,
                   help="the parent's commit, when DIR is not a git checkout")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
    doc["command"] = ("python3 tools/bench_pairs.py --parent DIR --workload W[,W...] "
                      "--pairs N [--seed S] --out FILE")
    revisions = {"parent": args.parent_rev or _revision(sides["parent"]),
                 "change": _revision(ROOT)}
    workloads = args.workload.split(",")
    for workload in workloads:
        earlier = doc["workloads"].get(workload, {}).get(f"seed{args.seed}")
        if earlier and earlier["revisions"] != revisions:
            raise SystemExit(f"{args.out} holds {workload} seed {args.seed} runs of "
                             f"{earlier['revisions']}, not {revisions}")
    for workload in workloads:
        entry = run_pairs(doc, workload, args.pairs, args.seed, sides, revisions, bench)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        for name, s in entry["summary"].items():
            print(f"{workload} seed {args.seed} {name}: parent {s['parent']['median']:.4g} "
                  f"change {s['change']['median']:.4g} wins {s['wins']}/{s['pairs']} "
                  f"claim {s['claim_holds']} within_bound {s['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
