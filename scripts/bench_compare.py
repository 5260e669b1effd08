#!/usr/bin/env python3
"""Compare the benchmark of two git revisions.

    python3 scripts/bench_compare.py --base HEAD~1 --out BENCH_<slug>.json

The base revision and HEAD (the change) are extracted with ``git archive``
into temporary directories, so both sides run from fresh trees of committed
files (uncommitted edits are not measured).  For every workload of
``BENCHMARK.json`` and every seed 1-10, ``perfbench/run.py`` runs once on
each tree for ``run_seconds``, in a fresh process; odd seeds run the base
first and even seeds the change first, so a drift of the host's speed falls
on both sides alike.  The report lists, per workload and end-to-end metric of
``BENCHMARK.json``, the median and quartiles of each side, how many pairs
the change won, the metric's bound and the relative change of the median,
and, per side, whether every run was ``correct`` and how many jobs failed.
Beside the medians stand the median of the per-pair ratios change/base and
the base's interquartile range over its median: a ratio within that spread
of 1 is a move the base makes against itself, noise rather than a change.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="report path, e.g. BENCH_<slug>.json")
    return parser.parse_args(argv)


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        # the "data" filter refuses absolute paths and links out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(metric, base_runs, change_runs):
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base_runs, change_runs)
             if name in b["metrics"] and name in c["metrics"]]
    if not pairs:
        return None
    base, change = summary([b for b, _ in pairs]), summary([c for _, c in pairs])
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    ratios = [c / b for b, c in pairs if b]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base": base, "change": change, "change_wins": wins, "pairs": len(pairs),
        "median_change": change["median"] / base["median"] - 1 if base["median"] else None,
        "median_pair_ratio": statistics.median(ratios) if ratios else None,
        "base_iqr_over_median":
            (base["q3"] - base["q1"]) / base["median"] if base["median"] else None,
    }


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads(BENCH.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, 11))
    shas = {side: git("rev-parse", rev).decode().strip()
            for side, rev in (("base", args.base), ("change", "HEAD"))}
    report = {
        "base": args.base, "base_commit": shas["base"], "change_commit": shas["change"],
        "seeds": seeds, "seconds": seconds,
        "order": "odd seeds run the base first, even seeds the change first",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        # same-length paths: the tree's path is part of what each run allocates
        trees = {side: Path(tmp) / side[0] for side in shas}
        for side, tree in trees.items():
            tree.mkdir()
            extract(shas[side], tree)
        for name in names:
            runs = {"base": [], "change": []}
            for seed in seeds:
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], name, seed, seconds))
                    wall = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
                    print(f"{name} seed {seed} {side}: wall_s {wall}", file=sys.stderr, flush=True)
            metrics = {m["name"]: compare(m, runs["base"], runs["change"])
                       for m in spec["end_to_end"]}
            report["workloads"][name] = {
                "metrics": metrics,
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, result in report["workloads"].items():
        for metric, m in result["metrics"].items():
            if m is not None:
                print(f"{name:<14s} {metric:<12s} {m['base']['median']:10.4f} -> "
                      f"{m['change']['median']:10.4f}  wins {m['change_wins']}/{m['pairs']}  "
                      f"bound {m['bound']}")
        print(f"{name:<14s} correct {result['correct']} failed {result['failed']}")
    ok = all(all(r["correct"].values()) for r in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
