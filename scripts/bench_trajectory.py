#!/usr/bin/env python3
"""Print the benchmark's history from the committed reports.

    python3 scripts/bench_trajectory.py

Reads every ``BENCH_*.json`` committed at HEAD (the reports that
``scripts/bench_compare.py`` writes), in the order git added them, and
prints for each workload and for ``wall_s`` and ``job_p50_s`` one line per
report: the base and change medians and the median of the per-pair ratios
change/base.  Between two reports it prints the drift, the next report's
base median over the previous report's change median, minus 1.  When the
code under ``src/`` and ``perfbench/`` is the same at both commits, a drift
wider than the larger quartile spread of the two sides is the host's speed
moving, not the code, and the line is flagged ``HOST DRIFT``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "job_p50_s")
MEASURED = ("src", "perfbench")


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)


def committed_reports():
    """[(file name, report)] for the BENCH_*.json at HEAD, oldest first;
    reports added by one commit are in name order."""
    log = git("log", "--reverse", "--diff-filter=A", "--format=%x00", "--name-only",
              "--", "BENCH_*.json").stdout
    order = []
    for commit in log.split("\0"):
        order += sorted(name for name in commit.split() if name not in order)
    present = set(git("ls-tree", "--name-only", "HEAD").stdout.split())
    return [(name, json.loads(git("show", f"HEAD:{name}").stdout))
            for name in order if name in present]


def same_code(old: str, new: str):
    """True when src/ and perfbench/ are equal at the two commits, False
    when they differ, None when git cannot tell (e.g. a commit is missing)."""
    code = git("diff", "--quiet", old, new, "--", *MEASURED).returncode
    return {0: True, 1: False}.get(code)


def pair_ratio(m: dict):
    """The median of change/base over the pairs: the report's own, or from its values."""
    if m.get("median_pair_ratio") is not None:
        return m["median_pair_ratio"]
    ratios = [c / b for b, c in zip(m["base"]["values"], m["change"]["values"]) if b]
    return statistics.median(ratios) if ratios else None


def _spread(side: dict) -> float:
    return (side["q3"] - side["q1"]) / side["median"] if side["median"] else 0.0


def chain(reports, workload: str, metric: str, same=same_code):
    """One row per report that measured ``metric`` on ``workload``: its base
    and change medians, pair ratio, and the drift from the row before."""
    rows, prev = [], None
    for name, report in reports:
        m = report.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
        if not m:
            continue
        row = {"report": name, "base": m["base"]["median"], "change": m["change"]["median"],
               "ratio": pair_ratio(m), "drift": None, "host_drift": False}
        if prev is not None and prev["m"]["change"]["median"]:
            row["drift"] = m["base"]["median"] / prev["m"]["change"]["median"] - 1
            noise = max(_spread(prev["m"]["change"]), _spread(m["base"]))
            row["host_drift"] = (abs(row["drift"]) > noise and
                                 same(prev["report"]["change_commit"], report["base_commit"]) is True)
        rows.append(row)
        prev = {"m": m, "report": report}
    return rows


def render(reports, same=same_code):
    workloads = []
    for _, report in reports:
        workloads += [w for w in report.get("workloads", {}) if w not in workloads]
    lines = []
    for workload in workloads:
        for metric in METRICS:
            rows = chain(reports, workload, metric, same)
            if not rows:
                continue
            lines.append(f"{workload} {metric}")
            for row in rows:
                if row["drift"] is not None:
                    flag = "  HOST DRIFT" if row["host_drift"] else ""
                    lines.append(f"    drift {row['drift']:+.1%}{flag}")
                ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
                lines.append(f"  {row['report']:<32s} {row['base']:9.4f} -> "
                             f"{row['change']:9.4f}  pair ratio {ratio}")
    return lines


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    reports = committed_reports()
    if not reports:
        print("error: no committed BENCH_*.json", file=sys.stderr)
        return 1
    print("\n".join(render(reports)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
