#!/usr/bin/env python3
"""lbforge benchmark.

One workload, measured in this process:

    python3 perfbench/run.py --workload families-cli --seed 0 --seconds 30 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh processes of start, import and input generation),
``wall_s`` (median pass time), ``job_p50_s`` (median job time, pooled)
and ``peak_rss_mb``; ``fail_ratio`` is printed and carried by the
``attempted``/``failed`` counts.  Passes repeat while the next one is
expected to end within ``--seconds``; at least one always runs.

Times are reported in reference seconds.  The speed of a shared host
drifts by up to 1.5x over minutes, so a fixed calibration loop runs
before and after every timed unit, and the unit's measured time is scaled
by ``CALIBRATION_REFERENCE_S`` over the mean of those two loop times.  A
change to lbforge does not touch the loop, so its effect shows in full;
raw seconds are printed next to every scaled figure.

With ``--trace 1`` the run makes one untraced pass and one traced pass,
reports the per-layer metrics of the traced pass and the difference of
the two pass times as ``trace.overhead_s``, and writes the spans to
``perfbench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the process exits with 1
when any job failed.  Emitted documents are checked against the digests
in ``perfbench/pins.json``.  The metric names and units are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCH = ROOT / "BENCHMARK.json"

NAMES = ("axiom-sweep", "families-cli", "dualbasis-cli", "cybe-rank")
SETUP_RUNS = 15
# calibration loop time that maps measured seconds to reference seconds
CALIBRATION_REFERENCE_S = 0.12
# share of the traced pass time that root spans must cover
MIN_TRACE_COVERAGE = 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, default=None,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- timing -------------------------------------------------------------------

def calibrate():
    """Seconds for a fixed loop of Fraction products summed into a dict,
    the operation mix of lbforge's inner loops (lbforge is not called)."""
    acc = {}
    scale = Fraction(3, 5)
    start = time.perf_counter()
    for i in range(24000):
        key = i % 97
        acc[key] = acc.get(key, 0) + Fraction(i % 13 + 1, i % 7 + 1) * scale
    return time.perf_counter() - start


def scaled(raw, before, after):
    return raw * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def time_setups(args):
    """(raw, scaled) seconds, for each of SETUP_RUNS fresh processes, from
    spawning it until it has imported lbforge and generated the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    cal = calibrate()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit {proc.returncode}")
        after = calibrate()
        out.append((raw, scaled(raw, cal, after)))
        cal = after
    return out


class Passes:
    """Pass and job times, raw and scaled, with failure counts."""

    def __init__(self):
        self.walls = []
        self.walls_raw = []
        self.jobs = []
        self.jobs_raw = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workload, seconds, tracer=None, max_passes=None):
        start = time.perf_counter()
        durations = []
        cal = calibrate()
        while True:
            p0 = time.perf_counter()
            wall = wall_raw = 0.0
            for label, job in workload.jobs():
                if tracer is not None:
                    tracer.begin_job(label)
                j0 = time.perf_counter()
                try:
                    problems = job()
                except Exception as exc:  # a crash fails the job, not the run
                    problems = [f"{label}: {type(exc).__name__}: {exc}"]
                raw = time.perf_counter() - j0
                after = calibrate()
                self.jobs_raw.append(raw)
                self.jobs.append(scaled(raw, cal, after))
                wall_raw += raw
                wall += self.jobs[-1]
                cal = after
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.extend(problems)
            self.walls.append(wall)
            self.walls_raw.append(wall_raw)
            durations.append(time.perf_counter() - p0)
            if max_passes is not None and len(self.walls) >= max_passes:
                return
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                return


def metric_units(kind):
    """(name, unit) of every metric BENCHMARK.json lists under ``kind``."""
    spec = json.loads(BENCH.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def show(name, value, unit, note=""):
    print(f"  {name:<38s} {value:>14.6g} {unit:<6s} {note}")


def run_workload(args):
    import workloads

    if args.setup_probe:
        workloads.make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else time_setups(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"two-points {workload.pair[0]},{workload.pair[1]}")
        passes = Passes()
        correct = True
        if args.trace:
            metrics, correct = traced_run(args, workload, passes)
        else:
            passes.run(workload, args.seconds)
            med = statistics.median
            values = {
                "setup_s": (med(s for _, s in setups),
                            f"median, raw {med(r for r, _ in setups):.4f} s, "
                            f"fresh processes: {len(setups)}"),
                "wall_s": (med(passes.walls),
                           f"median, raw {med(passes.walls_raw):.4f} s, passes: {len(passes.walls)}"),
                "job_p50_s": (med(passes.jobs),
                              f"median, raw {med(passes.jobs_raw):.4f} s, jobs: {len(passes.jobs)}"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "this process"),
            }
            metrics = []
            for name, unit in metric_units("end_to_end"):
                value, note = values[name]
                show(name, value, unit, note)
                metrics.append((name, unit, value))
        show("fail_ratio", passes.failed / passes.attempted, "ratio",
             f"{passes.failed}/{passes.attempted} jobs failed")
        for problem in passes.problems[:20]:
            print(f"FAIL {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and passes.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value in metrics},
    }))
    return 0 if correct else 1


def traced_run(args, workload, passes):
    """One untraced pass, then one traced pass; per-layer metrics."""
    import tracing

    passes.run(workload, 0, max_passes=1)
    untraced = passes.walls[-1]
    workload.corrupt_probes.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes.run(workload, 0, tracer=tracer, max_passes=1)
    finally:
        tracer.uninstall()
    # self times are raw seconds, so coverage compares with the raw pass time
    traced = passes.walls_raw[-1]
    probes = workload.corrupt_probes
    extra = {
        "trace.wall_s": traced,
        "trace.overhead_s": passes.walls[-1] - untraced,
        "cli.verify.corrupt_accepted": sum(probes) / len(probes) if probes else 0.0,
    }
    per_layer = metric_units("per_layer")
    values = tracing.layer_metrics(tracer, [name for name, _ in per_layer], extra)
    modules = tracer.module_self_time()
    covered = sum(modules.values())
    print(f"  untraced pass {passes.walls_raw[0]:.3f} s, traced pass {traced:.3f} s (raw), "
          f"{len(tracer.span_start)} spans")
    print(f"  self time by module (sum {covered:.3f} s = {covered / traced:.1%} of the traced pass):")
    for module, secs in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"    {module:<12s} {secs:10.3f} s  {secs / traced:6.1%}")
    for name, unit in per_layer:
        show(name, values[name], unit)
    tracer.write(OUT / f"trace-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed, "wall_s": traced})
    correct = MIN_TRACE_COVERAGE <= covered / traced <= 1.0
    if not correct:
        print(f"FAIL spans cover {covered / traced:.1%} of the traced pass", file=sys.stderr)
    return [(name, unit, values[name]) for name, unit in per_layer], correct


def run_all(args):
    """Each workload in its own process, then a summary table."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        rows.append((name, result))
    if not args.trace:
        end_to_end = metric_units("end_to_end")
        print(f"\n{'workload':<15s}" + "".join(f"{m:>14s}" for m, _ in end_to_end)
              + f"{'fail_ratio':>12s}")
        for name, result in rows:
            m = result["metrics"]
            cells = "".join(f"{m[k]['value']:>14.4f}" if k in m else f"{'-':>14s}"
                            for k, _ in end_to_end)
            ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
            print(f"{name:<15s}{cells}{ratio:>12.4f}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-trace{args.trace}.json").write_text(
        json.dumps(dict(rows), indent=2) + "\n", encoding="utf-8")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lbforge" / "__init__.py").is_file():
        print(f"error: lbforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
