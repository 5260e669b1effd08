"""Self-test of the benchmark harness (takes a few minutes):

    python3 -m pytest perfbench/test_run.py

Each workload runs for one pass, untraced and traced, and must print every
metric that BENCHMARK.json names, with its unit.  A wrong pinned digest
must make jobs fail and the run exit with 1, for the default seed and for
another one, and a checkout without the lbforge sources must end with a
nonzero exit and no result line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*extra, cwd=None, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), *extra],
        capture_output=True, text=True, timeout=600, cwd=cwd, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines[:-1])
    for metric in wanted + [{"name": "fail_ratio", "unit": "ratio"}]:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}(\s|$)"
        assert re.search(pattern, text, re.M), metric["name"]


def copy_benchmark(dest, with_sources):
    """BENCHMARK.json and the benchmark's files under ``dest``, with a link
    to the lbforge sources if ``with_sources``; returns the copied run.py."""
    shutil.copy(HERE.parent / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        (dest / "src").symlink_to(HERE.parent / "src", target_is_directory=True)
    return dest / HERE.name / RUN.name


@pytest.mark.parametrize("seed", [0, 3])
def test_wrong_pinned_digest_fails_jobs(tmp_path, seed):
    script = copy_benchmark(tmp_path, with_sources=True)
    pins_path = script.parent / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    key = sorted(pins["cybe-rank"]["common"])[0]
    pins["cybe-rank"]["common"][key] = "0" * 64
    pins_path.write_text(json.dumps(pins), encoding="utf-8")
    proc = run_bench("--workload", "cybe-rank", "--seed", str(seed), "--seconds", "0",
                     cwd=tmp_path, script=script)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert key in proc.stderr


def test_checkout_without_sources_fails(tmp_path):
    script = copy_benchmark(tmp_path, with_sources=False)
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
