import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


axiom_sweep_script = _load("axiom_sweep")
bench_compare_script = _load("bench_compare")
bench_trajectory_script = _load("bench_trajectory")
build_all_families_script = _load("build_all_families")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--degree", "-1"], "sweep degrees must be >= 0"),
        (["--cocycle-degree", "-1"], "sweep degrees must be >= 0"),
        (["--algebra", "1"], "sl_n needs n >= 2"),
    ],
    ids=["negative degree", "negative cocycle degree", "rank 1"],
)
def test_axiom_sweep_bad_parameter_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "sweep.json"
    assert axiom_sweep_script.main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1_0", " 2 ", "\u0662"],
                         ids=["underscore", "spaces", "non-ascii digit"])
@pytest.mark.parametrize("flag", ["--algebra", "--degree", "--cocycle-degree"])
def test_axiom_sweep_flags_are_ascii_digits(tmp_path, capsys, flag, value):
    out = tmp_path / "sweep.json"
    assert axiom_sweep_script.main([flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag}: not a decimal integer: {value!r}\n"
    assert captured.out == "" and not out.exists()


def test_build_all_families_degree_is_ascii_digits(tmp_path, capsys):
    # an int() option would read " 1_0" as 10 and exit 0
    argv = ["--degree", " 1_0", "--outdir", str(tmp_path)]
    assert build_all_families_script.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --degree: not a decimal integer: ' 1_0'\n"
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_axiom_sweep_reports_milliseconds(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert axiom_sweep_script.main(["--degree", "0", "--cocycle-degree", "0",
                                    "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(axiom_sweep_script.FAMILIES) + 1
    assert all(line.endswith(" ms)") for line in lines[:-1])
    records = json.loads(out.read_text())
    assert records and all(rec["pass"] for rec in records)


@pytest.mark.parametrize(
    "algebra, digest",
    [
        ("2", "6868e0be186b6de007c2b5ac4e5c6209d26343cbf4affe839bc65c2294aa99db"),
        ("3", "9ec7a1f5ddb6419c1f53a7509f681a00229eb67b4dec290c17b7f11c529775d5"),
    ],
)
def test_axiom_sweep_bytes_are_pinned(tmp_path, capsys, algebra, digest):
    # the criterion-6 sweep at its default degree caps: 882 records at sl_2, 4,536 at sl_3
    out = tmp_path / "sweep.json"
    assert axiom_sweep_script.main(["--algebra", algebra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_axiom_sweep_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "sweep.json"
    argv = ["--degree", "0", "--cocycle-degree", "0", "--out", str(out)]
    assert axiom_sweep_script.main(argv) == 3
    captured = capsys.readouterr()
    # the path is opened before the sweep, so no family line is printed
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert not out.exists()


def test_build_all_families_unwritable_outdir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "out"
    assert build_all_families_script.main(["--outdir", str(outdir)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert blocker.read_text() == ""


def test_bench_compare_reports_pair_ratios_and_base_spread():
    def runs(values):
        return [{"metrics": {} if v is None else {"wall_s": {"value": v}}} for v in values]

    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    # the last pair lacks the metric on the change side and is left out
    base = runs([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
    change = runs([0.5, 2.2, 3.3, 4.0, 6.0, None])
    m = bench_compare_script.compare(metric, base, change)
    assert m["pairs"] == 5 and m["change_wins"] == 1
    assert (m["base"]["q1"], m["base"]["median"], m["base"]["q3"]) == (2.0, 3.0, 4.0)
    assert m["median_change"] == pytest.approx(0.1)
    # ratios 0.5, 1.1, 1.1, 1.0, 1.2; quartile distance 2 over median 3
    assert m["median_pair_ratio"] == pytest.approx(1.1)
    assert m["base_iqr_over_median"] == pytest.approx(2 / 3)
    assert bench_compare_script.compare(metric, base, runs([None] * 6)) is None


def _report(base_commit, change_commit, base, change, ratio=None):
    """A bench_compare report with one workload and wall_s alone."""
    def side(values):
        q1, med, q3 = sorted(values)[1], sorted(values)[2], sorted(values)[3]
        return {"median": med, "q1": q1, "q3": q3, "values": values}

    metric = {"base": side(base), "change": side(change)}
    if ratio is not None:
        metric["median_pair_ratio"] = ratio
    return {"base_commit": base_commit, "change_commit": change_commit,
            "workloads": {"cybe-rank": {"metrics": {"wall_s": metric}}}}


def test_bench_trajectory_chains_medians_and_flags_host_drift():
    reports = [
        # pair ratios 0.5, 0.5, 0.5, 0.5, 0.6: none stored, so read from the values
        ("BENCH_a.json", _report("a0", "a1", [2.0, 2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.2])),
        # same code as a1, base median 10% above a1's change median, spreads 0 and 2%
        ("BENCH_b.json", _report("a1", "b1", [1.08, 1.1, 1.1, 1.12, 1.12], [0.9] * 5, ratio=0.8)),
        # code changed since b1: the same jump is not the host's
        ("BENCH_c.json", _report("c0", "c1", [1.0] * 5, [1.0] * 5, ratio=1.0)),
    ]
    same = {("a1", "a1"): True, ("b1", "c0"): False}
    rows = bench_trajectory_script.chain(reports, "cybe-rank", "wall_s", lambda o, n: same[o, n])
    assert [(r["report"], r["base"], r["change"]) for r in rows] == [
        ("BENCH_a.json", 2.0, 1.0), ("BENCH_b.json", 1.1, 0.9), ("BENCH_c.json", 1.0, 1.0)]
    assert [r["ratio"] for r in rows] == pytest.approx([0.5, 0.8, 1.0])
    assert rows[0]["drift"] is None and not rows[0]["host_drift"]
    assert rows[1]["drift"] == pytest.approx(0.1) and rows[1]["host_drift"]
    assert rows[2]["drift"] == pytest.approx(1.0 / 0.9 - 1) and not rows[2]["host_drift"]
    # a drift inside the quartile spread is noise, even on the same code
    noisy = [reports[0], ("BENCH_b.json", _report("a1", "b1", [0.8, 0.9, 1.1, 1.3, 1.4], [1.0] * 5))]
    assert not bench_trajectory_script.chain(noisy, "cybe-rank", "wall_s", lambda o, n: True)[1]["host_drift"]
    # a metric no report holds gives no rows, and render prints the chain
    assert bench_trajectory_script.chain(reports, "cybe-rank", "job_p50_s") == []
    lines = bench_trajectory_script.render(reports, lambda o, n: same[o, n])
    assert lines[0] == "cybe-rank wall_s"
    assert lines[1].split() == ["BENCH_a.json", "2.0000", "->", "1.0000", "pair", "ratio", "0.500"]
    assert lines[2].split() == ["drift", "+10.0%", "HOST", "DRIFT"]
    assert lines[4].split() == ["drift", "+11.1%"]
    assert len(lines) == 6


def test_bench_trajectory_reads_the_committed_reports(capsys):
    shallow = subprocess.run(["git", "rev-parse", "--is-shallow-repository"], cwd=SCRIPTS,
                             capture_output=True, text=True, check=False).stdout.strip()
    if shallow != "false":
        pytest.skip("needs the repository's full git history")
    assert bench_trajectory_script.main([]) == 0
    out = capsys.readouterr().out
    assert "cybe-rank wall_s" in out and "BENCH_packed_cyb.json" in out
    # git's add order: the packed CYB report came before the one-table report
    assert out.index("BENCH_packed_cyb.json") < out.index("BENCH_one_table.json")
