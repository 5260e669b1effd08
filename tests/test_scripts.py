import hashlib
import importlib.util
import json
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
