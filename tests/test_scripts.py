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


def test_axiom_sweep_reports_milliseconds(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert axiom_sweep_script.main(["--degree", "0", "--cocycle-degree", "0",
                                    "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(axiom_sweep_script.FAMILIES) + 1
    assert all(line.endswith(" ms)") for line in lines[:-1])
    records = json.loads(out.read_text())
    assert records and all(rec["pass"] for rec in records)
