import json
import random
import time
from fractions import Fraction

import pytest

from lbforge import serialize
from lbforge.errors import MalformedInputError
from lbforge.cli import main
from lbforge.lagrangian import catalog_w0
from lbforge.liealg import build_sl
from lbforge.pairing import CaseSpec
from lbforge.ratfun import BivarRat, bivar, poly2
from lbforge.rmatrix import SpectralTensor2, build_r, catalog_rkind
from lbforge.sparse import Sparse, poly_mul

ALG = build_sl(2)


def run(argv, capsys=None):
    code = main(argv)
    return code


def build_file(tmp_path, case="I:two-points:1,2", r="dj", algebra="A:2"):
    out = tmp_path / "r.json"
    code = main(
        ["build", "--algebra", algebra, "--case", case, "--r", r, "--out", str(out)]
    )
    assert code == 0
    return out


# -- round trips --------------------------------------------------------------

def test_round_trip_exact():
    rng = random.Random(5)
    tensor = SpectralTensor2()
    for _ in range(6):
        i, j = rng.randrange(3), rng.randrange(3)
        num = poly2(
            {
                (rng.randrange(3), rng.randrange(3)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 7)
                )
            }
        )
        tensor.add_entry((i, j), bivar(num, rng.randrange(2)))
    doc = serialize.tensor_to_doc(ALG, tensor)
    _, back = serialize.tensor_from_doc(json.loads(json.dumps(doc)))
    assert back == tensor


def test_round_trip_all_families(tmp_path):
    for text in [
        "I:two-points:1,2",
        "I:double-pole",
        "I:simple-pole",
        "I:constant",
        "II:simple-pole",
        "II:constant",
        "III:constant",
    ]:
        spec = CaseSpec.parse(text)
        r = build_r(ALG, spec, catalog_rkind(ALG, spec))
        doc = serialize.tensor_to_doc(ALG, r)
        _, back = serialize.tensor_from_doc(doc)
        assert back == r


def test_serialization_is_byte_stable(tmp_path):
    a = build_file(tmp_path, "II:constant", "dj")
    b = tmp_path / "again.json"
    main(["build", "--case", "II:constant", "--r", "dj", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_wpresentation_round_trip():
    for text in ["I:two-points:1,2", "II:simple-pole", "III:constant"]:
        w = catalog_w0(ALG, CaseSpec.parse(text))
        doc = json.loads(json.dumps(serialize.wpresentation_to_doc(ALG, w)))
        back = serialize.wpresentation_from_doc(doc, ALG)
        assert back.spec == w.spec
        assert back.tail == w.tail
        assert len(back.head) == len(w.head)
        for a, b in zip(back.head, w.head):
            assert a.loop == b.loop and a.fin == b.fin and a.eps == b.eps


def test_den_scale_folds_on_parse():
    doc = {
        "algebra": {"type": "A", "rank": 2},
        "basis": list(ALG.basis),
        "entries": [
            {
                "i": "E(1,2)",
                "j": "F(1,2)",
                "num": [[0, 0, "3"]],
                "den_power": 1,
                "den_scale": "3/2",
            }
        ],
    }
    _, r = serialize.tensor_from_doc(doc)
    assert r.entries[(0, 1)] == BivarRat(Sparse({(0, 0): Fraction(2)}), 1)


# -- build --------------------------------------------------------------------

def _with_entry(tmp_path, edit):
    """A built sl_2 two-points file with its first entry changed by ``edit``."""
    doc = json.loads(build_file(tmp_path).read_text())
    edit(doc["entries"][0])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def test_negative_exponent_is_malformed(tmp_path, capsys):
    def edit(entry):
        entry["num"][0][0] = -7

    path = _with_entry(tmp_path, edit)
    argv = ["verify", "--in", str(path), "--case", "I:two-points:1,2", "--checks", "equiv"]
    assert main(argv) == 3
    assert "negative exponent" in capsys.readouterr().err


def test_negative_den_power_is_malformed(tmp_path, capsys):
    def edit(entry):
        entry["den_power"] = -1

    assert main(["verify", "--in", str(_with_entry(tmp_path, edit))]) == 3
    assert "negative den_power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("exponent", 0.5), ("exponent", True), ("den_power", 1.9), ("den_power", True),
     ("den_power", "1")],
)
def test_non_integer_entry_field_is_malformed(tmp_path, capsys, field, value):
    def edit(entry):
        if field == "exponent":
            entry["num"][0][0] = value
        else:
            entry["den_power"] = value

    path = _with_entry(tmp_path, edit)
    assert main(["verify", "--in", str(path), "--checks", "cybe,skew"]) == 3
    err = capsys.readouterr().err
    assert f"{field} in entry" in err and "must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("exponent", 3_000_000), ("den_power", 200_000)])
def test_entry_degree_above_cap_is_malformed(tmp_path, monkeypatch, capsys, field, value):
    # uncapped, either value keeps the (v - u) arithmetic of cybe and skew busy for minutes
    def edit(entry):
        if field == "exponent":
            entry["num"][0][1] = value
        else:
            entry["den_power"] = value

    path = _with_entry(tmp_path, edit)
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "4")
    start = time.perf_counter()
    assert main(["verify", "--in", str(path), "--checks", "cybe,skew"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"{field} in entry (E(1,2), F(1,2)): {value} exceeds LBFORGE_MAX_DEGREE=4" in err
    assert "Traceback" not in err


def _with_rank(tmp_path, rank):
    doc = json.loads(build_file(tmp_path).read_text())
    doc["algebra"]["rank"] = rank
    path = tmp_path / "ranked.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "rank, message",
    [(2.7, "rank must be an integer"), (2.0, "rank must be an integer"),
     (True, "rank must be an integer"), (1, "rank must be >= 2"),
     (-3, "rank must be >= 2")],
)
def test_bad_file_rank_is_malformed(tmp_path, capsys, rank, message):
    assert main(["verify", "--in", str(_with_rank(tmp_path, rank))]) == 3
    assert message in capsys.readouterr().err


def test_file_rank_is_capped(tmp_path, monkeypatch, capsys):
    path = build_file(tmp_path, algebra="A:3", case="I:constant", r="zero")
    monkeypatch.setenv("LBFORGE_MAX_RANK", "2")
    assert main(["verify", "--in", str(path)]) == 3
    assert "rank 3 exceeds LBFORGE_MAX_RANK=2" in capsys.readouterr().err
    monkeypatch.setenv("LBFORGE_MAX_RANK", "3")
    assert main(["verify", "--in", str(path)]) == 0


def test_algebra_option_rank_is_capped(monkeypatch, capsys):
    monkeypatch.setenv("LBFORGE_MAX_RANK", "2")
    argv = ["build", "--algebra", "A:3", "--case", "I:constant", "--r", "zero"]
    assert main(argv) == 2
    assert "LBFORGE_MAX_RANK=2" in capsys.readouterr().err


def test_bad_max_rank_env_is_config_error(tmp_path, monkeypatch, capsys):
    path = build_file(tmp_path)
    monkeypatch.setenv("LBFORGE_MAX_RANK", "2.5")
    assert main(["verify", "--in", str(path)]) == 2
    assert "LBFORGE_MAX_RANK must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("degree", [0.5, True, "1"])
def test_non_integer_presentation_degrees_are_malformed(degree):
    w = catalog_w0(ALG, CaseSpec.parse("I:simple-pole"))
    doc = json.loads(json.dumps(serialize.wpresentation_to_doc(ALG, w)))
    loop_doc = json.loads(json.dumps(doc))
    loop_doc["head"][0]["loop"][0][1] = degree
    with pytest.raises(MalformedInputError, match="degree must be an integer"):
        serialize.wpresentation_from_doc(loop_doc, ALG)
    with pytest.raises(MalformedInputError, match="degree must be an integer"):
        serialize.double_element_from_doc(loop_doc["head"][0], ALG)
    doc["tail"][0][0] = degree
    with pytest.raises(MalformedInputError, match="tail degree must be an integer"):
        serialize.wpresentation_from_doc(doc, ALG)


def test_loaded_entries_are_in_lowest_terms(tmp_path):
    def edit(entry):
        # multiply the entry by (v - u)/(v - u)
        num = Sparse({(a, b): Fraction(c) for a, b, c in entry["num"]})
        wider = poly_mul(num, poly2({(0, 1): 1, (1, 0): -1}))
        entry["num"] = [[a, b, str(c)] for (a, b), c in sorted(wider.items())]
        entry["den_power"] += 1

    path = _with_entry(tmp_path, edit)
    _, loaded = serialize.tensor_from_doc(json.loads(path.read_text()))
    spec = CaseSpec.parse("I:two-points:1,2")
    assert loaded == build_r(ALG, spec, catalog_rkind(ALG, spec))


def test_build_writes_vu_denominators(tmp_path):
    out = build_file(tmp_path)
    doc = json.loads(out.read_text())
    assert doc["algebra"] == {"type": "A", "rank": 2}
    assert all(e["den_power"] in (0, 1) for e in doc["entries"])
    assert any(e["den_power"] == 1 for e in doc["entries"])
    assert all(e["den_scale"] == "1" for e in doc["entries"])


def test_build_rejects_illegal_case(capsys):
    for constant in (["--r", "dj"], []):
        code = main(["build", "--case", "II:two-points:1,2", *constant])
        assert code == 2
        assert "degree at most 1" in capsys.readouterr().err


def test_build_empty_case_is_config_error(capsys):
    assert main(["build", "--case", "", "--r", "dj"]) == 2
    assert capsys.readouterr().err == "error: bad case text ''\n"


def test_build_kind_mismatch_is_config_error():
    assert main(["build", "--case", "I:constant", "--r", "dj"]) == 2


def test_build_defaults_constant_part(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["build", "--case", "III:constant", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # zero skew part: pure uv/(v-u) Omega, so three entries on sl_2
    assert len(doc["entries"]) == 3
    # without --r, build writes what the family's catalog constant part writes
    catalog = {"I:two-points:1,2": "dj", "I:double-pole": "zero", "I:simple-pole": "dj",
               "I:constant": "zero", "II:simple-pole": "dj", "II:constant": "dj",
               "III:constant": "zero"}
    for case, part in catalog.items():
        default = main(["build", "--case", case, "--out", str(out)])
        explicit = tmp_path / "explicit.json"
        argv = ["build", "--case", case, "--r", part, "--out", str(explicit)]
        assert default == 0 and main(argv) == 0
        assert out.read_bytes() == explicit.read_bytes(), case


def test_build_jordanian_and_file_parts(tmp_path):
    out = build_file(tmp_path, "I:double-pole", "jordanian:1,2")
    doc = json.loads(out.read_text())
    assert any(e["den_power"] == 0 for e in doc["entries"])
    # feed a constant tensor back through file:
    const = {
        "entries": [
            {"i": "E(1,2)", "j": "F(1,2)", "c": "1"},
            {"i": "H(1)", "j": "H(1)", "c": "1/4"},
        ]
    }
    path = tmp_path / "const.json"
    path.write_text(json.dumps(const))
    out2 = tmp_path / "r2.json"
    code = main(
        [
            "build",
            "--case",
            "I:two-points:1,2",
            "--r",
            f"file:{path}",
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    ref = build_file(tmp_path, "I:two-points:1,2", "dj")
    assert out2.read_text() == ref.read_text()


# -- verify -------------------------------------------------------------------

def test_verify_ok(tmp_path):
    out = build_file(tmp_path)
    assert main(["verify", "--in", str(out)]) == 0


def test_verify_all_checks(tmp_path):
    out = build_file(tmp_path)
    code = main(
        [
            "verify",
            "--in",
            str(out),
            "--case",
            "I:two-points:1,2",
            "--checks",
            "cybe,skew,duality,delta-axioms,equiv",
            "--degree",
            "4",
            "--sweep-degree",
            "1",
        ]
    )
    assert code == 0


def test_verify_corrupted_coefficient(tmp_path, capsys):
    out = build_file(tmp_path)
    doc = json.loads(out.read_text())
    doc["entries"][0]["num"][0][2] = "9/7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(bad), "--out", str(tmp_path / "rep.json")])
    assert code == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    assert not report["pass"]
    # the least offending key and its least monomial's coefficient
    assert report["checks"] == [
        {"check": "cybe", "pass": False, "witness": {
            "indices": ["E(1,2)", "F(1,2)", "H(1)"], "coefficient": "-4/7"}},
        {"check": "skew", "pass": False, "witness": {
            "i": "E(1,2)", "j": "F(1,2)", "coefficient": "2/7"}},
    ]


def test_verify_duality_names_first_differing_coefficient(tmp_path):
    out = build_file(tmp_path)
    doc = json.loads(out.read_text())
    doc["entries"][0]["num"][0][2] = "9/7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    argv = ["verify", "--in", str(bad), "--case", "I:two-points:1,2",
            "--checks", "duality", "--degree", "2", "--out", str(report)]
    assert main(argv) == 1
    # the least (i, j, deg_u, deg_v) at which the series and the tensor differ
    assert json.loads(report.read_text())["checks"] == [
        {"check": "duality", "pass": False, "witness": {
            "i": "E(1,2)", "j": "F(1,2)", "deg_u": 0, "deg_v": -1,
            "series": "1", "tensor": "9/7"}},
    ]


def test_verify_equiv_examines_the_file(tmp_path, capsys):
    out = build_file(tmp_path)
    doc = json.loads(out.read_text())
    doc["entries"][1]["num"][0][2] = "9/7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    argv = ["verify", "--in", str(bad), "--case", "I:two-points:1,2",
            "--checks", "equiv", "--out", str(report)]
    assert main(argv) == 1
    (check,) = json.loads(report.read_text())["checks"]
    assert check["check"] == "equiv" and not check["pass"] and "witness" in check


def test_duality_solves_dual_basis_once(tmp_path, monkeypatch):
    import lbforge.cli
    import lbforge.rmatrix

    real = lbforge.cli.dual_basis
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lbforge.cli, "dual_basis", counting)
    monkeypatch.setattr(lbforge.rmatrix, "dual_basis", counting)
    out = build_file(tmp_path)
    argv = ["verify", "--in", str(out), "--case", "I:two-points:1,2",
            "--checks", "duality", "--degree", "3"]
    assert main(argv) == 0
    assert len(calls) == 1


def test_verify_duality_names_first_pairing_mismatch(tmp_path, monkeypatch):
    import lbforge.cli

    real = lbforge.cli.dual_basis

    def perturbed(alg, w, truncation):
        duals = real(alg, w, truncation)
        by_key = {(i, k): el for i, k, el in duals}
        i, k, el = duals[0]
        duals[0] = (i, k, el + Fraction(2, 3) * by_key[(1, 1)])
        return duals

    monkeypatch.setattr(lbforge.cli, "dual_basis", perturbed)
    out = build_file(tmp_path)
    report = tmp_path / "rep.json"
    argv = ["verify", "--in", str(out), "--case", "I:two-points:1,2",
            "--checks", "duality", "--degree", "2", "--out", str(report)]
    assert main(argv) == 1
    # the first canonical vector, in (degree, index) order, that the first
    # dual pairs with wrongly
    assert report.read_bytes() == b"""{
  "checks": [
    {
      "check": "duality",
      "pass": false,
      "witness": {
        "coefficient": "2/3",
        "i": "F(1,2)*u^1",
        "j": "dual(E(1,2)*u^0)"
      }
    }
  ],
  "pass": false
}
"""


def test_non_polynomial_cobracket_fails_with_witness(tmp_path, capsys):
    path = build_file(tmp_path, case="I:constant", r="zero")
    doc = json.loads(path.read_text())
    doc["entries"] = [
        e for e in doc["entries"] if (e["i"], e["j"]) != ("F(1,2)", "E(1,2)")
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["verify", "--in", str(bad), "--checks", "delta-axioms", "--sweep-degree", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (entry,) = json.loads(captured.out)["checks"]
    assert entry["check"] == "delta-axioms" and not entry["pass"]
    assert entry["witness"] == {
        "family": "-", "element": "E(1,2)*u^0", "check": "polynomial", "pass": False,
    }


def test_verify_sweep_degree_validated(tmp_path, monkeypatch):
    out = build_file(tmp_path)
    argv = ["verify", "--in", str(out), "--case", "I:two-points:1,2",
            "--checks", "delta-axioms", "--degree", "4"]
    assert main(argv + ["--sweep-degree", "-1"]) == 2
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "4")
    assert main(argv + ["--sweep-degree", "5"]) == 2


def test_verify_degree_cap_applies_to_checks_that_use_it(tmp_path, monkeypatch):
    out = build_file(tmp_path)
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "4")
    assert main(["verify", "--in", str(out), "--checks", "cybe"]) == 0
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "1")
    assert main(["verify", "--in", str(out), "--checks", "cybe", "--degree", "1"]) == 0


def test_verify_duality_degree_is_capped(tmp_path, monkeypatch):
    out = build_file(tmp_path)
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "4")
    argv = ["verify", "--in", str(out), "--case", "I:two-points:1,2", "--checks", "duality"]
    assert main(argv) == 2
    assert main(argv + ["--degree", "3"]) == 0


def test_bad_max_degree_env_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "four")
    assert main(["dualbasis", "--case", "I:constant", "--degree", "3"]) == 2
    assert "LBFORGE_MAX_DEGREE" in capsys.readouterr().err


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{broken")
    assert main(["verify", "--in", str(bad)]) == 3


def test_verify_missing_file():
    assert main(["verify", "--in", "/nonexistent/r.json"]) == 3


def test_verify_duality_needs_case(tmp_path):
    out = build_file(tmp_path)
    assert main(["verify", "--in", str(out), "--checks", "duality"]) == 2


def test_verify_unknown_check(tmp_path):
    out = build_file(tmp_path)
    assert main(["verify", "--in", str(out), "--checks", "nope"]) == 2


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_empty_check_list_is_config_error(tmp_path, capsys, checks):
    # a check list that names no check must not report "pass": true
    out = build_file(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("checks", ["cybe,cybe", "skew,cybe, skew"])
def test_verify_repeated_check_is_config_error(tmp_path, capsys, checks):
    # a repeated check must not run twice and report two entries
    out = build_file(tmp_path, case="I:constant", r="zero")
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "named twice" in captured.err


# -- dualbasis ----------------------------------------------------------------

def test_dualbasis_output(tmp_path, capsys):
    out = tmp_path / "duals.json"
    code = main(
        ["dualbasis", "--case", "I:simple-pole", "--degree", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "I:simple-pole"
    h_dual = next(
        d for d in doc["duals"] if d["i"] == "H(1)" and d["degree"] == 0
    )
    assert h_dual["dual"]["loop"] == [["H(1)", -1, "1/2"], ["H(1)", 0, "-1/4"]]


def test_dualbasis_degree_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("LBFORGE_MAX_DEGREE", "4")
    assert main(["dualbasis", "--case", "I:constant", "--degree", "6"]) == 2
    assert main(["dualbasis", "--case", "I:constant", "--degree", "3"]) == 0


# -- equiv / table ------------------------------------------------------------

def test_equiv_frozen(capsys):
    assert main(["equiv", "1", "2", "3", "5"]) == 0
    out = capsys.readouterr().out
    assert "p=15/4" in out and "q=-1/4" in out and "C=2" in out and "equal" in out


def test_equiv_identity(capsys):
    assert main(["equiv", "1", "2", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "p=1" in out and "q=0" in out and "C=1" in out


def test_equiv_degenerate():
    assert main(["equiv", "1", "1", "3", "5"]) == 2


def test_table(capsys):
    assert main(["table", "I", "minus-alpha-max"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["table", "III", "simple", "2"]) == 0
    assert capsys.readouterr().out.strip() == "impossible"
    assert main(["table", "II", "simple", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_bad_algebra():
    assert main(["build", "--algebra", "B:2", "--case", "I:constant", "--r", "zero"]) == 2
    assert main(["build", "--algebra", "A:1", "--case", "I:constant", "--r", "zero"]) == 2
