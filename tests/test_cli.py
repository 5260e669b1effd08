import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lbforge
from lbforge import cli, pairing, serialize
from lbforge.errors import LbforgeError, MalformedInputError
from lbforge.cli import main
from lbforge.lagrangian import WPresentation, catalog_w0
from lbforge.liealg import build_sl, r_dj, wedge_sum
from lbforge.pairing import CaseSpec, DoubleElement, canonical_pairings
from lbforge.ratfun import BivarRat, bivar, poly2
from lbforge.rmatrix import SpectralTensor2, build_r, catalog_rkind
from lbforge.sparse import Sparse, poly_mul

ALG = build_sl(2)


# -- presentation parsers (the inverse of serialize.wpresentation_to_doc) -----

def double_element_from_doc(doc, alg) -> DoubleElement:
    try:
        index = {label: k for k, label in enumerate(alg.basis)}
        loop = Sparse()
        for label, d, c in doc.get("loop", []):
            loop.iadd((index[label], serialize._json_int(d, "degree")), serialize.parse_frac(c))
        fin = Sparse()
        for label, c in doc.get("finite", []):
            fin.iadd(index[label], serialize.parse_frac(c))
        eps = Sparse()
        for label, c in doc.get("eps", []):
            eps.iadd(index[label], serialize.parse_frac(c))
        return DoubleElement(loop, fin=fin, eps=eps)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed element record: {exc}") from exc


def wpresentation_from_doc(doc, alg) -> WPresentation:
    try:
        spec = CaseSpec.parse(doc["case"])
        head = [double_element_from_doc(entry, alg) for entry in doc["head"]]
        tail = Sparse()
        for d, c in doc["tail"]:
            tail.iadd(serialize._json_int(d, "tail degree"), serialize.parse_frac(c))
        if tail.is_zero():
            raise MalformedInputError("tail polynomial must be nonzero")
        return WPresentation(spec=spec, head=head, tail=tail)
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError, LbforgeError) as exc:
        raise MalformedInputError(f"malformed presentation: {exc}") from exc


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
        back = wpresentation_from_doc(doc, ALG)
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


def _with_value(tmp_path, keys, value):
    """A built sl_2 two-points file with the value at the key path ``keys`` replaced."""
    doc = json.loads(build_file(tmp_path).read_text())
    *path, last = keys
    node = doc
    for key in path:
        node = node[key]
    node[last] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize(
    "rank, message",
    [(2.7, "rank must be an integer"), (2.0, "rank must be an integer"),
     (True, "rank must be an integer"), (1, "rank must be >= 2"),
     (-3, "rank must be >= 2")],
)
def test_bad_file_rank_is_malformed(tmp_path, capsys, rank, message):
    assert main(["verify", "--in", str(_with_value(tmp_path, ("algebra", "rank"), rank))]) == 3
    assert message in capsys.readouterr().err


REJECTED_FILES = {
    "type-B": (("algebra", "type"), "B", "unsupported algebra type 'B'"),
    "algebra-5": (("algebra",), 5, "bad algebra record"),
    "den_scale-0": (("entries", 0, "den_scale"), "0", "zero denominator scale"),
    "short-monomial": (("entries", 0, "num", 0), [1, 2], "malformed tensor document"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_FILES))
def test_rejected_tensor_file_exits_3_with_one_error_line(tmp_path, capsys, name):
    keys, value, message = REJECTED_FILES[name]
    path = _with_value(tmp_path, keys, value)
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, message)


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


@pytest.mark.parametrize(
    "value", ["2_0", " 2", "\u0662", "+2"],
    ids=["underscore", "space", "non-ascii digit", "sign"],
)
@pytest.mark.parametrize(
    "where", ["--algebra", "--r", "LBFORGE_MAX_RANK", "LBFORGE_MAX_DEGREE"]
)
def test_non_canonical_integer_is_config_error(monkeypatch, capsys, where, value):
    # int() reads each of these values; an integer is written in ASCII digits only
    argv = {
        "--algebra": ["build", "--algebra", f"A:{value}", "--case", "I:constant"],
        "--r": ["build", "--case", "I:constant", "--r", f"jordanian:1,{value}"],
    }.get(where, ["dualbasis", "--case", "I:constant", "--degree", "1"])
    if where.startswith("LBFORGE_"):
        monkeypatch.setenv(where, value)
    assert main(argv) == 2
    assert repr(value) in capsys.readouterr().err


@pytest.mark.parametrize(
    "root, message",
    [
        ("1", "expected jordanian:i,j, got 'jordanian:1'"),
        ("1,2,3", "expected jordanian:i,j, got 'jordanian:1,2,3'"),
        ("1,x", "not a decimal integer: 'x'"),
    ],
    ids=["one index", "three indices", "not an index"],
)
def test_jordanian_root_is_two_indices(capsys, root, message):
    argv = ["build", "--case", "I:constant", "--r", f"jordanian:{root}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --r: {message}\n"


@pytest.mark.parametrize(
    "value", ["1_0", " 2 ", "\u0662", "-1"],
    ids=["underscore", "spaces", "non-ascii digit", "negative"],
)
@pytest.mark.parametrize(
    "where", ["verify --degree", "verify --sweep-degree", "dualbasis --degree", "table k"]
)
def test_integer_option_is_ascii_digits(tmp_path, capsys, where, value):
    # int() reads the first three as 10, 2 and 2; every one is one error line
    # and exit 2, returned by main rather than raised by argparse
    command, option = where.split()
    argv = {
        "verify": ["verify", "--in", str(build_file(tmp_path)), "--case", "I:two-points:1,2",
                   "--checks", "duality,delta-axioms", option, value],
        "dualbasis": ["dualbasis", "--case", "I:constant", "--degree", value],
        "table": ["table", "I", "simple", value],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: not a decimal integer: {value!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dualbasis", "--case", "I:constant", "--degree", "-x"],
         "argument --degree: expected one argument"),
        (["dualbasis", "--case", "I:constant", "--degree", "--1"],
         "argument --degree: expected one argument"),
        (["dualbasis", "--degree", "3"], "the following arguments are required: --case"),
        (["table", "IV", "simple"], "argument double_type: invalid choice: 'IV'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["build", "--case", "I:constant", "--r", "bogus"], "unknown constant part 'bogus'"),
    ],
    ids=["dash value", "double-dash value", "missing case", "bad table type",
         "unknown subcommand", "unknown constant part"],
)
def test_argument_rejections_return_2(capsys, argv, message):
    # argparse's own rejections keep the exit contract: main returns 2 with
    # one error line and no usage block
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dualbasis", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lbforge dualbasis")


def test_integer_options_read_in_every_check_selection(tmp_path, capsys):
    # the syntax is checked even where the value is not bounded (no duality)
    out = build_file(tmp_path)
    assert main(["verify", "--in", str(out), "--checks", "cybe", "--degree", "0"]) == 0
    assert main(["verify", "--in", str(out), "--checks", "cybe", "--degree", "1_0"]) == 2
    assert main(["table", "I", "simple", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1"


@pytest.mark.parametrize("rank", [3, 10**400], ids=["3", "10**400"])
def test_file_basis_is_compared_before_the_algebra_is_built(tmp_path, monkeypatch, capsys, rank):
    # an sl_2 basis under another rank; with no LBFORGE_MAX_RANK, only the
    # comparison of labels keeps a huge rank from being built
    path = _with_value(tmp_path, ("algebra", "rank"), rank)
    monkeypatch.delenv("LBFORGE_MAX_RANK", raising=False)

    def refuse(n):
        raise AssertionError(f"build_sl({n}) called")

    monkeypatch.setattr(serialize, "build_sl", refuse)
    assert main(["verify", "--in", str(path)]) == 3
    assert "basis labels do not match the algebra" in capsys.readouterr().err


@pytest.mark.parametrize("degree", [0.5, True, "1"])
def test_non_integer_presentation_degrees_are_malformed(degree):
    w = catalog_w0(ALG, CaseSpec.parse("I:simple-pole"))
    doc = json.loads(json.dumps(serialize.wpresentation_to_doc(ALG, w)))
    loop_doc = json.loads(json.dumps(doc))
    loop_doc["head"][0]["loop"][0][1] = degree
    with pytest.raises(MalformedInputError, match="degree must be an integer"):
        wpresentation_from_doc(loop_doc, ALG)
    with pytest.raises(MalformedInputError, match="degree must be an integer"):
        double_element_from_doc(loop_doc["head"][0], ALG)
    doc["tail"][0][0] = degree
    with pytest.raises(MalformedInputError, match="tail degree must be an integer"):
        wpresentation_from_doc(doc, ALG)


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


def test_build_validates_the_case_once(tmp_path, monkeypatch):
    # cli.parse_case rejects through CaseSpec.points, which the spec keeps:
    # the catalog constant part, the lift and build_r read the points again
    calls = []
    validate = pairing.validate_case

    def counted(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(pairing, "validate_case", counted)
    monkeypatch.setattr(cli, "validate_case", counted, raising=False)
    assert main(["build", "--case", "I:two-points:1,2", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


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


def _const_file(tmp_path, alg, value):
    """``value``, a constant 2-tensor, written as a ``--r file:`` document."""
    doc = {"entries": [{"i": alg.basis[i], "j": alg.basis[j], "c": str(c)}
                       for (i, j), c in value.items()]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    return path


def test_build_file_part_skew(tmp_path, capsys):
    # E(1,2) (x) H(1) - H(1) (x) E(1,2) has r + r21 = 0: classified as a skew datum
    path = _const_file(tmp_path, ALG, Sparse({(0, 2): 1, (2, 0): -1}))
    out = tmp_path / "r.json"
    argv = ["build", "--case", "I:constant", "--r", f"file:{path}", "--out", str(out)]
    assert main(argv) == 0
    assert main(["verify", "--in", str(out), "--checks", "cybe,skew"]) == 0
    doc = json.loads(out.read_text())
    assert {(e["i"], e["j"]) for e in doc["entries"]} >= {("E(1,2)", "H(1)"), ("H(1)", "E(1,2)")}


def test_build_file_part_that_is_no_solution(tmp_path, capsys):
    # r_DJ + 1/2 wedge_sum has r + r21 = Omega, but CYB(r) != 0
    value = r_dj(ALG) + Fraction(1, 2) * wedge_sum(ALG)
    path = _const_file(tmp_path, ALG, value)
    argv = ["build", "--case", "I:two-points:1,2", "--r", f"file:{path}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err, "CYB(r) must vanish")


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


def test_verify_skew_across_a_wide_den_power_gap(tmp_path):
    # F(1,2) (x) E(1,2) over (v - u)^2000 and its partner over (v - u): the
    # partner is lifted by (v - u)^1999, one product with the binomial row
    # (one factor at a time, this took minutes)
    out = tmp_path / "r.json"
    assert main(["build", "--algebra", "A:2", "--case", "I:constant", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (entry,) = [e for e in doc["entries"] if (e["i"], e["j"]) == ("F(1,2)", "E(1,2)")]
    entry["den_power"] = 2000
    out.write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    start = time.perf_counter()
    assert main(["verify", "--in", str(out), "--checks", "skew", "--out", str(report)]) == 1
    assert time.perf_counter() - start < 10
    assert json.loads(report.read_text()) == {"pass": False, "checks": [
        {"check": "skew", "pass": False,
         "witness": {"i": "E(1,2)", "j": "F(1,2)", "coefficient": "1"}}]}


@pytest.mark.parametrize("den_power, code", [(1, 0), (3, 1)], ids=["passing", "failing"])
def test_verify_skew_forms_one_residual(tmp_path, monkeypatch, den_power, code):
    # the verdict and the witness read one residual, wherever it is formed
    from lbforge import rmatrix

    calls = []
    original = rmatrix.skew_residual

    def counting(r):
        calls.append(r)
        return original(r)

    monkeypatch.setattr(rmatrix, "skew_residual", counting)
    monkeypatch.setattr(cli, "skew_residual", counting)
    out = tmp_path / "r.json"
    assert main(["build", "--algebra", "A:2", "--case", "I:constant", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (entry,) = [e for e in doc["entries"] if (e["i"], e["j"]) == ("F(1,2)", "E(1,2)")]
    entry["den_power"] = den_power
    out.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(out), "--checks", "skew",
                 "--out", str(tmp_path / "rep.json")]) == code
    assert len(calls) == 1


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


def _dense_duality_witness(alg, spec, duals, n):
    """The duality witness by a scan of every canonical vector x_j u^l,
    l <= n, in (degree, index) order, for each dual in turn."""
    for i, k, el in duals:
        pairs = canonical_pairings(alg, spec, el, n)
        for l in range(n + 1):
            for j in range(alg.dim):
                val = pairs.get((j, l), 0)
                if val != (1 if (i, k) == (j, l) else 0):
                    return {"coefficient": str(Fraction(val)), "i": f"{alg.basis[j]}*u^{l}",
                            "j": f"dual({alg.basis[i]}*u^{k})"}
    return None


# dual 4 is dual(F*u^1) at sl_2, degree 2; keys are (basis index, degree)
DUAL_PERTURBATIONS = {
    # pairs 1 with H*u^2 and 0 with its partner, whose key is missing
    "partner-missing": lambda el, by_key: by_key[(2, 2)],
    "partner-two": lambda el, by_key: 2 * el,
    # wrong at E*u^1 and H*u^2; the map lists H*u^2 before E*u^1
    "two-wrong": lambda el, by_key: (
        el + Fraction(1, 3) * by_key[(2, 2)] - Fraction(5, 2) * by_key[(0, 1)]
    ),
}


@pytest.mark.parametrize("name", sorted(DUAL_PERTURBATIONS))
def test_verify_duality_witness_matches_dense_scan(tmp_path, monkeypatch, name):
    import lbforge.cli

    real = lbforge.cli.dual_basis
    handed = []

    def perturbed(alg, w, truncation):
        duals = real(alg, w, truncation)
        by_key = {(i, k): el for i, k, el in duals}
        i, k, el = duals[4]
        duals[4] = (i, k, DUAL_PERTURBATIONS[name](el, by_key))
        handed.extend(duals)
        return duals

    monkeypatch.setattr(lbforge.cli, "dual_basis", perturbed)
    out = build_file(tmp_path)
    report = tmp_path / "rep.json"
    spec = CaseSpec.parse("I:two-points:1,2")
    argv = ["verify", "--in", str(out), "--case", spec.text,
            "--checks", "duality", "--degree", "2", "--out", str(report)]
    assert main(argv) == 1
    (check,) = json.loads(report.read_text())["checks"]
    want = _dense_duality_witness(ALG, spec, handed, 2)
    assert want is not None and want["j"] == "dual(F(1,2)*u^1)"
    assert check["witness"] == want
    if name == "two-wrong":
        pairs = canonical_pairings(ALG, spec, handed[4][2], 2)
        wrong = [key for key, val in pairs.items() if key != (1, 1) or val != 1]
        assert want["i"] == "E(1,2)*u^1" and wrong == [(2, 2), (0, 1)]


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


# a file that is not UTF-8, and JSON nested past the decoder's recursion limit
UNREADABLE_FILES = {
    "not-utf8": b'\xff\xfe{"entries": []}',
    "deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
@pytest.mark.parametrize("command", ["verify", "build"])
def test_unreadable_file_exits_3_with_one_error_line(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_FILES[name])
    if command == "verify":
        argv = ["verify", "--in", str(path)]
    else:
        argv = ["build", "--case", "I:constant", "--r", f"file:{path}"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("doc", [{"entries": 5}, [1, 2]], ids=["entries-5", "list"])
def test_rejected_constant_file_exits_3_with_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    assert main(["build", "--case", "I:constant", "--r", f"file:{path}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, "malformed constant tensor")


@pytest.mark.parametrize(
    "options, message",
    [(["--case", "I:two-points:1,2", "--checks", "duality", "--degree", "0"],
      "degree must be >= 1"),
     (["--case", "I:constant", "--checks", "equiv"], "equiv check needs a two-points --case")],
    ids=["duality-degree-0", "equiv-constant"],
)
def test_rejected_verify_option_exits_2_with_one_error_line(tmp_path, capsys, options, message):
    path = build_file(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(path), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, message)


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


# -- rational text and results too long to write -----------------------------

# 4,001 digits: within what int() reads from text, but a product of two is not
HUGE = "1" + "0" * 4000


def _one_error_line(err, fragment):
    return err.startswith("error: ") and err.count("\n") == 1 and fragment in err


@pytest.mark.parametrize("text", ["1e5000", "1.5", "1_0", " 1"])
def test_non_rational_argument_exits_2(capsys, text):
    assert main(["equiv", "--", text, "2", "1", "2"]) == 2
    assert _one_error_line(capsys.readouterr().err, f"argument c1: not a rational: {text!r}")


@pytest.mark.parametrize("text", ["1e5000", "1.5"])
def test_non_rational_case_constant_exits_2(capsys, text):
    assert main(["build", "--case", f"I:two-points:{text},2"]) == 2
    assert _one_error_line(capsys.readouterr().err, "bad constants")


@pytest.mark.parametrize("checks", ["cybe", "skew", "duality"])
def test_exponent_coefficient_is_malformed(tmp_path, capsys, checks):
    def edit(entry):
        entry["num"][0][2] = "1e5000"

    path = _with_entry(tmp_path, edit)
    argv = ["verify", "--in", str(path), "--case", "I:two-points:1,2", "--checks", checks]
    assert main(argv) == 3
    assert _one_error_line(capsys.readouterr().err, "bad rational '1e5000'")


def test_witness_too_long_to_write_exits_3(tmp_path, capsys):
    doc = json.loads(build_file(tmp_path, "I:constant", "zero").read_text())
    for entry in doc["entries"]:
        entry["num"] = [[0, 0, HUGE]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path), "--checks", "cybe"]) == 3
    assert _one_error_line(capsys.readouterr().err, "result too long to write")


def test_build_too_long_to_write_exits_3(capsys):
    assert main(["build", "--case", f"I:two-points:{HUGE},2{HUGE}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err, "result too long to write")


# -- equiv / table ------------------------------------------------------------

def test_equiv_frozen(capsys):
    assert main(["equiv", "1", "2", "3", "5"]) == 0
    out = capsys.readouterr().out
    assert "p=15/4" in out and "q=-1/4" in out and "C=2" in out and "equal" in out


def test_equiv_identity(capsys):
    assert main(["equiv", "1", "2", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "p=1" in out and "q=0" in out and "C=1" in out


def test_equiv_degenerate(capsys):
    for quad in (["1", "1", "3", "5"], ["0", "2", "1", "2"]):
        assert main(["equiv", *quad]) == 2
        assert "two-points constants must be nonzero and distinct" in capsys.readouterr().err


def test_table(capsys):
    assert main(["table", "I", "minus-alpha-max"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["table", "III", "simple", "2"]) == 0
    assert capsys.readouterr().out.strip() == "impossible"
    assert main(["table", "II", "simple", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["table", "I", "minus-alpha-max"]) == 0
    assert main(["table", "II", "simple", "3"]) == 0
    assert capsys.readouterr().out == "2\n0\n"
    # none when an earlier call in this process built it
    assert built.count("lbforge") <= 1
    assert cli.make_parser() is cli.make_parser()


def test_module_entry_point(capsys):
    src = str(Path(lbforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "lbforge.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = run_module("build", "--case", "I:constant")
    assert main(["build", "--case", "I:constant"]) == 0
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, capsys.readouterr().out, "")
    bad = run_module("table", "I", "minus-alpha-max", "2")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: k applies to the simple vertex only\n"


def test_bad_algebra():
    assert main(["build", "--algebra", "B:2", "--case", "I:constant", "--r", "zero"]) == 2
    assert main(["build", "--algebra", "A:1", "--case", "I:constant", "--r", "zero"]) == 2
