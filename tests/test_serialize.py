"""serialize.dump against json.dumps(indent=2, sort_keys=True), on random
trees and on every document kind the CLI writes, and frac_str's text."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge import serialize
from lbforge.cli import main


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- random trees -------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII text and lone surrogates,
# each of which json escapes differently
chars = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u00a0\u2028\ufeff\U0001f600'),
    st.integers(0xD800, 0xDFFF).map(chr),
)
text = st.text(chars, max_size=12)
ints = st.one_of(st.integers(), st.integers(-(10 ** 300), 10 ** 300))
leaves = st.one_of(st.none(), st.booleans(), ints, text)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
        # a list of only str and int items, like the CLI's triples and monomials
        st.lists(st.one_of(ints, text), max_size=5),
    )


trees = st.recursive(leaves, containers, max_leaves=40)
# at least four containers deep around any tree
docs = st.one_of(trees, trees.map(lambda t: {"a": [({"b": [t, 0]},), "c"]}))


@settings(max_examples=300, deadline=None)
@given(docs)
def test_dump_is_json_dumps_text(doc):
    assert serialize.dump(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    1.5,
    {"a": [0, 2.0]},
    Fraction(1, 2),
    [{"x": Fraction(3)}],
    {1: "a"},
    {"a": {2: []}},
], ids=["float", "nested-float", "fraction", "nested-fraction", "int-key", "nested-int-key"])
def test_dump_refuses_values_outside_the_document_subset(doc):
    with pytest.raises(TypeError):
        serialize.dump(doc)


def test_dump_writes_the_returned_text(tmp_path):
    doc = {"\u00e9\ud800": ["x", 1, {"y": (None, True)}], "": -(10 ** 200)}
    path = tmp_path / "doc.json"
    text = serialize.dump(doc, path)
    assert text == reference(doc)
    assert path.read_bytes() == text.encode("ascii")


# -- every document kind the CLI writes ---------------------------------------

CASES = ["I:two-points:1,2", "I:double-pole", "I:simple-pole", "I:constant",
         "II:simple-pole", "II:constant", "III:constant"]


def _corrupt(path, name, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    bad = path.with_name(name)
    bad.write_text(json.dumps(doc))
    return str(bad)


def _set_coefficient(k):
    def edit(doc):
        doc["entries"][k]["num"][0][2] = "9/7"
    return edit


def _drop_f_e(doc):
    doc["entries"] = [e for e in doc["entries"] if (e["i"], e["j"]) != ("F(1,2)", "E(1,2)")]


def test_cli_documents_are_json_dumps_text(tmp_path, monkeypatch, capsys):
    written = []
    real = serialize.dump

    def recording(doc, path=None):
        written.append(doc)
        return real(doc, path)

    monkeypatch.setattr(serialize, "dump", recording)
    tensor = tmp_path / "r.json"
    zero = tmp_path / "zero.json"
    assert main(["build", "--case", CASES[0], "--out", str(tensor)]) == 0
    assert main(["build", "--case", "I:constant", "--r", "zero", "--out", str(zero)]) == 0
    case = ["--case", CASES[0]]
    runs = [
        (["verify", "--in", str(tensor), *case, "--checks", "cybe,skew,duality,delta-axioms,equiv",
          "--degree", "2", "--sweep-degree", "1"], 0),
        (["verify", "--in", _corrupt(tensor, "bad0.json", _set_coefficient(0)), *case,
          "--checks", "cybe,skew,duality", "--degree", "2"], 1),
        (["verify", "--in", _corrupt(tensor, "bad1.json", _set_coefficient(1)), *case,
          "--checks", "equiv"], 1),
        (["verify", "--in", _corrupt(zero, "bad_zero.json", _drop_f_e),
          "--checks", "delta-axioms", "--sweep-degree", "1"], 1),
    ]
    runs += [(["dualbasis", "--algebra", f"A:{n}", "--case", c], 0)
             for n in (2, 3, 4) for c in CASES]
    for argv, code in runs:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert len(written) == 2 + len(runs)
    witnessed = {check["check"] for doc in written for check in doc.get("checks", ())
                 if "witness" in check}
    assert witnessed == {"cybe", "skew", "duality", "delta-axioms", "equiv"}
    for doc in written:
        assert real(doc) == reference(doc)


# -- frac_str -----------------------------------------------------------------

@pytest.mark.parametrize("x, want", [
    (7, "7"),
    (-(10 ** 40), "-" + "1" + "0" * 40),
    (Fraction(-3, 4), "-3/4"),
    (Fraction(6, 3), "2"),
    # any other type still goes through Fraction
    (True, "1"),
])
def test_frac_str(x, want):
    assert serialize.frac_str(x) == want
