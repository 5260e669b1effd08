"""Exact-rational JSON encoding of tensors and reports.

All numbers travel as decimal-free "num/den" strings, so serialization
round-trips bit-exactly.  Entry lists are sorted on basis labels and
exponents, which makes the output byte-stable across runs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import MalformedInputError
from .liealg import LieAlgebraData, build_sl, sl_labels
from .pairing import DoubleElement
from .ratfun import bivar
from .rmatrix import SpectralTensor2
from .sparse import Sparse, rational


def frac_str(x) -> str:
    """x as "num/den"; a numerator or denominator longer than Python
    converts to text (sys.get_int_max_str_digits) cannot be written."""
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise MalformedInputError(f"result too long to write: {exc}") from exc


def parse_frac(s) -> Fraction:
    try:
        return rational(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational {s!r}") from exc


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; a bool, a float or a string is malformed."""
    if type(value) is not int:
        raise MalformedInputError(f"{what} must be an integer, got {value!r}")
    return value


def _check_cap(value: int, cap, what: str) -> None:
    if cap is not None and value > cap:
        raise MalformedInputError(f"{what}: {value} exceeds LBFORGE_MAX_DEGREE={cap}")


def algebra_doc(alg: LieAlgebraData) -> dict:
    return {"type": "A", "rank": alg.n}


def algebra_from_doc(doc, basis, max_rank=None) -> LieAlgebraData:
    """sl_n from {"type": "A", "rank": n} and the file's basis labels; a rank
    below 2 or above ``max_rank`` (the LBFORGE_MAX_RANK cap) is malformed,
    and so are labels other than sl_n's, compared before sl_n is built."""
    try:
        if doc["type"] != "A":
            raise MalformedInputError(f"unsupported algebra type {doc['type']!r}")
        rank = _json_int(doc["rank"], "rank")
    except (KeyError, TypeError) as exc:
        raise MalformedInputError("bad algebra record") from exc
    if rank < 2:
        raise MalformedInputError(f"rank must be >= 2, got {rank}")
    if max_rank is not None and rank > max_rank:
        raise MalformedInputError(f"rank {rank} exceeds LBFORGE_MAX_RANK={max_rank}")
    basis = list(basis)
    # the length first, so the labels of a huge rank are never listed
    if len(basis) != rank * rank - 1 or basis != list(sl_labels(rank)):
        raise MalformedInputError("basis labels do not match the algebra")
    return build_sl(rank)


def tensor_to_doc(alg: LieAlgebraData, r: SpectralTensor2) -> dict:
    entries = []
    for (i, j) in sorted(r.entries):
        val = r.entries[(i, j)]
        num = [
            [a, b, frac_str(c)]
            for (a, b), c in sorted(val.num.items())
        ]
        entries.append(
            {
                "i": alg.basis[i],
                "j": alg.basis[j],
                "num": num,
                "den_power": val.den_pow,
                "den_scale": "1",
            }
        )
    return {"algebra": algebra_doc(alg), "basis": list(alg.basis), "entries": entries}


def tensor_from_doc(doc, max_rank=None, max_degree=None):
    """Returns (algebra, SpectralTensor2); raises MalformedInputError.

    An exponent or a ``den_power`` above ``max_degree`` (the
    LBFORGE_MAX_DEGREE cap) is malformed, checked before the entry is
    built: both bound the work of the (v - u) arithmetic.
    """
    try:
        alg = algebra_from_doc(doc["algebra"], doc["basis"], max_rank)
        index = {label: k for k, label in enumerate(alg.basis)}
        r = SpectralTensor2()
        for entry in doc["entries"]:
            i = index[entry["i"]]
            j = index[entry["j"]]
            num = Sparse()
            where = f"entry ({entry['i']}, {entry['j']})"
            for a, b, c in entry["num"]:
                a = _json_int(a, f"exponent in {where}")
                b = _json_int(b, f"exponent in {where}")
                if a < 0 or b < 0:
                    raise MalformedInputError(f"negative exponent in {where}")
                _check_cap(max(a, b), max_degree, f"exponent in {where}")
                num.iadd((a, b), parse_frac(c))
            den_power = _json_int(entry["den_power"], f"den_power in {where}")
            if den_power < 0:
                raise MalformedInputError(f"negative den_power in {where}")
            _check_cap(den_power, max_degree, f"den_power in {where}")
            scale = parse_frac(entry.get("den_scale", "1"))
            if scale == 0:
                raise MalformedInputError("zero denominator scale")
            r.add_entry((i, j), bivar(num if scale == 1 else (1 / scale) * num, den_power))
        return alg, r
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInputError(f"malformed tensor document: {exc}") from exc


def const_tensor_from_doc(doc, alg: LieAlgebraData) -> Sparse:
    """Constant 2-tensor from {"entries": [{"i","j","c"}, ...]}."""
    try:
        index = {label: k for k, label in enumerate(alg.basis)}
        out = Sparse()
        for entry in doc["entries"]:
            out.iadd((index[entry["i"]], index[entry["j"]]), parse_frac(entry["c"]))
        return out
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed constant tensor: {exc}") from exc


def double_element_doc(alg, el: DoubleElement) -> dict:
    doc = {}
    loop = [
        [alg.basis[i], d, frac_str(c)]
        for (i, d), c in sorted(el.loop.items())
    ]
    if loop:
        doc["loop"] = loop
    fin = [[alg.basis[i], frac_str(c)] for i, c in sorted(el.fin.items())]
    if fin:
        doc["finite"] = fin
    eps = [[alg.basis[i], frac_str(c)] for i, c in sorted(el.eps.items())]
    if eps:
        doc["eps"] = eps
    return doc


def wpresentation_to_doc(alg, w) -> dict:
    """Head generators plus the tail polynomial m(t), t = u^{-1}."""
    return {
        "case": w.spec.text,
        "head": [double_element_doc(alg, gen) for gen in w.head],
        "tail": [[d, frac_str(c)] for d, c in sorted(w.tail.items())],
    }


def dump(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load(path):
    """The JSON document at path; MalformedInputError when the file cannot
    be opened, is not UTF-8, is not JSON or nests deeper than the decoder's
    recursion limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers json.JSONDecodeError and UnicodeDecodeError
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
