"""Command-line interface.

Subcommands: build, verify, dualbasis, equiv, table.  Exit codes are a
stable contract: 0 success, 1 a verification check failed, 2 invalid
configuration (with the violated degree bound in the message), 3 an I/O
or parse failure.  All numeric I/O is exact-rational strings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import serialize
from .cobracket import axiom_sweep
from .errors import InvalidParameterError, LbforgeError, MalformedInputError
from .lagrangian import catalog_w0, dual_basis, is_lagrangian
from .liealg import build_sl, casimir, jordanian, r_dj, swap2
from .pairing import DOUBLE_TYPES, CaseSpec, admissible_degree, canonical_pairings
from .rmatrix import (
    RKind,
    build_r,
    catalog_rkind,
    cyb_spectral,
    expand_region,
    skew_residual,
    sum_dual_series,
)
from .sparse import Sparse, natural, rational
from .twist import quasi_twist_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3

ALL_CHECKS = ("cybe", "skew", "duality", "delta-axioms", "equiv")


def parse_checks(text: str) -> list:
    checks = [c.strip() for c in text.split(",") if c.strip()]
    if not checks:
        raise InvalidParameterError(
            f"no check named in {text!r}; expected some of {','.join(ALL_CHECKS)}"
        )
    for n, name in enumerate(checks):
        if name not in ALL_CHECKS:
            raise InvalidParameterError(f"unknown check {name!r}")
        if name in checks[:n]:
            raise InvalidParameterError(f"check {name!r} is named twice")
    return checks


def parse_natural(text: str, name: str) -> int:
    """The integer ``text`` given for ``name``, written in ASCII digits alone."""
    try:
        return natural(text)
    except ValueError as exc:
        raise InvalidParameterError(f"{name}: {exc}") from None


def parse_algebra(text: str):
    parts = text.split(":")
    if len(parts) != 2 or parts[0] != "A":
        raise InvalidParameterError(f"unsupported algebra {text!r}; expected A:n")
    n = parse_natural(parts[1], "--algebra")
    cap = env_cap("LBFORGE_MAX_RANK")
    if cap is not None and n > cap:
        raise InvalidParameterError(f"rank {n} exceeds LBFORGE_MAX_RANK={cap}")
    return build_sl(n)


def parse_case(text: str) -> CaseSpec:
    spec = CaseSpec.parse(text)
    spec.points  # an illegal family raises validate_case's rejection here
    return spec


def classify_rkind(alg, value: Sparse) -> RKind:
    total = value + swap2(value)
    if total == casimir(alg):
        return RKind.mcybe(alg, value)
    if total.is_zero():
        return RKind.skew(alg, value)
    raise InvalidParameterError("constant tensor is neither modified-type nor skew")


def parse_constant_r(alg, spec, text) -> RKind:
    """The constant part named by ``--r``; without one, the family's catalog
    part (``dj`` or ``zero``)."""
    if text is None:
        return catalog_rkind(alg, spec)
    if text == "zero":
        return RKind.skew(alg, Sparse())
    if text == "dj":
        return RKind.mcybe(alg, r_dj(alg))
    if text == "jordanian" or text.startswith("jordanian:"):
        root = None
        if ":" in text:
            parts = text.split(":", 1)[1].split(",")
            if len(parts) != 2:
                raise InvalidParameterError(f"--r: expected jordanian:i,j, got {text!r}")
            root = tuple(parse_natural(p, "--r") for p in parts)
        return RKind.skew(alg, jordanian(alg, root))
    if text.startswith("file:"):
        doc = serialize.load(text[5:])
        return classify_rkind(alg, serialize.const_tensor_from_doc(doc, alg))
    raise InvalidParameterError(f"unknown constant part {text!r}")


def env_cap(name: str):
    """The integer value of the environment variable name, None if unset."""
    cap = os.environ.get(name)
    if cap is None:
        return None
    try:
        return natural(cap)
    except ValueError:
        raise InvalidParameterError(f"{name} must be an integer, got {cap!r}") from None


def check_degree(n: int, name: str = "degree", low: int = 1) -> int:
    """Validate a degree option: low <= n, and n <= LBFORGE_MAX_DEGREE if set."""
    if n < low:
        raise InvalidParameterError(f"{name} must be >= {low}")
    cap = env_cap("LBFORGE_MAX_DEGREE")
    if cap is not None and n > cap:
        raise InvalidParameterError(f"{name} {n} exceeds LBFORGE_MAX_DEGREE={cap}")
    return n


def _emit(doc, out_path):
    text = serialize.dump(doc, out_path)
    if not out_path:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    alg = parse_algebra(args.algebra)
    spec = parse_case(args.case)
    r = build_r(alg, spec, parse_constant_r(alg, spec, args.r))
    _emit(serialize.tensor_to_doc(alg, r), args.out)
    return EXIT_OK


def _witness(alg, terms, legs: int):
    """Witness of a nonzero residual given as (key, coefficient) terms: the
    least term, whose key is ``legs`` basis indices and then a monomial."""
    key, coeff = min(terms)
    names = [alg.basis[k] for k in key[:legs]]
    if legs == 2:
        return {"i": names[0], "j": names[1], "coefficient": serialize.frac_str(coeff)}
    return {"indices": names, "coefficient": serialize.frac_str(coeff)}


def _check_cybe(alg, r, spec, args):
    result = cyb_spectral(alg, r)
    if result.is_zero():
        return True, None
    return False, _witness(alg, result.items(), 3)


def _check_skew(alg, r, spec, args):
    residual = skew_residual(r)
    if residual.is_zero():
        return True, None
    terms = (
        (key + mono, c)
        for key, val in residual.items()
        for mono, c in val.num.items()
    )
    return False, _witness(alg, terms, 2)


def _check_duality(alg, r, spec, args):
    if spec is None:
        raise InvalidParameterError("duality check needs --case")
    n = args.degree
    w = catalog_w0(alg, spec)
    duals = dual_basis(alg, w, n)
    for (i, k, el) in duals:
        pairs = canonical_pairings(alg, spec, el, n)
        # the canonical vectors x_j u^l, l <= n, that el pairs with wrongly:
        # its nonzero pairings other than a 1 with its partner, and the
        # partner when that pairing is 0; the witness is the least (l, j)
        wrong = [(l, j) for (j, l), val in pairs.items() if val != 1 or (j, l) != (i, k)]
        if (i, k) not in pairs:
            wrong.append((k, i))
        if wrong:
            l, j = min(wrong)
            return False, {
                "i": f"{alg.basis[j]}*u^{l}",
                "j": f"dual({alg.basis[i]}*u^{k})",
                "coefficient": serialize.frac_str(pairs.get((j, l), 0)),
            }
    series = sum_dual_series(alg, w, n, duals)
    closed = expand_region(r, n)
    if series == closed:
        return True, None
    i, j, du, dv = k = min(k for k in series.keys() | closed.keys()
                           if series.get(k) != closed.get(k))
    return False, {"i": alg.basis[i], "j": alg.basis[j], "deg_u": du, "deg_v": dv,
                   "series": serialize.frac_str(series.get(k, 0)),
                   "tensor": serialize.frac_str(closed.get(k, 0))}


def _check_delta_axioms(alg, r, spec, args):
    label = spec.text if spec else "-"
    records = axiom_sweep(alg, label, r, args.sweep_degree)
    bad = [rec for rec in records if not rec["pass"]]
    if bad:
        return False, bad[0]
    return True, None


def _check_equiv(alg, r, spec, args):
    if spec is None or spec.a_form != "two-points":
        raise InvalidParameterError("equiv check needs a two-points --case")
    report = quasi_twist_verify(spec.c1, spec.c2, 1, 2, alg=alg, source=r)
    if report.equal:
        return True, None
    return False, {"detail": "scaling identity failed against the (1,2) family"}


_CHECKS = {
    "cybe": _check_cybe,
    "skew": _check_skew,
    "duality": _check_duality,
    "delta-axioms": _check_delta_axioms,
    "equiv": _check_equiv,
}


def cmd_verify(args) -> int:
    args.degree = parse_natural(args.degree, "--degree")
    args.sweep_degree = parse_natural(args.sweep_degree, "--sweep-degree")
    doc = serialize.load(args.infile)
    # the tensor file owns the algebra
    alg, r = serialize.tensor_from_doc(
        doc, env_cap("LBFORGE_MAX_RANK"), env_cap("LBFORGE_MAX_DEGREE")
    )
    spec = parse_case(args.case) if args.case else None
    checks = parse_checks(args.checks)
    # a degree option is bounded only when a requested check uses it
    if "duality" in checks:
        check_degree(args.degree)
    if "delta-axioms" in checks:
        check_degree(args.sweep_degree, "sweep degree", 0)
    results = []
    all_pass = True
    for name in checks:
        ok, witness = _CHECKS[name](alg, r, spec, args)
        all_pass = all_pass and ok
        entry = {"check": name, "pass": ok}
        if witness is not None:
            entry["witness"] = witness
        results.append(entry)
    _emit({"pass": all_pass, "checks": results}, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_dualbasis(args) -> int:
    alg = parse_algebra(args.algebra)
    spec = parse_case(args.case)
    n = check_degree(parse_natural(args.degree, "--degree"))
    w = catalog_w0(alg, spec)
    report = is_lagrangian(alg, w)
    if not report.ok:
        raise InvalidParameterError("catalog presentation failed the Lagrangian check")
    duals = [
        {
            "i": alg.basis[i],
            "degree": k,
            "dual": serialize.double_element_doc(alg, el),
        }
        for (i, k, el) in dual_basis(alg, w, n)
    ]
    _emit(
        {
            "algebra": serialize.algebra_doc(alg),
            "basis": list(alg.basis),
            "case": spec.text,
            "presentation": serialize.wpresentation_to_doc(alg, w),
            "duals": duals,
        },
        args.out,
    )
    return EXIT_OK


def cmd_equiv(args) -> int:
    consts = []
    for name in ("c1", "c2", "d1", "d2"):
        text = getattr(args, name)
        try:
            consts.append(rational(text))
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(f"argument {name}: not a rational: {text!r}") from None
    report = quasi_twist_verify(*consts)
    verdict = "equal" if report.equal else "different"
    p, q, scale = map(serialize.frac_str, (report.change.p, report.change.q, report.scale))
    print(f"p={p} q={q} C={scale} {verdict}")
    return EXIT_OK if report.equal else EXIT_CHECK_FAILED


def cmd_table(args) -> int:
    simple_k = None
    if args.vertex == "simple":
        simple_k = parse_natural(args.k, "k") if args.k is not None else 1
    elif args.k is not None:
        raise InvalidParameterError("k applies to the simple vertex only")
    deg = admissible_degree(args.double_type, simple_k)
    print("impossible" if deg is None else str(deg))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Rejections raise ``InvalidParameterError``; subparsers inherit this."""

    def error(self, message):
        raise InvalidParameterError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and only read after."""
    parser = _Parser(
        prog="lbforge",
        description="Exact spectral r-matrices for Lie bialgebra structures "
        "on polynomial Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="emit a closed-form r-matrix as JSON")
    build.add_argument("--algebra", default="A:2", help="A:n for sl_n")
    build.add_argument("--case", required=True, help='e.g. "I:two-points:1,2"')
    build.add_argument("--r", default=None, help="zero|dj|jordanian[:i,j]|file:path")
    build.add_argument("--out", default=None)
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="verify a tensor file")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--case", default=None)
    verify.add_argument("--checks", default="cybe,skew")
    verify.add_argument("--degree", default="6")
    verify.add_argument("--sweep-degree", default="2")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    dualb = sub.add_parser("dualbasis", help="emit the catalog dual basis")
    dualb.add_argument("--algebra", default="A:2")
    dualb.add_argument("--case", required=True)
    dualb.add_argument("--degree", default="6")
    dualb.add_argument("--out", default=None)
    dualb.set_defaults(func=cmd_dualbasis)

    equiv = sub.add_parser("equiv", help="quasi-twist equivalence of two families")
    for name in ("c1", "c2", "d1", "d2"):
        equiv.add_argument(name)
    equiv.set_defaults(func=cmd_equiv)

    table = sub.add_parser("table", help="admissible degree of 1/a(u)")
    table.add_argument("double_type", choices=DOUBLE_TYPES)
    table.add_argument("vertex", choices=("minus-alpha-max", "simple"))
    table.add_argument("k", nargs="?", default=None)
    table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except (LbforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        config = isinstance(exc, LbforgeError) and not isinstance(exc, MalformedInputError)
        return EXIT_BAD_CONFIG if config else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
