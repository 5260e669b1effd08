"""Command-line interface.

Subcommands: build, verify, dualbasis, equiv, table.  Exit codes are a
stable contract: 0 success, 1 a verification check failed, 2 invalid
configuration (with the violated degree bound in the message), 3 an I/O
or parse failure.  All numeric I/O is exact-rational strings.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import serialize
from .cobracket import axiom_sweep
from .errors import LbforgeError, MalformedInputError
from .lagrangian import catalog_w0, dual_basis, is_lagrangian
from .liealg import build_sl, casimir, jordanian, r_dj, swap2
from .pairing import CaseSpec, admissible_degree, canonical_pairings, validate_case
from .rmatrix import (
    RKind,
    build_r,
    catalog_rkind,
    cyb_spectral,
    expand_region,
    skew_residual,
    skew_spectral_check,
    sum_dual_series,
)
from .sparse import Sparse
from .twist import quasi_twist_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3

ALL_CHECKS = ("cybe", "skew", "duality", "delta-axioms", "equiv")


class ConfigError(Exception):
    pass


def parse_checks(text: str) -> list:
    checks = [c.strip() for c in text.split(",") if c.strip()]
    if not checks:
        raise ConfigError(f"no check named in {text!r}; expected some of {','.join(ALL_CHECKS)}")
    for n, name in enumerate(checks):
        if name not in ALL_CHECKS:
            raise ConfigError(f"unknown check {name!r}")
        if name in checks[:n]:
            raise ConfigError(f"check {name!r} is named twice")
    return checks


def parse_algebra(text: str):
    parts = text.split(":")
    if len(parts) != 2 or parts[0] != "A":
        raise ConfigError(f"unsupported algebra {text!r}; expected A:n")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cap = env_cap("LBFORGE_MAX_RANK")
    if cap is not None and n > cap:
        raise ConfigError(f"rank {n} exceeds LBFORGE_MAX_RANK={cap}")
    return build_sl(n)


def parse_case(text: str) -> CaseSpec:
    spec = CaseSpec.parse(text)
    reason = validate_case(spec)
    if reason is not None:
        raise ConfigError(reason)
    return spec


def classify_rkind(alg, value: Sparse) -> RKind:
    if value + swap2(value) == casimir(alg):
        return RKind.mcybe(alg, value)
    if (value + swap2(value)).is_zero():
        return RKind.skew(alg, value)
    raise ConfigError("constant tensor is neither modified-type nor skew")


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
            try:
                i, j = (int(p) for p in text.split(":", 1)[1].split(","))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            root = (i, j)
        return RKind.skew(alg, jordanian(alg, root))
    if text.startswith("file:"):
        doc = serialize.load(text[5:])
        return classify_rkind(alg, serialize.const_tensor_from_doc(doc, alg))
    raise ConfigError(f"unknown constant part {text!r}")


def env_cap(name: str):
    """The integer value of the environment variable name, None if unset."""
    cap = os.environ.get(name)
    if cap is None:
        return None
    try:
        return int(cap)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {cap!r}") from None


def check_degree(n: int, name: str = "degree", low: int = 1) -> int:
    """Validate a degree option: low <= n, and n <= LBFORGE_MAX_DEGREE if set."""
    if n < low:
        raise ConfigError(f"{name} must be >= {low}")
    cap = env_cap("LBFORGE_MAX_DEGREE")
    if cap is not None and n > cap:
        raise ConfigError(f"{name} {n} exceeds LBFORGE_MAX_DEGREE={cap}")
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
    return False, _witness(alg, result.numerators.items(), 3)


def _check_skew(alg, r, spec, args):
    if skew_spectral_check(r):
        return True, None
    terms = (
        (key + mono, c)
        for key, val in skew_residual(r).items()
        for mono, c in val.num.items()
    )
    return False, _witness(alg, terms, 2)


def _check_duality(alg, r, spec, args):
    if spec is None:
        raise ConfigError("duality check needs --case")
    n = args.degree
    w = catalog_w0(alg, spec)
    duals = dual_basis(alg, w, n)
    for (i, k, el) in duals:
        pairs = canonical_pairings(alg, spec, el, n)
        for l in range(n + 1):
            for j in range(alg.dim):
                val = pairs.get((j, l), 0)
                want = 1 if (i, k) == (j, l) else 0
                if val != want:
                    return False, {
                        "i": f"{alg.basis[j]}*u^{l}",
                        "j": f"dual({alg.basis[i]}*u^{k})",
                        "coefficient": serialize.frac_str(val),
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
        raise ConfigError("equiv check needs a two-points --case")
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
    n = check_degree(args.degree)
    w = catalog_w0(alg, spec)
    report = is_lagrangian(alg, w, max(n, 6))
    if not report.ok:
        raise ConfigError("catalog presentation failed the Lagrangian check")
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
    report = quasi_twist_verify(args.c1, args.c2, args.d1, args.d2)
    verdict = "equal" if report.equal else "different"
    print(
        f"p={report.change.p} q={report.change.q} C={report.scale} {verdict}"
    )
    return EXIT_OK if report.equal else EXIT_CHECK_FAILED


def cmd_table(args) -> int:
    simple_k = None
    if args.vertex == "simple":
        simple_k = args.k if args.k is not None else 1
    elif args.k is not None:
        raise ConfigError("k applies to the simple vertex only")
    deg = admissible_degree(args.double_type, simple_k)
    print("impossible" if deg is None else str(deg))
    return EXIT_OK


def _fraction_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    verify.add_argument("--degree", type=int, default=6)
    verify.add_argument("--sweep-degree", type=int, default=2)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    dualb = sub.add_parser("dualbasis", help="emit the catalog dual basis")
    dualb.add_argument("--algebra", default="A:2")
    dualb.add_argument("--case", required=True)
    dualb.add_argument("--degree", type=int, default=6)
    dualb.add_argument("--out", default=None)
    dualb.set_defaults(func=cmd_dualbasis)

    equiv = sub.add_parser("equiv", help="quasi-twist equivalence of two families")
    for name in ("c1", "c2", "d1", "d2"):
        equiv.add_argument(name, type=_fraction_arg)
    equiv.set_defaults(func=cmd_equiv)

    table = sub.add_parser("table", help="admissible degree of 1/a(u)")
    table.add_argument("double_type", choices=("I", "II", "III"))
    table.add_argument("vertex", choices=("minus-alpha-max", "simple"))
    table.add_argument("k", type=int, nargs="?", default=None)
    table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LbforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
