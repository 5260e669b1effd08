#!/usr/bin/env python3
"""Full cobracket axiom sweep over the seven case families.

Writes a JSON list of {"family", "element", "check", "pass"} records and
prints a per-family summary with its time in milliseconds.  Degree caps
are flag-controlled; defaults match the acceptance suite (4 on sl_2, 2 on
sl_3).  Exits 0 when every record passes, 1 when one fails, 2 with an
``error:`` line on an invalid rank or degree (the flags are integers in
ASCII digits after at most one '-', and a degree must be >= 0), and 3 with
an ``error:`` line when the output file cannot be written.  The flags are
read, then the output file is opened, then the families are swept, so a
bad flag or an unwritable path costs no sweep.
"""

import argparse
import json
import sys
import time

from lbforge.cli import EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK
from lbforge.cobracket import axiom_sweep, sweep_degrees
from lbforge.errors import InvalidParameterError, LbforgeError
from lbforge.liealg import build_sl
from lbforge.pairing import FAMILIES, CaseSpec
from lbforge.rmatrix import build_r, catalog_rkind
from lbforge.sparse import natural


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="2", help="n of sl_n")
    parser.add_argument("--degree", default=None, help="sweep degree cap")
    parser.add_argument("--cocycle-degree", default="2",
                        help="degree cap of the cocycle pairs; clamped to --degree")
    parser.add_argument("--out", default="axiom_sweep.json")
    args = parser.parse_args(argv)
    try:
        alg, cap, cocycle_degree = read_flags(args)
    except LbforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            records = sweep_all(alg, cap, cocycle_degree)
            json.dump(records, fh, indent=2)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK if all(rec["pass"] for rec in records) else EXIT_CHECK_FAILED


def integer(text, flag):
    """The value ``text`` of ``flag``: ASCII digits after at most one '-'."""
    try:
        return -natural(text[1:]) if text[:1] == "-" else natural(text)
    except ValueError as exc:
        raise InvalidParameterError(f"{flag}: {exc}") from None


def read_flags(args):
    """(sl_n, degree cap, cocycle degree) of the three integer flags."""
    n = integer(args.algebra, "--algebra")
    alg = build_sl(n)
    cap = integer(args.degree, "--degree") if args.degree is not None else (4 if n == 2 else 2)
    cocycle_degree = integer(args.cocycle_degree, "--cocycle-degree")
    return (alg, *sweep_degrees(cap, cocycle_degree))


def sweep_all(alg, cap, cocycle_degree):
    records = []
    for text in FAMILIES:
        spec = CaseSpec.parse(text)
        r = build_r(alg, spec, catalog_rkind(alg, spec))
        start = time.perf_counter()
        recs = axiom_sweep(alg, text, r, cap, cocycle_degree=cocycle_degree)
        ms = (time.perf_counter() - start) * 1000
        records.extend(recs)
        failed = sum(1 for rec in recs if not rec["pass"])
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"{text:22s} {len(recs):5d} checks  {status}  ({ms:.0f} ms)")
    return records


if __name__ == "__main__":
    sys.exit(main())
