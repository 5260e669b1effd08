#!/usr/bin/env python3
"""Emit the closed-form r-matrix of every case family as JSON, then verify
each file through the CLI pipeline (CYBE, unitarity, duality, series).

Exits with the largest exit code of the builds and verifies (0 when all
pass, 1 when a check fails), 2 with an ``error:`` line on a ``--degree``
that is not an integer in ASCII digits, and 3 with an ``error:`` line when
the output directory cannot be made."""

import argparse
import pathlib
import sys

from lbforge.cli import EXIT_BAD_CONFIG, EXIT_IO, parse_natural
from lbforge.cli import main as cli_main
from lbforge.errors import InvalidParameterError
from lbforge.pairing import FAMILIES


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="A:2")
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--degree", default="6")
    args = parser.parse_args(argv)
    # read once, before any file is written
    try:
        degree = str(parse_natural(args.degree, "--degree"))
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    worst = 0
    # each family built with its catalog constant part, the CLI default
    for case in FAMILIES:
        slug = case.replace(":", "_").replace(",", "_")
        path = outdir / f"{slug}.json"
        code = cli_main(
            ["build", "--algebra", args.algebra, "--case", case, "--out", str(path)]
        )
        if code != 0:
            print(f"{case:22s} build FAILED ({code})")
            worst = max(worst, code)
            continue
        code = cli_main(
            ["verify", "--in", str(path), "--case", case,
             "--checks", "cybe,skew,duality", "--degree", degree,
             "--out", str(outdir / f"{slug}.report.json")]
        )
        print(f"{case:22s} -> {path.name}  verify exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
