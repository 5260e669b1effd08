#!/usr/bin/env python3
"""Emit the closed-form r-matrix of every case family as JSON, then verify
each file through the CLI pipeline (CYBE, unitarity, duality, series)."""

import argparse
import pathlib
import sys

from lbforge.cli import EXIT_BAD_CONFIG, parse_natural
from lbforge.cli import main as cli_main
from lbforge.errors import InvalidParameterError
from lbforge.pairing import FAMILY_POINTS

# the seven families, each built with its catalog constant part, the CLI default
FAMILIES = ["I:two-points:1,2", *(f"{dt}:{form}" for dt, form in FAMILY_POINTS)]


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
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
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
