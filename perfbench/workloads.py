"""The four lbforge benchmark workloads, their seeded inputs and output gate.

A workload is built from a seed (``make_workload``) and yields the jobs of
one pass.  Every job checks what the program produced: axiom records must
all pass, every CLI call must end with its expected exit code, and every
emitted document goes through the ``Gate``, which compares its sha256
with the digest pinned in ``pins.json``.  Documents of the two-points
family depend on the seeded constants; those of an unpinned pair must
repeat the bytes of the first pass.  A job returns the list of its
failures; empty means correct.

The program is driven only through public lbforge functions and the
``lbforge.cli.main`` entry point, looked up at call time so that the
tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from lbforge import cli, cobracket, rmatrix
from lbforge.liealg import build_sl, jordanian, r_dj
from lbforge.pairing import CaseSpec
from lbforge.rmatrix import RKind
from lbforge.sparse import Sparse

PINS = Path(__file__).resolve().parent / "pins.json"

# (case text without constants, constant part for the CLI pipelines)
FAMILIES = [
    ("I:two-points", "dj"),
    ("I:double-pole", "zero"),
    ("I:simple-pole", "dj"),
    ("I:constant", "zero"),
    ("II:simple-pole", "dj"),
    ("II:constant", "dj"),
    ("III:constant", "zero"),
]
SKEW_FAMILIES = ("I:double-pole", "I:constant", "III:constant")

# expected exit code of every CLI call kind (0 success, 1 check failed)
EXPECTED_EXIT = {"build": 0, "verify": 0, "equiv": 0, "dualbasis": 0, "probe": 1}


# -- seeded inputs -------------------------------------------------------------

def _pole_toward_12(c1, c2):
    """True when the affine change carrying (c1, c2) to (1, 2) hits a pole.

    Solved here independently of lbforge: 1/d_i = X/c_i - Y with X = 1/p
    and Y = q/p; the change is degenerate when 1 - c_i q = 0.
    """
    x = (Fraction(1) - Fraction(1, 2)) / (1 / c1 - 1 / c2)
    q = (x / c1 - 1) / x
    return any(1 - c * q == 0 for c in (c1, c2))


def draw_two_points(rng):
    """(c1, c2) from the acceptance-suite range, redrawn until admissible."""
    while True:
        c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        c2 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if c1 != c2 and c1 != 0 and c2 != 0 and not _pole_toward_12(c1, c2):
            return c1, c2


def _case_text(base, pair):
    if base == "I:two-points":
        return f"{base}:{pair[0]},{pair[1]}"
    return base


def _slug(base):
    return base.replace(":", "_")


# -- output gate ---------------------------------------------------------------

class Gate:
    """Byte-identity check of emitted documents.

    ``pins`` maps document keys to sha256 digests.  A key without a pin
    (a two-points document of a pair that ``pins.json`` does not hold)
    must repeat the bytes of its first appearance in this run.
    """

    def __init__(self, pins):
        self.pins = pins
        self.first = {}

    def check(self, key, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        want = self.pins.get(key) or self.first.setdefault(key, digest)
        if digest != want:
            return f"{key}: sha256 {digest[:12]} != pinned {want[:12]}"
        return None


def pair_text(pair):
    return f"{pair[0]},{pair[1]}"


def load_pins(name, pair):
    """Pinned digests of workload ``name``: the documents every seed emits,
    and the two-points documents of ``pair`` if that pair is pinned."""
    doc = json.loads(PINS.read_text(encoding="utf-8"))[name]
    return {**doc["common"], **doc["two-points"].get(pair_text(pair), {})}


def call_cli(argv):
    """Run ``lbforge.cli.main`` and return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# -- workloads -----------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed, workdir: Path | None):
        self.rng = random.Random(seed)
        self.pair = draw_two_points(self.rng)
        self.workdir = workdir
        self.gate = Gate(load_pins(self.name, self.pair))
        # outcome of each equiv check on a corrupted file (families-cli)
        self.corrupt_probes = []

    def jobs(self):
        """The jobs of one pass as (label, callable returning failures)."""
        raise NotImplementedError

    def _cli(self, kind, key, argv, failures):
        code, out, err = call_cli(argv)
        if code != EXPECTED_EXIT[kind]:
            detail = err.strip().splitlines()[-1:] or [""]
            failures.append(f"{key}: exit {code}, expected {EXPECTED_EXIT[kind]} {detail[0]}")
        return code, out

    def _gate_file(self, key, path, failures):
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            failures.append(f"{key}: {exc}")
            return None
        problem = self.gate.check(key, data)
        if problem:
            failures.append(problem)
        return data

    def _verify_report(self, key, path, failures):
        data = self._gate_file(key, path, failures)
        if data is not None and json.loads(data).get("pass") is not True:
            failures.append(f"{key}: report does not pass")

    def _tensor_path(self, n, base):
        return self.workdir / f"A{n}-{_slug(base)}.json"

    def _build_verify(self, n, base, part, verify_args, failures):
        """lbforge build, then lbforge verify on the file it wrote."""
        case = _case_text(base, self.pair)
        key = f"A:{n}/{base}"
        tensor = self._tensor_path(n, base)
        report = tensor.with_suffix(".report.json")
        self._cli("build", f"{key}/build", ["build", "--algebra", f"A:{n}", "--case", case,
                                            "--r", part, "--out", str(tensor)], failures)
        self._gate_file(f"{key}/tensor", tensor, failures)
        self._cli("verify", f"{key}/verify",
                  ["verify", "--in", str(tensor), *verify_args, "--out", str(report)], failures)
        self._verify_report(f"{key}/report", report, failures)


class AxiomSweep(Workload):
    """cobracket.axiom_sweep, acceptance criterion 6: every family and
    catalog constant part on sl_2 (cap 4) and sl_3 (cap 2)."""

    name = "axiom-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = []
        for n, cap in ((2, 4), (3, 2)):
            alg = build_sl(n)
            for base, _part in FAMILIES:
                text = _case_text(base, self.pair)
                spec = CaseSpec.parse(text)
                if base in SKEW_FAMILIES:
                    parts = [
                        ("zero", RKind.skew(alg, Sparse())),
                        ("jordanian", RKind.skew(alg, jordanian(alg))),
                    ]
                else:
                    parts = [("dj", RKind.mcybe(alg, r_dj(alg)))]
                for part, rk in parts:
                    key = f"A:{n}/{base}/{part}"
                    self.cases.append((key, alg, cap, text, spec, rk))

    def jobs(self):
        return [(case[0], lambda case=case: self._sweep(*case)) for case in self.cases]

    def _sweep(self, key, alg, cap, text, spec, rk):
        failures = []
        r = rmatrix.build_r(alg, spec, rk)
        records = cobracket.axiom_sweep(alg, text, r, cap, cocycle_degree=2)
        bad = [rec for rec in records if not rec["pass"]]
        if bad:
            failures.append(f"{key}: {len(bad)} axiom records false, first {bad[0]}")
        problem = self.gate.check(key, json.dumps(records, sort_keys=True).encode())
        if problem:
            failures.append(problem)
        return failures


class FamiliesCli(Workload):
    """build + verify --checks cybe,skew,duality --degree 6 through the CLI
    for the seven families at A:3 and A:4, equiv for the two-points family,
    and one corrupted-input probe per algebra."""

    name = "families-cli"
    ranks = (3, 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # seeded choice of the coefficient each probe corrupts, and by how much
        self.corruption = {
            n: (
                self.rng.randrange(1 << 30),
                self.rng.randrange(1 << 30),
                Fraction(self.rng.randint(1, 9), self.rng.randint(1, 6)),
            )
            for n in self.ranks
        }

    def jobs(self):
        out = []
        for n in self.ranks:
            for base, part in FAMILIES:
                out.append((f"A:{n}/{base}", lambda n=n, b=base, p=part: self._family(n, b, p)))
            out.append((f"A:{n}/probe", lambda n=n: self._probe(n)))
        return out

    def _family(self, n, base, part):
        failures = []
        key = f"A:{n}/{base}"
        self._build_verify(n, base, part, ["--case", _case_text(base, self.pair),
                                           "--checks", "cybe,skew,duality", "--degree", "6"],
                           failures)
        if base == "I:two-points":
            c1, c2 = self.pair
            # "--" keeps negative constants from being read as options
            code, out = self._cli("equiv", f"{key}/equiv",
                                  ["equiv", "--", str(c1), str(c2), "1", "2"], failures)
            if code == 0 and not out.endswith(" equal\n"):
                failures.append(f"{key}/equiv: unexpected output {out!r}")
            problem = self.gate.check(f"{key}/equiv", out.encode())
            if problem:
                failures.append(problem)
        return failures

    def _probe(self, n):
        """Corrupt one coefficient of the two-points tensor built in this
        pass; cybe, skew and duality must each reject it with a witness."""
        failures = []
        base = "I:two-points"
        case = _case_text(base, self.pair)
        tensor = self._tensor_path(n, base)
        key = f"A:{n}/probe"
        try:
            doc = json.loads(tensor.read_bytes())
        except (OSError, ValueError) as exc:
            return [f"{key}: cannot read the built tensor: {exc}"]
        pick_entry, pick_mono, shift = self.corruption[n]
        entries = [e for e in doc["entries"] if e["i"] != e["j"] and e["num"]]
        entry = entries[pick_entry % len(entries)]
        mono = entry["num"][pick_mono % len(entry["num"])]
        mono[2] = str(Fraction(mono[2]) + shift)
        bad = self.workdir / f"A{n}-corrupt.json"
        bad.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

        report = self.workdir / f"A{n}-corrupt.report.json"
        code, _ = self._cli("probe", f"{key}/verify",
                            ["verify", "--in", str(bad), "--case", case,
                             "--checks", "cybe,skew,duality", "--degree", "6",
                             "--out", str(report)], failures)
        if code == 1:
            checks = {c["check"]: c for c in json.loads(report.read_bytes())["checks"]}
            for name in ("cybe", "skew", "duality"):
                entry = checks.get(name, {})
                if entry.get("pass", True) or "witness" not in entry:
                    failures.append(f"{key}: {name} accepted the corrupted tensor")

        # equiv re-derives both sides from the case text and ignores the file;
        # the outcome is reported as a metric, not counted as a failure
        code, _, _ = call_cli(["verify", "--in", str(bad), "--case", case,
                               "--checks", "equiv",
                               "--out", str(self.workdir / f"A{n}-corrupt.equiv.json")])
        self.corrupt_probes.append(code == 0)
        return failures


class DualbasisCli(Workload):
    """lbforge dualbasis --degree 6 for the seven cases at A:4."""

    name = "dualbasis-cli"
    rank = 4
    degree = 6

    def jobs(self):
        return [(f"A:{self.rank}/{base}", lambda b=base: self._dualbasis(b))
                for base, _ in FAMILIES]

    def _dualbasis(self, base):
        failures = []
        case = _case_text(base, self.pair)
        key = f"A:{self.rank}/{base}"
        out = self.workdir / f"A{self.rank}-{_slug(base)}.duals.json"
        self._cli("dualbasis", key, ["dualbasis", "--algebra", f"A:{self.rank}", "--case", case,
                                     "--degree", str(self.degree), "--out", str(out)], failures)
        data = self._gate_file(f"{key}/duals", out, failures)
        if data is not None:
            doc = json.loads(data)
            dim = self.rank * self.rank - 1
            if doc.get("case") != case or len(doc.get("duals", ())) != dim * (self.degree + 1):
                failures.append(f"{key}: document does not hold {dim * (self.degree + 1)} duals")
        return failures


class CybeRank(Workload):
    """build + verify --checks cybe,skew at A:5, every family with a
    nonzero constant part (dj or Jordanian)."""

    name = "cybe-rank"
    rank = 5

    def jobs(self):
        return [(f"A:{self.rank}/{base}",
                    lambda b=base, p=part: self._family(b, "jordanian" if p == "zero" else p))
                for base, part in FAMILIES]

    def _family(self, base, part):
        failures = []
        self._build_verify(self.rank, base, part, ["--checks", "cybe,skew"], failures)
        return failures


WORKLOADS = {cls.name: cls for cls in (AxiomSweep, FamiliesCli, DualbasisCli, CybeRank)}


def make_workload(name, seed, workdir=None):
    return WORKLOADS[name](seed, workdir)
