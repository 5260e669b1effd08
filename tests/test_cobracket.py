import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lbforge.cobracket
from lbforge.errors import InvalidParameterError, NotPolynomialError
from lbforge.cobracket import (
    BasisCobrackets,
    _ad_into,
    axiom_sweep,
    bracket_poly,
    check_cocycle,
    check_cojacobi,
    check_skew,
    delta,
    sweep_degrees,
)
from lbforge.liealg import basis_element, build_sl, jordanian, r_dj, wedge_sum
from lbforge.lagrangian import catalog_w0
from lbforge.pairing import CaseSpec
from lbforge.ratfun import bivar, poly2
from lbforge.rmatrix import (
    MCYBE,
    RKind,
    SpectralTensor2,
    build_r,
    catalog_rkind,
    from_constant,
    kernel_tensor,
    sum_dual_series,
)
from lbforge.sparse import Sparse
from test_liealg import ad_action2, oracle

ALG = build_sl(2)
YANG = kernel_tensor(ALG, poly2({(0, 0): 1}))  # Omega/(v-u)
E_U = Sparse({(0, 1): Fraction(1)})  # e * u


def test_delta_eu_frozen():
    # [e u (x) 1 + 1 (x) e v, Omega/(v-u)] = e (x) h - h (x) e
    d = delta(ALG, YANG, E_U)
    assert d == Sparse({(0, 2, 0, 0): 1, (2, 0, 0, 0): -1})


def test_delta_constant_element_sees_only_constant_part():
    # ad-invariance kills the kernel part for constant f
    r = YANG + from_constant(jordanian(ALG))
    d_kernel_only = delta(ALG, YANG, Sparse({(0, 0): Fraction(1)}))
    assert d_kernel_only == {}
    d = delta(ALG, r, Sparse({(0, 0): Fraction(1)}))
    expected = {}
    for (i, j), c in _ad_const(jordanian(ALG)).items():
        expected[(i, j)] = poly2({(0, 0): c})
    assert d == expected


def _ad_const(t):
    return ad_action2(ALG, basis_element(0), t)


def test_delta_weight_zero():
    # constant parts never create poles: with r = Omega/(v-u) + e(x)f the
    # cobracket of h is [h .. , e(x)f] = 0
    r = YANG + from_constant(Sparse({(0, 1): Fraction(1)}))
    assert delta(ALG, r, Sparse({(2, 0): Fraction(1)})) == {}


def test_delta_rejects_laurent_input():
    with pytest.raises(InvalidParameterError):
        delta(ALG, YANG, Sparse({(0, -1): Fraction(1)}))


def test_check_skew_examples():
    assert check_skew(ALG, YANG, E_U)
    r = build_r(ALG, CaseSpec.parse("I:double-pole"), RKind.skew(ALG, jordanian(ALG)))
    assert check_skew(ALG, r, Sparse({(2, 2): Fraction(1)}))
    bad = YANG + from_constant(Sparse({(0, 1): Fraction(1)}))
    assert not check_skew(ALG, bad, Sparse({(0, 0): Fraction(1)}))


def test_check_cocycle_examples():
    assert check_cocycle(ALG, YANG, E_U, E_U)  # f = g: both sides vanish
    assert check_cocycle(
        ALG, YANG, Sparse({(0, 0): Fraction(1)}), Sparse({(1, 1): Fraction(1)})
    )
    spec = CaseSpec.parse("II:constant")
    r = build_r(ALG, spec, catalog_rkind(ALG, spec))
    assert check_cocycle(
        ALG, r, Sparse({(0, 1): Fraction(1)}), Sparse({(2, 0): Fraction(1)})
    )


def test_check_cojacobi_examples():
    assert check_cojacobi(ALG, YANG, Sparse({(0, 0): Fraction(1)}))
    spec = CaseSpec.parse("III:constant")
    r = build_r(ALG, spec, RKind.skew(ALG, Sparse()))
    assert check_cojacobi(ALG, r, Sparse({(2, 1): Fraction(1)}))
    # delta(f) = 0 makes co-Jacobi trivially true
    assert check_cojacobi(ALG, YANG, Sparse({(0, 0): Fraction(1)}))


def test_bracket_poly():
    # [e u, f u^2] = h u^3
    lhs = bracket_poly(ALG, E_U, Sparse({(1, 2): Fraction(1)}))
    assert lhs == Sparse({(2, 3): Fraction(1)})


def test_axiom_sweep_small():
    recs = axiom_sweep(ALG, "I:constant", YANG, 2)
    assert recs and all(r["pass"] for r in recs)
    checks = {r["check"] for r in recs}
    assert checks == {"polynomial", "skew", "co-jacobi", "cocycle"}


def test_duality_consistency_with_truncated_series():
    """delta computed against the truncated dual-basis series agrees with
    the closed form inside the safe window."""
    from lbforge.liealg import bracket_basis

    for text in ["I:two-points:1,2", "II:constant", "III:constant"]:
        spec = CaseSpec.parse(text)
        w = catalog_w0(ALG, spec)
        order = 6
        series = sum_dual_series(ALG, w, order)
        for (i, deg) in [(0, 0), (2, 1), (1, 2)]:
            f = Sparse({(i, deg): Fraction(1)})
            closed = delta(ALG, build_r(ALG, spec, catalog_rkind(ALG, spec)), f)
            # bracket against the truncated tensor, legwise
            approx = Sparse()
            for (a, b, du, dv), c in series.items():
                for m, cm in bracket_basis(ALG, i, a).items():
                    approx.iadd((m, b, du + deg, dv), c * cm)
                for m, cm in bracket_basis(ALG, i, b).items():
                    approx.iadd((a, m, du, dv + deg), c * cm)
            window = order  # truncation exceeds deg f + 2
            for key in set(closed) | set(approx):
                if key[2] <= window:
                    assert closed.get(key, 0) == approx.get(key, 0), (text, key)


@pytest.mark.parametrize(
    "text",
    [
        "I:two-points:1,2",
        "I:double-pole",
        "I:simple-pole",
        "I:constant",
        "II:simple-pole",
        "II:constant",
        "III:constant",
    ],
)
def test_axioms_hold_per_family_spot_checks(text):
    spec = CaseSpec.parse(text)
    r = build_r(ALG, spec, catalog_rkind(ALG, spec))
    for f in [E_U, Sparse({(2, 0): Fraction(1)}), Sparse({(1, 3): Fraction(1)})]:
        delta(ALG, r, f)  # polynomiality: must not raise
        assert check_skew(ALG, r, f)
        assert check_cojacobi(ALG, r, f)
    assert check_cocycle(ALG, r, E_U, Sparse({(2, 0): Fraction(1)}))


# -- the sweep's cobracket memo -------------------------------------------------

ALG3 = build_sl(3)
LINEAR_CASES = [
    (alg, text)
    for alg in (ALG, ALG3)
    for text in ("I:two-points:1,2", "II:constant", "III:constant")
]
_MEMOS = {}


def _memo(alg, text):
    """One BasisCobrackets per (algebra, family), shared across examples."""
    if (alg.n, text) not in _MEMOS:
        spec = CaseSpec.parse(text)
        r = build_r(alg, spec, catalog_rkind(alg, spec))
        _MEMOS[alg.n, text] = (r, BasisCobrackets(alg, r))
    return _MEMOS[alg.n, text]


@st.composite
def combinations(draw):
    """(alg, family, f): f a rational combination of x_i u^k, k <= 3."""
    alg, text = draw(st.sampled_from(LINEAR_CASES))
    keys = st.tuples(st.integers(0, alg.dim - 1), st.integers(0, 3))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=4))
    return alg, text, Sparse(terms)


@settings(max_examples=30, deadline=None)
@given(combinations())
def test_linear_delta_matches_direct(case):
    alg, text, f = case
    r, memo = _memo(alg, text)
    assert memo(f) == memo.scale * delta(alg, r, f)


def test_basis_cobrackets_are_ints():
    r, memo = _memo(ALG3, "I:two-points:1,2")
    assert memo.scale == 6
    d = memo.basis((0, 2))
    assert d and all(type(c) is int for c in d.values())
    assert memo({(0, 1): Fraction(2), (3, 0): Fraction(-1)}) == memo.scale * delta(
        ALG3, r, Sparse({(0, 1): 2, (3, 0): -1})
    )


def _direct_records(alg, text, r, cap):
    """The sweep's records, each recomputed by a check without precomputed
    arguments."""
    gens = [
        (f"{alg.basis[i]}*u^{k}", Sparse({(i, k): Fraction(1)}))
        for k in range(cap + 1)
        for i in range(alg.dim)
    ]
    out = []
    polynomial = {}
    for name, f in gens:
        try:
            delta(alg, r, f)
            polynomial[name] = True
        except NotPolynomialError:
            polynomial[name] = False
        out.append((name, "polynomial", polynomial[name]))
    for name, f in gens:
        if not polynomial[name]:
            continue
        out.append((name, "skew", check_skew(alg, r, f)))
        out.append((name, "co-jacobi", check_cojacobi(alg, r, f)))
    for name_f, f in gens:
        for name_g, g in gens:
            out.append((f"{name_f},{name_g}", "cocycle", check_cocycle(alg, r, f, g)))
    return out


def _without_f_e(alg, r):
    """r with its F (x) E entry removed: delta(E) is no longer polynomial."""
    e, f = alg.basis.index("E(1,2)"), alg.basis.index("F(1,2)")
    return SpectralTensor2({k: v for k, v in r.entries.items() if k != (f, e)})


def _two_points(alg, text):
    spec = CaseSpec.parse(text)
    return build_r(alg, spec, catalog_rkind(alg, spec))


@pytest.mark.parametrize(
    "alg, text, r, cap",
    [
        (ALG, "I:two-points:1,2", _two_points(ALG, "I:two-points:1,2"), 2),
        # e (x) f alone breaks skew-symmetry and co-Jacobi; delta stays polynomial
        (ALG, "not skew", _two_points(ALG, "I:two-points:1,2")
         + from_constant(Sparse({(0, 1): Fraction(1)})), 1),
        # non-integer constants: L = 48
        (ALG, "I:two-points:3/4,-8/3", _two_points(ALG, "I:two-points:3/4,-8/3"), 2),
        # one entry dropped at sl_3: some basis cobrackets are not polynomial
        (ALG3, "dropped", _without_f_e(ALG3, _two_points(ALG3, "I:two-points:1,2")), 1),
    ],
    ids=["catalog", "not skew", "non-integer constants", "sl3 entry dropped"],
)
def test_sweep_records_match_direct_checks(alg, text, r, cap):
    assert BasisCobrackets(alg, r).scale > 1
    records = axiom_sweep(alg, text, r, cap)
    got = [(rec["element"], rec["check"], rec["pass"]) for rec in records]
    assert got == _direct_records(alg, text, r, cap)
    assert all(rec["family"] == text for rec in records)
    if text in ("not skew", "dropped"):
        assert not all(ok for *_, ok in got)
    if text == "dropped":
        assert any(check == "polynomial" and not ok for _, check, ok in got)


@st.composite
def rational_tensors(draw):
    """A random r over sl_2: a kernel num/(v-u) Omega, a constant part, and
    entries with random numerators over (v - u)^0..2, all rational."""
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    monos = st.tuples(st.integers(0, 1), st.integers(0, 1))
    polys = st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(poly2)
    r = kernel_tensor(ALG, draw(polys))
    constant = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs))
    r = r + from_constant(Sparse(constant))
    for key in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2)):
        r = r + SpectralTensor2({key: bivar(draw(polys), draw(st.integers(0, 2)))})
    return r


@settings(max_examples=25, deadline=None)
@given(rational_tensors())
def test_sweep_matches_direct_checks_on_random_tensors(r):
    memo = BasisCobrackets(ALG, r)
    for key in [(i, k) for i in range(ALG.dim) for k in range(3)]:
        try:
            expected = memo.scale * delta(ALG, r, Sparse({key: 1}))
        except NotPolynomialError:
            expected = None
        assert memo.basis(key) == expected
    records = axiom_sweep(ALG, "-", r, 1)
    got = [(rec["element"], rec["check"], rec["pass"]) for rec in records]
    assert got == _direct_records(ALG, "-", r, 1)


@pytest.mark.parametrize(
    "max_degree, cocycle_degree", [(-1, None), (-1, 0), (2, -1), (0, -3)]
)
def test_sweep_rejects_negative_degrees(max_degree, cocycle_degree):
    with pytest.raises(InvalidParameterError):
        axiom_sweep(ALG, "I:constant", YANG, max_degree, cocycle_degree)


def test_sweep_clamps_the_cocycle_degree(monkeypatch):
    # the cocycle pairs the sweep's generators, whose degrees stop at
    # max_degree: a larger cocycle_degree checks the same pairs and packs
    # no cobracket of a higher degree
    assert sweep_degrees(1, 4) == (1, 1)
    assert sweep_degrees(3) == (3, 3) and sweep_degrees(3, 2) == (3, 2)
    r = _two_points(ALG, "I:two-points:1,2")
    runs = []
    for cocycle_degree in (1, 4):
        keys = _count_delta(monkeypatch)
        runs.append((axiom_sweep(ALG, "I:two-points:1,2", r, 1, cocycle_degree), len(keys)))
    (records, calls), (clamped, clamped_calls) = runs
    assert clamped == records
    assert sum(rec["check"] == "cocycle" for rec in records) == (2 * ALG.dim) ** 2
    assert clamped_calls == calls


def _count_delta(monkeypatch):
    keys = []
    original = lbforge.cobracket.delta

    def counting(alg, r, f, **kwargs):
        keys.append(tuple(sorted(f.items())))
        return original(alg, r, f, **kwargs)

    monkeypatch.setattr(lbforge.cobracket, "delta", counting)
    return keys


def test_sweep_computes_each_basis_cobracket_once(monkeypatch):
    keys = _count_delta(monkeypatch)
    spec = CaseSpec.parse("I:two-points:1,2")
    r = build_r(ALG, spec, catalog_rkind(ALG, spec))
    records = axiom_sweep(ALG, "I:two-points:1,2", r, 2)
    assert all(rec["pass"] for rec in records)
    assert keys and len(keys) == len(set(keys))
    assert all(len(k) == 1 and k[0][1] == 1 for k in keys)  # unit monomials only


def test_sweep_lifts_r_once(monkeypatch):
    lifts = []
    original = lbforge.cobracket.lift

    def counting(r):
        lifts.append(r)
        return original(r)

    monkeypatch.setattr(lbforge.cobracket, "lift", counting)
    spec = CaseSpec.parse("I:two-points:1,2")
    r = build_r(ALG, spec, catalog_rkind(ALG, spec))
    axiom_sweep(ALG, "I:two-points:1,2", r, 2)
    assert lifts == [r]


@pytest.mark.parametrize("cocycle_degree", [0, 1, 2])
def test_sweep_checks_each_unordered_pair_once(monkeypatch, cocycle_degree):
    calls, brackets = [], []
    check, bracket = lbforge.cobracket.check_cocycle, lbforge.cobracket.bracket_poly

    def counting_check(alg, r, f, g, **kwargs):
        calls.append((tuple(f), tuple(g)))
        return check(alg, r, f, g, **kwargs)

    def counting_bracket(alg, f, g):
        brackets.append(None)
        return bracket(alg, f, g)

    monkeypatch.setattr(lbforge.cobracket, "check_cocycle", counting_check)
    monkeypatch.setattr(lbforge.cobracket, "bracket_poly", counting_bracket)
    r = _two_points(ALG, "I:two-points:1,2")
    records = axiom_sweep(ALG, "I:two-points:1,2", r, 2, cocycle_degree)
    m = ALG.dim * (cocycle_degree + 1)
    assert sum(rec["check"] == "cocycle" for rec in records) == m * m
    assert len(calls) == len(set(calls)) == m * (m + 1) // 2
    # one delta([f, g]) per check: no second bracket for the order (g, f)
    assert len(brackets) == len(calls)


def test_direct_checks_fail_a_non_polynomial_cobracket():
    # without cobracket=, skew and co-Jacobi compute delta(E) themselves and
    # read its NotPolynomialError as a failure
    r, e = _without_f_e(ALG, YANG), Sparse({(0, 0): 1})
    with pytest.raises(NotPolynomialError):
        delta(ALG, r, e)
    assert check_skew(ALG, r, e) is False
    assert check_cojacobi(ALG, r, e) is False
    assert check_skew(ALG, YANG, e) is True and check_cojacobi(ALG, YANG, e) is True


def test_sweep_records_non_polynomial_cobrackets_as_failures(monkeypatch):
    r = _without_f_e(ALG, YANG)
    keys = _count_delta(monkeypatch)
    records = axiom_sweep(ALG, "-", r, 1)
    verdict = {(rec["element"], rec["check"]): rec["pass"] for rec in records}
    assert not verdict["E(1,2)*u^0", "polynomial"]
    assert verdict["H(1)*u^0", "polynomial"]
    # delta(H u) has E and F on its first leg, whose cobrackets co-Jacobi needs
    assert not verdict["H(1)*u^1", "co-jacobi"]
    assert not verdict["E(1,2)*u^0,H(1)*u^0", "cocycle"]
    assert ("E(1,2)*u^0", "skew") not in verdict
    assert len(keys) == len(set(keys))  # a failing cobracket is computed once


# -- co-Jacobi by orbit sums ----------------------------------------------------

def _rotation_verdict(t):
    """The cyclic sum as t plus its two rotated copies added into one dict,
    the oracle of ``check_cojacobi``'s orbit sums: True when it vanishes."""
    total = dict(t)
    for (i, j, k, a, b, c3), c in t.items():
        for key in ((k, i, j, c3, a, b), (j, k, i, b, c3, a)):
            total[key] = total.get(key, 0) + c
    return not any(total.values())


F_COJ = {(1, 0): 1}


def _cobracket_for(t):
    """A cobracket under which (delta (x) id) delta(F_COJ) is the 6-tensor t:
    delta(F_COJ) holds x_0 u^n (x) x_k w^c for the n-th third leg (k, c) of
    t, and the inner delta of x_0 u^n is t's slice at that leg."""
    legs = sorted({(k, c) for (_, _, k, _, _, c) in t})
    table = {(1, 0): {(0, k, n, c): 1 for n, (k, c) in enumerate(legs)}}
    for n, leg in enumerate(legs):
        table[0, n] = {(i, j, a, b): v for (i, j, k, a, b, c), v in t.items() if (k, c) == leg}

    def cobracket(f):
        ((key, coeff),) = f.items()
        assert coeff == 1
        return table[key]

    return cobracket


def _cojacobi_of(t):
    return check_cojacobi(ALG, YANG, F_COJ, cobracket=_cobracket_for(t))


@pytest.mark.parametrize(
    "t, ok",
    [
        # a fixed point of the rotation: the cyclic sum there is 3 * t[K]
        ({(1, 1, 1, 2, 2, 2): 5}, False),
        ({(1, 1, 1, 2, 2, 2): 5, (0, 1, 2, 0, 0, 0): 1, (2, 0, 1, 0, 0, 0): -1,
          (1, 2, 0, 0, 0, 0): 0}, False),
        # one key of t in its orbit: the rotated keys are missing, not zero
        ({(0, 1, 2, 0, 1, 2): 1}, False),
        ({(0, 1, 2, 0, 1, 2): 1, (2, 0, 1, 2, 0, 1): 2, (0, 0, 0, 1, 1, 1): 0}, False),
        # the cyclic sum cancels across the three rotated keys
        ({(0, 1, 2, 0, 1, 3): 1, (2, 0, 1, 3, 0, 1): 2, (1, 2, 0, 1, 3, 0): -3}, True),
        ({(0, 1, 2, 0, 1, 3): 1, (2, 0, 1, 3, 0, 1): 2, (1, 2, 0, 1, 3, 0): -3,
          (2, 2, 2, 0, 0, 0): 0}, True),
    ],
    ids=["fixed point", "fixed point beside a cancelling orbit", "lone key",
         "two of three keys", "three keys cancel", "cancelling orbit and a zero fixed point"],
)
def test_cojacobi_orbit_sums(t, ok):
    assert _rotation_verdict(t) is ok
    assert _cojacobi_of(t) is ok


def _rotate(key):
    i, j, k, a, b, c = key
    return (k, i, j, c, a, b)


def test_cojacobi_orbit_sums_match_rotation_oracle():
    """Random integer 6-tensors on few indices (so orbits overlap and fixed
    points occur), half of them balanced to a vanishing cyclic sum (R has
    order 3: an orbit is one fixed key or three keys)."""
    rng = random.Random(20090)
    verdicts = []
    for n in range(400):
        t = {}
        for _ in range(rng.randint(1, 8)):
            key = tuple(rng.randint(0, 1) for _ in range(6))
            t[key] = rng.randint(-3, 3)
        if n % 2:
            # make each orbit's sum 0 by adjusting one key of t on it
            for key in list(t):
                orbit = {key, _rotate(key), _rotate(_rotate(key))}
                t[key] -= sum(t.get(k, 0) for k in orbit)
        expected = _rotation_verdict(t)
        assert _cojacobi_of(t) is expected, t
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


# -- the sweep's ad table -------------------------------------------------------

def _sl3_tensors():
    """sl_3 tensors with scale > 1: two catalog families, and one with an
    entry dropped, so that some basis cobrackets are not polynomial."""
    return [_two_points(ALG3, "I:two-points:1,2"),
            _two_points(ALG3, "I:two-points:3/4,-8/3"),
            _without_f_e(ALG3, _two_points(ALG3, "I:two-points:1,2"))]


def _random_element(rng, alg, terms):
    """sum of c x_i u^k over ``terms`` distinct keys, c a non-unit Fraction."""
    keys = rng.sample([(i, k) for i in range(alg.dim) for k in range(3)], terms)
    return Sparse({key: Fraction(rng.choice([-7, -3, -2, 2, 3, 5]), rng.choice([1, 2, 3, 4]))
                   for key in keys})


def test_ad_table_rows_are_the_integer_brackets():
    # the algebra's table, read by every sweep and by bracket3: int rows, in
    # index order, of the oracle's matrix commutators
    for n in (2, 3, 4, 5):
        alg, struct = build_sl(n), oracle(n).struct
        assert len(alg.ad) == alg.dim
        for x, rows in enumerate(alg.ad):
            assert len(rows) == alg.dim
            for i, row in enumerate(rows):
                assert all(type(c) is int for _, c in row)
                assert list(row) == list(struct[x][i].items())


def test_ad_table_delta_matches_direct():
    rng = random.Random(17)
    for r in _sl3_tensors():
        memo = BasisCobrackets(ALG3, r)
        assert memo.scale > 1
        for _ in range(12):
            f = _random_element(rng, ALG3, rng.randint(2, 4))
            try:
                direct = delta(ALG3, r, f)
            except NotPolynomialError:
                direct = None
            swept = memo(f)
            if direct is None:
                assert swept is None
                continue
            assert swept is not None and set(swept) == set(direct)
            for key, c in direct.items():
                assert Fraction(swept[key], memo.scale) == c, key


def test_ad_table_cocycle_matches_direct():
    rng = random.Random(29)
    verdicts = []
    for r in _sl3_tensors():
        memo = BasisCobrackets(ALG3, r)
        for _ in range(6):
            f = _random_element(rng, ALG3, rng.randint(2, 3))
            g = _random_element(rng, ALG3, rng.randint(2, 3))
            ok = check_cocycle(ALG3, r, f, g, cobracket=memo)
            # the sweep writes this one verdict to both ordered records
            assert check_cocycle(ALG3, r, f, g) is ok
            assert check_cocycle(ALG3, r, g, f) is ok
            verdicts.append(ok)
    assert True in verdicts and False in verdicts


# -- the packed cocycle ---------------------------------------------------------

def _unit_pairs(alg, degree):
    gens = [{(i, k): 1} for k in range(degree + 1) for i in range(alg.dim)]
    return [(f, g) for a, f in enumerate(gens) for g in gens[a:]]


def test_cocycle_records_do_not_certify_r():
    # a constant part that solves nothing (CYB != 0, r + r21 != Omega):
    # delta is still a coboundary, so every cocycle identity holds, on the
    # packed and on the direct path alike, while skew and co-Jacobi fail
    rng = random.Random(27)
    part = Sparse({(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for i in range(ALG3.dim) for j in range(ALG3.dim)})
    spec = CaseSpec.parse("I:two-points:1,2")
    r = build_r(ALG3, spec, RKind(MCYBE, r_dj(ALG3) + part))
    records = axiom_sweep(ALG3, "random part", r, 1)
    verdicts = {}
    for rec in records:
        verdicts.setdefault(rec["check"], []).append(rec["pass"])
    assert len(verdicts["cocycle"]) == (2 * ALG3.dim) ** 2 and all(verdicts["cocycle"])
    assert all(verdicts["polynomial"])
    assert not any(verdicts["skew"]) and not any(verdicts["co-jacobi"])
    assert all(check_cocycle(ALG3, r, f, g) for f, g in _unit_pairs(ALG3, 1))
    # r_DJ + 1/2 wedge_sum keeps r + r21 = Omega (skew holds) but not CYB
    r = build_r(ALG3, spec, RKind(MCYBE, r_dj(ALG3) + Fraction(1, 2) * wedge_sum(ALG3)))
    records = axiom_sweep(ALG3, "wedge", r, 1)
    assert all(rec["pass"] for rec in records if rec["check"] in ("cocycle", "skew"))
    assert not all(rec["pass"] for rec in records if rec["check"] == "co-jacobi")


def _tamper(memo, keys, how, rng):
    """Replace the memo's basis cobrackets at ``keys``: a coefficient moved
    by +-1 or by up to 10^40, a monomial added at raised exponents, or None."""
    for key in keys:
        t = memo.basis(key)
        if how == "none" or not t:
            memo._memo[key] = None
            continue
        t = dict(t)
        mono = rng.choice(sorted(t))
        if how == "coefficients":
            step = rng.choice([1, -1, rng.randint(-10**40, 10**40)])
            t[mono] = t[mono] + step or 1
        else:
            i, j, a, b = mono
            t[i, j, a + rng.randint(0, 3), b + rng.randint(1, 4)] = rng.choice([-1, 1, 7, -10**40])
        memo._memo[key] = t


def _identity(alg, memo, f, g):
    """D = delta([f, g]) - f.delta(g) + g.delta(f) from the memo's dicts,
    None when a cobracket it needs is not polynomial."""
    df, dg, lhs = memo(f), memo(g), memo(bracket_poly(alg, f, g))
    if df is None or dg is None or lhs is None:
        return None
    out = dict(lhs)
    _ad_into(alg, out, f, dg, -1)
    _ad_into(alg, out, g, df, 1)
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("how", ["coefficients", "monomials", "none"])
def test_packed_cocycle_matches_dict_on_tampered_memos(how):
    rng = random.Random(f"packed {how}")
    verdicts = []
    for alg, text, degree in ((ALG, "I:two-points:1,2", 2), (ALG3, "I:two-points:3/4,-8/3", 1)):
        r = _two_points(alg, text)
        for _ in range(3):
            memo = BasisCobrackets(alg, r)
            keys = [(i, d) for d in range(2 * degree + 1) for i in range(alg.dim)]
            _tamper(memo, rng.sample(keys, 2), how, rng)
            memo.pack(degree)
            shift_u, w = memo.shifts
            # a plain function is no BasisCobrackets: the dict comparison
            as_dicts = lambda f, memo=memo: memo(f)  # noqa: E731
            for f, g in _unit_pairs(alg, degree):
                ok = check_cocycle(alg, r, f, g, cobracket=memo)
                assert ok is check_cocycle(alg, r, f, g, cobracket=as_dicts), (f, g)
                # the hypotheses of the packed check's exactness hold on D
                d = _identity(alg, memo, f, g)
                assert ok is (d == {})
                if d:
                    assert max(map(abs, d.values())) < 2 ** (w - 1)
                    assert max(b for (*_, b) in d) < shift_u // w
                verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_packed_cobrackets_unpack_to_the_dicts():
    # balanced base-2^w digits, read back slot by slot: u^a v^b sits in slot a B + b
    r = _two_points(ALG3, "I:two-points:1,2")
    memo = BasisCobrackets(ALG3, r)
    memo.pack(2)
    shift_u, w = memo.shifts
    slots = shift_u // w
    for key in [(i, d) for d in range(5) for i in range(ALG3.dim)]:
        unpacked = {}
        for (i, j), p in memo.packed[key].items():
            s = 0
            while p:
                digit = p % (1 << w)
                if digit >= 1 << (w - 1):
                    digit -= 1 << w
                if digit:
                    unpacked[i, j, *divmod(s, slots)] = digit
                p, s = (p - digit) >> w, s + 1
        assert unpacked == memo.basis(key), key


def test_packed_cocycle_takes_only_packed_unit_pairs(monkeypatch):
    packed = []
    original = lbforge.cobracket._packed_cocycle

    def counting(*args):
        packed.append(args)
        return original(*args)

    monkeypatch.setattr(lbforge.cobracket, "_packed_cocycle", counting)
    r = _two_points(ALG3, "I:two-points:1,2")
    memo = BasisCobrackets(ALG3, r)
    unit = {(0, 1): 1}
    assert check_cocycle(ALG3, r, unit, {(3, 0): 1}, cobracket=memo)
    assert not packed  # not packed yet
    memo.pack(1)
    for g, takes_packed in [
        ({(3, 0): 1}, True),
        ({(3, 1): Fraction(1)}, True),
        ({(3, 0): 1, (4, 1): 1}, False),  # a general element
        ({(3, 0): 2}, False),  # a coefficient other than 1
        ({(3, 2): 1}, False),  # a degree above the packed range
    ]:
        packed.clear()
        ok = check_cocycle(ALG3, r, unit, g, cobracket=memo)
        assert bool(packed) is takes_packed, g
        assert ok is check_cocycle(ALG3, r, unit, g) is True
    packed.clear()
    assert check_cocycle(ALG3, r, unit, {(3, 0): 1})  # the direct path
    assert not packed
