from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge.errors import InvalidParameterError, ShapeMismatchError
from lbforge.lagrangian import catalog_w0, window_basis
from lbforge.liealg import basis_element, build_sl
from lbforge.pairing import (
    CaseSpec,
    DoubleElement,
    admissible_degree,
    canonical_pairings,
    embed_canonical,
    loop_element,
    pairing_map,
    q_form,
    validate_case,
)
from lbforge.ratfun import expand_at_zero
from lbforge.sparse import Sparse
from test_liealg import form, oracle
from test_ratfun import residue

ALG = build_sl(2)
ALL_CASES = [
    "I:two-points:1,2",
    "I:double-pole",
    "I:simple-pole",
    "I:constant",
    "II:simple-pole",
    "II:constant",
    "III:constant",
]


# -- CaseSpec -----------------------------------------------------------------

@pytest.mark.parametrize("text", ALL_CASES)
def test_parse_round_trip(text):
    assert CaseSpec.parse(text).text == text


def test_parse_rationals():
    spec = CaseSpec.parse("I:two-points:1/2,-3")
    assert spec.c1 == Fraction(1, 2) and spec.c2 == -3


@pytest.mark.parametrize(
    "text",
    ["I:two-points:1,1", "I:two-points:0,1", "I:two-points", "X:constant",
     "I:cubic", "I:constant:1,2", "I:two-points:a,b", "I:two-points:1e3,2",
     "I:two-points:1.5,2"],
)
def test_parse_rejects(text):
    with pytest.raises(InvalidParameterError):
        CaseSpec.parse(text)


def test_a_normalization():
    # every canonical a(u) is a power series with a(0) = 1
    for text in ALL_CASES:
        a = CaseSpec.parse(text).a()
        assert expand_at_zero(a, 0) == [1]


@pytest.mark.parametrize("text", ALL_CASES + ["I:two-points:1/2,-3/5"])
def test_taylor_cache_matches_expansion(text):
    spec = CaseSpec.parse(text)
    for order in (0, 3, 1, 17, 40):
        den, nums = spec.taylor_numerators(order)
        assert len(nums) > order
        expected = expand_at_zero(spec.a(), len(nums) - 1)
        assert [Fraction(n, den) for n in nums] == expected
        assert den == lcm(*(t.denominator for t in expected))
    assert spec == CaseSpec.parse(text) and hash(spec) == hash(CaseSpec.parse(text))
    assert repr(spec) == repr(CaseSpec.parse(text))


# -- degree table -------------------------------------------------------------

@pytest.mark.parametrize(
    "dt,k,expected",
    [
        ("I", None, 2),
        ("I", 1, 2),
        ("I", 2, 1),
        ("II", None, 1),
        ("II", 1, 1),
        ("II", 3, 0),
        ("III", None, 0),
        ("III", 1, 0),
        ("III", 2, None),
    ],
)
def test_admissible_degree_table(dt, k, expected):
    assert admissible_degree(dt, k) == expected


def test_admissible_degree_bad_k():
    with pytest.raises(InvalidParameterError):
        admissible_degree("I", 0)


@pytest.mark.parametrize(
    "spec,fragment",
    [
        (CaseSpec("II", "two-points", Fraction(1), Fraction(2)), "at most 1"),
        (CaseSpec("III", "simple-pole"), "at most 0"),
        (CaseSpec("II", "double-pole"), "at most 1"),
        (CaseSpec("III", "two-points", Fraction(1), Fraction(2)), "at most 0"),
    ],
)
def test_validate_case_rejects_with_bound(spec, fragment):
    reason = validate_case(spec)
    assert reason is not None and fragment in reason


@pytest.mark.parametrize("text", ALL_CASES)
def test_validate_case_accepts(text):
    assert validate_case(CaseSpec.parse(text)) is None


# -- q_form -------------------------------------------------------------------

def test_two_points_cartan_dual_pair():
    # h*1 against (1/2) h (u^{-1} - (c1+c2)/2) pairs to 1
    h = basis_element(2)
    for c1, c2 in [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-5))]:
        spec = CaseSpec("I", "two-points", c1, c2)
        x = loop_element(h, 0)
        y = DoubleElement(
            Sparse({(2, -1): Fraction(1, 2), (2, 0): -(c1 + c2) / 4})
        )
        assert q_form(ALG, spec, x, y) == 1


def test_constant_case_monomial_duality():
    spec = CaseSpec.parse("I:constant")
    e, f = basis_element(0), basis_element(1)
    for k in range(7):
        assert q_form(ALG, spec, loop_element(e, k), loop_element(f, -k - 1)) == 1


def test_case_ii_finite_block():
    spec = CaseSpec.parse("II:constant")
    z = Sparse({0: Fraction(2), 2: Fraction(1)})
    w = Sparse({1: Fraction(3)})
    x = DoubleElement(Sparse(), fin=z)
    y = DoubleElement(Sparse(), fin=w)
    assert q_form(ALG, spec, x, y) == -form(ALG, z, w)


def test_case_iii_eps_block():
    spec = CaseSpec.parse("III:constant")
    x = DoubleElement(Sparse(), fin=basis_element(0), eps=basis_element(2))
    y = DoubleElement(Sparse(), fin=basis_element(1), eps=basis_element(1))
    # -K(x_eps, y_fin) - K(x_fin, y_eps) = -K(h, f) - K(e, f) = -1
    assert q_form(ALG, spec, x, y) == -1


def test_shape_mismatch():
    spec = CaseSpec.parse("I:constant")
    bad = DoubleElement(Sparse(), fin=basis_element(0))
    with pytest.raises(ShapeMismatchError):
        q_form(ALG, spec, bad, bad)
    spec2 = CaseSpec.parse("II:constant")
    bad2 = DoubleElement(Sparse(), eps=basis_element(0))
    with pytest.raises(ShapeMismatchError):
        q_form(ALG, spec2, bad2, bad2)


def _random_element(draw, spec, degrees, alg=ALG):
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    loop = draw(
        st.dictionaries(
            st.tuples(st.integers(0, alg.dim - 1), st.sampled_from(degrees)),
            fracs,
            max_size=4,
        )
    )
    fin = eps = {}
    if spec.double_type in ("II", "III"):
        fin = draw(st.dictionaries(st.integers(0, alg.dim - 1), fracs, max_size=3))
    if spec.double_type == "III":
        eps = draw(st.dictionaries(st.integers(0, alg.dim - 1), fracs, max_size=3))
    return DoubleElement(Sparse(loop), fin=Sparse(fin), eps=Sparse(eps))


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_q_form_symmetric_and_bilinear(text, data):
    spec = CaseSpec.parse(text)
    degrees = list(range(-4, 4))
    x = _random_element(data.draw, spec, degrees)
    y = _random_element(data.draw, spec, degrees)
    z = _random_element(data.draw, spec, degrees)
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    assert q_form(ALG, spec, x, y) == q_form(ALG, spec, y, x)
    lhs = q_form(ALG, spec, x + c * y, z)
    assert lhs == q_form(ALG, spec, x, z) + c * q_form(ALG, spec, y, z)


def _k_laurent(f1: Sparse, f2: Sparse) -> Sparse:
    """K(f1(u), f2(u)) as a Laurent scalar, straight from the oracle's trace form."""
    gram = oracle(ALG.n).gram
    out = Sparse()
    for (i, k), c1 in f1.items():
        for (j, l), c2 in f2.items():
            out.iadd(k + l, c1 * c2 * gram[i][j])
    return out


def _k_const(x: Sparse, y: Sparse):
    """K(x, y) on finite summands, as the u^0 term of their constant loops."""
    loops = [Sparse(((i, 0), c) for i, c in z.items()) for z in (x, y)]
    return _k_laurent(*loops).get(0, Fraction(0))


def _reference_q_form(spec, x, y):
    """The pairing from its definition, via the residue of u^{-s} K a(u)."""
    s = ("I", "II", "III").index(spec.double_type)
    shifted = Sparse((k - s, c) for k, c in _k_laurent(x.loop, y.loop).items())
    value = residue(shifted, spec.a())
    if spec.double_type == "II":
        value -= _k_const(x.fin, y.fin)
    elif spec.double_type == "III":
        value -= _k_const(x.eps, y.fin) + _k_const(x.fin, y.eps)
    return value


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_q_form_matches_residue_oracle(text, data):
    spec = CaseSpec.parse(text)
    if spec.a_form == "two-points":
        consts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        c1 = data.draw(consts.filter(bool))
        c2 = data.draw(consts.filter(lambda c: c and c != c1))
        spec = CaseSpec("I", "two-points", c1, c2)
    degrees = list(range(-7, 5))
    # one spec serves every pair, so the cached series is extended mid-test
    for _ in range(3):
        x = _random_element(data.draw, spec, degrees)
        y = _random_element(data.draw, spec, degrees)
        assert q_form(ALG, spec, x, y) == _reference_q_form(spec, x, y)


def assert_pairing_map(alg, spec, y, kmax):
    """canonical_pairings agrees with q_form on every canonical vector up to
    kmax and has no key beyond it."""
    pairs = canonical_pairings(alg, spec, y, kmax)
    assert all(0 <= k <= kmax for _, k in pairs)
    for k in range(kmax + 1):
        for i in range(alg.dim):
            can = embed_canonical(spec, basis_element(i), k)
            assert pairs.get((i, k), 0) == q_form(alg, spec, can, y), (i, k)


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_canonical_pairings_match_q_form(text, data):
    spec = CaseSpec.parse(text)
    y = _random_element(data.draw, spec, list(range(-6, 4)))
    assert_pairing_map(ALG, spec, y, data.draw(st.integers(0, 7)))


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pairing_map_matches_q_form(text, data):
    # coords(x) . pairing_map(y) is Q(x, y) whenever the map's degree range
    # covers x's loop degrees; the map has no loop key outside that range
    spec = CaseSpec.parse(text)
    degrees = list(range(-6, 4))
    x = _random_element(data.draw, spec, degrees)
    y = _random_element(data.draw, spec, degrees)
    xdeg = [d for _, d in x.loop] or [0]
    kmin = min(xdeg) - data.draw(st.integers(0, 2))
    kmax = max(xdeg) + data.draw(st.integers(0, 2))
    pmap = pairing_map(ALG, spec, y, kmin, kmax)
    assert all(kmin <= -key[2] <= kmax for key in pmap if key[0] == 0)
    assert {key[0] for key in pmap} <= set(range(1 + ("I", "II", "III").index(spec.double_type)))
    dot = sum(c * pmap.get(e, 0) for e, c in x.coords().items())
    assert dot == q_form(ALG, spec, x, y) == _reference_q_form(spec, x, y)


def _reference_pairing_map(alg, spec, y, kmin, kmax):
    """The pairing map summed term by term in Fractions: b K(x_i, x_j) t_{s-1-k-l}
    for each loop term b x_j u^l of y and k in [kmin, kmax], then the finite
    and dual-number blocks."""
    s = ("I", "II", "III").index(spec.double_type)
    gram = oracle(alg.n).gram
    if y.loop:
        top = s - 1 - kmin - min(l for _, l in y.loop)
        taylor = expand_at_zero(spec.a(), top) if top >= 0 else ()
    out = Sparse()
    for (j, l), c in y.loop.items():
        for i, g in enumerate(gram[j]):
            if g:
                for k in range(kmin, min(kmax, s - 1 - l) + 1):
                    out.iadd((0, i, -k), c * g * taylor[s - 1 - k - l])
    finite = ((1, y.eps), (2, y.fin)) if spec.double_type == "III" else ((1, y.fin),)
    for tag, part in finite:
        for j, c in part.items():
            for i, g in enumerate(gram[j]):
                if g:
                    out.iadd((tag, i), -c * g)
    return out


def _fold_onto_canonical(pmap, kmax):
    """A pairing map from degree 0 folded onto the canonical basis: the loop
    key (0, i, -k) and the jet key (1 + k, i) both land on (i, k)."""
    out = Sparse()
    for key, val in pmap.items():
        k = -key[2] if key[0] == 0 else key[0] - 1
        if k <= kmax:
            out.iadd((key[1], k), val)
    return out


def _reference_canonical_pairings(alg, spec, y, kmax):
    """canonical_pairings as the fold of the coords-keyed pairing map."""
    return _fold_onto_canonical(pairing_map(alg, spec, y, 0, kmax), kmax)


ALG3 = build_sl(3)


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pairing_map_matches_fraction_reference(text, data):
    # the integer accumulation against the Fraction one, with rational
    # two-points constants, negative kmin and loop terms that cancel:
    # c H_1 u^l + 2c H_2 u^l pairs to 0 with every H_1 u^k, as K(H_1, H_1) = 2
    # and K(H_1, H_2) = -1
    spec = CaseSpec.parse(text)
    if spec.a_form == "two-points":
        consts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        c1 = data.draw(consts.filter(bool))
        c2 = data.draw(consts.filter(lambda c: c and c != c1))
        spec = CaseSpec("I", "two-points", c1, c2)
    h1, h2 = ALG3.h_index(1), ALG3.h_index(2)
    degrees = list(range(-5, 4))
    # one spec serves every draw, so the cached numerators are rebuilt mid-test
    for _ in range(3):
        y = _random_element(data.draw, spec, degrees, ALG3)
        c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
        l = data.draw(st.sampled_from(degrees))
        y.loop.iadd((h1, l), c)
        y.loop.iadd((h2, l), 2 * c)
        kmin = data.draw(st.integers(-6, -1))
        kmax = data.draw(st.integers(kmin, 5))
        pmap = pairing_map(ALG3, spec, y, kmin, kmax)
        assert pmap == _reference_pairing_map(ALG3, spec, y, kmin, kmax)
        assert all(type(v) is Fraction and v != 0 for v in pmap.values())


def test_canonical_pairings_check_shape():
    y = DoubleElement(Sparse(), fin=basis_element(0))
    with pytest.raises(ShapeMismatchError):
        canonical_pairings(ALG, CaseSpec.parse("I:constant"), y, 2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text", ALL_CASES)
def test_canonical_pairings_on_catalog_windows(text, n):
    alg = build_sl(n)
    spec = CaseSpec.parse(text)
    for y in window_basis(alg, catalog_w0(alg, spec), 6):
        assert_pairing_map(alg, spec, y, 8)


@pytest.mark.parametrize("text", ALL_CASES)
def test_embedded_polynomials_isotropic(text):
    spec = CaseSpec.parse(text)
    top = 10 if text == "I:constant" else 6
    for k in range(top + 1):
        for l in range(top + 1):
            for i in range(ALG.dim):
                for j in range(ALG.dim):
                    x = embed_canonical(spec, basis_element(i), k)
                    y = embed_canonical(spec, basis_element(j), l)
                    assert q_form(ALG, spec, x, y) == 0


def test_embed_negative_degree():
    with pytest.raises(InvalidParameterError):
        embed_canonical(CaseSpec.parse("I:constant"), basis_element(0), -1)


@pytest.mark.parametrize("text", ALL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_canonical_pairings_match_folded_map(text, data):
    # the same values and key order as the fold of the coords-keyed map; the
    # two-wrong duality witness test reads that order.  c H_1 + 2c H_2 pairs
    # to 0 with H_1, in the loop and in a jet, so sums cancel on the way
    spec = CaseSpec.parse(text)
    s = spec.at_infinity
    if spec.a_form == "two-points":
        consts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        c1 = data.draw(consts.filter(bool))
        c2 = data.draw(consts.filter(lambda c: c and c != c1))
        spec = CaseSpec("I", "two-points", c1, c2)
    h1, h2 = ALG3.h_index(1), ALG3.h_index(2)
    degrees = list(range(-6, 4))
    for _ in range(3):
        y = _random_element(data.draw, spec, degrees, ALG3)
        c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
        part = data.draw(st.sampled_from(["loop", *("fin", "eps")[:s]]))
        if part == "loop":
            l = data.draw(st.sampled_from(degrees))
            y.loop.iadd((h1, l), c)
            y.loop.iadd((h2, l), 2 * c)
        else:
            getattr(y, part).iadd(h1, c)
            getattr(y, part).iadd(h2, 2 * c)
        kmaxes = [data.draw(st.integers(s, s + 6))]
        if s:
            kmaxes.append(data.draw(st.integers(0, s - 1)))
        for kmax in kmaxes:
            got = canonical_pairings(ALG3, spec, y, kmax)
            want = _reference_canonical_pairings(ALG3, spec, y, kmax)
            assert got == want and list(got) == list(want)
            assert all(type(v) is Fraction and v != 0 for v in got.values())
            assert got == _fold_onto_canonical(_reference_pairing_map(ALG3, spec, y, 0, kmax), kmax)


def test_canonical_pairings_order_when_a_jet_cancels_on_the_way():
    # II:constant pairs H_1 u^0 and the finite H_1 to K(H_1, -) - K(H_1, -):
    # the first finite term cancels the loop sums at (H_1, 0) and (H_2, 0),
    # the second brings them back; the fold keeps them before (F, 0)
    spec = CaseSpec.parse("II:constant")
    h1, h2 = ALG3.h_index(1), ALG3.h_index(2)
    y = DoubleElement(Sparse({(h1, 0): 1, (0, 0): 1}), fin=Sparse({h1: 1, h2: 1}))
    got = canonical_pairings(ALG3, spec, y, 2)
    want = _reference_canonical_pairings(ALG3, spec, y, 2)
    assert list(got.items()) == list(want.items()) == [
        ((h1, 0), Fraction(1)), ((h2, 0), Fraction(-2)), ((ALG3.f_index((1, 2)), 0), Fraction(1)),
    ]
