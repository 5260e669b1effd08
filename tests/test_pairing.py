from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge.errors import InvalidParameterError, ShapeMismatchError
from lbforge.lagrangian import catalog_w0, window_basis
from lbforge.liealg import basis_element, build_sl, form
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
from lbforge.ratfun import expand_at_zero, laurent_shift, residue
from lbforge.sparse import Sparse

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
     "I:cubic", "I:constant:1,2", "I:two-points:a,b"],
)
def test_parse_rejects(text):
    with pytest.raises(InvalidParameterError):
        CaseSpec.parse(text)


def test_a_normalization():
    # every canonical a(u) is a power series with a(0) = 1
    for text in ALL_CASES:
        a = CaseSpec.parse(text).a()
        assert expand_at_zero(a, 0) == [1]


@pytest.mark.parametrize("text", ALL_CASES)
def test_taylor_cache_matches_expansion(text):
    spec = CaseSpec.parse(text)
    for order in (0, 3, 1, 17, 40):
        got = spec.taylor(order)
        assert len(got) > order
        assert got == expand_at_zero(spec.a(), len(got) - 1)
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


def _random_element(draw, spec, degrees):
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    loop = draw(
        st.dictionaries(
            st.tuples(st.integers(0, ALG.dim - 1), st.sampled_from(degrees)),
            fracs,
            max_size=4,
        )
    )
    fin = eps = {}
    if spec.double_type in ("II", "III"):
        fin = draw(st.dictionaries(st.integers(0, ALG.dim - 1), fracs, max_size=3))
    if spec.double_type == "III":
        eps = draw(st.dictionaries(st.integers(0, ALG.dim - 1), fracs, max_size=3))
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
    """K(f1(u), f2(u)) as a Laurent scalar, straight from the Gram matrix."""
    out = Sparse()
    for (i, k), c1 in f1.items():
        for (j, l), c2 in f2.items():
            out.iadd(k + l, c1 * c2 * ALG.gram[i][j])
    return out


def _k_const(x: Sparse, y: Sparse):
    """K(x, y) on finite summands, as the u^0 term of their constant loops."""
    loops = [Sparse(((i, 0), c) for i, c in z.items()) for z in (x, y)]
    return _k_laurent(*loops).get(0, Fraction(0))


def _reference_q_form(spec, x, y):
    """The pairing from its definition, via residue and laurent_shift."""
    s = ("I", "II", "III").index(spec.double_type)
    value = residue(laurent_shift(_k_laurent(x.loop, y.loop), -s), spec.a())
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
