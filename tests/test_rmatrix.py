from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge.errors import InvalidParameterError, KindMismatchError
from lbforge.liealg import bracket_basis, build_sl, casimir, jordanian, r_c1c2, r_dj, swap2
from lbforge.lagrangian import catalog_w0
from lbforge.pairing import CaseSpec
from lbforge.ratfun import bivar, poly2
from lbforge.rmatrix import (
    RKind,
    SpectralTensor2,
    build_r,
    catalog_rkind,
    cyb_spectral,
    expand_region,
    family_requirement,
    from_constant,
    kernel_tensor,
    skew_spectral_check,
    sum_dual_series,
)
from lbforge.sparse import Sparse, poly_mul
from test_ratfun import trial_division_bivar

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
MCYBE_CASES = ["I:two-points:1,2", "I:simple-pole", "II:simple-pole", "II:constant"]
SKEW_CASES = ["I:double-pole", "I:constant", "III:constant"]


def omega_over_vu(alg=ALG):
    return kernel_tensor(alg, poly2({(0, 0): 1}))


# -- RKind --------------------------------------------------------------------

def test_rkind_validation():
    assert RKind.mcybe(ALG, r_dj(ALG)).tag == "mcybe"
    assert RKind.skew(ALG, jordanian(ALG)).tag == "skew"
    assert RKind.skew(ALG, Sparse()).tag == "skew"
    with pytest.raises(InvalidParameterError):
        RKind.mcybe(ALG, Sparse({(0, 1): Fraction(1)}))  # e(x)f: wrong symmetric part
    with pytest.raises(InvalidParameterError):
        RKind.skew(ALG, r_dj(ALG))
    # skew but not a solution: e ^ f has CYB != 0
    with pytest.raises(InvalidParameterError):
        RKind.skew(ALG, Sparse({(0, 1): Fraction(1), (1, 0): Fraction(-1)}))


def test_family_requirements():
    for text in MCYBE_CASES:
        assert family_requirement(CaseSpec.parse(text)) == "mcybe"
    for text in SKEW_CASES:
        assert family_requirement(CaseSpec.parse(text)) == "skew"


def test_kind_mismatch():
    with pytest.raises(KindMismatchError):
        build_r(ALG, CaseSpec.parse("I:constant"), RKind.mcybe(ALG, r_dj(ALG)))
    with pytest.raises(KindMismatchError):
        build_r(ALG, CaseSpec.parse("II:constant"), RKind.skew(ALG, Sparse()))


def test_build_rejects_illegal_case():
    with pytest.raises(InvalidParameterError):
        build_r(
            ALG,
            CaseSpec("II", "two-points", Fraction(1), Fraction(2)),
            RKind.mcybe(ALG, r_dj(ALG)),
        )


# -- builders -----------------------------------------------------------------

def test_constant_family_zero_part():
    r = build_r(ALG, CaseSpec.parse("I:constant"), RKind.skew(ALG, Sparse()))
    assert r == omega_over_vu()


def test_quasi_rational_zero_part():
    r = build_r(ALG, CaseSpec.parse("III:constant"), RKind.skew(ALG, Sparse()))
    assert r == kernel_tensor(ALG, poly2({(1, 1): 1}))


def test_two_point_displays_agree():
    # the dual-basis display with r_{c1,c2} equals the family display with r_DJ
    for c1, c2 in [(Fraction(1), Fraction(2)), (Fraction(5, 2), Fraction(-3))]:
        spec = CaseSpec("I", "two-points", c1, c2)
        built = build_r(ALG, spec, RKind.mcybe(ALG, r_dj(ALG)))
        kern = poly2({(0, 0): 1, (1, 0): -(c1 + c2), (1, 1): c1 * c2})
        other_display = kernel_tensor(ALG, kern) + from_constant(
            -1 * r_c1c2(ALG, c1, c2)
        )
        assert built == other_display


# The paper's seven displays, written out: the kernel numerator k(u, v) of
# k/(v - u) Omega, and the constant part as a function of the datum r.
DISPLAYS = {
    "I:double-pole": ({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}, lambda r: r),
    "I:simple-pole": ({(0, 0): 1, (1, 0): -1}, lambda r: -r),
    "I:constant": ({(0, 0): 1}, lambda r: r),
    "II:simple-pole": ({(1, 0): 1, (1, 1): -1}, lambda r: r),
    "II:constant": ({(0, 1): 1}, lambda r: -swap2(r)),
    "III:constant": ({(1, 1): 1}, lambda r: r),
}
TWO_POINT_PAIRS = [(1, 2), (Fraction(5, 2), -3), (Fraction(-1, 3), 4)]


def paper_display(alg, spec, r):
    if spec.a_form == "two-points":
        c1, c2 = spec.c1, spec.c2
        kern = {(0, 0): 1, (0, 1): -c1, (1, 0): -c2, (1, 1): c1 * c2}
        const = (c1 - c2) * r
    else:
        kern, part = DISPLAYS[spec.text]
        const = part(r)
    return kernel_tensor(alg, poly2(kern)) + from_constant(const)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "text", [f"I:two-points:{c1},{c2}" for c1, c2 in TWO_POINT_PAIRS] + list(DISPLAYS)
)
def test_build_r_matches_paper_display(text, n):
    alg = build_sl(n)
    spec = CaseSpec.parse(text)
    if family_requirement(spec) == "mcybe":
        data = [RKind.mcybe(alg, r) for r in (r_dj(alg), swap2(r_dj(alg)))]
    else:
        data = [RKind.skew(alg, r) for r in (Sparse(), jordanian(alg), jordanian(alg, (1, 2)))]
    for rk in data:
        assert build_r(alg, spec, rk) == paper_display(alg, spec, rk.value)


KERNELS = ([{(0, 0): 1, (0, 1): -c1, (1, 0): -c2, (1, 1): c1 * c2} for c1, c2 in TWO_POINT_PAIRS]
           + [kern for kern, _ in DISPLAYS.values()]
           + [{(0, 0): 1, (1, 1): -1},  # the change-of-variable example's 1 - u v
              {(0, 2): 1, (2, 0): -1}])  # v^2 - u^2, whose (v - u) cancels


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kern", KERNELS, ids=str)
def test_kernel_tensor_matches_per_entry_reduction(kern, n):
    # one reduction of num/(v - u), scaled by each Casimir coefficient,
    # against each entry reduced on its own by trial division
    alg = build_sl(n)
    num = poly2(kern)
    want = SpectralTensor2()
    for key, c in casimir(alg).items():
        want.add_entry(key, trial_division_bivar(c * num, 1))
    got = kernel_tensor(alg, num)
    assert got == want
    assert list(got.entries) == list(want.entries)
    assert all(list(v.num) == list(want.entries[k].num) for k, v in got.items())


def test_quasi_trig_constant_block():
    # v/(v-u) Omega - swap(r_DJ): the degree-(0,0) block of the expansion
    # must be Omega - swap(r_DJ) = r_DJ - the skew part sign convention
    spec = CaseSpec.parse("II:constant")
    r = build_r(ALG, spec, RKind.mcybe(ALG, r_dj(ALG)))
    series = expand_region(r, 0)
    block = Sparse()
    for (i, j, du, dv), c in series.items():
        if (du, dv) == (0, 0):
            block.iadd((i, j), c)
    assert block == casimir(ALG) - swap2(r_dj(ALG))


@pytest.mark.parametrize("text", ALL_CASES)
@pytest.mark.parametrize("n", [2, 3])
def test_cyb_and_skew_for_catalog_parts(text, n):
    alg = build_sl(n)
    spec = CaseSpec.parse(text)
    r = build_r(alg, spec, catalog_rkind(alg, spec))
    assert cyb_spectral(alg, r).is_zero()
    assert skew_spectral_check(r)


@pytest.mark.parametrize("text", SKEW_CASES)
def test_cyb_for_jordanian_parts(text):
    spec = CaseSpec.parse(text)
    r = build_r(ALG, spec, RKind.skew(ALG, jordanian(ALG)))
    assert cyb_spectral(ALG, r).is_zero()
    assert skew_spectral_check(r)


@pytest.mark.parametrize("text", MCYBE_CASES)
def test_cyb_for_swapped_dj_parts(text):
    # swap(r_DJ) is another modified solution; every family must accept it
    spec = CaseSpec.parse(text)
    r = build_r(ALG, spec, RKind.mcybe(ALG, swap2(r_dj(ALG))))
    assert cyb_spectral(ALG, r).is_zero()
    assert skew_spectral_check(r)


def test_cyb_detects_bad_constant_part():
    r = omega_over_vu() + from_constant(Sparse({(0, 1): Fraction(1)}))
    assert not cyb_spectral(ALG, r).is_zero()
    assert not skew_spectral_check(r)


def test_skew_check_examples():
    assert skew_spectral_check(omega_over_vu())
    r = build_r(ALG, CaseSpec.parse("I:two-points:1,2"), RKind.mcybe(ALG, r_dj(ALG)))
    assert skew_spectral_check(r)


# -- CYBE against the entry-by-entry oracle -----------------------------------

def _tri_embed(p, slot_a, slot_b):
    """Embed a bivariate numerator into trivariate exponent keys."""
    out = Sparse()
    for (a, b), c in p.items():
        key = [0, 0, 0]
        key[slot_a] = a
        key[slot_b] = b
        out.iadd(tuple(key), c)
    return out


# trivariate difference polynomials: v-u, w-u, w-v
_DIFFS = (
    Sparse({(0, 1, 0): 1, (1, 0, 0): -1}),
    Sparse({(0, 0, 1): 1, (1, 0, 0): -1}),
    Sparse({(0, 0, 1): 1, (0, 1, 0): -1}),
)


def cyb_oracle(alg, r):
    """CYB(r) as (numerators, den_pows), one trivariate product per ordered
    pair of entries and CYBE term; each den_pow is the largest one that
    meets a nonzero bracket in its slot.  Products are summed per output
    key and den_pows before the common denominator is applied."""
    # each entry read as r12(u, v), r13(u, w) and r23(v, w)
    entries = [(i, j, f.den_pow, *(_tri_embed(f.num, *s) for s in ((0, 1), (0, 2), (1, 2))))
               for (i, j), f in r.items()]
    groups = {}
    for i, j, df, f12, f13, _ in entries:
        for k, l, dg, _, g13, g23 in entries:
            for fa, gb, dens, bra, place in (
                (f12, g13, (df, dg, 0), (i, k), lambda m: (m, j, l)),
                (f12, g23, (df, 0, dg), (j, k), lambda m: (i, m, l)),
                (f13, g23, (0, df, dg), (j, l), lambda m: (i, k, m)),
            ):
                br = bracket_basis(alg, *bra)
                if not br:
                    continue
                prod = poly_mul(fa, gb)
                for m, cm in br.items():
                    num = groups.setdefault((place(m), dens), Sparse())
                    for mono, c in prod.items():
                        num.iadd(mono, cm * c)
    if not groups:
        return Sparse(), (0, 0, 0)
    common = tuple(max(d[s] for (_, d) in groups) for s in range(3))
    total = Sparse()
    for (key, dens), num in groups.items():
        for s in range(3):
            for _ in range(common[s] - dens[s]):
                num = poly_mul(num, _DIFFS[s])
        for mono, c in num.items():
            total.iadd(key + mono, c)
    return total, common


def assert_matches_oracle(alg, r):
    # equal numerators over the oracle's common denominator fix its slots
    got = cyb_spectral(alg, r)
    assert got == cyb_oracle(alg, r)[0]
    return got


@st.composite
def spectral_tensors(draw, coeffs=st.fractions(min_value=-5, max_value=5, max_denominator=4)):
    """A random tensor over sl_2 or sl_3, entries with den_pow 0..2."""
    alg = draw(st.sampled_from([ALG, build_sl(3)]))
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    keys = st.tuples(st.integers(0, alg.dim - 1), st.integers(0, alg.dim - 1))
    entries = draw(st.dictionaries(keys, st.tuples(
        st.dictionaries(monos, coeffs, min_size=1, max_size=3),
        st.integers(0, 2)), max_size=6))
    r = SpectralTensor2()
    for key, (num, den_pow) in entries.items():
        r.add_entry(key, bivar(Sparse(num), den_pow))
    return alg, r


@settings(max_examples=60, deadline=None)
@given(spectral_tensors())
def test_cyb_matches_oracle_on_random_tensors(case):
    assert_matches_oracle(*case)


# numerators up to 10^30 in size and denominators up to 10^6, of either
# sign: wide packed slots
WIDE = st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**6))


@settings(max_examples=40, deadline=None)
@given(spectral_tensors(WIDE))
def test_cyb_matches_oracle_on_wide_coefficients(case):
    assert_matches_oracle(*case)


@st.composite
def layered_tensors(draw):
    """A random tensor over sl_2 or sl_3 whose entries have den_pow 0..5,
    each with its own prime denominator, so the factors' lcms differ and
    lifts of order up to 5 enter the products."""
    alg = draw(st.sampled_from([ALG, build_sl(3)]))
    keys = st.tuples(st.integers(0, alg.dim - 1), st.integers(0, alg.dim - 1))
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    r = SpectralTensor2()
    for key, p in zip(draw(st.lists(keys, min_size=1, max_size=5, unique=True)), (2, 3, 5, 7, 11)):
        num = draw(st.dictionaries(monos, st.integers(-6, 6).filter(bool), min_size=1, max_size=3))
        r.add_entry(key, bivar(Sparse({m: Fraction(c, p) for m, c in num.items()}),
                               draw(st.integers(0, 5))))
    return alg, r


@settings(max_examples=40, deadline=None)
@given(layered_tensors())
def test_cyb_matches_oracle_on_layered_denominators(case):
    assert_matches_oracle(*case)


def test_cyb_matches_oracle_with_high_order_lifts():
    # den_pows 0, 2 and 5 with denominators 3, 7 and 5: every slot's lift
    # is of order 3 or 5 somewhere, over three different factor lcms
    e, f, h = (ALG.basis.index(x) for x in ("E(1,2)", "F(1,2)", "H(1)"))
    r = SpectralTensor2({
        (e, f): bivar(poly2({(1, 0): Fraction(2, 3), (0, 2): Fraction(-1, 3)}), 5),
        (f, e): bivar(poly2({(0, 0): Fraction(4, 7)}), 2),
        (h, h): bivar(poly2({(1, 1): Fraction(1, 5), (0, 0): Fraction(-3, 5)}), 0),
    })
    got = assert_matches_oracle(ALG, r)
    assert not got.is_zero()
    assert cyb_oracle(ALG, r)[1] == (5, 5, 5)


def test_cyb_coefficient_at_the_slot_bound():
    # c E (x) F: CYB is -c^2 E (x) H (x) F, one term whose coefficient is the
    # whole bound on a summed coefficient, so its slot has no bit to spare
    e, f, h = (ALG.basis.index(x) for x in ("E(1,2)", "F(1,2)", "H(1)"))
    c = 3 * 10**15
    r = from_constant(Sparse({(e, f): c}))
    assert assert_matches_oracle(ALG, r) == Sparse({(e, h, f, 0, 0, 0): -c * c})


def test_cyb_negative_coefficient_in_either_slot():
    # every CYBE product with a nonzero bracket here is u v or u w, and
    # each key is nonzero at one of them only, negative: whichever of the
    # two monomials is numbered last, one key is nonzero only in the
    # highest packed slot, and the other borrows from the slot above it
    alg = build_sl(3)
    e23, f12, f13 = (alg.basis.index(x) for x in ("E(2,3)", "F(1,2)", "F(1,3)"))
    r = SpectralTensor2({
        (e23, f13): bivar(poly2({(1, 0): 2}), 1),
        (e23, f12): bivar(poly2({(0, 1): 1}), 1),
    })
    got = assert_matches_oracle(alg, r)
    monos = {key[3:] for key in got}
    assert monos == {(1, 1, 0), (1, 0, 1)}
    assert all(c < 0 for c in got.values())
    assert len({key[:3] for key in got}) == len(got)


def test_cyb_with_a_huge_exponent():
    # slots are the monomials present: u^(10^6) costs one slot, not a box
    # of every exponent up to it
    e, f, h = (ALG.basis.index(x) for x in ("E(1,2)", "F(1,2)", "H(1)"))
    r = SpectralTensor2({
        (e, f): bivar(poly2({(10**6, 0): 1, (0, 1): -2}), 1),
        (h, h): bivar(poly2({(0, 0): 3}), 1),
        (f, e): bivar(poly2({(0, 0): Fraction(-5, 7)}), 0),
    })
    got = assert_matches_oracle(ALG, r)
    assert not got.is_zero()
    assert max(key[3] for key in got) >= 10**6


def test_cyb_of_empty_tensor():
    assert assert_matches_oracle(ALG, SpectralTensor2()).is_zero()


def test_cyb_without_a_nonzero_bracket_has_no_denominator():
    # Cartan-only entries commute, so no term exists at any den_pow
    alg = build_sl(3)
    h1, h2 = alg.h_index(1), alg.h_index(2)
    r = SpectralTensor2({
        (h1, h2): bivar(poly2({(0, 0): 1}), 2),
        (h2, h2): bivar(poly2({(1, 0): 3}), 1),
    })
    assert assert_matches_oracle(alg, r).is_zero()


def test_cyb_common_denominator_per_slot():
    # E (x) F / (v-u)^2 meets a nonzero bracket in [r12, r23] only:
    # (w-u) is not in the denominator
    alg = build_sl(3)
    e, f = alg.basis.index("E(1,2)"), alg.basis.index("F(1,2)")
    r = SpectralTensor2({(e, f): bivar(poly2({(0, 0): 1}), 2)})
    assert cyb_oracle(alg, r)[1] == (2, 0, 2)
    assert not assert_matches_oracle(alg, r).is_zero()


@pytest.mark.parametrize("text", ALL_CASES)
@pytest.mark.parametrize("n", [4, 5])
def test_cyb_matches_oracle_at_benchmark_ranks(text, n):
    # the benchmark's data: r_DJ for the g+g families, Jordanian otherwise
    alg = build_sl(n)
    spec = CaseSpec.parse(text)
    if family_requirement(spec) == "mcybe":
        rk = RKind.mcybe(alg, r_dj(alg))
    else:
        rk = RKind.skew(alg, jordanian(alg))
    assert assert_matches_oracle(alg, build_r(alg, spec, rk)).is_zero()


@pytest.mark.parametrize("text", ALL_CASES)
def test_cyb_matches_oracle_on_edited_families(text):
    # one entry doubled and one dropped: CYB no longer vanishes
    spec = CaseSpec.parse(text)
    for n in (3, 4):
        alg = build_sl(n)
        r = build_r(alg, spec, catalog_rkind(alg, spec))
        assert assert_matches_oracle(alg, r).is_zero()
        (first, val), *_, (last, _) = r.items()
        doubled = SpectralTensor2(dict(r.entries))
        doubled.add_entry(first, val)
        assert not assert_matches_oracle(alg, doubled).is_zero()
        dropped = SpectralTensor2({k: v for k, v in r.items() if k != last})
        assert not assert_matches_oracle(alg, dropped).is_zero()


# -- series -------------------------------------------------------------------

def test_expand_region_yang_kernel():
    series = expand_region(omega_over_vu(), 1)
    # Omega (v^{-1} + u v^{-2})
    expected = Sparse()
    for (i, j), c in casimir(ALG).items():
        expected.iadd((i, j, 0, -1), c).iadd((i, j, 1, -2), c)
    assert series == expected


def test_expand_region_constant_tensor():
    r = from_constant(r_dj(ALG))
    series = expand_region(r, 5)
    expected = Sparse({(i, j, 0, 0): c for (i, j), c in r_dj(ALG).items()})
    assert series == expected


def test_expand_region_higher_pole():
    # 1/(v-u)^2 = sum (m+1) u^m v^{-m-2}
    t = SpectralTensor2({(0, 1): bivar(poly2({(0, 0): Fraction(1)}), 2)})
    series = expand_region(t, 2)
    assert series == Sparse({(0, 1, 0, -2): 1, (0, 1, 1, -3): 2, (0, 1, 2, -4): 3})


def test_sum_dual_series_geometric():
    # the constant-weight complement sums to the |u| < |v| kernel expansion
    spec = CaseSpec.parse("I:constant")
    series = sum_dual_series(ALG, catalog_w0(ALG, spec), 3)
    expected = Sparse()
    for (i, j), c in casimir(ALG).items():
        for k in range(4):
            expected.iadd((i, j, k, -k - 1), c)
    assert series == expected


@pytest.mark.parametrize("text", ALL_CASES)
def test_series_matches_closed_form(text):
    spec = CaseSpec.parse(text)
    lhs = sum_dual_series(ALG, catalog_w0(ALG, spec), 4)
    rhs = expand_region(build_r(ALG, spec, catalog_rkind(ALG, spec)), 4)
    assert lhs == rhs


def test_series_matches_closed_form_sl3():
    alg = build_sl(3)
    spec = CaseSpec.parse("I:constant")
    lhs = sum_dual_series(alg, catalog_w0(alg, spec), 4)
    rhs = expand_region(build_r(alg, spec, catalog_rkind(alg, spec)), 4)
    assert lhs == rhs
