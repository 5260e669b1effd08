from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbforge.errors import PoleAtZeroError
from lbforge.ratfun import (
    BivarRat,
    RatFun1,
    bivar,
    bivar_swap_vars,
    expand_at_zero,
    mul_vu_pow,
    poly1,
    poly2,
    poly2_divide_vu,
)
from lbforge.sparse import Sparse, poly_mul

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def ratfun1(num, den=(1,)) -> RatFun1:
    return RatFun1(poly1(num), poly1(den))


def residue(f: Sparse, a: RatFun1) -> Fraction:
    """Coefficient of u^{-1} in f(u) * a(u), f a Laurent polynomial: only
    the negative-degree terms of f contribute.  The oracle of the pairing
    tests."""
    lowest = min(f, default=0)
    if lowest >= 0:
        return Fraction(0)
    taylor = expand_at_zero(a, -lowest - 1)
    return sum((c * taylor[-k - 1] for k, c in f.items() if k < 0), Fraction(0))


def test_expand_geometric():
    assert expand_at_zero(ratfun1([1], [1, -1]), 3) == [1, 1, 1, 1]


def test_expand_two_point_product():
    # 1/((1-u)(1-2u)): multiply the two geometric series
    f = ratfun1([1], [1, -3, 2])
    assert expand_at_zero(f, 2) == [1, 3, 7]


def test_expand_double_pole():
    # 1/(1-u)^2: derivative of the geometric series
    f = ratfun1([1], [1, -2, 1])
    assert expand_at_zero(f, 2) == [1, 2, 3]


def test_expand_pole_at_zero():
    with pytest.raises(PoleAtZeroError):
        expand_at_zero(ratfun1([1], {1: 1}), 2)


@given(
    st.lists(fracs, min_size=1, max_size=4),
    st.lists(fracs, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=6),
)
def test_expand_division_check(num, den, order):
    # the defining property: expansion * den == num through the order
    den = [Fraction(1)] + den[1:]
    f = ratfun1(num, den)
    coeffs = expand_at_zero(f, order)
    product = poly_mul(Sparse(enumerate(coeffs)), f.den)
    for k in range(order + 1):
        assert product.get(k, 0) == f.num.get(k, 0)


def test_residue_simple():
    assert residue(Sparse({-1: Fraction(1)}), ratfun1([1])) == 1


def test_residue_two_point_taylor():
    # coefficient t_2 of 1/((1-c1 u)(1-c2 u)) is c1^2 + c1 c2 + c2^2
    for c1, c2 in [(2, 3), (Fraction(1, 2), -1)]:
        a = ratfun1([1], [1, -(c1 + c2), c1 * c2])
        expected = c1 * c1 + c1 * c2 + c2 * c2
        assert residue(Sparse({-3: Fraction(1)}), a) == expected


@given(st.integers(min_value=0, max_value=8))
def test_residue_nonnegative_powers_vanish(k):
    a = ratfun1([1], [1, -3, 2])
    assert residue(Sparse({k: Fraction(5)}), a) == 0


@given(
    st.dictionaries(st.integers(min_value=-5, max_value=5), fracs, max_size=4),
    st.dictionaries(st.integers(min_value=-5, max_value=5), fracs, max_size=4),
    fracs,
)
def test_residue_linear(f, g, c):
    a = ratfun1([1], [1, -1])
    left = residue(Sparse(f) + c * Sparse(g), a)
    assert left == residue(Sparse(f), a) + c * residue(Sparse(g), a)


# -- bivariate ----------------------------------------------------------------

def test_divide_vu_exact():
    # (v - u)(u + v) = v^2 - u^2
    p = poly2({(0, 2): 1, (2, 0): -1})
    quot, rem = poly2_divide_vu(p)
    assert rem.is_zero()
    assert quot == poly2({(1, 0): 1, (0, 1): 1})


def test_divide_vu_remainder():
    quot, rem = poly2_divide_vu(poly2({(1, 1): 1}))  # uv
    assert rem == poly2({(2, 0): 1})  # uv at v=u
    assert quot == poly2({(1, 0): 1})


keyed_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
    fracs,
    max_size=12,
).map(Sparse)


@given(keyed_polys)
def test_divide_vu_keyed_matches_per_entry(p):
    # one call on a flat 2-tensor equals one call per (i, j) entry, remainders included
    quot, rem = poly2_divide_vu(p)
    entries = {}
    for (i, j, a, b), c in p.items():
        entries.setdefault((i, j), Sparse()).iadd((a, b), c)
    want_quot, want_rem = Sparse(), Sparse()
    for key, entry in entries.items():
        q, r = poly2_divide_vu(entry)
        for (a, b), c in q.items():
            want_quot.iadd((*key, a, b), c)
        for (a, b), c in r.items():
            want_rem.iadd((*key, a, b), c)
    assert quot == want_quot
    assert rem == want_rem
    # and p = (v - u) * quotient + remainder, the remainder free of v
    assert all(k[-1] == 0 for k in rem)
    for key, entry in entries.items():
        q = Sparse({k[2:]: c for k, c in quot.items() if k[:2] == key})
        r = Sparse({k[2:]: c for k, c in rem.items() if k[:2] == key})
        assert poly_mul(q, poly2({(0, 1): 1, (1, 0): -1})) + r == entry


def test_bivar_reduction():
    # (v^2 - u^2)/(v - u) reduces to (u + v)
    f = bivar(poly2({(0, 2): 1, (2, 0): -1}), 1)
    assert f.den_pow == 0
    assert f.num == poly2({(1, 0): 1, (0, 1): 1})


def test_bivar_add_common_denominator():
    one_over = bivar(poly2({(0, 0): 1}), 1)
    const = bivar(poly2({(0, 0): 1}), 0)
    total = one_over + const
    assert total.den_pow == 1
    assert total.num == poly2({(0, 0): 1, (0, 1): 1, (1, 0): -1})


def test_swap_vars():
    f = bivar(poly2({(1, 0): 1}), 1)  # u/(v-u)
    g = bivar_swap_vars(f)  # v/(u-v) = -v/(v-u)
    assert g == bivar(poly2({(0, 1): -1}), 1)


# -- lowest terms against trial division --------------------------------------

VU = poly2({(0, 1): 1, (1, 0): -1})  # v - u


def trial_division_bivar(num: Sparse, den_pow: int) -> BivarRat:
    """Lowest terms by trial division: divide by (v - u) while the
    remainder vanishes.  The oracle of ``bivar``'s diagonal test."""
    if num.is_zero():
        return BivarRat(Sparse(), 0)
    while den_pow > 0:
        quot, rem = poly2_divide_vu(num)
        if not rem.is_zero():
            break
        num = quot
        den_pow -= 1
    return BivarRat(num, den_pow)


def times_vu(num: Sparse, m: int) -> Sparse:
    """num * (v - u)^m, one factor at a time."""
    for _ in range(m):
        num = poly_mul(num, VU)
    return num


bivariate_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), fracs, max_size=5
).map(Sparse)


@given(bivariate_polys, st.integers(0, 3), st.integers(0, 4))
def test_bivar_matches_trial_division(num, m, den_pow):
    # a (v - u)^m factor, fewer, as many or more than the den_pow
    num = times_vu(num, m)
    got = bivar(num, den_pow)
    want = trial_division_bivar(num, den_pow)
    assert got == want
    assert list(got.num) == list(want.num)


def test_bivar_cancels_the_whole_power_and_stops():
    # (v - u)^3 (u + 2v) over (v - u)^2 keeps one factor in the numerator
    num = times_vu(poly2({(1, 0): 1, (0, 1): 2}), 3)
    assert bivar(num, 2) == BivarRat(times_vu(poly2({(1, 0): 1, (0, 1): 2}), 1), 0)
    # u v - u^2 + 1 is 1 on the diagonal: nothing cancels
    assert bivar(poly2({(1, 1): 1, (2, 0): -1, (0, 0): 1}), 3).den_pow == 3
    assert bivar(Sparse(), 5) == BivarRat(Sparse(), 0)


@given(bivariate_polys, st.integers(0, 7))
def test_mul_vu_pow_matches_repeated_products(num, extra):
    assert mul_vu_pow(num, extra) == times_vu(num, extra)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(-9, 9).filter(bool), max_size=5), st.integers(0, 7))
def test_mul_vu_pow_keeps_int_coefficients(num, extra):
    got = mul_vu_pow(num, extra)
    assert type(got) is dict
    assert all(type(c) is int and c for c in got.values())
    assert Sparse(got) == times_vu(Sparse(num), extra)


def test_mul_vu_pow_binomial_row():
    # (v - u)^4 = v^4 - 4 u v^3 + 6 u^2 v^2 - 4 u^3 v + u^4
    assert mul_vu_pow({(0, 0): 1}, 4) == {(0, 4): 1, (1, 3): -4, (2, 2): 6, (3, 1): -4, (4, 0): 1}
    num = poly2({(1, 0): 3})
    assert mul_vu_pow(num, 0) is num


@given(bivariate_polys, st.integers(0, 5))
def test_swap_vars_sign(num, den_pow):
    f = BivarRat(num, den_pow)
    swapped = Sparse({(b, a): c for (a, b), c in num.items()})
    assert bivar_swap_vars(f) == BivarRat(Fraction(-1) ** den_pow * swapped, den_pow)
    assert bivar_swap_vars(bivar_swap_vars(f)) == f
