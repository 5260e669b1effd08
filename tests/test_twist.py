import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbforge.errors import DegenerateSubstitutionError, InvalidParameterError
from lbforge.liealg import build_sl, r_dj
from lbforge.pairing import CaseSpec
from lbforge.ratfun import BivarRat, bivar, poly2
from lbforge.rmatrix import RKind, SpectralTensor2, build_r, from_constant, kernel_tensor
from lbforge.sparse import Sparse, poly_mul
from lbforge.twist import (
    AffineChange,
    quasi_twist_verify,
    remark_example_check,
    scaling_constant,
    solve_pq,
    substitute_affine_tensor,
    wedge_sum,
)

ALG = build_sl(2)


def random_nonzero(rng):
    while True:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if value != 0:
            return value


def random_quadruple(rng):
    while True:
        c1, c2, d1, d2 = (random_nonzero(rng) for _ in range(4))
        if c1 != c2 and d1 != d2:
            return c1, c2, d1, d2


def test_solve_pq_frozen_instance():
    ch = solve_pq(1, 2, 3, 5)
    assert (ch.p, ch.q) == (Fraction(15, 4), Fraction(-1, 4))
    assert scaling_constant(1, 2, ch) == 2


def test_solve_pq_identity():
    ch = solve_pq(1, 2, 1, 2)
    assert (ch.p, ch.q) == (1, 0)
    assert scaling_constant(1, 2, ch) == 1


def test_solve_pq_pure_scaling():
    ch = solve_pq(1, 2, 2, 4)
    assert (ch.p, ch.q) == (2, 0)


@pytest.mark.parametrize(
    "quad",
    [(1, 1, 3, 5), (1, 2, 3, 3), (0, 2, 3, 5), (1, 2, 0, 5)],
)
def test_solve_pq_rejects_degenerate(quad):
    with pytest.raises(InvalidParameterError):
        solve_pq(*quad)


def test_solve_pq_back_substitution_50():
    rng = random.Random(7)
    for _ in range(50):
        c1, c2, d1, d2 = random_quadruple(rng)
        ch = solve_pq(c1, c2, d1, d2)
        for c, d in ((c1, d1), (c2, d2)):
            assert d - c * ch.p / (1 - c * ch.q) == 0


def test_composition_law():
    rng = random.Random(11)
    for _ in range(20):
        c = random_quadruple(rng)[:2]
        d = random_quadruple(rng)[:2]
        e = random_quadruple(rng)[:2]
        cd = solve_pq(*c, *d)
        de = solve_pq(*d, *e)
        ce = solve_pq(*c, *e)
        # cd after de: u -> cd(de(u))
        assert AffineChange(cd.p * de.p, cd.p * de.q + cd.q) == ce
        assert scaling_constant(*c, cd) * scaling_constant(*d, de) == scaling_constant(
            *c, ce
        )


def test_affine_change_validation():
    with pytest.raises(DegenerateSubstitutionError):
        AffineChange(Fraction(0), Fraction(1))


def test_quasi_twist_verify_frozen():
    report = quasi_twist_verify(1, 2, 3, 5)
    assert report.equal
    assert report.scale == 2
    assert (report.change.p, report.change.q) == (Fraction(15, 4), Fraction(-1, 4))


def test_quasi_twist_verify_identity():
    report = quasi_twist_verify(1, 2, 1, 2)
    assert report.equal and report.scale == 1


def test_quasi_twist_verify_random():
    rng = random.Random(23)
    for _ in range(8):
        report = quasi_twist_verify(*random_quadruple(rng))
        assert report.equal


# -- substitution, one entry at a time ----------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
bivar_rats = st.builds(
    bivar,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), fracs, max_size=3
    ).map(poly2),
    st.integers(min_value=0, max_value=1),
)


def substitute_one(f, p, q):
    """f(pu + q, pv + q) through a one-entry tensor, its entry checked to
    be in lowest terms."""
    out = substitute_affine_tensor(
        SpectralTensor2({(0, 1): f}), AffineChange(Fraction(p), Fraction(q))
    )
    for val in out.entries.values():
        assert val == bivar(val.num, val.den_pow)
    return out.entries.get((0, 1), BivarRat(Sparse(), 0))


def mul_rat(f, g):
    """The product of two bivariate rational functions."""
    return bivar(poly_mul(f.num, g.num), f.den_pow + g.den_pow)


def test_substitute_identity():
    f = bivar(poly2({(1, 1): 1}), 1)  # uv/(v-u)
    assert substitute_one(f, 1, 0) == f


def test_substitute_scaling():
    f = bivar(poly2({(0, 0): 1}), 1)  # 1/(v-u)
    assert substitute_one(f, 2, 1) == bivar(poly2({(0, 0): Fraction(1, 2)}), 1)


def test_substitute_remark_kernel():
    # (1-uv)/(v-u) under u -> 2u-1 becomes (u+v-2uv)/(v-u)
    f = bivar(poly2({(0, 0): 1, (1, 1): -1}), 1)
    g = substitute_one(f, 2, -1)
    assert g == bivar(poly2({(1, 0): 1, (0, 1): 1, (1, 1): -2}), 1)


@given(bivar_rats, bivar_rats, fracs.filter(lambda x: x != 0), fracs)
def test_substitute_is_ring_morphism(f, g, p, q):
    sub = lambda h: substitute_one(h, p, q)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(mul_rat(f, g)) == mul_rat(sub(f), sub(g))


def test_substitute_tensor_scaling():
    yang = kernel_tensor(ALG, poly2({(0, 0): 1}))
    halved = substitute_affine_tensor(yang, AffineChange(Fraction(2), Fraction(0)))
    assert halved == Fraction(1, 2) * yang


def test_substitute_tensor_fixes_constants():
    r = from_constant(r_dj(ALG))
    moved = substitute_affine_tensor(r, AffineChange(Fraction(3), Fraction(-2)))
    assert moved == r


def test_substitute_remark_display():
    # (1-uv)/(v-u) Omega + e^f under 2u1 = u+1 equals
    # 2 (u(1-v)/(v-u) Omega + r_DJ)
    lhs = kernel_tensor(ALG, poly2({(0, 0): 1, (1, 1): -1})) + from_constant(
        wedge_sum(ALG)
    )
    moved = substitute_affine_tensor(lhs, AffineChange(Fraction(2), Fraction(-1)))
    rk = RKind.mcybe(ALG, r_dj(ALG))
    rhs = 2 * build_r(ALG, CaseSpec.parse("II:simple-pole"), rk)
    assert moved == rhs


def test_remark_example():
    assert remark_example_check()
    assert not remark_example_check(scale=3)
    assert remark_example_check(build_sl(3))


def test_wedge_sum_is_twice_skew_part_of_rdj():
    from lbforge.liealg import casimir

    assert wedge_sum(ALG) == 2 * r_dj(ALG) - casimir(ALG)
