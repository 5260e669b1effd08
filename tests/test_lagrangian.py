from fractions import Fraction

import pytest

from lbforge.errors import (
    InconclusiveWindowError,
    InvalidParameterError,
    NotTransversalError,
    ShapeMismatchError,
)
from lbforge.liealg import basis_element, build_sl
from lbforge.lagrangian import (
    FiniteLagrangian,
    WPresentation,
    catalog_w0,
    de_bracket,
    dual_basis,
    eps_complement,
    is_lagrangian,
    lift_lagrangian,
    psi,
    psi_inverse_lift,
    quot_bracket,
    quotient_ambient,
    tail_poly,
    triangular_complement,
    window_basis,
)
from lbforge.pairing import CaseSpec, DoubleElement, embed_canonical, q_form
from lbforge.ratfun import poly1
from lbforge.sparse import Sparse, gauss_solve

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
E, F, H = (basis_element(i) for i in range(3))


def tp(c1=1, c2=2):
    return CaseSpec("I", "two-points", Fraction(c1), Fraction(c2))


# -- psi ----------------------------------------------------------------------

def test_psi_two_points_generators():
    spec = tp()
    x = DoubleElement(Sparse({(0, -1): Fraction(1)}))  # e u^{-1}
    assert psi(ALG, spec, x) == (E, 2 * E)
    x0 = DoubleElement(Sparse({(0, 0): Fraction(1)}))
    assert psi(ALG, spec, x0) == (E, E)


def test_psi_double_pole_generator():
    spec = CaseSpec.parse("I:double-pole")
    x = DoubleElement(Sparse({(0, -1): Fraction(1)}))
    assert psi(ALG, spec, x) == (E, E)  # value 1, derivative 1 at t = 1


def test_psi_kernel_membership():
    spec = tp()
    # (t - 1)(t - 2) e = (t^2 - 3t + 2) e
    ker = DoubleElement(
        Sparse({(0, -2): Fraction(1), (0, -1): Fraction(-3), (0, 0): Fraction(2)})
    )
    img = psi(ALG, spec, ker)
    assert img[0].is_zero() and img[1].is_zero()


@pytest.mark.parametrize("text", ALL_CASES)
def test_psi_kernel_is_tail_ideal(text):
    spec = CaseSpec.parse(text)
    m = tail_poly(spec)
    for j in range(3):
        for i in range(ALG.dim):
            loop = Sparse()
            for d, c in m.items():
                loop.iadd((i, -(d + j)), c)
            img = psi(ALG, spec, DoubleElement(loop))
            assert img[0].is_zero() and img[1].is_zero()


def test_psi_rejects_positive_degrees():
    with pytest.raises(ShapeMismatchError):
        psi(ALG, tp(), DoubleElement(Sparse({(0, 1): Fraction(1)})))


@pytest.mark.parametrize("text", ALL_CASES)
def test_psi_is_homomorphism(text):
    spec = CaseSpec.parse(text)
    ambient = quotient_ambient(spec)
    samples = []
    for d in range(5):
        for i in (0, 2):
            el = DoubleElement(Sparse({(i, -d): Fraction(1)}))
            if spec.double_type == "III" and d == 0:
                el = DoubleElement(el.loop, fin=basis_element(1))
            samples.append(el)
    for x in samples:
        for y in samples:
            lhs = psi(ALG, spec, de_bracket(ALG, spec, x, y))
            rhs = quot_bracket(ALG, ambient, psi(ALG, spec, x), psi(ALG, spec, y))
            assert lhs == rhs


# -- lifts --------------------------------------------------------------------

def test_lift_two_points_frozen():
    spec = tp()
    lift = psi_inverse_lift(ALG, spec, (F, Sparse()))
    # (t - c2) f / (c1 - c2) with (c1, c2) = (1, 2): -(t - 2) f
    assert lift.loop == Sparse({(1, -1): Fraction(-1), (1, 0): Fraction(2)})
    lift_h = psi_inverse_lift(ALG, spec, (H, -1 * H))
    # (2t - c1 - c2) h / (c1 - c2) = -(2t - 3) h
    assert lift_h.loop == Sparse({(2, -1): Fraction(-2), (2, 0): Fraction(3)})


def test_lift_simple_pole_frozen():
    spec = CaseSpec.parse("I:simple-pole")
    assert psi_inverse_lift(ALG, spec, (Sparse(), E)).loop == Sparse(
        {(0, -1): Fraction(1)}
    )
    lift_h = psi_inverse_lift(ALG, spec, (H, -1 * H))
    assert lift_h.loop == Sparse({(2, 0): Fraction(1), (2, -1): Fraction(-2)})


def test_lift_double_pole_frozen():
    spec = CaseSpec.parse("I:double-pole")
    lift = psi_inverse_lift(ALG, spec, (Sparse(), E))  # eps * e
    assert lift.loop == Sparse({(0, -1): Fraction(1), (0, 0): Fraction(-1)})


@pytest.mark.parametrize("text", ALL_CASES)
def test_psi_inverse_is_section(text):
    spec = CaseSpec.parse(text)
    targets = [
        (E, Sparse()),
        (Sparse(), H),
        (2 * F + H, -3 * E),
    ]
    for target in targets:
        lift = psi_inverse_lift(ALG, spec, target)
        assert psi(ALG, spec, lift) == target


def test_lift_lagrangian_validates():
    spec = tp()
    bad = FiniteLagrangian("gxg", [(E, Sparse()), (F, Sparse()), (H, Sparse())])
    with pytest.raises(InvalidParameterError):
        lift_lagrangian(ALG, spec, bad)  # not isotropic
    with pytest.raises(InvalidParameterError):
        lift_lagrangian(ALG, spec, FiniteLagrangian("gxg", [(E, Sparse())]))
    with pytest.raises(InvalidParameterError):
        lift_lagrangian(ALG, spec, eps_complement(ALG))  # wrong ambient


def test_lift_projects_back():
    # lifting then projecting returns the generators
    for text in ALL_CASES:
        spec = CaseSpec.parse(text)
        wbar = (
            triangular_complement(ALG)
            if quotient_ambient(spec) == "gxg"
            else eps_complement(ALG)
        )
        w = lift_lagrangian(ALG, spec, wbar)
        for gen, target in zip(w.head, wbar.gens):
            assert psi(ALG, spec, gen) == target


def test_catalog_tail_polys():
    assert tail_poly(tp()) == poly1([2, -3, 1])
    assert tail_poly(CaseSpec.parse("I:double-pole")) == poly1([1, -2, 1])
    assert tail_poly(CaseSpec.parse("I:simple-pole")) == poly1({1: -1, 2: 1})
    assert tail_poly(CaseSpec.parse("I:constant")) == poly1({2: 1})
    assert tail_poly(CaseSpec.parse("II:simple-pole")) == poly1([-1, 1])
    assert tail_poly(CaseSpec.parse("II:constant")) == poly1({1: 1})
    assert tail_poly(CaseSpec.parse("III:constant")) == poly1([1])


# -- is_lagrangian ------------------------------------------------------------

@pytest.mark.parametrize("text", ALL_CASES)
def test_catalog_passes_window_checks(text):
    spec = CaseSpec.parse(text)
    report = is_lagrangian(ALG, catalog_w0(ALG, spec), 6)
    assert report.isotropic and report.closed and report.transversal


def test_corrupted_generator_fails_isotropy():
    spec = tp()
    w = catalog_w0(ALG, spec)
    # flip the sign of c1 in the (0, e) lift: (t - c1) -> (t + c1)
    bad = []
    for gen in w.head:
        if gen.loop.get((0, -1)):
            flipped = Sparse(gen.loop)
            flipped[(0, 0)] = -flipped.get((0, 0), Fraction(0))
            bad.append(DoubleElement(flipped))
        else:
            bad.append(gen)
    report = is_lagrangian(ALG, WPresentation(spec, bad, w.tail), 6)
    assert not report.isotropic
    assert report.witness is not None
    (pair, value) = report.witness
    assert value != 0


def test_full_negative_half_fails_isotropy():
    # g[u^{-1}] itself is not isotropic for the constant weight
    spec = CaseSpec.parse("I:constant")
    w = WPresentation(spec, [], poly1([1]))
    report = is_lagrangian(ALG, w, 6)
    assert not report.isotropic


def test_head_bracket_leaving_w_is_not_closed():
    # head e, f without h: [e, f] = h u^0 is no combination of e, f and the
    # tail (t - 1)(t - 2) g[t]
    spec = tp()
    w = WPresentation(spec, [DoubleElement(Sparse({(i, 0): 1})) for i in (0, 1)],
                      tail_poly(spec))
    assert is_lagrangian(ALG, w, 6).closed is False


def test_head_with_positive_power_times_tail_is_not_closed():
    # [e u, f u^{-2}] = h u^{-1}, which is neither in the tail u^{-2} g[u^{-1}]
    # nor a multiple of the only head e u
    spec = CaseSpec.parse("I:constant")
    w = WPresentation(spec, [DoubleElement(Sparse({(0, 1): 1}))], tail_poly(spec))
    assert is_lagrangian(ALG, w, 6).closed is False


def test_window_too_small():
    spec = tp()
    with pytest.raises(InconclusiveWindowError):
        is_lagrangian(ALG, catalog_w0(ALG, spec), 2)


# -- dual bases ---------------------------------------------------------------

def test_dual_basis_two_points_frozen():
    spec = tp()
    duals = {(i, k): el for i, k, el in dual_basis(ALG, catalog_w0(ALG, spec), 2)}
    # dual of h: (1/2) h (t - 3/2); dual of e: f (t - 2); dual of f: e (t - 1)
    assert duals[(2, 0)].loop == Sparse(
        {(2, -1): Fraction(1, 2), (2, 0): Fraction(-3, 4)}
    )
    assert duals[(0, 0)].loop == Sparse({(1, -1): 1, (1, 0): -2})
    assert duals[(1, 0)].loop == Sparse({(0, -1): 1, (0, 0): -1})
    # dual of e u^{k+1}: f t^k (t-1)(t-2)
    assert duals[(0, 2)].loop == Sparse(
        {(1, -3): Fraction(1), (1, -2): Fraction(-3), (1, -1): Fraction(2)}
    )


def test_dual_basis_simple_pole_frozen():
    spec = CaseSpec.parse("I:simple-pole")
    duals = {(i, k): el for i, k, el in dual_basis(ALG, catalog_w0(ALG, spec), 1)}
    # dual of h is -(1/4)(1 - 2t) h
    assert duals[(2, 0)].loop == Sparse(
        {(2, 0): Fraction(-1, 4), (2, -1): Fraction(1, 2)}
    )


def test_dual_basis_constant_monomials():
    spec = CaseSpec.parse("I:constant")
    duals = {(i, k): el for i, k, el in dual_basis(ALG, catalog_w0(ALG, spec), 3)}
    for k in range(4):
        assert duals[(0, k)].loop == Sparse({(1, -k - 1): Fraction(1)})


def test_dual_basis_case_iii_eps_parts():
    spec = CaseSpec.parse("III:constant")
    duals = {(i, k): el for i, k, el in dual_basis(ALG, catalog_w0(ALG, spec), 2)}
    assert duals[(0, 0)].loop.is_zero()
    assert duals[(0, 0)].eps == Sparse({1: Fraction(-1)})
    assert duals[(0, 2)].loop == Sparse({(1, -1): Fraction(1)})


@pytest.mark.parametrize("text", ALL_CASES)
def test_duality_matrix_is_identity(text):
    spec = CaseSpec.parse(text)
    duals = dual_basis(ALG, catalog_w0(ALG, spec), 3)
    for (i, k, el) in duals:
        for l in range(4):
            for j in range(ALG.dim):
                can = embed_canonical(spec, basis_element(j), l)
                want = Fraction(1) if (j, l) == (i, k) else Fraction(0)
                assert q_form(ALG, spec, can, el) == want


@pytest.mark.parametrize("text", ALL_CASES)
def test_duals_lie_in_window_span(text):
    # every dual element reduces to zero against the W window basis
    from lbforge.sparse import RowSpan
    from lbforge.lagrangian import _de_coords

    spec = CaseSpec.parse(text)
    w = catalog_w0(ALG, spec)
    span = RowSpan()
    for el in window_basis(ALG, w, 8):
        span.add(_de_coords(el))
    for (_, _, el) in dual_basis(ALG, w, 3):
        assert span.contains(_de_coords(el))


def _dense_dual_basis(alg, w, truncation):
    """The dual basis from dense q_form rows and gauss_solve."""
    depth = truncation + 3
    wbasis = window_basis(alg, w, depth)
    wanted = [(i, k) for k in range(truncation + 1) for i in range(alg.dim)]
    rows, rhs = [], []
    for k in range(depth + 3):
        for i in range(alg.dim):
            can = embed_canonical(w.spec, basis_element(i), k)
            rows.append([q_form(alg, w.spec, can, wel) for wel in wbasis])
            rhs.append([Fraction(int((i, k) == t)) for t in wanted])
    sol = gauss_solve(rows, rhs)
    out = []
    for c, (i, k) in enumerate(wanted):
        el = DoubleElement(Sparse())
        for b, wel in enumerate(wbasis):
            el = el + sol[b][c] * wel
        out.append((i, k, el))
    return out


@pytest.mark.parametrize("text", ALL_CASES)
def test_dual_basis_matches_dense_oracle(text):
    alg = build_sl(3)
    w = catalog_w0(alg, CaseSpec.parse(text))
    assert dual_basis(alg, w, 6) == _dense_dual_basis(alg, w, 6)


def test_dual_basis_not_transversal():
    # a presentation missing the head generators cannot reach degree 0 duals
    spec = CaseSpec.parse("I:constant")
    w = WPresentation(spec, [], poly1({2: 1}))  # only t^2 g[t]
    with pytest.raises(NotTransversalError, match="inconsistent"):
        dual_basis(ALG, w, 1)


def test_dual_basis_singular():
    # a repeated head generator makes two unknowns of the system equal
    spec = CaseSpec.parse("I:constant")
    w = catalog_w0(ALG, spec)
    w = WPresentation(spec, w.head + w.head[:1], w.tail)
    with pytest.raises(NotTransversalError, match="singular"):
        dual_basis(ALG, w, 1)
