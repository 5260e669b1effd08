import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge.errors import InvalidParameterError, NotTransversalError, ShapeMismatchError
from lbforge.liealg import basis_element, bracket, build_sl
from lbforge.lagrangian import (
    WPresentation,
    catalog_w0,
    de_bracket,
    dual_basis,
    eps_complement,
    is_lagrangian,
    lift_lagrangian,
    psi_inverse_lift,
    quotient_ambient,
    rem,
    tail_element,
    tail_monomials,
    tail_poly,
    triangular_complement,
    window_basis,
)
from lbforge.pairing import CaseSpec, DoubleElement, embed_canonical, q_form, validate_case
from lbforge.ratfun import poly1
from lbforge.sparse import RowSpan, Sparse, gauss_solve
from test_liealg import form, oracle

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

def quot_form(alg, ambient, a, b):
    """The quotient's invariant form: K(x1, y1) - K(x2, y2) on g + g, and
    K(x1, y2) + K(x2, y1) on g + eps*g."""
    x1, x2 = a
    y1, y2 = b
    if ambient == "gxg":
        return form(alg, x1, y1) - form(alg, x2, y2)
    return form(alg, x1, y2) + form(alg, x2, y1)


def quot_bracket(alg, ambient, a, b):
    x1, x2 = a
    y1, y2 = b
    if ambient == "gxg":
        return (bracket(alg, x1, y1), bracket(alg, x2, y2))
    return (
        bracket(alg, x1, y1),
        bracket(alg, x1, y2) + bracket(alg, x2, y1),
    )


def psi(alg, spec: CaseSpec, x: DoubleElement):
    """Quotient image of an element of g[u^{-1}] (plus finite summands).

    Returns a pair of g-elements in the case's quotient ambient.  The
    kernel is exactly the tail ideal.  The oracle of the lift and of
    ``rem``.
    """
    if any(d > 0 for (_, d) in x.loop):
        raise ShapeMismatchError("loop part must live in g[u^-1]")
    # collect the loop part as g-valued coefficients of t^k
    by_deg = {}
    for (i, d), c in x.loop.items():
        by_deg.setdefault(-d, Sparse()).iadd(i, c)
    dt, form_ = spec.double_type, spec.a_form
    if dt == "I":
        if x.fin or x.eps:
            raise ShapeMismatchError("type I elements carry no finite summand")
        if form_ == "two-points":
            left, right = Sparse(), Sparse()
            for k, xs in by_deg.items():
                left += spec.c1**k * xs
                right += spec.c2**k * xs
            return (left, right)
        if form_ == "simple-pole":
            # t -> (0, 1): evaluate at t = 0 and t = 1
            left, right = Sparse(), Sparse()
            for k, xs in by_deg.items():
                if k == 0:
                    left += xs
                right += xs
            return (left, right)
        if form_ == "double-pole":
            # t -> 1 + eps: value and derivative at t = 1
            val, der = Sparse(), Sparse()
            for k, xs in by_deg.items():
                val += xs
                der += k * xs
            return (val, der)
        # constant: t -> eps
        return (by_deg.get(0, Sparse()), by_deg.get(1, Sparse()))
    if dt == "II":
        if x.eps:
            raise ShapeMismatchError("type II elements carry no dual-number summand")
        at = Fraction(1) if form_ == "simple-pole" else Fraction(0)
        left = Sparse()
        for k, xs in by_deg.items():
            left += at**k * xs
        return (left, x.fin.copy())
    # type III: kill the loop entirely
    return (x.fin.copy(), x.eps.copy())


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


def test_lift_constant_frozen():
    spec = CaseSpec.parse("I:constant")
    lift = psi_inverse_lift(ALG, spec, (2 * F, E))  # 2f + eps * e
    assert lift.loop == Sparse({(1, 0): Fraction(2), (0, -1): Fraction(1)})


def test_quotient_ambient_frozen():
    ambients = ["gxg", "geps", "gxg", "geps", "gxg", "gxg", "geps"]
    assert [quotient_ambient(CaseSpec.parse(t)) for t in ALL_CASES] == ambients


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


# Q(psi^-1 a, psi^-1 b) = kappa * B(a, b) on the lifts, B the quotient form:
# kappa = 1/(c1 - c2) for two distinct finite points, else +-1
KAPPAS = [
    ("I:two-points:1,2", -1),
    ("I:two-points:3/4,-8/3", Fraction(12, 41)),
    ("I:double-pole", 1),
    ("I:simple-pole", -1),
    ("I:constant", 1),
    ("II:simple-pole", 1),
    ("II:constant", 1),
    ("III:constant", -1),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text, kappa", KAPPAS)
def test_lift_pairing_is_multiple_of_quotient_form(text, kappa, n):
    # the identity that lets lift_lagrangian check isotropy on the lifts
    alg = build_sl(n)
    spec = CaseSpec.parse(text)
    ambient = quotient_ambient(spec)
    rng = random.Random(n)

    def pair():
        return tuple(
            Sparse({i: rng.randint(-3, 3) for i in range(alg.dim)}) for _ in range(2)
        )

    forms = []
    for _ in range(20):
        a, b = pair(), pair()
        lift_a, lift_b = (psi_inverse_lift(alg, spec, x) for x in (a, b))
        forms.append(quot_form(alg, ambient, a, b))
        assert q_form(alg, spec, lift_a, lift_b) == kappa * forms[-1]
    assert any(forms)


def test_lift_lagrangian_validates():
    spec = tp()
    for gens in ([(E, Sparse()), (F, Sparse()), (H, Sparse())],
                 [(H, Sparse()), (E, Sparse()), (E, Sparse())]):  # (H, 0) with itself
        with pytest.raises(InvalidParameterError, match="not isotropic"):
            lift_lagrangian(ALG, spec, gens)
    with pytest.raises(InvalidParameterError, match="has dimension 3, got 1"):
        lift_lagrangian(ALG, spec, [(E, Sparse())])
    # eps*g read in the g + g quotient: (0, x) pairs to -K(x, y)
    with pytest.raises(InvalidParameterError, match="not isotropic"):
        lift_lagrangian(ALG, spec, eps_complement(ALG))


def test_lift_projects_back():
    # lifting then projecting returns the generators
    for text in ALL_CASES:
        spec = CaseSpec.parse(text)
        gens = (
            triangular_complement(ALG)
            if quotient_ambient(spec) == "gxg"
            else eps_complement(ALG)
        )
        w = lift_lagrangian(ALG, spec, gens)
        for gen, target in zip(w.head, gens):
            assert psi(ALG, spec, gen) == target


def test_catalog_tail_polys():
    assert tail_poly(tp()) == poly1([2, -3, 1])
    assert tail_poly(CaseSpec.parse("I:double-pole")) == poly1([1, -2, 1])
    assert tail_poly(CaseSpec.parse("I:simple-pole")) == poly1({1: -1, 2: 1})
    assert tail_poly(CaseSpec.parse("I:constant")) == poly1({2: 1})
    assert tail_poly(CaseSpec.parse("II:simple-pole")) == poly1([-1, 1])
    assert tail_poly(CaseSpec.parse("II:constant")) == poly1({1: 1})
    assert tail_poly(CaseSpec.parse("III:constant")) == poly1([1])


@pytest.mark.parametrize(
    "spec",
    [CaseSpec("II", "double-pole"), CaseSpec("III", "simple-pole"),
     CaseSpec("II", "two-points", Fraction(1), Fraction(2))],
    ids=lambda spec: spec.text,
)
@pytest.mark.parametrize("use", ["catalog_w0", "tail_poly", "quotient_ambient"])
def test_illegal_case_rejected_with_degree_bound(spec, use):
    # the points of an illegal family are undefined: the callers reading them
    # reject it with validate_case's message, not a bare KeyError
    call = {"catalog_w0": lambda: catalog_w0(ALG, spec),
            "tail_poly": lambda: tail_poly(spec),
            "quotient_ambient": lambda: quotient_ambient(spec)}[use]
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == validate_case(spec)


# -- is_lagrangian ------------------------------------------------------------

@pytest.mark.parametrize("text", ALL_CASES)
def test_catalog_passes_window_checks(text):
    spec = CaseSpec.parse(text)
    report = is_lagrangian(ALG, catalog_w0(ALG, spec), 6)
    assert report.isotropic and report.closed and report.transversal
    assert report.witness is None and report.closure_witness is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_catalog_passes_window_checks_at_higher_rank(n):
    alg = build_sl(n)
    for text in ALL_CASES:
        report = is_lagrangian(alg, catalog_w0(alg, CaseSpec.parse(text)), 6)
        assert report.ok and report.closure_witness is None


def _flip_c1(alg):
    # flip the sign of c1 in the (0, e_0) lift: (t - c1) -> (t + c1)
    spec = tp()
    w = catalog_w0(alg, spec)
    head = []
    for gen in w.head:
        loop = Sparse(gen.loop)
        if loop.get((0, -1)):
            loop[(0, 0)] = -loop.get((0, 0), Fraction(0))
        head.append(DoubleElement(loop))
    return WPresentation(spec, head, w.tail)


def test_corrupted_generator_fails_isotropy():
    report = is_lagrangian(ALG, _flip_c1(ALG), 6)
    assert not report.isotropic
    assert report.witness is not None
    (pair, value) = report.witness
    assert value != 0


def _positive_power(alg):
    # the last head generator gains a term e_0 u
    spec = tp()
    w = catalog_w0(alg, spec)
    head = list(w.head)
    head[-1] = DoubleElement(head[-1].loop + Sparse({(0, 1): 1}))
    return WPresentation(spec, head, w.tail)


def _perturbed_fin(alg):
    # eps*g with the finite summand e_0 added to the first generator eps e_0
    spec = CaseSpec.parse("III:constant")
    w = catalog_w0(alg, spec)
    head = list(w.head)
    head[0] = DoubleElement(Sparse(), fin=basis_element(0), eps=head[0].eps)
    return WPresentation(spec, head, w.tail)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("corrupt", [_flip_c1, _positive_power, _perturbed_fin])
def test_isotropy_witness_is_first_nonzero_q_form(corrupt, n):
    # the witness is the first pair (a, b), a <= b, in window-basis order
    # whose brute-force q_form is nonzero, with the same exact value
    alg = build_sl(n)
    w = corrupt(alg)
    basis = window_basis(alg, w, 6)
    want = next(
        ((a, b), val)
        for a in range(len(basis))
        for b in range(a, len(basis))
        for val in [q_form(alg, w.spec, basis[a], basis[b])]
        if val != 0
    )
    report = is_lagrangian(alg, w, 6)
    assert not report.isotropic
    assert report.witness == want
    assert type(report.witness[1]) is Fraction


def test_full_negative_half_fails_isotropy():
    # g[u^{-1}] itself, heads x_i and x_i t over the tail t^2 g[t], is not
    # isotropic for the constant weight
    spec = CaseSpec.parse("I:constant")
    head = [DoubleElement(Sparse({(i, -d): 1})) for d in (0, 1) for i in range(ALG.dim)]
    report = is_lagrangian(ALG, WPresentation(spec, head, tail_poly(spec)), 6)
    assert not report.isotropic


def test_head_bracket_leaving_w_is_not_closed():
    # head e, f without h: [e, f] = h u^0 is no combination of e, f and the
    # tail (t - 1)(t - 2) g[t]
    spec = tp()
    w = WPresentation(spec, [DoubleElement(Sparse({(i, 0): 1})) for i in (0, 1)],
                      tail_poly(spec))
    report = is_lagrangian(ALG, w, 6)
    assert report.closed is False
    assert report.closure_witness == (0, 1)
    assert _windowed_closure_witness(ALG, w, 6) == (0, 1)


def test_head_with_positive_power_times_tail_is_not_closed():
    # [e u, f u^{-2}] = h u^{-1}, which is neither in the tail u^{-2} g[u^{-1}]
    # nor a multiple of the only head e u
    spec = CaseSpec.parse("I:constant")
    w = WPresentation(spec, [DoubleElement(Sparse({(0, 1): 1}))], tail_poly(spec))
    report = is_lagrangian(ALG, w, 6)
    assert report.closed is False
    assert report.closure_witness == (0, ("tail", 0, 1))  # f u^{-2} = m(t) f
    assert _windowed_closure_witness(ALG, w, 6) == (0, ("tail", 0, 1))


def _windowed_closure_witness(alg, w, window):
    """The closure check on a doubled window, with no tail ideal: every
    bracket of a head with a later window element must lie in the span of
    the head and the tail monomials up to t-degree 2 window.  Returns the
    label of the first bracket that does not, in ``is_lagrangian``'s terms,
    or None."""
    wide = window_basis(alg, w, 2 * window)
    basis = wide[: len(w.head) + alg.dim * (window - w.tail_degree() + 1)]
    span = RowSpan()
    for el in wide:
        span.add(el.coords())
    nhead = len(w.head)
    for a in range(nhead):
        for b in range(a + 1, len(basis)):
            if not span.contains(de_bracket(alg, w.spec, basis[a], basis[b]).coords()):
                if b < nhead:
                    return (a, b)
                return (a, ("tail", (b - nhead) // alg.dim, (b - nhead) % alg.dim))
    return None


ALGS = {n: build_sl(n) for n in (2, 3)}
EXTRA_PARTS = {"I": [], "II": ["fin"], "III": ["fin", "eps"]}


def _reach(w):
    """A window that reaches every head for the windowed oracles: past the
    heads' largest power of u and their t-degree, each plus deg m."""
    return max([6] + [abs(d) + w.tail_degree() for g in w.head for (_, d) in g.loop])


@st.composite
def perturbed_presentations(draw):
    """A catalog W at sl_2 or sl_3 with one to three edits: a loop term of
    u-degree -2..10 added to a head, a finite or dual-number part added
    (types II and III), or a head dropped."""
    alg = ALGS[draw(st.sampled_from([2, 3]))]
    spec = CaseSpec.parse(draw(st.sampled_from(ALL_CASES)))
    w = catalog_w0(alg, spec)
    head = list(w.head)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["loop", "drop"] + EXTRA_PARTS[spec.double_type]))
        a = draw(st.integers(0, len(head) - 1))
        i = draw(st.integers(0, alg.dim - 1))
        c = draw(st.sampled_from([-2, -1, 1, 3]))
        g = head[a]
        if kind == "drop":
            del head[a]
        elif kind == "loop":
            # u^9 and u^10 are a branch of their own: hypothesis favours small
            # integers, so within one range -2..10 they are seldom drawn
            term = Sparse({(i, draw(st.one_of(st.integers(-2, 8), st.integers(9, 10)))): c})
            head[a] = DoubleElement(g.loop + term, g.fin, g.eps)
        elif kind == "fin":
            head[a] = DoubleElement(g.loop, g.fin + Sparse({i: c}), g.eps)
        else:
            head[a] = DoubleElement(g.loop, g.fin, g.eps + Sparse({i: c}))
    return alg, WPresentation(spec, head, w.tail)


@settings(max_examples=60, deadline=None)
@given(perturbed_presentations())
def test_closure_matches_windowed_oracle(case):
    alg, w = case
    report = is_lagrangian(alg, w, 6)
    want = _windowed_closure_witness(alg, w, _reach(w))
    assert report.closure_witness == want
    assert report.closed is (want is None)
    assert report.transversal == _slice_transversal(alg, w, _reach(w))


def test_remainder_reduces_refilled_degrees():
    # m = t^2 - t: one step on t^3 e leaves t^2 e, itself of degree deg m,
    # and the next step leaves t e
    w = catalog_w0(ALG, CaseSpec.parse("I:simple-pole"))
    assert rem(w, DoubleElement(Sparse({(0, -3): 1}))) == Sparse({(0, 0, 1): 1})
    # at sl_3 a u^{-2} term added to a head keeps W closed only when the
    # division also reduces the degrees its own steps refill
    alg = ALGS[3]
    head = list(catalog_w0(alg, w.spec).head)
    head[0] = DoubleElement(head[0].loop + Sparse({(0, -2): 1}))
    w3 = WPresentation(w.spec, head, w.tail)
    assert _windowed_closure_witness(alg, w3, 6) is None
    assert is_lagrangian(alg, w3, 6).closed


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_CASES),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(-5, 0)),
        st.integers(-3, 3).filter(bool),
        max_size=8,
    ),
    st.dictionaries(st.integers(0, 2), st.integers(-3, 3).filter(bool), max_size=3),
    st.dictionaries(st.integers(0, 2), st.integers(-3, 3).filter(bool), max_size=3),
)
def test_remainder_has_the_same_quotient_image(text, loop, fin, eps):
    # psi's kernel is the tail ideal, so v and v with its loop part replaced
    # by the remainder have one image; the remainder has t-degree < deg m
    spec = CaseSpec.parse(text)
    parts = EXTRA_PARTS[spec.double_type]
    v = DoubleElement(
        Sparse(loop),
        Sparse(fin) if "fin" in parts else Sparse(),
        Sparse(eps) if "eps" in parts else Sparse(),
    )
    w = catalog_w0(ALG, spec)
    r = rem(w, v)
    loop_part = Sparse(((key[1], -key[2]), c) for key, c in r.items() if key[0] == 0)
    reduced = DoubleElement(loop_part, v.fin, v.eps)
    assert psi(ALG, spec, reduced) == psi(ALG, spec, v)
    assert all(-d < w.tail_degree() for (_, d) in reduced.loop)
    assert r == reduced.coords()


def _slice_transversal(alg, w, window):
    """Transversality as the whole slice: the W window plus the canonical
    vectors x_i u^k, k <= window, span dim g (2 window + 1 + s).  The
    oracle of ``is_lagrangian``'s reduction modulo g[u]."""
    span = RowSpan()
    for el in window_basis(alg, w, window):
        span.add(el.coords())
    for k in range(window + 1):
        for i in range(alg.dim):
            span.add(embed_canonical(w.spec, basis_element(i), k).coords())
    return span.dim == alg.dim * (2 * window + 1 + w.spec.at_infinity)


def _duplicated_head(alg, spec):
    w = catalog_w0(alg, spec)
    return WPresentation(spec, [w.head[0], *w.head[:-1]], w.tail)


def _loop_head(alg, spec, k=0):
    # the first head replaced by x_0 u^k, an element of g[u]
    w = catalog_w0(alg, spec)
    return WPresentation(spec, [embed_canonical(spec, basis_element(0), k), *w.head[1:]], w.tail)


def _repeated_head(alg, spec):
    # a copy of the first head appended: the same W, presented redundantly
    w = catalog_w0(alg, spec)
    return WPresentation(spec, [*w.head, w.head[0]], w.tail)


def _mixed_heads(alg, spec, rng):
    # one head replaced by a combination of two heads, possibly itself
    w = catalog_w0(alg, spec)
    head = list(w.head)
    a, b, c = (rng.randrange(len(head)) for _ in range(3))
    x, y = (rng.choice([-2, -1, 0, 1, 3]) for _ in range(2))
    head[a] = x * head[b] + y * head[c]
    return WPresentation(spec, head, w.tail)


@pytest.mark.parametrize("text", ALL_CASES + ["I:two-points:2,-3"])
@pytest.mark.parametrize("make", [_duplicated_head, _loop_head])
def test_head_inside_span_is_not_transversal(make, text):
    spec = CaseSpec.parse(text)
    for alg in ALGS.values():
        w = make(alg, spec)
        report = is_lagrangian(alg, w, 6)
        assert report.transversal is False and not report.ok
        assert not _slice_transversal(alg, w, 6)


@pytest.mark.parametrize("text", ALL_CASES + ["I:two-points:2,-3"])
def test_transversality_matches_slice_oracle(text):
    rng = random.Random(text)
    spec = CaseSpec.parse(text)
    seen = set()
    for alg in ALGS.values():
        ws = [catalog_w0(alg, spec), _duplicated_head(alg, spec), _repeated_head(alg, spec),
              _loop_head(alg, spec), _loop_head(alg, spec, 4), _loop_head(alg, spec, 6)]
        ws += [_mixed_heads(alg, spec, rng) for _ in range(6)]
        for w in ws:
            # the slice misses a head's u^k beyond its window, so it must reach k
            k = max([0] + [d for g in w.head for (_, d) in g.loop])
            for window in (4, 6):
                got = is_lagrangian(alg, w, window).transversal
                assert got == _slice_transversal(alg, w, max(window, k))
                seen.add(got)
            # dual_basis raises exactly when W is not transversal
            assert isinstance(_duals_or_error(alg, w, 2), str) is (not got)
    assert seen == {True, False}


@pytest.mark.parametrize("text", ALL_CASES)
def test_head_in_g_u_beyond_window_is_caught(text):
    # x_0 u^10 lies in g[u] and pairs with m(t) t^9 x^0: neither isotropic nor
    # transversal, whether or not the window reaches u^10
    spec = CaseSpec.parse(text)
    w = _loop_head(ALG, spec, 10)
    for window in (6, 12):
        report = is_lagrangian(ALG, w, window)
        assert report.isotropic is False and report.transversal is False


def test_tail_ideal_must_contain_case_tail():
    # W's tail is the case's m(t) = t^2: a scaled m, a smaller ideal t^3 g[t]
    # and a larger one g[t] are rejected when the presentation is built
    spec = CaseSpec.parse("I:constant")
    w = catalog_w0(ALG, spec)
    for tail in (2 * w.tail, poly1({3: 1}), poly1([1])):
        with pytest.raises(InvalidParameterError, match="the case's m"):
            WPresentation(spec, w.head, tail)


def _duals_or_error(alg, w, truncation):
    try:
        return dual_basis(alg, w, truncation)
    except NotTransversalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(perturbed_presentations(), st.integers(0, 4))
def test_verdicts_do_not_depend_on_window(case, truncation):
    alg, w = case
    report = is_lagrangian(alg, w, 6)
    assert report == is_lagrangian(alg, w, 10)
    short = _duals_or_error(alg, w, truncation)
    assert isinstance(short, str) is (not report.transversal)
    longer = _duals_or_error(alg, w, truncation + 2)
    if isinstance(short, str):
        assert longer == short
    else:
        assert longer[: len(short)] == short


def test_small_window_gives_the_same_report():
    # the window is not read: below the heads' t-degree + deg m + 1 too
    for text in ALL_CASES:
        w = catalog_w0(ALG, CaseSpec.parse(text))
        assert is_lagrangian(ALG, w, 2) == is_lagrangian(ALG, w, 6) == is_lagrangian(ALG, w)


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

    spec = CaseSpec.parse(text)
    w = catalog_w0(ALG, spec)
    span = RowSpan()
    for el in window_basis(ALG, w, 8):
        span.add(el.coords())
    for (_, _, el) in dual_basis(ALG, w, 3):
        assert span.contains(el.coords())


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


@pytest.mark.parametrize("text", ALL_CASES)
def test_dual_basis_of_shifted_head(text):
    # head 0 plus m(t) t^4 x_last spans the same W; the shifted head pairs
    # with x_last u^5, above the truncation, and the tail cancels that pairing
    spec = CaseSpec.parse(text)
    w = catalog_w0(ALG, spec)
    shifted = w.head[0] + tail_monomials(ALG, w, w.tail_degree() + 4)[-1]
    w2 = WPresentation(spec, [shifted, *w.head[1:]], w.tail)
    assert is_lagrangian(ALG, w2, 10).ok
    for truncation in (0, 2, 6):
        assert dual_basis(ALG, w2, truncation) == dual_basis(ALG, w, truncation)


def test_dual_basis_not_transversal():
    # a presentation missing the head generators cannot reach degree 0 duals
    spec = CaseSpec.parse("I:constant")
    w = WPresentation(spec, [], poly1({2: 1}))  # only t^2 g[t]
    with pytest.raises(NotTransversalError, match="inconsistent"):
        dual_basis(ALG, w, 1)


def test_dual_basis_singular():
    # the catalog heads plus x_0 u^0, a head in g[u]: P keeps rank dim g
    # over one more independent head
    for text in ALL_CASES:
        spec = CaseSpec.parse(text)
        w = catalog_w0(ALG, spec)
        w = WPresentation(spec, [*w.head, embed_canonical(spec, basis_element(0), 0)], w.tail)
        assert is_lagrangian(ALG, w).transversal is False
        with pytest.raises(NotTransversalError, match="singular"):
            dual_basis(ALG, w, 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text", ALL_CASES)
def test_dual_basis_of_repeated_head(text, n):
    # a copy of head 0 appended presents the same W: the duals are the catalog's
    alg = ALGS[n]
    w = _repeated_head(alg, CaseSpec.parse(text))
    assert is_lagrangian(alg, w).ok
    for truncation in (0, 2, 6):
        assert dual_basis(alg, w, truncation) == dual_basis(alg, catalog_w0(alg, w.spec), truncation)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("text", ALL_CASES)
def test_shifted_duals_equal_tail_elements(text, n):
    # dual(x_i u^k), k >= 1, is m(t) t^{k-1} x^i: read off one m(t) x^i by a
    # key shift, it equals tail_element's product, key order included
    alg = build_sl(n)
    w = catalog_w0(alg, CaseSpec.parse(text))
    duals = {truncation: dual_basis(alg, w, truncation) for truncation in (0, 1, 6, 12)}
    for truncation, got in duals.items():
        assert [(i, k) for i, k, _ in got] == [
            (i, k) for k in range(truncation + 1) for i in range(alg.dim)
        ]
        assert got == duals[12][: len(got)]
    for i, k, el in duals[12][alg.dim:]:
        dual = Sparse((a, g) for a, g in enumerate(oracle(n).dual[i]) if g)
        want = tail_element(w, dual, k - 1)
        assert el == want and list(el.loop.items()) == list(want.loop.items())
        assert not el.fin and not el.eps


@pytest.mark.parametrize("text", ALL_CASES)
def test_dualbasis_command_runs_one_head_pass(text, monkeypatch, tmp_path):
    # is_lagrangian and dual_basis read one head pass per W: the heads are
    # paired (canonical_pairings) once each, not once per reader
    import lbforge.lagrangian
    from lbforge.cli import main

    real = lbforge.lagrangian.canonical_pairings
    calls = []

    def counting(alg, spec, y, kmax):
        calls.append(kmax)
        return real(alg, spec, y, kmax)

    monkeypatch.setattr(lbforge.lagrangian, "canonical_pairings", counting)
    assert main(["dualbasis", "--algebra", "A:3", "--case", text, "--degree", "2",
                 "--out", str(tmp_path / "duals.json")]) == 0
    assert len(calls) == build_sl(3).dim


def test_head_pass_is_not_in_repr_or_equality():
    # the tracer keys dual_basis on repr(w): the kept pass must not show there
    spec = tp()
    w = catalog_w0(ALG, spec)
    before = repr(w)
    assert is_lagrangian(ALG, w).ok
    dual_basis(ALG, w, 2)
    assert repr(w) == before and "_head_passes" not in before
    assert w == catalog_w0(ALG, spec)
