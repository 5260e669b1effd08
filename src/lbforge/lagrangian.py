"""Lagrangian complements W of g[u] in the double: lifts from the finite
quotient, the shipped catalog, windowed Lagrangian checks (closure modulo
the tail ideal, transversality modulo g[u]), and dual bases.

Every W handled here contains a polynomial-ideal tail m(t) g[t] with
t = u^{-1}, plus finitely many head generators.  The quotient of the
relevant half of the double by the tail is a finite-dimensional Lie
algebra, either g + g or the dual-number extension g + eps*g; Lagrangian
subalgebras there lift to Lagrangian complements of g[u].

Quotient generators are pairs (x1, x2) of g-elements, read by the case:
(left, right) for g + g, (value, eps-part) for g + eps*g.  They carry no
label and no form: isotropy is checked on their lifts, in the double.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconclusiveWindowError,
    InvalidParameterError,
    NotTransversalError,
)
from .liealg import LieAlgebraData, basis_element, bracket, bracket_poly
from .pairing import CaseSpec, DoubleElement, canonical_pairings, pairing_map
from .ratfun import poly1
from .sparse import RowSpan, Sparse, poly_mul


@dataclass
class WPresentation:
    """Head generators plus the tail ideal m(t) g[t], t = u^{-1}.

    ``tail`` is m as a polynomial in t with m != 0; the constant m = 1
    puts all of g[u^{-1}] inside W (the dual-number type III shape).
    """

    spec: CaseSpec
    head: list
    tail: Sparse

    def tail_degree(self):
        return max(self.tail)


def quotient_ambient(spec: CaseSpec) -> str:
    """Which finite quotient a case uses: g + g for two distinct points,
    g + eps*g for a double one."""
    c1, c2 = spec.points
    return "gxg" if c1 != c2 else "geps"


def tail_poly(spec: CaseSpec) -> Sparse:
    """Generator m(t) = prod (t - c) over the finite points of the tail
    ideal, t = u^{-1}."""
    m = poly1([1])
    for c in spec.points:
        if c is not None:
            m = poly_mul(m, poly1([-c, 1]))
    return m


def _loop_from_tpoly(x: Sparse, p: Sparse) -> Sparse:
    """x * p(u^{-1}) as a loop component."""
    out = Sparse()
    for d, c in p.items():
        for i, ci in x.items():
            out.iadd((i, -d), c * ci)
    return out


def psi_inverse_lift(alg: LieAlgebraData, spec: CaseSpec, target) -> DoubleElement:
    """Distinguished coset representative of minimal degree in u^{-1}.

    No point at infinity: the p(t) = a + b t with p(c1) = x1 and p(c2) = x2
    for two distinct points, with p(c1) = x1 and p'(c1) = x2 for a double
    one.  Otherwise the finite point, if any, takes x1 as a constant and
    infinity takes the remaining components as its jets.
    """
    x1, x2 = target
    s = spec.at_infinity
    if s:
        loop = _loop_from_tpoly(x1, poly1([1])) if s == 1 else Sparse()
        return DoubleElement(loop, *(x.copy() for x in target[2 - s:]))
    c1, c2 = spec.points
    b = x2 if c1 == c2 else Fraction(1, c1 - c2) * (x1 - x2)
    a = x1 - c1 * b
    return DoubleElement(
        _loop_from_tpoly(a, poly1([1])) + _loop_from_tpoly(b, poly1({1: 1}))
    )


def isotropy_witness(alg: LieAlgebraData, spec: CaseSpec, elements: list):
    """((a, b), value) for the first a, then b >= a, whose coords(elements[a])
    dotted with the pairing map of elements[b] is nonzero; None if none is."""
    degrees = [d for el in elements for (_, d) in el.loop] or [0]
    maps = [pairing_map(alg, spec, el, min(degrees), max(degrees)) for el in elements]
    for a, el in enumerate(elements):
        ca = el.coords()
        for b in range(a, len(elements)):
            mb = maps[b]
            val = sum(c * mb[e] for e, c in ca.items() if e in mb)
            if val != 0:
                return (a, b), val
    return None


def lift_lagrangian(alg: LieAlgebraData, spec: CaseSpec, gens: list) -> WPresentation:
    """Lift the generators (x1, x2) of a finite Lagrangian complement to a
    presentation of W.  On lifts the double's pairing is a nonzero multiple
    of the quotient's form, so isotropy is checked on the lifts."""
    if len(gens) != alg.dim:
        raise InvalidParameterError(
            f"a Lagrangian complement has dimension {alg.dim}, got {len(gens)}"
        )
    tail = tail_poly(spec)
    head = [psi_inverse_lift(alg, spec, g) for g in gens]
    if isotropy_witness(alg, spec, head) is not None:
        raise InvalidParameterError("generators are not isotropic")
    return WPresentation(spec=spec, head=head, tail=tail)


def triangular_complement(alg: LieAlgebraData) -> list:
    """(f_alpha, 0), (0, e_alpha), (H_i, -H_i): a complement in g + g."""
    gens = []
    npos = len(alg.positive_roots)
    for a in range(npos):
        gens.append((basis_element(npos + a), Sparse()))
    for a in range(npos):
        gens.append((Sparse(), basis_element(a)))
    for i in range(1, alg.rank + 1):
        h = basis_element(alg.h_index(i))
        gens.append((h, -h))
    return gens


def eps_complement(alg: LieAlgebraData) -> list:
    """(0, x_i): eps * g inside g + eps*g."""
    return [(Sparse(), basis_element(i)) for i in range(alg.dim)]


def catalog_w0(alg: LieAlgebraData, spec: CaseSpec) -> WPresentation:
    """The shipped complement for a case: triangular for g+g quotients,
    eps*g for dual-number quotients."""
    if quotient_ambient(spec) == "gxg":
        gens = triangular_complement(alg)
    else:
        gens = eps_complement(alg)
    return lift_lagrangian(alg, spec, gens)


# -- windowed checks ----------------------------------------------------------

def tail_monomials(alg: LieAlgebraData, w: WPresentation, max_t_degree: int):
    """m(t) t^j x for basis x, with deg(m) + j <= max_t_degree."""
    out = []
    mdeg = w.tail_degree()
    for j in range(0, max_t_degree - mdeg + 1):
        shifted = Sparse(((d + j, c) for d, c in w.tail.items()))
        for i in range(alg.dim):
            out.append(DoubleElement(_loop_from_tpoly(basis_element(i), shifted)))
    return out


def window_basis(alg, w: WPresentation, max_t_degree: int):
    """Head generators plus tail monomials up to the given t-degree."""
    return list(w.head) + tail_monomials(alg, w, max_t_degree)


def de_bracket(alg, spec, x: DoubleElement, y: DoubleElement) -> DoubleElement:
    """Bracket of the double: componentwise loop bracket plus the bracket of
    the jets, [x1 + eps x2, y1 + eps y2] with eps^2 = 0; jets a type does
    not carry are zero and bracket to zero."""
    eps = bracket(alg, x.fin, y.eps)
    bracket(alg, x.eps, y.fin, eps)
    return DoubleElement(bracket_poly(alg, x.loop, y.loop), bracket(alg, x.fin, y.fin), eps)


def rem(w: WPresentation, el: DoubleElement) -> Sparse:
    """``el.coords()`` with the loop part in g[t] reduced modulo m(t).

    Long division in t = u^{-1}, separately for each basis index; positive
    powers of u, ``fin`` and ``eps`` pass through.  Two elements have the
    same remainder exactly when they differ by an element of the tail ideal
    m(t) g[t].
    """
    out = el.coords()
    mdeg = w.tail_degree()
    lower = [(d, c / w.tail[mdeg]) for d, c in w.tail.items() if d < mdeg]
    tops = {}
    for (i, d) in el.loop:
        if -d >= mdeg:
            tops[i] = max(tops.get(i, 0), -d)
    for i, top in tops.items():
        # every degree from the top down: a step may refill a lower one >= deg m
        for k in range(top, mdeg - 1, -1):
            c = out.pop((0, i, k), None)
            if c:
                for d, cm in lower:
                    out.iadd((0, i, k - mdeg + d), -c * cm)
    return out


def _closure_checks(alg, w: WPresentation, window: int):
    """(label, x, y) for every bracket [x, y] that closure checks: the head
    pairs (a, b), a < b, and head a with each tail monomial m(t) t^j x_i,
    labelled (a, ("tail", j, i)), for j < min(k, window - deg m + 1), k the
    largest power of u in head a."""
    for a, h in enumerate(w.head):
        for b in range(a + 1, len(w.head)):
            yield (a, b), h, w.head[b]
        k = max((d for (_, d) in h.loop), default=0)
        steps = min(k, window - w.tail_degree() + 1)
        tails = tail_monomials(alg, w, w.tail_degree() + steps - 1)
        for idx, y in enumerate(tails):
            yield (a, ("tail", idx // alg.dim, idx % alg.dim)), h, y


@dataclass
class LagrangianReport:
    isotropic: bool
    closed: bool
    transversal: bool
    witness: tuple = None  # (index pair, value) for an isotropy failure
    closure_witness: tuple = None  # label of the first bracket leaving W

    @property
    def ok(self):
        return self.isotropic and self.closed and self.transversal


def is_lagrangian(alg, w: WPresentation, window: int) -> LagrangianReport:
    """Isotropy, bracket closure, and transversality on a degree window.

    The window must cover the head generators and one tail step, else the
    test is inconclusive.  Isotropy is ``isotropy_witness`` over the window
    elements: the witness is the first nonzero pair and its value.

    Closure works modulo the tail ideal: W is the span of the heads plus
    m(t) g[t], so a bracket lies in W exactly when its remainder (``rem``)
    lies in the span of the heads' remainders.  A bracket of two tail
    monomials lies in the tail ideal, and so does a head times m(t) t^j x
    unless the head carries a power u^k with k > j.  The head pairs are
    checked, and each head with largest u power k > 0 against the tail
    monomials with j < min(k, window - deg m + 1), the ones inside the
    window; ``closure_witness`` labels the first bracket that leaves W (see
    ``_closure_checks``).

    Transversality: the canonical x_i u^k, k <= window, are loop key
    (0, i, -k) plus jet key (1 + k, i) when k < s, independent as their loop
    keys differ.  With the W window they span the slice, dim g (2 window + 1
    + s), exactly when the window reduced modulo them (pop (0, i, -k), add -c
    at (1 + k, i) when k < s) has rank dim g (window + s).
    """
    head_deg = max(
        (max((-d for (_, d) in g.loop), default=0) for g in w.head), default=0
    )
    if window < head_deg + w.tail_degree() + 1:
        raise InconclusiveWindowError(
            f"window {window} too small for generators of degree {head_deg} "
            f"and tail of degree {w.tail_degree()}"
        )
    basis = window_basis(alg, w, window)
    witness = isotropy_witness(alg, w.spec, basis)

    # closure modulo the tail ideal: remainders against the heads' remainders
    span = RowSpan()
    for h in w.head:
        span.add(rem(w, h))
    closure_witness = next(
        (label for label, x, y in _closure_checks(alg, w, window)
         if not span.contains(rem(w, de_bracket(alg, w.spec, x, y)))),
        None,
    )

    # transversality: the W window modulo g[u] up to u^window
    s = w.spec.at_infinity
    reduced = RowSpan()
    for el in basis:
        row = el.coords()
        for key in [e for e in row if e[0] == 0 and -window <= e[2] <= 0]:
            c = row.pop(key)
            if -key[2] < s:
                row.iadd((1 - key[2], key[1]), -c)
        reduced.add(row)
    transversal = reduced.dim == alg.dim * (window + s)
    return LagrangianReport(
        witness is None, closure_witness is None, transversal, witness, closure_witness
    )


def dual_basis(alg, w: WPresentation, truncation: int):
    """Elements of W dual to the canonical basis of g[u] up to a degree.

    Returns [(basis index, degree, element)] for every canonical vector
    x u^k with k <= truncation, where the element pairs to 1 with its
    partner and to 0 with every other canonical vector.  Solved as one
    exact linear system over the W window: one sparse row per canonical
    vector the window can pair against, read off the pairing maps of the
    window elements, with the unknowns 0..n-1 before the right-hand sides
    n..; a singular system means the presentation is not transversal.
    """
    depth = truncation + 3
    wbasis = window_basis(alg, w, depth)
    n = len(wbasis)
    rows = {(i, k): Sparse() for k in range(depth + 3) for i in range(alg.dim)}
    for b, wel in enumerate(wbasis):
        for key, val in canonical_pairings(alg, w.spec, wel, depth + 2).items():
            rows[key][b] = val
    wanted = [(i, k) for k in range(truncation + 1) for i in range(alg.dim)]
    for c, key in enumerate(wanted):
        rows[key][n + c] = Fraction(1)
    span = RowSpan()
    for row in rows.values():
        span.add(row)
    if any(piv >= n for piv in span.rows):
        raise NotTransversalError("dual-basis system is inconsistent")
    if span.dim < n:
        raise NotTransversalError("dual-basis system is singular")
    duals = [DoubleElement(Sparse()) for _ in wanted]
    for b, wel in enumerate(wbasis):
        for c, coeff in span.rows[b].items():
            if c >= n:
                el = duals[c - n]
                for mine, theirs in ((el.loop, wel.loop), (el.fin, wel.fin), (el.eps, wel.eps)):
                    for key, val in theirs.items():
                        mine.iadd(key, coeff * val)
    return [(i, k, el) for (i, k), el in zip(wanted, duals)]
