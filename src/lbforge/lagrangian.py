"""Lagrangian complements W of g[u] in the double: lifts from the finite
quotient, the shipped catalog, the Lagrangian check and the dual basis.

Every W handled here contains a polynomial-ideal tail m(t) g[t] with
t = u^{-1}, plus finitely many head generators.  The quotient of the
relevant half of the double by the tail is a finite-dimensional Lie
algebra, either g + g or the dual-number extension g + eps*g; Lagrangian
subalgebras there lift to Lagrangian complements of g[u].

Quotient generators are pairs (x1, x2) of g-elements, read by the case:
(left, right) for g + g, (value, eps-part) for g + eps*g.  They carry no
label and no form: isotropy is checked on their lifts, in the double.

The tail is the dual of g[u] above degree 0.  Over the family's finite
points c, m(t) = prod (t - c) = u^{-deg m} prod (1 - c u), deg m = 2 - s,
and a(u) = 1/prod (1 - c u) (the shape's other type I points are 0), so
m(t) a(u) = u^{-deg m}.  The canonical x_j u^l, whose jets meet none in the
tail, pairs with m(t) t^{k-1} x^i, k >= 1 and x^i the trace-form dual of x_i,
to Res u^{-s} a(u) m(t) u^{l-k+1} K(x_j, x^i) = Res u^{l-k-1} delta_ij =
delta_ij delta_kl.  Likewise Q(h, m(t) t^j x) = K(h_{j+1}, x), h_{j+1} the
coefficient of u^{j+1} in h, and two tail monomials pair to
Res u^{-2-j-j'}(...) = 0.  So the Lagrangian check and the dual basis read
finitely many elements of W, fixed by the heads: no degree window.

W's tail is the case's m(t).  The check and the duals share one pass over
the heads (``_head_pass``, formed once per W and kept on it) that keeps
those whose remainders modulo m(t) are independent, so a redundant head
changes no verdict and no dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParameterError, NotTransversalError
from .liealg import LieAlgebraData, basis_element, bracket, bracket_poly
from .pairing import CaseSpec, DoubleElement, canonical_pairings, pairing_map
from .ratfun import poly1
from .sparse import RowSpan, Sparse, poly_mul


@dataclass
class WPresentation:
    """Head generators plus the case's tail ideal m(t) g[t], t = u^{-1}.

    ``tail`` is ``tail_poly(spec)`` as a polynomial in t, else
    ``InvalidParameterError``; the constant m = 1 puts all of g[u^{-1}]
    inside W (the dual-number type III shape).
    """

    spec: CaseSpec
    head: list
    tail: Sparse
    # {n: _head_pass over sl_n}, formed on first use; a W is not edited after
    _head_passes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tail != tail_poly(self.spec):
            raise InvalidParameterError("the tail must be the case's m(t)")

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


# -- the Lagrangian check and the dual basis ----------------------------------

def tail_element(w: WPresentation, x: Sparse, j: int) -> DoubleElement:
    """m(t) t^j x."""
    return DoubleElement(_loop_from_tpoly(x, Sparse((d + j, c) for d, c in w.tail.items())))


def tail_monomials(alg: LieAlgebraData, w: WPresentation, max_t_degree: int):
    """m(t) t^j x for basis x, with deg(m) + j <= max_t_degree."""
    return [tail_element(w, basis_element(i), j)
            for j in range(max_t_degree - w.tail_degree() + 1) for i in range(alg.dim)]


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

    Long division by the monic m in t = u^{-1}, separately for each basis
    index; positive powers of u, ``fin`` and ``eps`` pass through.  Two elements have the
    same remainder exactly when they differ by an element of the tail ideal
    m(t) g[t].
    """
    out = el.coords()
    mdeg = w.tail_degree()
    lower = [(d, c) for d, c in w.tail.items() if d < mdeg]
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


def _closure_checks(alg, w: WPresentation):
    """(label, x, y) for every bracket [x, y] that closure checks: the head
    pairs (a, b), a < b, and head a with each m(t) t^j x_i, labelled
    (a, ("tail", j, i)), for j < k, k the largest power of u in head a."""
    for a, h in enumerate(w.head):
        for b in range(a + 1, len(w.head)):
            yield (a, b), h, w.head[b]
        k = max((d for (_, d) in h.loop), default=0)
        for idx, y in enumerate(tail_monomials(alg, w, w.tail_degree() + k - 1)):
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


def _head_pass(alg, w: WPresentation):
    """(span, kept): span the ``RowSpan`` of the heads' remainders, kept the
    heads whose remainder enlarges it, in order, each as (h, Q(x_j u^l, h)
    by ``canonical_pairings``) up to l = s - 1 + h's t-degree, past which h
    pairs with nothing.  Formed once per W and n, and kept on ``w``, so
    ``is_lagrangian`` and ``dual_basis`` on one W share it; neither writes
    to it."""
    done = w._head_passes.get(alg.n)
    if done is None:
        span, kept = RowSpan(), []
        for h in w.head:
            if span.add(rem(w, h)):
                top = max([0] + [-d for (_, d) in h.loop])
                kept.append((h, canonical_pairings(alg, w.spec, h, w.spec.at_infinity - 1 + top)))
        done = w._head_passes[alg.n] = (span, kept)
    return done


def is_lagrangian(alg, w: WPresentation, window=None) -> LagrangianReport:
    """Isotropy, bracket closure and transversality of W = span(heads) +
    m(t) g[t], each read off finitely many elements of W (module
    docstring).  ``window`` is not read.

    Isotropy: ``isotropy_witness`` over the heads and the m(t) t^j x with
    j < k_max (the heads' largest power of u): a prefix of any longer
    ``window_basis`` that holds all of its nonzero pairs, so one witness.
    Closure: [x, y] lies in W iff its ``rem`` lies in the span of the
    heads' remainders; ``_closure_checks`` lists the brackets that can fail.
    Transversality: the canonical basis pairs with the heads ``_head_pass``
    keeps through P[j][b] = Q(x_j u^0, h_b) and with the tail as the
    identity above degree 0.  So W + g[u] is the double iff rank P = dim g,
    and W meets g[u] = g[u]^perp in 0 iff rank P heads are kept as well.
    """
    k_max = max([0] + [d for g in w.head for (_, d) in g.loop])
    witness = isotropy_witness(alg, w.spec, window_basis(alg, w, w.tail_degree() + k_max - 1))
    span, kept = _head_pass(alg, w)
    pmat = RowSpan()
    for _, pairs in kept:
        pmat.add(Sparse((j, v) for (j, l), v in pairs.items() if l == 0))
    closure_witness = next(
        (label for label, x, y in _closure_checks(alg, w)
         if not span.contains(rem(w, de_bracket(alg, w.spec, x, y)))),
        None,
    )
    transversal = pmat.dim == span.dim == alg.dim
    return LagrangianReport(
        witness is None, closure_witness is None, transversal, witness, closure_witness
    )


def _shift(loop: Sparse, j: int) -> Sparse:
    """loop times t^j = u^{-j}: every u-degree lowered by j."""
    out = Sparse()
    out.update(((i, d - j), c) for (i, d), c in loop.items())
    return out


def dual_basis(alg, w: WPresentation, truncation: int):
    """[(i, k, el)] for every canonical x_i u^k, k <= truncation, with el in
    W pairing to 1 with x_i u^k and to 0 with every other canonical vector.

    For k >= 1, el = m(t) t^{k-1} x^i (module docstring): the loop of
    m(t) x^i is formed once per i, and each m(t) t^{k-1} x^i is that loop
    with its u-degrees lowered by k - 1.  For k = 0 each head that
    ``_head_pass`` keeps loses its pairings above degree 0, h' = h -
    sum_{l >= 1} Q(x_j u^l, h) m(t) t^{l-1} x^j, by the same shifts, and
    el = sum_b (P^-1)_{ib} h'_b over the kept heads, summed into one element
    per i, solved with the unknowns 0..n-1 before the right-hand sides n..
    NotTransversalError exactly when ``is_lagrangian`` reads W as not
    transversal: "inconsistent" when some e_i is out of P's reach,
    "singular" when P has more columns than rank.
    """
    _, kept = _head_pass(alg, w)
    n = len(kept)
    # the loop of m(t) x^j for each basis index j, x^j the trace-form dual
    tails = [tail_element(w, Sparse(row), 0).loop for row in alg.dual_rows]
    rows = [Sparse({n + j: 1}) for j in range(alg.dim)]
    corrected = []
    for b, (h, pairs) in enumerate(kept):
        loop = Sparse(h.loop)
        for (j, l), val in pairs.items():
            if l:
                for key, c in _shift(tails[j], l - 1).items():
                    loop.iadd(key, -val * c)
            else:
                rows[j][b] = val
        corrected.append((loop, h.fin, h.eps))
    span = RowSpan()
    for row in rows:
        span.add(row)
    if any(piv >= n for piv in span.rows):
        raise NotTransversalError("dual-basis system is inconsistent")
    if span.dim < n:
        raise NotTransversalError("dual-basis system is singular")
    duals = [DoubleElement(Sparse()) for _ in range(alg.dim)]
    for b, parts in enumerate(corrected):
        for c, coeff in span.rows[b].items():
            if c >= n:
                d = duals[c - n]
                for acc, part in zip((d.loop, d.fin, d.eps), parts):
                    for key, v in part.items():
                        acc.iadd(key, coeff * v)
    return [(i, 0, el) for i, el in enumerate(duals)] + [
        (i, k, DoubleElement(_shift(tails[i], k - 1)))
        for k in range(1, truncation + 1) for i in range(alg.dim)
    ]
