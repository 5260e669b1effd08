"""Lagrangian complements W of g[u] in the double: quotient epimorphisms,
lifts, the shipped catalog, windowed Lagrangian checks, and dual bases.

Every W handled here contains a polynomial-ideal tail m(t) g[t] with
t = u^{-1}, plus finitely many head generators.  The quotient of the
relevant half of the double by the tail is a finite-dimensional Lie
algebra, either g + g or the dual-number extension g + eps*g; Lagrangian
subalgebras there lift to Lagrangian complements of g[u].

Quotient images are stored as pairs (x1, x2) of g-elements: (left, right)
components for the g + g ambient, (value, eps-part) for g + eps*g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconclusiveWindowError,
    InvalidParameterError,
    NotTransversalError,
    ShapeMismatchError,
)
from .liealg import LieAlgebraData, basis_element, bracket, bracket_poly, form
from .pairing import CaseSpec, DoubleElement, canonical_pairings, embed_canonical, pairing_map
from .ratfun import poly1
from .sparse import RowSpan, Sparse


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


@dataclass
class FiniteLagrangian:
    """Subalgebra of g+g ("gxg") or g+eps*g ("geps") given by generators."""

    ambient: str
    gens: list  # list of (Sparse, Sparse) pairs

    def __post_init__(self):
        if self.ambient not in ("gxg", "geps"):
            raise InvalidParameterError(f"unknown ambient {self.ambient!r}")


def quotient_ambient(spec: CaseSpec) -> str:
    """Which finite quotient a case uses."""
    if spec.double_type == "II":
        return "gxg"
    if spec.double_type == "III":
        return "geps"
    return "gxg" if spec.a_form in ("two-points", "simple-pole") else "geps"


def quot_bracket(alg, ambient, a, b):
    x1, x2 = a
    y1, y2 = b
    if ambient == "gxg":
        return (bracket(alg, x1, y1), bracket(alg, x2, y2))
    return (
        bracket(alg, x1, y1),
        bracket(alg, x1, y2) + bracket(alg, x2, y1),
    )


def quot_form(alg, ambient, a, b) -> Fraction:
    x1, x2 = a
    y1, y2 = b
    if ambient == "gxg":
        return form(alg, x1, y1) - form(alg, x2, y2)
    return form(alg, x1, y2) + form(alg, x2, y1)


def tail_poly(spec: CaseSpec) -> Sparse:
    """Generator m(t) of the tail ideal, t = u^{-1}."""
    form_, dt = spec.a_form, spec.double_type
    if dt == "I":
        if form_ == "two-points":
            return poly1([spec.c1 * spec.c2, -(spec.c1 + spec.c2), 1])
        if form_ == "double-pole":
            return poly1([1, -2, 1])
        if form_ == "simple-pole":
            return poly1({1: -1, 2: 1})
        return poly1({2: 1})
    if dt == "II":
        return poly1([-1, 1]) if form_ == "simple-pole" else poly1({1: 1})
    return poly1([1])


def _loop_from_tpoly(x: Sparse, p: Sparse) -> Sparse:
    """x * p(u^{-1}) as a loop component."""
    out = Sparse()
    for d, c in p.items():
        for i, ci in x.items():
            out.iadd((i, -d), c * ci)
    return out


def psi(alg: LieAlgebraData, spec: CaseSpec, x: DoubleElement):
    """Quotient image of an element of g[u^{-1}] (plus finite summands).

    Returns a pair of g-elements in the case's quotient ambient.  The
    kernel is exactly the tail ideal.
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


def psi_inverse_lift(alg: LieAlgebraData, spec: CaseSpec, target) -> DoubleElement:
    """Distinguished coset representative of minimal degree in u^{-1}."""
    x1, x2 = target
    dt, form_ = spec.double_type, spec.a_form
    if dt == "I":
        if form_ == "two-points":
            c1, c2 = spec.c1, spec.c2
            b = (1 / (c1 - c2)) * (x1 - x2)
            a = (1 / (c1 - c2)) * (c1 * x2 - c2 * x1)
        elif form_ == "simple-pole":
            a, b = x1, x2 - x1
        elif form_ == "double-pole":
            a, b = x1 - x2, x2
        else:
            a, b = x1, x2
        return DoubleElement(
            _loop_from_tpoly(a, poly1([1])) + _loop_from_tpoly(b, poly1({1: 1}))
        )
    if dt == "II":
        return DoubleElement(_loop_from_tpoly(x1, poly1([1])), fin=x2.copy())
    return DoubleElement(Sparse(), fin=x1.copy(), eps=x2.copy())


def lift_lagrangian(alg: LieAlgebraData, spec: CaseSpec, wbar: FiniteLagrangian) -> WPresentation:
    """Lift a finite Lagrangian complement to a presentation of W."""
    if wbar.ambient != quotient_ambient(spec):
        raise InvalidParameterError(
            f"case {spec.text} uses the {quotient_ambient(spec)} quotient"
        )
    if len(wbar.gens) != alg.dim:
        raise InvalidParameterError(
            f"a Lagrangian complement has dimension {alg.dim}, got {len(wbar.gens)}"
        )
    for a in wbar.gens:
        for b in wbar.gens:
            if quot_form(alg, wbar.ambient, a, b) != 0:
                raise InvalidParameterError("generators are not isotropic")
    head = [psi_inverse_lift(alg, spec, g) for g in wbar.gens]
    return WPresentation(spec=spec, head=head, tail=tail_poly(spec))


def triangular_complement(alg: LieAlgebraData) -> FiniteLagrangian:
    """span of (f_alpha, 0), (0, e_alpha), (H_i, -H_i) in g + g."""
    gens = []
    npos = len(alg.positive_roots)
    for a in range(npos):
        gens.append((basis_element(npos + a), Sparse()))
    for a in range(npos):
        gens.append((Sparse(), basis_element(a)))
    for i in range(1, alg.rank + 1):
        h = basis_element(alg.h_index(i))
        gens.append((h, -h))
    return FiniteLagrangian("gxg", gens)


def eps_complement(alg: LieAlgebraData) -> FiniteLagrangian:
    """eps * g inside g + eps*g."""
    return FiniteLagrangian(
        "geps", [(Sparse(), basis_element(i)) for i in range(alg.dim)]
    )


def catalog_w0(alg: LieAlgebraData, spec: CaseSpec) -> WPresentation:
    """The shipped complement for a case: triangular for g+g quotients,
    eps*g for dual-number quotients."""
    if quotient_ambient(spec) == "gxg":
        wbar = triangular_complement(alg)
    else:
        wbar = eps_complement(alg)
    return lift_lagrangian(alg, spec, wbar)


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
    """Bracket of the double: componentwise loop bracket plus the finite
    (or dual-number) bracket."""
    loop = bracket_poly(alg, x.loop, y.loop)
    if spec.double_type == "I":
        return DoubleElement(loop)
    if spec.double_type == "II":
        return DoubleElement(loop, fin=bracket(alg, x.fin, y.fin))
    fin = bracket(alg, x.fin, y.fin)
    eps = bracket(alg, x.fin, y.eps) + bracket(alg, x.eps, y.fin)
    return DoubleElement(loop, fin=fin, eps=eps)


@dataclass
class LagrangianReport:
    isotropic: bool
    closed: bool
    transversal: bool
    witness: tuple = None  # (index pair, value) for an isotropy failure

    @property
    def ok(self):
        return self.isotropic and self.closed and self.transversal


def is_lagrangian(alg, w: WPresentation, window: int) -> LagrangianReport:
    """Isotropy, bracket closure, and transversality on a degree window.

    The window must cover the head generators and one tail step, else the
    test is inconclusive.  Each window element's coordinates are formed
    once.  Isotropy dots coords(basis[a]) with the pairing map of basis[b]
    over the window's loop degrees, for a, then b >= a; the witness is the
    first nonzero pair and its value.  Closure brackets only the pairs that
    contain a head generator: two tail monomials m(t) t^a x and m(t) t^b y with
    deg m + a, deg m + b <= window bracket to m(t) (m(t) t^{a+b}) [x, y],
    a combination of tail monomials m(t) t^j z with deg m + j <= 2 window,
    so it lies in the wide window's span for any m and any head.  A head
    times a tail monomial is bracketed, since a head read from a file may
    carry positive powers of u.
    """
    head_deg = max(
        (max((-d for (_, d) in g.loop), default=0) for g in w.head), default=0
    )
    if window < head_deg + w.tail_degree() + 1:
        raise InconclusiveWindowError(
            f"window {window} too small for generators of degree {head_deg} "
            f"and tail of degree {w.tail_degree()}"
        )
    # the window basis is the head plus the wide window's first tail steps
    wide = window_basis(alg, w, 2 * window)
    basis = wide[: len(w.head) + alg.dim * (window - w.tail_degree() + 1)]
    coords = [el.coords() for el in wide]
    degrees = [d for el in basis for (_, d) in el.loop] or [0]
    maps = [pairing_map(alg, w.spec, el, min(degrees), max(degrees)) for el in basis]
    witness = None
    for a, ca in enumerate(coords[: len(basis)]):
        for b in range(a, len(basis)):
            mb = maps[b]
            val = sum(c * mb[e] for e, c in ca.items() if e in mb)
            if val != 0:
                witness = ((a, b), val)
                break
        if witness:
            break

    # closure: brackets with a head generator stay in the wider window's span
    span = RowSpan()
    for row in coords:
        span.add(row)
    closed = all(
        span.contains(de_bracket(alg, w.spec, basis[a], basis[b]).coords())
        for a in range(len(w.head))
        for b in range(a + 1, len(basis))
    )

    # transversality: W-window plus canonical window spans the slice
    slice_span = RowSpan()
    count = 0
    for row in coords[: len(basis)]:
        if slice_span.add(row):
            count += 1
    for k in range(window + 1):
        for i in range(alg.dim):
            el = embed_canonical(w.spec, basis_element(i), k)
            if slice_span.add(el.coords()):
                count += 1
    slice_dim = alg.dim * (2 * window + 1)
    if w.spec.double_type == "II":
        slice_dim += alg.dim
    elif w.spec.double_type == "III":
        slice_dim += 2 * alg.dim
    transversal = slice_span.dim == slice_dim and count == slice_dim
    return LagrangianReport(witness is None, closed, transversal, witness)


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
