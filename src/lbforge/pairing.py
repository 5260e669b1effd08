"""Classification data, the admissible-degree table, and the residue
pairings of the three double types.

A ``CaseSpec`` is a double type (I, II, III) plus one of four canonical
shapes for the series weight a(u): two-points, double-pole, simple-pole
and constant.  Each of the seven legal families is a pair of points
(c1, c2) on the projective line, ``CaseSpec.points``.  The double type is
the number s = 0, 1, 2 of those points at infinity (I, II, III,
``CaseSpec.at_infinity``), and every per-type rule is read off s: deg
1/a(u) is at most 2 - s, and an element carries a Laurent-loop part plus
s jets at infinity, fin (jet 0) and eps (jet 1):

    type I    g((u))
    type II   g((u)) + g
    type III  g((u)) + (g + eps*g),  eps^2 = 0

Every per-family formula is read off the two points: a(u) = 1/prod (1 - c
u) over the type I points of the shape, deg 1/a(u) is the number of those
that are nonzero, and the tail ideal, quotient, lift, kernel and constant
part of r follow in ``lagrangian`` and ``rmatrix``.

The pairings are

    I    Q(x, y) = Res_{u=0} K(f1, f2) a(u)
    II   Q(x, y) = Res_{u=0} u^{-1} a(u) K(f1, f2) - K(x1, y1)
    III  Q(x, y) = Res_{u=0} u^{-2} a(u) K(f1, f2) - K(x3, y2) - K(x2, y3)

with K the trace form extended coefficientwise: jet m pairs with jet
s - 1 - m.  With t_m the Taylor coefficients of a(u), cached on the
``CaseSpec``, the residue is the direct sum of b1 b2 K(x_i, x_j) t_{s-1-k-l}
over the loop terms b1 x_i u^k of f1 and b2 x_j u^l of f2 with k + l < s.
The canonical copy of g[u] sits inside the double with jet k of x u^k equal
to x for k < s (the value and first derivative at u = 0); this is the
unique embedding that makes g[u] isotropic.

One private loop, ``_pairing_sums``, pairs one y with every x_i u^k over a
degree range: it runs over y's loop terms and the nonzero entries of their
trace-form rows (``LieAlgebraData.gram_rows``), keys its sums by (i, k),
and pairs y's jets with the jet coordinates (i, m) beside them.  The loop
part is summed over integers, exactly: y's loop terms are brought to one
denominator D_y, the Taylor coefficients of a(u) are integer numerators
over one D_t (also cached on the ``CaseSpec``), and each nonzero sum becomes
one ``Fraction`` over D_y * D_t at the end.  Two readers share it.
``pairing_map`` keys the result by the double's coordinates
(``DoubleElement.coords``), so that Q(x, y) is the dot product of coords(x)
with the map of y; ``q_form`` and the isotropy check read it.
``canonical_pairings`` adds the jet pairing (i, k) to the loop sum of the
same key, since the canonical x_i u^k carries jet k = x_i, and gives
Q(x_i u^k, y) directly for the dual-basis system and the duality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

from .errors import InvalidParameterError, ShapeMismatchError
from .liealg import LieAlgebraData
from .ratfun import RatFun1, expand_at_zero, poly1
from .sparse import Sparse, rational

DOUBLE_TYPES = ("I", "II", "III")
A_FORMS = ("two-points", "double-pole", "simple-pole", "constant")

# the points (c1, c2) of each family but I:two-points, which carries its
# own; None is infinity
FAMILY_POINTS = {
    ("I", "double-pole"): (1, 1),
    ("I", "simple-pole"): (0, 1),
    ("I", "constant"): (0, 0),
    ("II", "simple-pole"): (1, None),
    ("II", "constant"): (0, None),
    ("III", "constant"): (None, None),
}
# the seven families, I:two-points at the points (1, 2) of its catalog file
FAMILIES = ("I:two-points:1,2", *(f"{dt}:{form}" for dt, form in FAMILY_POINTS))


@dataclass(frozen=True)
class CaseSpec:
    double_type: str
    a_form: str
    c1: Fraction = None
    c2: Fraction = None
    # [(D_t, [t_m * D_t])] for the Taylor coefficients t_m of a(u) cached so
    # far, D_t their least common denominator; grown geometrically
    _taylor: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.double_type not in DOUBLE_TYPES:
            raise InvalidParameterError(f"unknown double type {self.double_type!r}")
        if self.a_form not in A_FORMS:
            raise InvalidParameterError(f"unknown a(u) shape {self.a_form!r}")
        if self.a_form == "two-points":
            if self.c1 is None or self.c2 is None:
                raise InvalidParameterError("two-points needs both constants")
            if self.c1 == self.c2 or self.c1 == 0 or self.c2 == 0:
                raise InvalidParameterError(
                    "two-points constants must be nonzero and distinct"
                )
        elif self.c1 is not None or self.c2 is not None:
            raise InvalidParameterError(f"{self.a_form} takes no constants")

    @classmethod
    def parse(cls, text: str) -> "CaseSpec":
        """Parse the canonical text form, e.g. "I:two-points:1,2"."""
        parts = text.strip().split(":")
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        if len(parts) == 3:
            try:
                c1, c2 = (rational(p) for p in parts[2].split(","))
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidParameterError(f"bad constants in {text!r}") from exc
            return cls(parts[0], parts[1], c1, c2)
        raise InvalidParameterError(f"bad case text {text!r}")

    @property
    def text(self) -> str:
        if self.a_form == "two-points":
            return f"{self.double_type}:two-points:{self.c1},{self.c2}"
        return f"{self.double_type}:{self.a_form}"

    @property
    def at_infinity(self) -> int:
        """s = 0, 1, 2 for types I, II, III: how many of the family's two
        points are at infinity, and how many jets its elements carry."""
        return DOUBLE_TYPES.index(self.double_type)

    def _points(self, double_type: str) -> tuple:
        if self.a_form == "two-points":
            return (self.c1, self.c2)
        return FAMILY_POINTS[(double_type, self.a_form)]

    @cached_property
    def points(self) -> tuple:
        """The family's two points (c1, c2) on the projective line, None for
        infinity; defined for the combinations ``validate_case`` accepts,
        ``InvalidParameterError`` with its rejection for the others.  Kept
        in the frozen instance's ``__dict__`` once read."""
        reason = validate_case(self)
        if reason is not None:
            raise InvalidParameterError(reason)
        return self._points(self.double_type)

    def a(self) -> RatFun1:
        """The weight a(u) = 1/prod (1 - c u) over the type I points of the
        shape, as an exact rational function, a(0) = 1."""
        c1, c2 = self._points("I")
        return RatFun1(poly1([1]), poly1([1, -(c1 + c2), c1 * c2]))

    def taylor_numerators(self, order: int) -> tuple:
        """(D_t, nums) with nums[m] / D_t = t_m, the Taylor coefficients of
        a(u), for m up to order (at least).  Kept on the instance and grown
        geometrically, so a(u) is expanded a few times."""
        cached = len(self._taylor[0][1]) if self._taylor else 0
        if cached <= order:
            taylor = expand_at_zero(self.a(), max(order, 2 * cached))
            den = 1
            for t in taylor:
                den = lcm(den, t.denominator)
            self._taylor[:] = [(den, [t.numerator * (den // t.denominator) for t in taylor])]
        return self._taylor[0]


def validate_case(spec: CaseSpec):
    """None when the combination is legal, else a rejection string.

    The rejection quotes the degree bound that rules the combination out:
    deg 1/a(u), the number of nonzero type I points of the shape, is at
    most 2 - s, s the number of points at infinity.
    """
    deg = sum(1 for c in spec._points("I") if c)
    bound = 2 - spec.at_infinity
    if deg > bound:
        return (
            f"double type {spec.double_type} admits 1/a(u) of degree at most "
            f"{bound}; {spec.a_form} has degree {deg}"
        )
    return None


def admissible_degree(double_type: str, simple_k=None):
    """Largest admissible degree of 1/a(u), or None when impossible: 2 - s,
    s the number of points at infinity, and one less at a simple vertex
    with k > 1.

    ``simple_k`` is None for the lowest-weight vertex of the extended
    Dynkin diagram, otherwise the coefficient k_i of the chosen simple
    root in the highest root.
    """
    s = CaseSpec(double_type, "constant").at_infinity  # checks double_type
    if simple_k is not None and simple_k < 1:
        raise InvalidParameterError("simple-root coefficient must be >= 1")
    deg = 2 - s - (simple_k is not None and simple_k > 1)
    return deg if deg >= 0 else None


# -- elements of the double ---------------------------------------------------

@dataclass
class DoubleElement:
    """loop: (basis index, degree) -> coeff; fin, eps: basis index -> coeff,
    the jets 0 and 1 at the points at infinity."""

    loop: Sparse
    fin: Sparse = field(default_factory=Sparse)
    eps: Sparse = field(default_factory=Sparse)

    def __add__(self, other):
        return DoubleElement(
            self.loop + other.loop, self.fin + other.fin, self.eps + other.eps
        )

    def __sub__(self, other):
        return DoubleElement(
            self.loop - other.loop, self.fin - other.fin, self.eps - other.eps
        )

    def __mul__(self, scalar):
        return DoubleElement(scalar * self.loop, scalar * self.fin, scalar * self.eps)

    __rmul__ = __mul__

    @property
    def jets(self) -> tuple:
        """(fin, eps), the jets 0 and 1."""
        return self.fin, self.eps

    def coords(self) -> Sparse:
        """Keys (0, i, t-degree) for the loop and (1 + m, i) for jet m: the
        natural key order puts the loop first."""
        out = Sparse()
        out.update(((0, i, -d), c) for (i, d), c in self.loop.items())
        for m, jet in enumerate(self.jets):
            out.update(((1 + m, i), c) for i, c in jet.items())
        return out


def loop_element(x: Sparse, degree: int = 0) -> DoubleElement:
    """x * u^degree as a pure loop element."""
    return DoubleElement(Sparse((((i, degree), c) for i, c in x.items())))


def check_shape(spec: CaseSpec, x: DoubleElement):
    """An element of a double with s points at infinity carries jets m < s."""
    for m, jet in enumerate(x.jets):
        if jet and m >= spec.at_infinity:
            name = ("finite", "dual-number")[m]
            raise ShapeMismatchError(f"type {spec.double_type} elements carry no {name} summand")


def embed_canonical(spec: CaseSpec, x: Sparse, k: int) -> DoubleElement:
    """The canonical basis vector x*u^k of g[u] inside the double: the loop
    term plus jet k = x when k < s."""
    if k < 0:
        raise InvalidParameterError("canonical degree must be >= 0")
    el = loop_element(x, k)
    if k < spec.at_infinity:
        el.jets[k].update(x)
    return el


def q_form(alg: LieAlgebraData, spec: CaseSpec, x: DoubleElement, y: DoubleElement):
    """The invariant pairing of the double on two elements: x's coordinates
    dotted with the pairing map of y over x's loop degrees."""
    check_shape(spec, x)
    degrees = [k for _, k in x.loop] or [0]
    pmap = pairing_map(alg, spec, y, min(degrees), max(degrees))
    return sum((c * pmap[e] for e, c in x.coords().items() if e in pmap), Fraction(0))


def _pairing_sums(alg: LieAlgebraData, spec: CaseSpec, y: DoubleElement, kmin: int, kmax: int):
    """(acc, scale, jets), the pairing loop: acc[(i, k)] / scale is the loop
    part of Q(x_i u^k, y) for kmin <= k <= kmax, summed in ints over y's loop
    terms and the sparse integer Gram rows (a key may hold 0), and jets[(i,
    m)] is Q of the coordinate x_i of jet m with y, from y's jet s - 1 - m."""
    check_shape(spec, y)
    s = spec.at_infinity
    rows = alg.gram_rows
    # y's loop coefficients are cn / D_y with D_y the lcm of their
    # denominators, each t_m is tnum[m] / D_t, and acc holds every value
    # times scale = D_y * D_t
    acc, scale = {}, 1
    if y.loop:
        top = s - 1 - kmin - min(l for _, l in y.loop)
        dt, tnum = spec.taylor_numerators(top) if top >= 0 else (1, ())
        # pairwise: lcm(*generator) builds its argument tuple outside the
        # tuple free lists and then frees it into them, filling them
        dy = 1
        for c in y.loop.values():
            dy = lcm(dy, c.denominator)
        for (j, l), c in y.loop.items():
            kts = [(k, t) for k in range(kmin, min(kmax, s - 1 - l) + 1)
                   if (t := tnum[s - 1 - k - l])]
            if not kts:
                continue
            cn = c.numerator * (dy // c.denominator)
            for i, g in rows[j]:
                cg = cn * g
                for k, t in kts:
                    key = (i, k)
                    acc[key] = acc.get(key, 0) + cg * t
        scale = dy * dt
    jets = Sparse()
    for m in range(s):
        for j, c in y.jets[s - 1 - m].items():
            for i, g in rows[j]:
                jets.iadd((i, m), -c * g)
    return acc, scale, jets


def pairing_map(alg: LieAlgebraData, spec: CaseSpec, y: DoubleElement, kmin: int, kmax: int) -> Sparse:
    """Q(e, y) for every coordinate e of the double, keyed as in
    ``DoubleElement.coords``: (0, i, -k) for x_i u^k with kmin <= k <= kmax,
    (1, i) for the finite and (2, i) for the dual-number summand.  For any
    x with loop degrees in that range, q_form(alg, spec, x, y) is the sum
    of coords(x)[e] * map[e]."""
    acc, scale, jets = _pairing_sums(alg, spec, y, kmin, kmax)
    out = Sparse()
    for (i, k), v in acc.items():
        if v:
            out[0, i, -k] = Fraction(v, scale)
    for (i, m), v in jets.items():
        out[1 + m, i] = v
    return out


def canonical_pairings(alg: LieAlgebraData, spec: CaseSpec, y: DoubleElement, kmax: int) -> Sparse:
    """(i, k) -> Q(x_i u^k, y) over the canonical basis with k <= kmax;
    equals q_form(alg, spec, embed_canonical(spec, x_i, k), y).  The
    canonical x_i u^k is the loop coordinate plus jet k = x_i when k < s,
    so the jet pairing (i, k) folds onto the loop sum of the same key."""
    acc, scale, jets = _pairing_sums(alg, spec, y, 0, kmax)
    out = Sparse()
    for key, v in acc.items():
        if v:
            out[key] = Fraction(v, scale)
    # the jets are summed apart and added last, so a partial jet sum that
    # passes through 0 moves no loop key in out's order
    for (i, m), v in jets.items():
        if m <= kmax:
            out.iadd((i, m), v)
    return out
