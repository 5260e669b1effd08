"""Classification data, the admissible-degree table, and the residue
pairings of the three double types.

A ``CaseSpec`` is a double type (I, II, III) plus one of four canonical
shapes for the series weight a(u):

    two-points   a(u) = 1/((1 - c1 u)(1 - c2 u)),  c1 != c2 nonzero
    double-pole  a(u) = 1/(1 - u)^2
    simple-pole  a(u) = 1/(1 - u)
    constant     a(u) = 1

Elements of the double carry a Laurent-loop part and, depending on the
type, a finite summand and a dual-number summand:

    type I    g((u))
    type II   g((u)) + g
    type III  g((u)) + (g + eps*g),  eps^2 = 0

The pairings are

    I    Q(x, y) = Res_{u=0} K(f1, f2) a(u)
    II   Q(x, y) = Res_{u=0} u^{-1} a(u) K(f1, f2) - K(x1, y1)
    III  Q(x, y) = Res_{u=0} u^{-2} a(u) K(f1, f2) - K(x3, y2) - K(x2, y3)

with K the trace form extended coefficientwise.  With s = 0, 1, 2 for
types I, II, III and t_m the Taylor coefficients of a(u), cached on the
``CaseSpec``, the residue is the direct sum of c1 c2 K(x_i, x_j) t_{s-1-k-l}
over the loop terms c1 x_i u^k of f1 and c2 x_j u^l of f2 with k + l < s.
The canonical copy of g[u] sits inside the double with finite components
read off from the value and first derivative at u = 0 (types II and III);
this is the unique embedding that makes g[u] isotropic.

``pairing_map`` reads the pairing as a sparse linear map: Q(e, y) of one y
with every coordinate e of the double (``DoubleElement.coords``), from y's
loop terms and the nonzero trace-form entries of their rows, so that
Q(x, y) is the dot product of coords(x) with the map of y.  It is the one
pairing loop: ``q_form`` and the isotropy check dot coordinates with it,
and ``canonical_pairings`` folds it onto the canonical basis for the
dual-basis system and the duality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParameterError, ShapeMismatchError
from .liealg import LieAlgebraData
from .ratfun import RatFun1, expand_at_zero, poly1
from .sparse import Sparse

DOUBLE_TYPES = ("I", "II", "III")
A_FORMS = ("two-points", "double-pole", "simple-pole", "constant")

# degree of 1/a(u) for each canonical shape
A_FORM_DEGREE = {
    "two-points": 2,
    "double-pole": 2,
    "simple-pole": 1,
    "constant": 0,
}

# largest admissible degree of 1/a(u) per double type
MAX_DEGREE = {"I": 2, "II": 1, "III": 0}


@dataclass(frozen=True)
class CaseSpec:
    double_type: str
    a_form: str
    c1: Fraction = None
    c2: Fraction = None
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
                c1, c2 = (Fraction(p) for p in parts[2].split(","))
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidParameterError(f"bad constants in {text!r}") from exc
            return cls(parts[0], parts[1], c1, c2)
        raise InvalidParameterError(f"bad case text {text!r}")

    @property
    def text(self) -> str:
        if self.a_form == "two-points":
            return f"{self.double_type}:two-points:{self.c1},{self.c2}"
        return f"{self.double_type}:{self.a_form}"

    def a(self) -> RatFun1:
        """The weight a(u) as an exact rational function, a(0) = 1."""
        if self.a_form == "two-points":
            den = poly1([1, -(self.c1 + self.c2), self.c1 * self.c2])
        elif self.a_form == "double-pole":
            den = poly1([1, -2, 1])
        elif self.a_form == "simple-pole":
            den = poly1([1, -1])
        else:
            den = poly1([1])
        return RatFun1(poly1([1]), den)

    def taylor(self, order: int) -> list:
        """Taylor coefficients t_0..t_order (at least) of a(u), kept on the
        instance and grown geometrically, so a(u) is expanded a few times."""
        if len(self._taylor) <= order:
            self._taylor[:] = expand_at_zero(self.a(), max(order, 2 * len(self._taylor)))
        return self._taylor


def validate_case(spec: CaseSpec):
    """None when the combination is legal, else a rejection string.

    The rejection quotes the degree bound that rules the combination out:
    deg 1/a(u) is at most 2 for type I, at most 1 for type II, and 0 for
    type III.
    """
    deg = A_FORM_DEGREE[spec.a_form]
    bound = MAX_DEGREE[spec.double_type]
    if deg > bound:
        return (
            f"double type {spec.double_type} admits 1/a(u) of degree at most "
            f"{bound}; {spec.a_form} has degree {deg}"
        )
    return None


def admissible_degree(double_type: str, simple_k=None):
    """Largest admissible degree of 1/a(u), or None when impossible.

    ``simple_k`` is None for the lowest-weight vertex of the extended
    Dynkin diagram, otherwise the coefficient k_i of the chosen simple
    root in the highest root.
    """
    if double_type not in DOUBLE_TYPES:
        raise InvalidParameterError(f"unknown double type {double_type!r}")
    if simple_k is not None and simple_k < 1:
        raise InvalidParameterError("simple-root coefficient must be >= 1")
    if double_type == "I":
        return 2 if simple_k is None or simple_k == 1 else 1
    if double_type == "II":
        return 1 if simple_k is None or simple_k == 1 else 0
    if simple_k is None or simple_k == 1:
        return 0
    return None  # impossible


# -- elements of the double ---------------------------------------------------

@dataclass
class DoubleElement:
    """loop: (basis index, degree) -> coeff; fin, eps: basis index -> coeff."""

    loop: Sparse
    fin: Sparse = None
    eps: Sparse = None

    def __post_init__(self):
        if self.fin is None:
            object.__setattr__(self, "fin", Sparse())
        if self.eps is None:
            object.__setattr__(self, "eps", Sparse())

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

    def is_zero(self):
        return self.loop.is_zero() and self.fin.is_zero() and self.eps.is_zero()

    def coords(self) -> Sparse:
        """Keys (0, i, t-degree), (1, i), (2, i) for the loop, finite and
        dual-number parts: the natural key order puts the loop first."""
        out = Sparse()
        out.update(((0, i, -d), c) for (i, d), c in self.loop.items())
        out.update(((1, i), c) for i, c in self.fin.items())
        out.update(((2, i), c) for i, c in self.eps.items())
        return out


def loop_element(x: Sparse, degree: int = 0) -> DoubleElement:
    """x * u^degree as a pure loop element."""
    return DoubleElement(Sparse((((i, degree), c) for i, c in x.items())))


def check_shape(spec: CaseSpec, x: DoubleElement):
    if spec.double_type == "I" and (x.fin or x.eps):
        raise ShapeMismatchError("type I elements carry no finite summand")
    if spec.double_type == "II" and x.eps:
        raise ShapeMismatchError("type II elements carry no dual-number summand")


def embed_canonical(spec: CaseSpec, x: Sparse, k: int) -> DoubleElement:
    """The canonical basis vector x*u^k of g[u] inside the double."""
    if k < 0:
        raise InvalidParameterError("canonical degree must be >= 0")
    el = loop_element(x, k)
    if spec.double_type == "II":
        el.fin = x.copy() if k == 0 else Sparse()
    elif spec.double_type == "III":
        el.fin = x.copy() if k == 0 else Sparse()
        el.eps = x.copy() if k == 1 else Sparse()
    return el


def q_form(alg: LieAlgebraData, spec: CaseSpec, x: DoubleElement, y: DoubleElement):
    """The invariant pairing of the double on two elements: x's coordinates
    dotted with the pairing map of y over x's loop degrees."""
    check_shape(spec, x)
    degrees = [k for _, k in x.loop] or [0]
    pmap = pairing_map(alg, spec, y, min(degrees), max(degrees))
    return sum((c * pmap[e] for e, c in x.coords().items() if e in pmap), Fraction(0))


def pairing_map(alg: LieAlgebraData, spec: CaseSpec, y: DoubleElement, kmin: int, kmax: int) -> Sparse:
    """Q(e, y) for every coordinate e of the double, keyed as in
    ``DoubleElement.coords``: (0, i, -k) for x_i u^k with kmin <= k <= kmax,
    (1, i) for the finite and (2, i) for the dual-number summand.  For any
    x with loop degrees in that range, q_form(alg, spec, x, y) is the sum
    of coords(x)[e] * map[e]."""
    check_shape(spec, y)
    s = DOUBLE_TYPES.index(spec.double_type)
    gram = alg.gram
    if y.loop:
        top = s - 1 - kmin - min(l for _, l in y.loop)
        taylor = spec.taylor(top) if top >= 0 else ()
    out = Sparse()
    for (j, l), c in y.loop.items():
        ks = range(kmin, min(kmax, s - 1 - l) + 1)
        for i, g in enumerate(gram[j]):
            if g:
                cg = c * g
                for k in ks:
                    out.iadd((0, i, -k), cg * taylor[s - 1 - k - l])
    # the finite summand pairs with eps in type III, with fin in type II
    finite = ((1, y.eps), (2, y.fin)) if spec.double_type == "III" else ((1, y.fin),)
    for tag, part in finite:
        for j, c in part.items():
            for i, g in enumerate(gram[j]):
                if g:
                    out.iadd((tag, i), -c * g)
    return out


def canonical_pairings(alg: LieAlgebraData, spec: CaseSpec, y: DoubleElement, kmax: int) -> Sparse:
    """(i, k) -> Q(x_i u^k, y) over the canonical basis with k <= kmax;
    equals q_form(alg, spec, embed_canonical(spec, x_i, k), y).  The
    canonical x_i u^k is the loop coordinate plus fin = x_i at k = 0 and
    eps = x_i at k = 1 (types II, III), so the pairing map folds onto it."""
    out = Sparse()
    for key, val in pairing_map(alg, spec, y, 0, kmax).items():
        k = -key[2] if key[0] == 0 else key[0] - 1
        if k <= kmax:
            out.iadd((key[1], k), val)
    return out
