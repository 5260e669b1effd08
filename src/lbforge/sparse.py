"""Sparse vectors over exact rationals, and lbforge's one exact Gauss-Jordan
elimination.

A ``Sparse`` is a dict from hashable keys to nonzero ``Fraction`` values;
the zero vector is the empty dict.  Keys are basis indices, exponents, or
flat tuples -- the semantics live in the callers.  A polynomial tensor is
one flat ``Sparse`` keyed by its leg indices followed by its exponents,
e.g. (i, j, deg_u, deg_v).

``RowSpan`` keeps a row space in reduced row echelon form; it serves the
membership and rank tests of the Lagrangian checks and the sparse dual-basis
system.  ``gauss_solve`` feeds it the augmented rows of a dense system; no
library code calls it, and the tests use it as their reference dense solver.

``rational`` is the one reader of rational text, shared by the tensor files,
the case text and the command line; ``natural`` is its counterpart for the
non-negative integers of the command line and the environment.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

# decimal-free rational text: no exponent, point, underscore or whitespace
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_NATURAL = re.compile(r"[0-9]+")


def rational(text: str) -> Fraction:
    """The Fraction written [+-]digits[/digits]; ValueError for any other
    text or for more digits than int() converts, ZeroDivisionError for a
    zero denominator."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a decimal-free rational: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def natural(text: str) -> int:
    """The int written in ASCII digits alone; ValueError for any other text
    (a sign, underscore, space or non-ASCII digit)."""
    if not _NATURAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


class Sparse(dict):
    """dict key -> Fraction with zero entries removed automatically."""

    def __init__(self, data=()):
        if isinstance(data, Sparse):
            # already nonzero Fractions: copy without re-checking each value
            super().__init__(data)
            return
        super().__init__()
        if isinstance(data, dict):
            data = data.items()
        for k, v in data:
            self.iadd(k, v)

    def iadd(self, key, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        cur = self.get(key)
        total = value if cur is None else cur + value
        if total:
            self[key] = total
        else:
            self.pop(key, None)
        return self

    def __add__(self, other):
        out = Sparse(self)
        for k, v in other.items():
            out.iadd(k, v)
        return out

    def __sub__(self, other):
        out = Sparse(self)
        for k, v in other.items():
            out.iadd(k, -v)
        return out

    def __neg__(self):
        return Sparse((k, -v) for k, v in self.items())

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return Sparse()
        return Sparse((k, scalar * v) for k, v in self.items())

    __rmul__ = __mul__

    def is_zero(self):
        return not self

    def copy(self):
        return Sparse(self)


def mono_mul(k1, k2):
    """Multiply monomial keys: exponents add componentwise."""
    if isinstance(k1, tuple):
        return tuple(map(add, k1, k2))
    return k1 + k2


def poly_mul(p, q):
    """Product of two sparse polynomials with matching key shapes, of p's
    type: a ``Sparse``, or a dict of ints without zero terms."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = mono_mul(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return type(p)((k, c) for k, c in out.items() if c)


def gauss_solve(rows, rhs):
    """Solve A x = b exactly for every right-hand-side column.

    ``rows`` is an m x n matrix, ``rhs`` an m x t matrix, both lists of lists
    of Fractions.  Returns the n x t solution matrix, ``None`` if the system
    is inconsistent, and raises ``ValueError`` when the solution is not
    unique (rank below the number of unknowns).

    The augmented rows [A | b] go into a ``RowSpan`` whose keys put the
    unknowns 0..n-1 before the right-hand sides n..n+t-1; a pivot among the
    right-hand sides means 0 = b != 0, and otherwise x_c is read off the
    row whose pivot is c.
    """
    n = len(rows[0]) if rows else 0
    t = len(rhs[0]) if rhs and rhs[0] is not None else 0
    span = RowSpan()
    for a, b in zip(rows, rhs):
        span.add(Sparse((k, v) for k, v in enumerate([*a, *b]) if v))
    if any(piv >= n for piv in span.rows):
        return None
    if span.dim < n:
        raise ValueError("underdetermined system")
    return [
        [span.rows[c].get(n + j, Fraction(0)) for j in range(t)]
        for c in range(n)
    ]


class RowSpan:
    """Incremental row space over arbitrary coordinate keys.

    The rows are kept fully reduced (reduced row echelon form): each is 1 at
    its own pivot and 0 at every other row's pivot, so a vector reduces in
    one pass over the pivots it holds.  A new row's pivot is its least key
    in the natural order, so keys must be mutually comparable.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> row; read only outside this class

    def reduce(self, vec: Sparse) -> Sparse:
        """vec minus its combination of stored rows: 0 at every pivot."""
        out = Sparse(vec)
        for piv in [k for k in vec if k in self.rows]:
            # rows vanish at each other's pivots, so out[piv] is still vec[piv]
            _sub_multiple(out, out[piv], self.rows[piv])
        return out

    def add(self, vec: Sparse) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        residual = self.reduce(vec)
        if residual.is_zero():
            return False
        piv = min(residual)
        # residual is reduce's fresh copy, so it is normalised in place
        inv = 1 / residual[piv]
        for k, v in residual.items():
            residual[k] = v * inv
        for row in self.rows.values():
            c = row.get(piv)
            if c:
                _sub_multiple(row, c, residual)
        self.rows[piv] = residual
        return True

    def contains(self, vec: Sparse) -> bool:
        return self.reduce(vec).is_zero()

    @property
    def dim(self) -> int:
        return len(self.rows)


def _sub_multiple(vec: Sparse, c, row: Sparse):
    """vec -= c * row, in place."""
    for k, v in row.items():
        vec.iadd(k, -c * v)
