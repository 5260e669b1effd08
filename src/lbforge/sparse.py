"""Sparse vectors over exact rationals, plus exact Gaussian elimination.

A ``Sparse`` is a dict from arbitrary hashable keys to nonzero ``Fraction``
values; the zero vector is the empty dict.  Keys are basis indices, exponents,
exponent tuples, or coordinate tags -- the semantics live in the callers.
"""

from __future__ import annotations

from fractions import Fraction


class Sparse(dict):
    """dict key -> Fraction with zero entries removed automatically."""

    def __init__(self, data=()):
        super().__init__()
        if isinstance(data, dict):
            data = data.items()
        for k, v in data:
            self.iadd(k, v)

    def iadd(self, key, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        total = self.get(key, 0) + value
        if total == 0:
            self.pop(key, None)
        else:
            self[key] = total
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
        return tuple(a + b for a, b in zip(k1, k2))
    return k1 + k2


def poly_mul(p: Sparse, q: Sparse) -> Sparse:
    """Product of two sparse polynomials with matching key shapes."""
    out = Sparse()
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out.iadd(mono_mul(k1, k2), c1 * c2)
    return out


def gauss_solve(rows, rhs):
    """Solve A x = b exactly for every right-hand-side column.

    ``rows`` is an m x n matrix, ``rhs`` an m x t matrix, both lists of lists
    of Fractions.  Returns the n x t solution matrix, ``None`` if the system
    is inconsistent, and raises ``ValueError`` when the solution is not
    unique (rank below the number of unknowns).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    t = len(rhs[0]) if rhs and rhs[0] is not None else 0
    a = [[Fraction(x) for x in row] for row in rows]
    b = [[Fraction(x) for x in row] for row in rhs]

    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        b[r] = [x * inv for x in b[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] = [x - f * y for x, y in zip(b[i], b[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(x != 0 for x in b[i]):
            return None
    if len(pivot_cols) < n:
        raise ValueError("underdetermined system")
    x = [[Fraction(0)] * t for _ in range(n)]
    for i, col in enumerate(pivot_cols):
        x[col] = b[i]
    return x


def matrix_rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


class RowSpan:
    """Incremental row space over arbitrary coordinate keys.

    Maintains reduced rows keyed by pivot, so membership of further vectors
    can be tested by exact reduction.
    """

    def __init__(self, key_order=None):
        self._rows = {}
        self._key_order = key_order or (lambda k: repr(k))

    def _pick_pivot(self, vec: Sparse):
        return min(vec, key=self._key_order)

    def reduce(self, vec: Sparse) -> Sparse:
        vec = Sparse(vec)
        while vec:
            piv = self._pick_pivot(vec)
            row = self._rows.get(piv)
            if row is None:
                return vec
            vec = vec - vec[piv] * row
        return vec

    def add(self, vec: Sparse) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        residual = self.reduce(vec)
        if residual.is_zero():
            return False
        piv = self._pick_pivot(residual)
        residual = (1 / residual[piv]) * residual
        for other_piv, row in self._rows.items():
            if piv in row:
                self._rows[other_piv] = row - row[piv] * residual
        self._rows[piv] = residual
        return True

    def contains(self, vec: Sparse) -> bool:
        return self.reduce(vec).is_zero()

    @property
    def dim(self) -> int:
        return len(self._rows)
