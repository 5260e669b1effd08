"""Simple Lie algebras of type A in the elementary-matrix realization.

Basis order is E(alpha) for the positive roots, then F(alpha), then the
Cartan elements H(i).  Positive roots of sl_n are the pairs (i, j) with
i < j, ordered lexicographically; E(i,j) is the matrix unit at row i and
column j, F(i,j) its transpose, H(i) = diag unit i minus diag unit i+1.
The invariant form is the trace form, which pairs E(alpha) with F(alpha)
to 1 and makes h_alpha = [e_alpha, f_alpha] satisfy [h_alpha, e_alpha] =
2 e_alpha.

Elements of g are ``Sparse`` maps basis index -> Fraction; tensors in
g (x) g and g (x) g (x) g carry index pairs / triples as keys.

``build_sl`` is memoised per n, so every caller in a process shares one
``LieAlgebraData``: it is frozen, its sequences are tuples, and no code
writes to the ``Sparse`` values of its ``struct``.  Beside ``struct`` it
carries the integer ad table ``ad``, which ``bracket3`` and the cobracket
read, and beside the dense ``gram`` its sparse integer rows ``gram_rows``,
which the pairing reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import InvalidParameterError, InvalidRankError
from .sparse import Sparse


@dataclass(frozen=True)
class LieAlgebraData:
    n: int
    rank: int
    positive_roots: tuple
    basis: tuple
    struct: dict  # (i, j) -> Sparse over basis indices, i != j
    gram: tuple  # dense symmetric matrix of the trace form, rows as tuples
    gram_inv: tuple = field(repr=False)
    # ad[x][y]: [b_x, b_y] as a tuple of (m, int c), struct's order; () when zero
    ad: tuple = field(repr=False)
    # gram_rows[x]: the nonzero entries of gram[x] as a tuple of (m, int g), in index order
    gram_rows: tuple = field(repr=False)

    @property
    def dim(self):
        return len(self.basis)

    def e_index(self, root):
        return self.positive_roots.index(tuple(root))

    def f_index(self, root):
        return len(self.positive_roots) + self.positive_roots.index(tuple(root))

    def h_index(self, i):
        if not 1 <= i <= self.rank:
            raise InvalidParameterError(f"no Cartan element H({i})")
        return 2 * len(self.positive_roots) + (i - 1)


def sl_labels(n: int):
    """The basis labels of sl_n in basis order, one at a time."""
    for name in "EF":
        yield from (f"{name}({i},{j})" for i in range(1, n) for j in range(i + 1, n + 1))
    yield from (f"H({i})" for i in range(1, n))


@functools.cache
def build_sl(n: int) -> LieAlgebraData:
    """sl_n with the trace form, one value per n in a process; raises on n < 2.

    Each basis element is at most two matrix units, so its brackets follow
    from [e_ij, e_kl] = d_jk e_il - d_li e_kj.  The Gram matrix pairs E(alpha)
    with F(alpha) to 1 and is the Cartan matrix (2 on the diagonal, -1 next
    to it) on the H block; its inverse also pairs E(alpha) with F(alpha) to 1
    and is min(k, l) (n - max(k, l)) / n on the H block.  The ad table holds
    one int row per nonzero bracket (sl_n's structure constants are integers),
    and ``gram_rows`` the nonzero entries of each Gram row as (index, int)
    pairs (the trace form is integral on this basis): one for an E or F
    row, at most three for an H row.
    """
    if n < 2:
        raise InvalidRankError(f"sl_n needs n >= 2, got {n}")
    roots = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    npos = len(roots)
    units = (
        [((i, j, 1),) for (i, j) in roots]
        + [((j, i, 1),) for (i, j) in roots]
        + [((k, k, 1), (k + 1, k + 1, -1)) for k in range(1, n)]
    )
    offdiag = {u[0][:2]: a for a, u in enumerate(units[:2 * npos])}  # E/F index
    struct = {}
    for a, x in enumerate(units):
        for b, y in enumerate(units):
            if a == b:
                continue
            comm = {}
            for p, q, s in ((x, y, 1), (y, x, -1)):
                for i, j, c in p:
                    for k, l, d in q:
                        if j == k:
                            comm[i, l] = comm.get((i, l), 0) + s * c * d
            coords = [(offdiag[key], c) for key, c in comm.items() if key in offdiag]
            if any(i == j for i, j in comm):
                # diagonal part: partial sums give the H coordinates
                acc = 0
                for k in range(1, n):
                    acc += comm.get((k, k), 0)
                    coords.append((2 * npos + k - 1, acc))
            coords = Sparse(coords)
            if coords:
                struct[(a, b)] = coords
    dim = len(units)
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    gram_inv = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(npos):
        for m in (gram, gram_inv):
            m[a][npos + a] = m[npos + a][a] = Fraction(1)
    for k in range(1, n):
        for l in range(1, n):
            a, b = 2 * npos + k - 1, 2 * npos + l - 1
            gram[a][b] = Fraction({0: 2, 1: -1}.get(abs(k - l), 0))
            gram_inv[a][b] = Fraction(min(k, l) * (n - max(k, l)), n)
    ad = tuple(
        tuple(tuple((m, c.numerator) for m, c in struct[a, b].items()) if (a, b) in struct else ()
              for b in range(dim))
        for a in range(dim)
    )
    gram_rows = tuple(tuple((b, g.numerator) for b, g in enumerate(row) if g) for row in gram)
    return LieAlgebraData(
        n=n,
        rank=n - 1,
        positive_roots=tuple(roots),
        basis=tuple(sl_labels(n)),
        struct=struct,
        gram=tuple(map(tuple, gram)),
        gram_inv=tuple(map(tuple, gram_inv)),
        ad=ad,
        gram_rows=gram_rows,
    )


# -- operations on elements and tensors --------------------------------------

def basis_element(idx) -> Sparse:
    return Sparse({idx: Fraction(1)})


def bracket(alg: LieAlgebraData, x: Sparse, y: Sparse, out: Sparse = None) -> Sparse:
    """[x, y], added into ``out`` when given."""
    out = Sparse() if out is None else out
    for i, ci in x.items():
        for j, cj in y.items():
            sc = alg.struct.get((i, j))
            if sc:
                for k, ck in sc.items():
                    out.iadd(k, ci * cj * ck)
    return out


def bracket_poly(alg: LieAlgebraData, f: Sparse, g: Sparse) -> Sparse:
    """Bracket of two loop elements, keyed (basis index, degree in u).

    Degrees may be negative, so this serves g[u] and g[u, u^{-1}] alike.
    """
    out = Sparse()
    for (i, a), ci in f.items():
        for (j, b), cj in g.items():
            sc = alg.struct.get((i, j))
            if sc:
                for k, ck in sc.items():
                    out.iadd((k, a + b), ci * cj * ck)
    return out


_ZERO = Sparse()


def bracket_basis(alg: LieAlgebraData, i: int, j: int) -> Sparse:
    """[b_i, b_j], shared with ``alg.struct`` (one shared empty ``Sparse``
    when it is zero): callers must not mutate the result."""
    return alg.struct.get((i, j), _ZERO)


def casimir(alg: LieAlgebraData) -> Sparse:
    """Omega = sum_i b_i (x) b^i over the form-dual basis."""
    out = Sparse()
    for i in range(alg.dim):
        for j in range(alg.dim):
            c = alg.gram_inv[j][i]
            if c:
                out.iadd((i, j), c)
    return out


def swap2(t: Sparse) -> Sparse:
    return Sparse((((j, i), c) for (i, j), c in t.items()))


def wedge_sum(alg: LieAlgebraData) -> Sparse:
    """sum over positive roots of e_alpha ^ f_alpha."""
    out = Sparse()
    npos = len(alg.positive_roots)
    for a in range(npos):
        out.iadd((a, npos + a), Fraction(1))
        out.iadd((npos + a, a), Fraction(-1))
    return out


def r_dj(alg: LieAlgebraData) -> Sparse:
    """Drinfeld-Jimbo solution (1/2)(sum e_alpha ^ f_alpha + Omega)."""
    return Fraction(1, 2) * (wedge_sum(alg) + casimir(alg))


def r_c1c2(alg: LieAlgebraData, c1, c2) -> Sparse:
    """Two-point constant solution c1*Omega - (c1 - c2)*r_DJ.

    On sl_2 this is literally c1 f(x)e + c2 e(x)f + (c1+c2)/4 h(x)h; the
    Casimir-based form is the rank-stable version of the same tensor and
    satisfies r + swap(r) = (c1 + c2) * Omega.
    """
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    if c1 == c2 or c1 == 0 or c2 == 0:
        raise InvalidParameterError("two-point constants must be nonzero and distinct")
    return c1 * casimir(alg) - (c1 - c2) * r_dj(alg)


def jordanian(alg: LieAlgebraData, root=None) -> Sparse:
    """h_alpha ^ e_alpha for a positive root (default: the highest root)."""
    root = tuple(root) if root is not None else (1, alg.n)
    if root not in alg.positive_roots:
        raise InvalidParameterError(f"not a positive root: {root}")
    e_idx = alg.e_index(root)
    f_idx = alg.f_index(root)
    h = bracket_basis(alg, e_idx, f_idx)  # coroot h_alpha
    out = Sparse()
    for i, c in h.items():
        out.iadd((i, e_idx), c)
        out.iadd((e_idx, i), -c)
    return out


# legs (= variables) of r12, r13, r23, owning (v-u), (w-u), (w-v); the same
# index pairs are the CYBE terms [r12, r13], [r12, r23], [r13, r23]
LEGS = ((0, 1), (0, 2), (1, 2))


def bracket3(alg, ta: dict, tb: dict, legs_a, legs_b):
    """[ta on legs_a, tb on legs_b] in g (x) g (x) g, from the rows of
    ``alg.ad``; met: a structure constant was nonzero."""
    c = (set(legs_a) & set(legs_b)).pop()
    ia, ib = legs_a.index(c), legs_b.index(c)
    oa, ob = legs_a[1 - ia], legs_b[1 - ib]
    by_a, by_b = {}, {}
    for t, i, by in ((ta, ia, by_a), (tb, ib, by_b)):
        for key, coeff in t.items():
            by.setdefault(key[i], []).append((key[1 - i], coeff))
    out, met, key = {}, False, [0, 0, 0]
    for x, rows_a in by_a.items():
        ad_x = alg.ad[x]
        for y, rows_b in by_b.items():
            row = ad_x[y]
            if not row:
                continue
            met = True
            for key[c], s in row:  # fills key[c], then key[oa], then key[ob], in place
                for key[oa], ca in rows_a:
                    sa = s * ca
                    for key[ob], cb in rows_b:
                        k = tuple(key)
                        out[k] = out.get(k, 0) + sa * cb
    return {k: v for k, v in out.items() if v}, met


def cyb(alg: LieAlgebraData, r: Sparse) -> Sparse:
    """CYB(r) = [r12, r13] + [r12, r23] + [r13, r23] in g (x) g (x) g.

    CYB is quadratic in r, so it is summed in ints for L * r, L the lcm of
    r's denominators, and divided by L^2 once per surviving entry."""
    den = lcm(*(c.denominator for c in r.values()))
    t = {k: (c * den).numerator for k, c in r.items()}
    acc = {}
    for a, b in LEGS:
        for key, c in bracket3(alg, t, t, LEGS[a], LEGS[b])[0].items():
            acc[key] = acc.get(key, 0) + c
    return Sparse((k, Fraction(c, den * den)) for k, c in acc.items() if c)
