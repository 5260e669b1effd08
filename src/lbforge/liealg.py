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
``LieAlgebraData``: it is frozen and built from tuples all the way down.
It holds each invariant of g once: the bracket as the integer ad table
``ad``, the trace form as its sparse integer rows ``gram_rows``, and the
form-dual basis as the sparse rows ``dual_rows``.
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
    # ad[x][y]: [b_x, b_y] as a tuple of (m, int c); () when zero
    ad: tuple = field(repr=False)
    # gram_rows[x]: the nonzero trace forms K(b_x, b_m) as a tuple of (m, int g), in index order
    gram_rows: tuple = field(repr=False)
    # dual_rows[x]: the form-dual b^x = sum c b_m as a tuple of (m, Fraction c), in index order
    dual_rows: tuple = field(repr=False)

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
    from [e_ij, e_kl] = d_jk e_il - d_li e_kj; the ad table holds them as one
    int row per basis pair (sl_n's structure constants are integers).  The
    trace form pairs E(alpha) with F(alpha) to 1 and is the Cartan matrix (2
    on the diagonal, -1 next to it) on the H block, so ``gram_rows`` has one
    entry in an E or F row and at most three in an H row.  The dual basis
    also pairs E(alpha) with F(alpha) to 1 and is min(k, l) (n - max(k, l)) / n
    on the H block, so a ``dual_rows`` H row is the whole H block.
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
    partner = [(a + npos) % (2 * npos) for a in range(2 * npos)]  # E(alpha) <-> F(alpha)
    h = 2 * npos - 1  # H(k) is basis index h + k

    def ad_row(x, y):
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
                coords.append((h + k, acc))
        return tuple((m, c) for m, c in coords if c)

    return LieAlgebraData(
        n=n,
        rank=n - 1,
        positive_roots=tuple(roots),
        basis=tuple(sl_labels(n)),
        ad=tuple(tuple(ad_row(x, y) for y in units) for x in units),
        gram_rows=tuple(((b, 1),) for b in partner)
        + tuple(tuple((h + l, 2 if k == l else -1) for l in range(1, n) if abs(k - l) <= 1)
                for k in range(1, n)),
        dual_rows=tuple(((b, Fraction(1)),) for b in partner)
        + tuple(tuple((h + l, Fraction(min(k, l) * (n - max(k, l)), n)) for l in range(1, n))
                for k in range(1, n)),
    )


# -- operations on elements and tensors --------------------------------------

def basis_element(idx) -> Sparse:
    return Sparse({idx: Fraction(1)})


def bracket(alg: LieAlgebraData, x: Sparse, y: Sparse, out: Sparse = None) -> Sparse:
    """[x, y], added into ``out`` when given."""
    out = Sparse() if out is None else out
    for i, ci in x.items():
        ad_i = alg.ad[i]
        for j, cj in y.items():
            for k, ck in ad_i[j]:
                out.iadd(k, ci * cj * ck)
    return out


def bracket_poly(alg: LieAlgebraData, f: Sparse, g: Sparse) -> Sparse:
    """Bracket of two loop elements, keyed (basis index, degree in u).

    Degrees may be negative, so this serves g[u] and g[u, u^{-1}] alike.
    """
    out = Sparse()
    for (i, a), ci in f.items():
        ad_i = alg.ad[i]
        for (j, b), cj in g.items():
            for k, ck in ad_i[j]:
                out.iadd((k, a + b), ci * cj * ck)
    return out


def bracket_basis(alg: LieAlgebraData, i: int, j: int) -> Sparse:
    """[b_i, b_j] as a fresh ``Sparse``."""
    return Sparse(alg.ad[i][j])


def casimir(alg: LieAlgebraData) -> Sparse:
    """Omega = sum_i b_i (x) b^i over the form-dual basis."""
    return Sparse(((i, m), c) for i, row in enumerate(alg.dual_rows) for m, c in row)


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
