"""The cobracket delta(f) = [f(u) (x) 1 + 1 (x) f(v), r(u, v)] and the
Lie-bialgebra axioms checked on truncated generator sets.

Elements of g[u] are Sparse maps (basis index, degree >= 0) -> Fraction.
delta lands in g (x) g [u, v], a flat Sparse keyed (i, j, deg_u, deg_v):
the commutator with the Casimir kernel picks up a factor divisible by
(v - u), and the division is performed exactly (failure raises
NotPolynomialError).  Co-Jacobi is tested in g (x) g (x) g [u, v, w], keyed
(i, j, k, a, b, c); the cyclic rotation moves legs and exponents together.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameterError, NotPolynomialError
from .liealg import LieAlgebraData, bracket_basis, bracket_poly
from .ratfun import mul_vu_pow, poly2_divide_vu
from .rmatrix import SpectralTensor2
from .sparse import Sparse


def g_poly(x: Sparse, degree: int = 0) -> Sparse:
    """x * u^degree as an element of g[u]."""
    return Sparse((((i, degree), c) for i, c in x.items()))


def lift(r: SpectralTensor2):
    """(top, numerators): r put over one (v - u)^top, numerators flat."""
    top = max((val.den_pow for _, val in r.items()), default=0)
    return top, Sparse((key + mono, c) for key, val in r.items()
                       for mono, c in mul_vu_pow(val.num, top - val.den_pow).items())


def delta(alg: LieAlgebraData, r: SpectralTensor2, f: Sparse, lifted=None) -> Sparse:
    """The cobracket value on f, a flat 2-tensor keyed (i, j, deg_u, deg_v).

    r is put over one (v - u)^top (``lifted`` is ``lift(r)``, if given),
    the ad-action of f is applied to the numerators, and the result is
    certified polynomial by exact division by (v - u), top times.
    """
    if any(d < 0 for (_, d) in f):
        raise InvalidParameterError("f must be polynomial in u")
    top, nums = lift(r) if lifted is None else lifted
    out = Sparse()
    _ad_into(alg, out, f, nums, 1)
    for _ in range(top):
        out, rem = poly2_divide_vu(out)
        if rem:
            raise NotPolynomialError(f"entry {min(rem)[:2]} is not divisible by (v - u)")
    return out


class BasisCobrackets:
    """delta for one r (lifted once), computed once per basis monomial x_i u^k.

    ``basis((i, k))`` is delta(alg, r, x_i u^k); calling the instance on
    any f in g[u] gives delta(f) as the sum of c * delta(x_i u^k) over the
    terms of f.  A basis cobracket that is not polynomial is stored as
    None, once, and every delta that needs it is None too.  The returned
    tensors may be the stored ones: callers must not mutate them.
    """

    def __init__(self, alg: LieAlgebraData, r: SpectralTensor2):
        self.alg = alg
        self.r = r
        self._lifted = lift(r)
        self._memo = {}

    def basis(self, key):
        if key not in self._memo:
            try:
                f = Sparse({key: Fraction(1)})
                self._memo[key] = delta(self.alg, self.r, f, lifted=self._lifted)
            except NotPolynomialError:
                self._memo[key] = None
        return self._memo[key]

    def __call__(self, f: Sparse):
        if len(f) == 1:
            (key, c), = f.items()
            if c == 1:
                return self.basis(key)
        out = Sparse()
        for key, c in f.items():
            d = self.basis(key)
            if d is None:
                return None
            for k, cd in d.items():
                out.iadd(k, c * cd)
        return out


def _direct(alg, r):
    """delta(alg, r, .) on whole elements, None where it is not polynomial."""

    def cobracket(f):
        try:
            return delta(alg, r, f)
        except NotPolynomialError:
            return None

    return cobracket


def check_skew(alg, r, f, cobracket=None) -> bool:
    """delta(f)(u, v) + swap-legs(delta(f))(v, u) == 0.

    ``cobracket`` maps an element to its delta, None where it is not
    polynomial (a ``BasisCobrackets`` in a sweep); without it delta is
    computed directly.  A non-polynomial delta(f) fails the check.
    """
    cobracket = _direct(alg, r) if cobracket is None else cobracket
    d = cobracket(f)
    if d is None:
        return False
    total = Sparse(d)
    for (i, j, a, b), c in d.items():
        total.iadd((j, i, b, a), c)
    return total.is_zero()


def _ad_into(alg, out: Sparse, f: Sparse, t: Sparse, sign: int) -> None:
    """Add sign * [f(u) (x) 1 + 1 (x) f(v), t] to out, for polynomial 2-tensors t."""
    if not t:
        return
    for (x, d), cf in f.items():
        cf = sign * cf
        # ad[i]: [x, b_i] scaled by sign * cf, formed once per term of f
        ad = [[(m, cf * cm) for m, cm in bracket_basis(alg, x, i).items()]
              for i in range(alg.dim)]
        for (i, j, a, b), c in t.items():
            for m, s in ad[i]:
                out.iadd((m, j, a + d, b), s * c)
            for m, s in ad[j]:
                out.iadd((i, m, a, b + d), s * c)


def check_cocycle(alg, r, f, g, cobracket=None, both_orders=False):
    """delta([f, g]) == [f.., delta(g)] - [g.., delta(f)].

    ``cobracket`` is as in ``check_skew``; every delta the check needs is
    taken from it, and a non-polynomial one fails the check.  With
    ``both_orders`` the two ad-brackets are built once and the verdicts for
    (f, g) and (g, f) are returned as a pair; each verdict compares its own
    delta([x, y]).
    """
    cobracket = _direct(alg, r) if cobracket is None else cobracket
    df, dg = cobracket(f), cobracket(g)
    if df is None or dg is None:
        return (False, False) if both_orders else False
    rhs = Sparse()
    _ad_into(alg, rhs, f, dg, 1)
    _ad_into(alg, rhs, g, df, -1)
    lhs = cobracket(bracket_poly(alg, f, g))
    ok = lhs is not None and lhs == rhs
    if not both_orders:
        return ok
    lhs = cobracket(bracket_poly(alg, g, f))
    return ok, lhs is not None and lhs == -rhs


def check_cojacobi(alg, r, f, cobracket=None) -> bool:
    """Cyclic sum of (delta (x) id) applied to delta(f) vanishes.

    ``cobracket`` is as in ``check_skew``; it gives delta(f) and the inner
    delta of the unit monomials x_i u^a of the first leg.
    """
    cobracket = _direct(alg, r) if cobracket is None else cobracket
    df = cobracket(f)
    if df is None:
        return False
    # (delta (x) id): expand the first leg monomial-wise and apply delta;
    # inner lives in variables (u, v), the third leg keeps (j, w^b)
    t = Sparse()
    for (i, j, a, b), c in df.items():
        inner = cobracket(Sparse({(i, a): Fraction(1)}))
        if inner is None:
            return False
        for (m, l, a2, b2), cc in inner.items():
            t.iadd((m, l, j, a2, b2, b), c * cc)
    # add the two cyclic rotations a(u) (x) b(v) (x) c(w) -> c(u) (x) a(v) (x) b(w)
    total = Sparse(t)
    for (i, j, k, a, b, c3), c in t.items():
        total.iadd((k, i, j, c3, a, b), c)
        total.iadd((j, k, i, b, c3, a), c)
    return total.is_zero()


def axiom_sweep(alg, spec_text, r, max_degree, cocycle_degree=None):
    """Run all four axiom checks over canonical generators.

    Returns a list of {"family", "element", "check", "pass"} records; the
    cocycle runs over all ordered generator pairs up to ``cocycle_degree``
    (defaults to ``max_degree``).

    delta is linear in f, so one ``BasisCobrackets`` per sweep computes
    delta(x_i u^k) once per basis monomial, and every check takes its
    cobrackets from it: the generators, the inner cobrackets of co-Jacobi
    and delta([f, g]) of the cocycle.  The memo is dropped when the sweep
    returns.  The cocycle runs once per unordered pair, building the two
    ad-brackets once for both ordered records.  A generator whose delta is
    not polynomial fails its "polynomial" record and gets no skew or
    co-Jacobi record; a co-Jacobi or cocycle record that needs a basis
    cobracket which is not polynomial fails.
    """
    if cocycle_degree is None:
        cocycle_degree = max_degree
    cobracket = BasisCobrackets(alg, r)
    records = []
    gens = [
        (f"{alg.basis[i]}*u^{k}", Sparse({(i, k): Fraction(1)}))
        for k in range(max_degree + 1)
        for i in range(alg.dim)
    ]
    for name, f in gens:
        records.append(
            {
                "family": spec_text,
                "element": name,
                "check": "polynomial",
                "pass": cobracket(f) is not None,
            }
        )
    for name, f in gens:
        if cobracket(f) is None:
            continue
        records.append(
            {
                "family": spec_text,
                "element": name,
                "check": "skew",
                "pass": check_skew(alg, r, f, cobracket=cobracket),
            }
        )
        records.append(
            {
                "family": spec_text,
                "element": name,
                "check": "co-jacobi",
                "pass": check_cojacobi(alg, r, f, cobracket=cobracket),
            }
        )
    pair_gens = [
        (name, f)
        for (name, f) in gens
        if max(d for (_, d) in f) <= cocycle_degree
    ]
    verdicts = {}
    for a, (_, f) in enumerate(pair_gens):
        verdicts[a, a] = check_cocycle(alg, r, f, f, cobracket=cobracket)
        for b in range(a + 1, len(pair_gens)):
            g = pair_gens[b][1]
            verdicts[a, b], verdicts[b, a] = check_cocycle(
                alg, r, f, g, cobracket=cobracket, both_orders=True
            )
    for a, (name_f, _) in enumerate(pair_gens):
        for b, (name_g, _) in enumerate(pair_gens):
            records.append(
                {
                    "family": spec_text,
                    "element": f"{name_f},{name_g}",
                    "check": "cocycle",
                    "pass": verdicts[a, b],
                }
            )
    return records
