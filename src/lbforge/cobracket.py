"""The cobracket delta(f) = [f(u) (x) 1 + 1 (x) f(v), r(u, v)] and the
Lie-bialgebra axioms checked on truncated generator sets.

Elements of g[u] are Sparse maps (basis index, degree >= 0) -> Fraction.
delta lands in g (x) g with bivariate polynomial entries: the commutator
with the Casimir kernel picks up a factor divisible by (v - u), and the
division is performed exactly (failure raises NotPolynomialError).

Co-Jacobi is tested in g (x) g (x) g with trivariate polynomial entries;
the cyclic rotation moves tensor legs while each slot keeps its own
variable.
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


def delta(alg: LieAlgebraData, r: SpectralTensor2, f: Sparse):
    """The cobracket value on f, as {(i, j): bivariate polynomial}.

    The first tensor leg acts through f(u), the second through f(v); the
    result is certified polynomial by exact division by (v - u)^k.
    """
    if any(d < 0 for (_, d) in f):
        raise InvalidParameterError("f must be polynomial in u")
    acc = {}  # (i, j) -> {den_pow: numerator}
    for (i, j), val in r.items():
        for (x, d), cf in f.items():
            # [f(u) (x) 1, .]: first leg bracket, numerator gains u^d
            for m, cm in bracket_basis(alg, x, i).items():
                num = Sparse(
                    (((a + d, b), c * cf * cm) for (a, b), c in val.num.items())
                )
                _acc_add(acc, (m, j), val.den_pow, num)
            # [1 (x) f(v), .]: second leg bracket, numerator gains v^d
            for m, cm in bracket_basis(alg, x, j).items():
                num = Sparse(
                    (((a, b + d), c * cf * cm) for (a, b), c in val.num.items())
                )
                _acc_add(acc, (i, m), val.den_pow, num)
    out = {}
    for key, by_pow in acc.items():
        total = Sparse()
        top = max(by_pow)
        for pow_, num in by_pow.items():
            total = total + mul_vu_pow(num, top - pow_)
        for _ in range(top):
            quot, rem = poly2_divide_vu(total)
            if not rem.is_zero():
                raise NotPolynomialError(
                    f"entry {key} is not divisible by (v - u)"
                )
            total = quot
        if total:
            out[key] = total
    return out


def _acc_add(acc, key, den_pow, num):
    if num.is_zero():
        return
    by_pow = acc.setdefault(key, {})
    by_pow[den_pow] = by_pow.get(den_pow, Sparse()) + num


def poly_tensor_eq(a, b) -> bool:
    keys = set(a) | set(b)
    return all(a.get(k, Sparse()) == b.get(k, Sparse()) for k in keys)


def check_skew(alg, r, f) -> bool:
    """delta(f)(u, v) + swap-legs(delta(f))(v, u) == 0."""
    d = delta(alg, r, f)
    total = {}
    for (i, j), p in d.items():
        total[(i, j)] = total.get((i, j), Sparse()) + p
        swapped = Sparse((((b, a), c) for (a, b), c in p.items()))
        total[(j, i)] = total.get((j, i), Sparse()) + swapped
    return all(p.is_zero() for p in total.values())


def _ad_poly_tensor2(alg, f: Sparse, t: dict) -> dict:
    """[f(u) (x) 1 + 1 (x) f(v), t] for polynomial 2-tensors t."""
    out = {}
    for (i, j), p in t.items():
        for (x, d), cf in f.items():
            for m, cm in bracket_basis(alg, x, i).items():
                shifted = Sparse((((a + d, b), c * cf * cm) for (a, b), c in p.items()))
                out[(m, j)] = out.get((m, j), Sparse()) + shifted
            for m, cm in bracket_basis(alg, x, j).items():
                shifted = Sparse((((a, b + d), c * cf * cm) for (a, b), c in p.items()))
                out[(i, m)] = out.get((i, m), Sparse()) + shifted
    return {k: v for k, v in out.items() if v}


def check_cocycle(alg, r, f, g, df=None, dg=None) -> bool:
    """delta([f, g]) == [f.., delta(g)] - [g.., delta(f)].

    Precomputed cobrackets may be passed to amortize sweeps.
    """
    lhs = delta(alg, r, bracket_poly(alg, f, g))
    df = delta(alg, r, f) if df is None else df
    dg = delta(alg, r, g) if dg is None else dg
    rhs = _ad_poly_tensor2(alg, f, dg)
    for key, p in _ad_poly_tensor2(alg, g, df).items():
        rhs[key] = rhs.get(key, Sparse()) - p
    return poly_tensor_eq(lhs, rhs)


def _cyclic3(t: dict) -> dict:
    """Rotate tensor legs: a(u) (x) b(v) (x) c(w) -> c(u) (x) a(v) (x) b(w)."""
    out = {}
    for (i, j, k), p in t.items():
        rotated = Sparse((((c3, a3, b3), c) for (a3, b3, c3), c in p.items()))
        key = (k, i, j)
        out[key] = out.get(key, Sparse()) + rotated
    return {k: v for k, v in out.items() if v}


def check_cojacobi(alg, r, f, df=None) -> bool:
    """Cyclic sum of (delta (x) id) applied to delta(f) vanishes."""
    df = delta(alg, r, f) if df is None else df
    # (delta (x) id): expand the first leg monomial-wise and apply delta
    t = {}
    for (i, j), p in df.items():
        for (a, b), c in p.items():
            inner = delta(alg, r, Sparse({(i, a): c}))
            for (m, l), q in inner.items():
                # inner lives in variables (u, v); third leg keeps (j, w^b)
                lifted = Sparse(
                    (((a2, b2, b), cc) for (a2, b2), cc in q.items())
                )
                key = (m, l, j)
                t[key] = t.get(key, Sparse()) + lifted
    t = {k: v for k, v in t.items() if v}
    rot1 = _cyclic3(t)
    rot2 = _cyclic3(rot1)
    total = {}
    for part in (t, rot1, rot2):
        for key, p in part.items():
            total[key] = total.get(key, Sparse()) + p
    return all(p.is_zero() for p in total.values())


def axiom_sweep(alg, spec_text, r, max_degree, cocycle_degree=None):
    """Run all four axiom checks over canonical generators.

    Returns a list of {"family", "element", "check", "pass"} records; the
    cocycle runs over all ordered generator pairs up to ``cocycle_degree``
    (defaults to ``max_degree``).
    """
    if cocycle_degree is None:
        cocycle_degree = max_degree
    records = []
    gens = [
        (f"{alg.basis[i]}*u^{k}", Sparse({(i, k): Fraction(1)}))
        for k in range(max_degree + 1)
        for i in range(alg.dim)
    ]
    deltas = {}
    for name, f in gens:
        try:
            deltas[name] = delta(alg, r, f)
            ok = True
        except NotPolynomialError:
            ok = False
        records.append(
            {"family": spec_text, "element": name, "check": "polynomial", "pass": ok}
        )
    for name, f in gens:
        if name not in deltas:
            continue
        records.append(
            {
                "family": spec_text,
                "element": name,
                "check": "skew",
                "pass": check_skew(alg, r, f),
            }
        )
        records.append(
            {
                "family": spec_text,
                "element": name,
                "check": "co-jacobi",
                "pass": check_cojacobi(alg, r, f, df=deltas[name]),
            }
        )
    pair_gens = [
        (name, f)
        for (name, f) in gens
        if max(d for (_, d) in f) <= cocycle_degree
    ]
    for name_f, f in pair_gens:
        for name_g, g in pair_gens:
            records.append(
                {
                    "family": spec_text,
                    "element": f"{name_f},{name_g}",
                    "check": "cocycle",
                    "pass": check_cocycle(
                        alg, r, f, g, df=deltas.get(name_f), dg=deltas.get(name_g)
                    ),
                }
            )
    return records
