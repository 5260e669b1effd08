"""The cobracket delta(f) = [f(u) (x) 1 + 1 (x) f(v), r(u, v)] and the
Lie-bialgebra axioms checked on truncated generator sets.

Elements of g[u] are dicts (basis index, degree >= 0) -> coefficient.
delta lands in g (x) g [u, v], a flat tensor keyed (i, j, deg_u, deg_v):
the commutator with the Casimir kernel picks up a factor divisible by
(v - u), and the division is performed exactly (failure raises
NotPolynomialError).  Co-Jacobi is tested in g (x) g (x) g [u, v, w], keyed
(i, j, k, a, b, c), by orbit sums of the cyclic rotation, which moves legs
and exponents together.

The ad-action, the division and the checks accumulate in plain dicts, so one
code path serves the direct ``delta`` on ``lift(r)`` (Fractions) and a sweep,
whose ``BasisCobrackets`` scales the lift by the lcm L of its denominators:
sl_n structure constants are integers and (v - u) is monic, so every sweep
value is an int.  delta is linear in r and the checks are homogeneous in it
(degree 1: polynomiality, skew, cocycle; degree 2: co-Jacobi), so L changes
no verdict.  The ad-action reads the algebra's integer ad table
(``alg.ad``, formed once per n by ``build_sl``), and a sweep checks the
cocycle once per unordered pair of generators: [g, f] = -[f, g] and delta is
linear, so the (g, f) identity is the (f, g) one negated.

What a cocycle record certifies: delta = [. , r] is a coboundary, and the
action of g[u] on g (x) g (u, v) is a Lie action that commutes with
multiplication by (v - u), so delta([f, g]) = f.delta(g) - g.delta(f) holds
for every r whose delta is polynomial on f, g and [f, g].  A passing cocycle
record therefore certifies the ad-action (``_ad_into``), the Jacobi identity
of ``alg.ad`` and polynomiality, not r: a constant part that solves nothing
passes every cocycle record and fails skew or co-Jacobi.  The identity is
still computed for every pair, never assumed.

In a sweep the cocycle of two unit monomials is computed on packed basis
cobrackets (``BasisCobrackets.pack``): each leg pair's polynomial is one
integer, its value at v = 2^w, u = 2^(w B) (Kronecker substitution), with
the slot count B above every v-exponent and the digit width w above every
coefficient of the identity, so the packed sum vanishes exactly when the
polynomial identity does (see ``check_cocycle``).  The dict comparison stays
for every other call and is the packed check's oracle.
"""

from __future__ import annotations

from math import lcm

from .errors import InvalidParameterError, NotPolynomialError
from .liealg import LieAlgebraData, bracket_poly
from .ratfun import mul_vu_pow, poly2_divide_vu
from .rmatrix import SpectralTensor2
from .sparse import Sparse


def _exact(c):
    """c as an int when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _unit_key(f):
    """(i, k) when f is the monomial x_i u^k with coefficient 1, else None."""
    if len(f) == 1:
        (key, c), = f.items()
        if c == 1:
            return key
    return None


def _pack(t, shift_u, shift_v):
    """The flat 2-tensor t as (i, j) -> its polynomial at u = 2^shift_u,
    v = 2^shift_v; t's coefficients are ints."""
    out = {}
    for (i, j, a, b), c in t.items():
        out[i, j] = out.get((i, j), 0) + (c << (shift_u * a + shift_v * b))
    return out


def lift(r: SpectralTensor2):
    """(top, numerators): r put over one (v - u)^top, numerators flat."""
    top = max((val.den_pow for _, val in r.items()), default=0)
    return top, Sparse((key + mono, c) for key, val in r.items()
                       for mono, c in mul_vu_pow(val.num, top - val.den_pow).items())


def delta(alg: LieAlgebraData, r: SpectralTensor2, f, lifted=None):
    """The cobracket value on f, a flat 2-tensor keyed (i, j, deg_u, deg_v).

    r is put over one (v - u)^top (``lifted`` is ``lift(r)``, or a multiple
    of it, if given), the ad-action of f is applied to the numerators, and
    the result, of the numerators' type, is certified polynomial by exact
    division by (v - u), top times.
    """
    if any(d < 0 for (_, d) in f):
        raise InvalidParameterError("f must be polynomial in u")
    top, nums = lift(r) if lifted is None else lifted
    out = {}
    _ad_into(alg, out, f, nums, 1)
    out = type(nums)((k, c) for k, c in out.items() if c)
    for _ in range(top):
        out, rem = poly2_divide_vu(out)
        if rem:
            raise NotPolynomialError(f"entry {min(rem)[:2]} is not divisible by (v - u)")
    return out


class BasisCobrackets:
    """L * delta for one r (lifted once), once per basis monomial x_i u^k.

    ``scale`` is L, the lcm of the denominators of r's lifted numerators, so
    ``basis((i, k))``, L * delta(alg, r, x_i u^k), is a dict of ints; the
    instance maps f in g[u] to L * delta(f) = sum of c * basis(key) over f.
    This is the cobracket of L * r, and the axioms are homogeneous in r
    (degree 1: polynomiality, skew, cocycle; degree 2: co-Jacobi), so every
    check that takes its cobrackets from here gives r's verdict.  A basis
    cobracket that is not polynomial is stored as None, once, and every
    delta that needs it is None too.  The returned tensors may be the
    stored ones: callers must not mutate them.

    ``pack(K)`` adds a second memo for the cocycle pairs of degree <= K:
    ``packed``, the basis cobrackets of degree <= 2K keyed like ``basis``,
    each leg pair's polynomial as one int.  Until then ``packed_degree`` is
    -1 and nothing is packed.
    """

    def __init__(self, alg: LieAlgebraData, r: SpectralTensor2):
        self.alg = alg
        self.r = r
        top, nums = lift(r)
        self.scale = lcm(*(c.denominator for c in nums.values()))
        self._lifted = top, {k: (c * self.scale).numerator for k, c in nums.items()}
        self._memo = {}
        self.packed = {}
        self.packed_degree = -1
        self.shifts = (0, 0)

    def basis(self, key):
        if key not in self._memo:
            try:
                self._memo[key] = delta(self.alg, self.r, {key: 1}, lifted=self._lifted)
            except NotPolynomialError:
                self._memo[key] = None
        return self._memo[key]

    def pack(self, degree):
        """Pack the basis cobrackets of degree <= 2 * ``degree``.

        Each is stored as (i, j) -> int, its (i, j) polynomial at v = 2^w,
        u = 2^(w B) (None where the cobracket is not polynomial), and
        ``shifts`` becomes (w B, w), with
          B = 1 + degree + the largest deg_v of those cobrackets,
          w = bit_length(5 R G) + 2, G the largest sum of |c| over one of
              them and R the largest sum of |s| over one row of ``alg.ad``.
        ``check_cocycle`` shows why these bounds make its packed sum exact.
        """
        keys = [(i, d) for d in range(2 * degree + 1) for i in range(self.alg.dim)]
        found = {key: self.basis(key) for key in keys}
        polys = [t for t in found.values() if t is not None]
        top_v = max((b for t in polys for (_, _, _, b) in t), default=0)
        weight = max((sum(map(abs, t.values())) for t in polys), default=0)
        rows = max(sum(abs(s) for _, s in row) for ad_x in self.alg.ad for row in ad_x)
        w = (5 * rows * weight).bit_length() + 2
        self.shifts = w * (1 + degree + top_v), w
        self.packed = {key: None if t is None else _pack(t, *self.shifts)
                       for key, t in found.items()}
        self.packed_degree = degree

    def packed_key(self, f):
        """(i, k) when f is x_i u^k with coefficient 1 and k <= packed_degree,
        else None."""
        key = _unit_key(f)
        return key if key in self.packed and key[1] <= self.packed_degree else None

    def __call__(self, f):
        key = _unit_key(f)
        if key is not None:
            return self.basis(key)
        out = {}
        for key, c in f.items():
            d = self.basis(key)
            if d is None:
                return None
            c = _exact(c)
            for k, cd in d.items():
                out[k] = out.get(k, 0) + c * cd
        return {k: c for k, c in out.items() if c}


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
    total = dict(d)
    for (i, j, a, b), c in d.items():
        k = (j, i, b, a)
        total[k] = total.get(k, 0) + c
    return not any(total.values())


def _ad_into(alg, out: dict, f, t, sign: int) -> None:
    """Add sign * [f(u) (x) 1 + 1 (x) f(v), t] to the dict out (zeros stay),
    with the integer rows ``alg.ad[x]`` of [x, b_i]."""
    if not t:
        return
    for (x, d), cf in f.items():
        cf = sign * cf
        rows = alg.ad[x]
        for (i, j, a, b), c in t.items():
            c = cf * c
            for m, s in rows[i]:
                k = (m, j, a + d, b)
                out[k] = out.get(k, 0) + s * c
            for m, s in rows[j]:
                k = (i, m, a, b + d)
                out[k] = out.get(k, 0) + s * c


def check_cocycle(alg, r, f, g, cobracket=None) -> bool:
    """delta([f, g]) == [f.., delta(g)] - [g.., delta(f)].

    ``cobracket`` is as in ``check_skew``; every delta the check needs is
    taken from it, and a non-polynomial one fails the check.  The verdict is
    also that of (g, f): sl_n's structure constants are antisymmetric, so
    [g, f] = -[f, g], and a cobracket linear in its argument turns the (g, f)
    identity into the (f, g) one negated term by term, with a basis cobracket
    that is not polynomial failing both orders alike.

    When ``cobracket`` is a ``BasisCobrackets`` packed to degree K and f, g
    are x_i u^k, x_j u^l with coefficient 1 and k, l <= K, the identity is
    computed on packed integers: per leg pair, the value of
    D = delta([f, g]) - f.delta(g) + g.delta(f) at v = X = 2^w, u = X^B,
    where f acts by rows of ``alg.ad[i]`` and shifts by X^(B k) on the first
    leg and X^k on the second.  The verdict is that of the dict comparison:
    - each term of D comes from a basis cobracket of degree <= 2K, with its
      v-exponents raised by at most K, so every v-exponent of D is below B,
      and u^a v^b -> X^(a B + b) sends D's monomials to distinct powers of X;
    - delta([f, g]) sums basis cobrackets with coefficients of total weight
      at most R, and each ad-action sends each term of a cobracket to both
      legs through rows of weight at most R, so every coefficient of D is
      at most R G + 2 R G + 2 R G = 5 R G < 2^(w - 1) in absolute value;
    - a nonzero polynomial in X whose coefficients are below X / 2 in
      absolute value does not vanish at X: its top term outweighs the sum
      of all the others (balanced base-X digits are unique).
    So D(X^B, X) = 0 exactly when D = 0.  Every other call (no
    ``cobracket``, a general element, a degree above K) compares dicts.
    """
    cobracket = _direct(alg, r) if cobracket is None else cobracket
    if isinstance(cobracket, BasisCobrackets):
        kf, kg = cobracket.packed_key(f), cobracket.packed_key(g)
        if kf is not None and kg is not None:
            return _packed_cocycle(alg, cobracket, f, g, kf, kg)
    df, dg = cobracket(f), cobracket(g)
    if df is None or dg is None:
        return False
    rhs = {}
    _ad_into(alg, rhs, f, dg, 1)
    _ad_into(alg, rhs, g, df, -1)
    lhs = cobracket(bracket_poly(alg, f, g))
    return lhs is not None and lhs == {k: c for k, c in rhs.items() if c}


def _packed_ad_into(rows, out: dict, t: dict, sign: int, shift_u: int, shift_v: int) -> None:
    """Add sign * [x u^k (x) 1 + 1 (x) x v^k, t] to out, t and out packed
    (see ``BasisCobrackets.pack``), ``rows`` = ``alg.ad[x]`` and u^k, v^k
    the shifts by ``shift_u``, ``shift_v`` bits."""
    for (i, j), p in t.items():
        p = sign * p
        if rows[i]:
            pu = p << shift_u
            for m, s in rows[i]:
                out[m, j] = out.get((m, j), 0) + s * pu
        if rows[j]:
            pv = p << shift_v
            for m, s in rows[j]:
                out[i, m] = out.get((i, m), 0) + s * pv


def _packed_cocycle(alg, cobracket, f, g, kf, kg) -> bool:
    """``check_cocycle`` of f = x_i u^k, g = x_j u^l ((i, k) = kf,
    (j, l) = kg) on the packed basis cobrackets of ``cobracket``."""
    pf, pg = cobracket.packed[kf], cobracket.packed[kg]
    if pf is None or pg is None:
        return False
    total = {}
    for key, c in bracket_poly(alg, f, g).items():
        p = cobracket.packed[key]
        if p is None:
            return False
        c = _exact(c)
        for legs, x in p.items():
            total[legs] = total.get(legs, 0) + c * x
    shift_u, shift_v = cobracket.shifts
    (i, k), (j, l) = kf, kg
    _packed_ad_into(alg.ad[i], total, pg, -1, shift_u * k, shift_v * k)
    _packed_ad_into(alg.ad[j], total, pf, 1, shift_u * l, shift_v * l)
    return not any(total.values())


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
    t = {}
    for (i, j, a, b), c in df.items():
        inner = cobracket({(i, a): 1})
        if inner is None:
            return False
        for (m, l, a2, b2), cc in inner.items():
            key = (m, l, j, a2, b2, b)
            t[key] = t.get(key, 0) + c * cc
    # the cyclic sum is t[K] + t[R K] + t[R^2 K] at K, R: a(u) (x) b(v) (x) c(w)
    # -> c(u) (x) a(v) (x) b(w); it is 0 on an orbit of R holding no key of t
    return not any(c + t.get((k, i, j, c3, a, b), 0) + t.get((j, k, i, b, c3, a), 0)
                   for (i, j, k, a, b, c3), c in t.items())


def sweep_degrees(max_degree, cocycle_degree=None):
    """(max_degree, cocycle_degree) of a sweep, the latter defaulting to the
    former and clamped to it: the cocycle pairs the sweep's generators, whose
    degrees stop at max_degree, so a larger cocycle_degree checks the same
    pairs.  A negative degree raises InvalidParameterError."""
    if cocycle_degree is None:
        cocycle_degree = max_degree
    if max_degree < 0 or cocycle_degree < 0:
        raise InvalidParameterError(f"sweep degrees must be >= 0: {max_degree}, {cocycle_degree}")
    return max_degree, min(cocycle_degree, max_degree)


def axiom_sweep(alg, spec_text, r, max_degree, cocycle_degree=None):
    """Run all four axiom checks over canonical generators.

    Returns a list of {"family", "element", "check", "pass"} records; the
    cocycle runs over all ordered generator pairs up to degree K =
    min(``cocycle_degree``, ``max_degree``) (``cocycle_degree`` defaults to
    ``max_degree``; a larger one is clamped, see ``sweep_degrees``); a
    negative degree raises InvalidParameterError.

    delta is linear in f, so one ``BasisCobrackets`` per sweep computes
    L * delta(x_i u^k), in ints, once per basis monomial, and every check takes its
    cobrackets from it: the generators, the inner cobrackets of co-Jacobi
    and delta([f, g]) of the cocycle; it is dropped when the sweep returns.
    The ad-action reads ``alg.ad``.  The cocycle runs once per unordered
    pair, and its verdict is written to both ordered records (see
    ``check_cocycle``); it is computed on the basis cobrackets of degree
    <= 2K packed once per sweep, K fixing the slot layout.
    Co-Jacobi tests one orbit sum t[K] + t[R K] + t[R^2 K] per key K of t.  A
    generator whose delta is not polynomial fails its "polynomial" record and
    gets no skew or co-Jacobi record; a co-Jacobi or cocycle record that needs
    a basis cobracket which is not polynomial fails.
    """
    max_degree, cocycle_degree = sweep_degrees(max_degree, cocycle_degree)
    cobracket = BasisCobrackets(alg, r)
    records = []

    def record(element, check, ok):
        records.append({"family": spec_text, "element": element, "check": check, "pass": ok})

    gens = [
        (f"{alg.basis[i]}*u^{k}", {(i, k): 1})
        for k in range(max_degree + 1)
        for i in range(alg.dim)
    ]
    for name, f in gens:
        record(name, "polynomial", cobracket(f) is not None)
    for name, f in gens:
        if cobracket(f) is None:
            continue
        record(name, "skew", check_skew(alg, r, f, cobracket=cobracket))
        record(name, "co-jacobi", check_cojacobi(alg, r, f, cobracket=cobracket))
    pair_gens = [
        (name, f)
        for (name, f) in gens
        if max(d for (_, d) in f) <= cocycle_degree
    ]
    cobracket.pack(cocycle_degree)
    verdicts = {}
    for a, (name_f, f) in enumerate(pair_gens):
        for b, (name_g, g) in enumerate(pair_gens):
            if a <= b:
                verdicts[a, b] = check_cocycle(alg, r, f, g, cobracket=cobracket)
            record(f"{name_f},{name_g}", "cocycle", verdicts[min(a, b), max(a, b)])
    return records
