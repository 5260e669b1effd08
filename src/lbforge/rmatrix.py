"""Closed-form spectral r-matrices for the seven case families, the
dual-basis series, and exact CYBE / unitarity verification.

Every family has the shape r(u, v) = k(u, v)/(v - u) * Omega + s with a
polynomial kernel k and a constant part s derived from a classification
datum: a solution r of the modified classical Yang-Baxter equation
(r + swap(r) = Omega, CYB(r) = 0) for the g+g quotients, a skew solution
(r + swap(r) = 0, CYB(r) = 0) for the dual-number quotients.  Both are
read off the family's two points (``CaseSpec.points``): the kernel is
(1 - c2 u)(1 - c1 v), with u (or v) in place of a factor whose point is
infinity, and s is (c1 - c2) r for two distinct finite points and r
otherwise.  The paper's displays:

    I:two-points   (1 - c1 v - c2 u + c1 c2 u v)/(v-u) Omega + (c1-c2) r
    I:double-pole  (u-1)(v-1)/(v-u) Omega + r
    I:simple-pole  (1-u)/(v-u) Omega - r
    I:constant     1/(v-u) Omega + r
    II:simple-pole u(1-v)/(v-u) Omega + r
    II:constant    v/(v-u) Omega - swap(r)
    III:constant   u v/(v-u) Omega + r

II:constant is built as u/(v-u) Omega + r, the same tensor: v/(v-u) =
u/(v-u) + 1 and Omega - swap(r) = r for the modified data it accepts.

Spectral CYBE runs on r = sum phi(u, v)/(v-u)^d (x) T, phi spanning each
denominator class d (rank <= 2 for the families), T coprime integers so the
constant brackets (``liealg.bracket3``, which ``cyb`` also sums for the
constant data behind ``RKind``) are int-only: they read the algebra's
integer ad table, formed once per n by ``build_sl``.  phi is an int
numerator over its lcm, and the products are formed in ints and summed by
Kronecker substitution: each monomial present in some product owns one
w-bit slot, a product becomes the one int sum c 2^(w slot) of its
coefficients over the common denominator, and each bracket entry adds
br * packed to its key.  w is one more than the bit length of a bound on
every summed coefficient, so the balanced w-bit digits of each key's int
are exactly its coefficients.  The entry-by-entry sum is the test oracle.
CYB(r) comes back as its flat Sparse numerator; the series of the closed
form and of the dual basis are flat Sparse keyed (i, j, deg_u, deg_v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidParameterError, KindMismatchError
from .lagrangian import WPresentation, dual_basis, quotient_ambient
from .liealg import LEGS, LieAlgebraData, bracket3, casimir, cyb, r_dj, swap2
from .pairing import CaseSpec
from .ratfun import BivarRat, bivar, bivar_swap_vars, mul_vu_pow, poly2
from .sparse import RowSpan, Sparse, poly_mul

MCYBE = "mcybe"
SKEW = "skew"


@dataclass(frozen=True)
class RKind:
    """A constant classification datum, validated at construction."""

    tag: str
    value: Sparse

    @classmethod
    def mcybe(cls, alg, value: Sparse) -> "RKind":
        if value + swap2(value) != casimir(alg):
            raise InvalidParameterError("r + swap(r) must equal the Casimir tensor")
        if not cyb(alg, value).is_zero():
            raise InvalidParameterError("CYB(r) must vanish")
        return cls(MCYBE, value)

    @classmethod
    def skew(cls, alg, value: Sparse) -> "RKind":
        if not (value + swap2(value)).is_zero():
            raise InvalidParameterError("r must be skew")
        if not cyb(alg, value).is_zero():
            raise InvalidParameterError("CYB(r) must vanish")
        return cls(SKEW, value)


def family_requirement(spec: CaseSpec) -> str:
    """Which kind of constant datum a family consumes."""
    return MCYBE if quotient_ambient(spec) == "gxg" else SKEW


def catalog_rkind(alg, spec: CaseSpec) -> RKind:
    """The datum matching the shipped complement: r_DJ or zero."""
    if family_requirement(spec) == MCYBE:
        return RKind.mcybe(alg, r_dj(alg))
    return RKind.skew(alg, Sparse())


class SpectralTensor2:
    """Tensor in g (x) g with BivarRat coefficients, sparse over index pairs."""

    def __init__(self, entries=None):
        self.entries = {}
        for key, val in (entries or {}).items():
            if not val.is_zero():
                self.entries[key] = val

    def add_entry(self, key, val: BivarRat):
        cur = self.entries.get(key)
        total = cur + val if cur is not None else val
        if total.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = total

    def __add__(self, other):
        out = SpectralTensor2(dict(self.entries))
        for key, val in other.entries.items():
            out.add_entry(key, val)
        return out

    def __mul__(self, scalar):
        scalar = Fraction(scalar)  # nonzero: every entry stays in lowest terms
        return SpectralTensor2({k: BivarRat(scalar * v.num, v.den_pow)
                                for k, v in self.items()} if scalar else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SpectralTensor2) and self.entries == other.entries

    def is_zero(self):
        return not self.entries

    def items(self):
        return self.entries.items()


def from_constant(t: Sparse) -> SpectralTensor2:
    return SpectralTensor2({k: BivarRat(Sparse({(0, 0): c}), 0) for k, c in t.items()})


def kernel_tensor(alg, num: Sparse) -> SpectralTensor2:
    """num(u, v)/(v - u) times the Casimir tensor: num/(v - u) is put in
    lowest terms once, and a nonzero Casimir coefficient keeps them."""
    red = bivar(num, 1)
    return SpectralTensor2({key: BivarRat(c * red.num, red.den_pow)
                            for key, c in casimir(alg).items()})


def build_r(alg: LieAlgebraData, spec: CaseSpec, rk: RKind) -> SpectralTensor2:
    """The family member labelled by a classification datum; ``spec.points``
    rejects an illegal case before anything is built."""
    need = family_requirement(spec)
    if rk.tag != need:
        raise KindMismatchError(
            f"family {spec.text} takes a {need} constant part, got {rk.tag}"
        )
    c1, c2 = spec.points
    # (1 - c2 u)(1 - c1 v), u or v for a point at infinity
    num = poly_mul(poly2({(1, 0): 1} if c2 is None else {(0, 0): 1, (1, 0): -c2}),
                   poly2({(0, 1): 1} if c1 is None else {(0, 0): 1, (0, 1): -c1}))
    distinct = None not in (c1, c2) and c1 != c2
    const = (c1 - c2) * rk.value if distinct else rk.value
    return kernel_tensor(alg, num) + from_constant(const)


# -- series comparison --------------------------------------------------------

def expand_region(r: SpectralTensor2, order: int) -> Sparse:
    """Expansion of r as a series in u for |u| < |v|, keyed
    (i, j, deg_u, deg_v), keeping all terms of u-degree at most ``order``;
    v-degrees may be negative."""
    out = Sparse()
    for key, val in r.items():
        k = val.den_pow
        # 1/(v-u)^k = sum_m C(m+k-1, k-1) u^m v^{-m-k}; the m = 0 term alone for k = 0
        for (a, b), c in val.num.items():
            m, binom = 0, 1
            while a + m <= order and binom:
                out.iadd((*key, a + m, b - m - k), c * binom)
                binom = binom * (m + k) // (m + 1)
                m += 1
    return out


def sum_dual_series(alg, w: WPresentation, order: int, duals=None) -> Sparse:
    """sum over canonical basis vectors of x u^k (x) dual, dual projected
    onto the loop and written in the second variable, keyed
    (i, j, deg_u, deg_v).  ``duals`` is ``dual_basis(alg, w, order)`` when
    the caller has already solved it."""
    out = Sparse()
    for (i, k, el) in duals if duals is not None else dual_basis(alg, w, order):
        for (j, d), c in el.loop.items():
            out.iadd((i, j, k, d), c)
    return out


def skew_residual(r: SpectralTensor2) -> SpectralTensor2:
    """r(u, v) + swap-legs(r)(v, u), which vanishes exactly when r is skew."""
    total = SpectralTensor2(dict(r.entries))
    for (i, j), val in r.items():
        total.add_entry((j, i), bivar_swap_vars(val))
    return total


def skew_spectral_check(r: SpectralTensor2) -> bool:
    """r(u, v) + swap-legs(r)(v, u) == 0 exactly."""
    return skew_residual(r).is_zero()


# -- CYBE with spectral parameters -------------------------------------------

def _factors(r: SpectralTensor2):
    """(d, L, phi, T) with r = sum phi/(L (v - u)^d) (x) T: phi/L a reduced row
    of the span of class d's numerators, phi in ints, T[key] the entry's coefficient
    at the pivot, scaled to coprime integers with the scale moved into phi/L."""
    spans = {}
    for _, val in r.items():
        spans.setdefault(val.den_pow, RowSpan()).add(val.num)
    for d, span in spans.items():
        for piv, phi in span.rows.items():
            t = {k: v.num[piv] for k, v in r.items() if v.den_pow == d and piv in v.num}
            s = Fraction(lcm(*(c.denominator for c in t.values())),
                         gcd(*(c.numerator for c in t.values())))
            phi = (1 / s) * phi
            big = lcm(*(c.denominator for c in phi.values()))
            yield (d, big, {m: c.numerator * (big // c.denominator) for m, c in phi.items()},
                   {k: (c * s).numerator for k, c in t.items()})


def _on_legs(p: dict, a: int, lift: int) -> dict:
    """p(x, y) (y - x)^lift in ints, trivariate on the legs LEGS[a]; slot 2 - a stays 0."""
    return {(*e[:2 - a], 0, *e[2 - a:]): c for e, c in mul_vu_pow(p, lift).items()}


def cyb_spectral(alg, r: SpectralTensor2) -> Sparse:
    """CYB(r) = [r12, r13] + [r12, r23] + [r13, r23] as its numerator keyed
    (i, j, k, du, dv, dw) over (v-u)^a (w-u)^b (w-v)^c, each exponent the
    largest den_pow that meets a nonzero structure constant in that slot;
    zero exactly when CYB(r) is.  One integer constant bracket and one
    trivariate int product per pair of factors and CYBE term: each factor
    is lifted by ``mul_vu_pow``'s binomial row, the product is over the two
    factors' lcms, and the one denominator is the lcm of those.

    The products are summed packed: monomial m of any product is slot
    s(m), numbered as first met, and a product with integer coefficients
    c_m (over the one denominator) is the int P = sum c_m 2^(w s(m)).  A
    bracket entry cb at key adds cb * P to the key's int, so the key's
    coefficient at m is the sum over products of cb c_m.  Its absolute
    value is at most B = sum over products of max |cb| * sum_m |c_m|, and
    w = bit_length(B) + 1 puts every one in [-2^(w-1), 2^(w-1)): the
    balanced w-bit digits of the key's int are those coefficients.  Slots
    are the monomials present, never the box of all exponents up to the
    largest, so a u^(10^6) costs one slot; only a key with a nonzero int
    is unpacked."""
    facs = list(_factors(r))
    terms, common = [], [0, 0, 0]
    for da, la, pa, ta in facs:
        for db, lb, pb, tb in facs:
            for a, b in LEGS:
                br, met = bracket3(alg, ta, tb, LEGS[a], LEGS[b])
                if met:
                    common[a], common[b] = max(common[a], da), max(common[b], db)
                if br:
                    terms.append((br, a, da, pa, b, db, pb, la * lb))
    # the common power of the slot a term leaves out: 3 - a - b for term (a, b)
    fill = [_on_legs({(0, 0): 1}, m, common[m]) for m in range(3)]
    # int products over the product of their factors' lcms
    prods = [(br, lab, poly_mul(poly_mul(_on_legs(pa, a, common[a] - da),
                                         _on_legs(pb, b, common[b] - db)), fill[3 - a - b]))
             for br, a, da, pa, b, db, pb, lab in terms]
    den = lcm(*(d for _, d, _ in prods))
    # one int per product, one w-bit slot per monomial (see the docstring)
    slot, packed, bound = {}, [], 0
    for br, d, prod in prods:
        ints = [(slot.setdefault(mono, len(slot)), c * (den // d)) for mono, c in prod.items()]
        packed.append((br, ints))
        bound += max(map(abs, br.values())) * sum(abs(c) for _, c in ints)
    w = bound.bit_length() + 1
    acc = {}
    for br, ints in packed:
        p = sum(c << (w * s) for s, c in ints)
        for key, cb in br.items():
            acc[key] = acc.get(key, 0) + cb * p
    return Sparse(_unpack(acc, list(slot), w, den))


def _unpack(acc, monos, w, den):
    """(key + monos[s], digit / den) for every nonzero balanced w-bit digit
    of every packed int: a digit read at or above 2^(w-1) is negative and
    borrows one from the next slot."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    for key, v in acc.items():
        s = 0
        while v:
            d = v & mask
            if d >= half:
                d -= 1 << w
            if d:
                yield key + monos[s], Fraction(d, den)
            v = (v - d) >> w
            s += 1
