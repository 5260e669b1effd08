"""Closed-form spectral r-matrices for the seven case families, the
dual-basis series, and exact CYBE / unitarity verification.

Every family has the shape r(u, v) = k(u, v) * Omega + s with a rational
kernel k whose denominator is (v - u) and a constant part s derived from
a classification datum: a solution r of the modified classical
Yang-Baxter equation (r + swap(r) = Omega, CYB(r) = 0) for the g+g
quotients, a skew solution (r + swap(r) = 0, CYB(r) = 0) for the
dual-number quotients.

    I:two-points   (1 - c1 v - c2 u + c1 c2 u v)/(v-u) Omega + (c1-c2) r
    I:double-pole  (u-1)(v-1)/(v-u) Omega + r
    I:simple-pole  (1-u)/(v-u) Omega - r
    I:constant     1/(v-u) Omega + r
    II:simple-pole u(1-v)/(v-u) Omega + r
    II:constant    v/(v-u) Omega - swap(r)
    III:constant   u v/(v-u) Omega + r

The II:constant constant part is -swap(r) rather than +r: unitarity of
r(u, v) forces the constant block s to satisfy s + swap(s) = -Omega in
this family (the kernel's symmetric part is +1), and -swap(r) is the
involution that carries solutions of the modified equation onto exactly
those blocks.  The dual-basis series of the shipped complement confirms
the sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, KindMismatchError
from .lagrangian import WPresentation, dual_basis, quotient_ambient
from .liealg import LieAlgebraData, bracket_basis, casimir, cyb, r_dj, swap2
from .pairing import CaseSpec, validate_case
from .ratfun import BivarRat, bivar, bivar_swap_vars, poly2
from .sparse import Sparse, poly_mul

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

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return SpectralTensor2(
            {k: scalar * v for k, v in self.entries.items()} if scalar else {}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SpectralTensor2) and self.entries == other.entries

    def is_zero(self):
        return not self.entries

    def items(self):
        return self.entries.items()


def from_constant(t: Sparse) -> SpectralTensor2:
    return SpectralTensor2(
        {k: BivarRat(Sparse({(0, 0): c}), 0) for k, c in t.items()}
    )


def kernel_tensor(alg, num: Sparse) -> SpectralTensor2:
    """num(u, v)/(v - u) times the Casimir tensor."""
    out = SpectralTensor2()
    for key, c in casimir(alg).items():
        out.add_entry(key, bivar(c * num, 1))
    return out


_FAMILY_KERNEL = {
    ("I", "double-pole"): poly2({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}),
    ("I", "simple-pole"): poly2({(0, 0): 1, (1, 0): -1}),
    ("I", "constant"): poly2({(0, 0): 1}),
    ("II", "simple-pole"): poly2({(1, 0): 1, (1, 1): -1}),
    ("II", "constant"): poly2({(0, 1): 1}),
    ("III", "constant"): poly2({(1, 1): 1}),
}


def build_r(alg: LieAlgebraData, spec: CaseSpec, rk: RKind) -> SpectralTensor2:
    """The family member labelled by a classification datum."""
    reason = validate_case(spec)
    if reason is not None:
        raise InvalidParameterError(reason)
    need = family_requirement(spec)
    if rk.tag != need:
        raise KindMismatchError(
            f"family {spec.text} takes a {need} constant part, got {rk.tag}"
        )
    if spec.a_form == "two-points":
        c1, c2 = spec.c1, spec.c2
        num = poly2(
            {(0, 0): 1, (0, 1): -c1, (1, 0): -c2, (1, 1): c1 * c2}
        )
        const = (c1 - c2) * rk.value
    else:
        num = _FAMILY_KERNEL[(spec.double_type, spec.a_form)]
        if (spec.double_type, spec.a_form) == ("I", "simple-pole"):
            const = -rk.value
        elif (spec.double_type, spec.a_form) == ("II", "constant"):
            const = -swap2(rk.value)
        else:
            const = rk.value
    return kernel_tensor(alg, num) + from_constant(const)


# -- series comparison --------------------------------------------------------

def expand_region(r: SpectralTensor2, order: int):
    """Expansion of each entry as a series in u for |u| < |v|.

    Returns {(i, j): Sparse{(deg_u, deg_v): coeff}} keeping all terms of
    u-degree at most ``order``; v-degrees may be negative.
    """
    out = {}
    for key, val in r.items():
        terms = Sparse()
        if val.den_pow == 0:
            for (a, b), c in val.num.items():
                if a <= order:
                    terms.iadd((a, b), c)
        else:
            k = val.den_pow
            # 1/(v-u)^k = sum_m C(m+k-1, k-1) u^m v^{-m-k}
            for (a, b), c in val.num.items():
                m = 0
                binom = 1
                while a + m <= order:
                    terms.iadd((a + m, b - m - k), c * binom)
                    binom = binom * (m + k) // (m + 1)
                    m += 1
        if terms:
            out[key] = terms
    return out


def sum_dual_series(alg, w: WPresentation, order: int, duals=None):
    """sum over canonical basis vectors of x u^k (x) dual, dual projected
    onto the loop and written in the second variable.  ``duals`` is
    ``dual_basis(alg, w, order)`` when the caller has already solved it."""
    out = {}
    for (i, k, el) in duals if duals is not None else dual_basis(alg, w, order):
        for (j, d), c in el.loop.items():
            terms = out.setdefault((i, j), Sparse())
            terms.iadd((k, d), c)
    return {key: t for key, t in out.items() if t}


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

def _tri_embed(p: Sparse, slot_a: int, slot_b: int) -> Sparse:
    """Embed a bivariate numerator into trivariate exponent keys."""
    out = Sparse()
    for (a, b), c in p.items():
        key = [0, 0, 0]
        key[slot_a] = a
        key[slot_b] = b
        out.iadd(tuple(key), c)
    return out


# trivariate difference polynomials: v-u, w-u, w-v
_DIFFS = (
    Sparse({(0, 1, 0): Fraction(1), (1, 0, 0): Fraction(-1)}),
    Sparse({(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(-1)}),
    Sparse({(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1)}),
)


@dataclass
class SpectralCyb:
    """CYB(r)(u, v, w) as numerator tensor over (v-u)^a (w-u)^b (w-v)^c."""

    numerators: Sparse  # (i, j, k, du, dv, dw) flattened: see items()
    den_pows: tuple

    def is_zero(self):
        return self.numerators.is_zero()


def cyb_spectral(alg, r: SpectralTensor2) -> SpectralCyb:
    """[r12, r13] + [r12, r23] + [r13, r23] over a common denominator."""
    entries = list(r.items())
    # contributions: list of (tensor-key, trivar numerator, den exponent triple)
    contribs = []
    for (i, j), fij in entries:
        f12 = _tri_embed(fij.num, 0, 1)  # first factor read as r12(u, v)
        f13 = _tri_embed(fij.num, 0, 2)  # ... or as r13(u, w)
        for (k, l), gkl in entries:
            g13 = _tri_embed(gkl.num, 0, 2)  # second factor as r13(u, w)
            g23 = _tri_embed(gkl.num, 1, 2)  # ... or as r23(v, w)
            prod = poly_mul(f12, g13)
            dens = (fij.den_pow, gkl.den_pow, 0)
            for m, cm in bracket_basis(alg, i, k).items():
                contribs.append(((m, j, l), cm * prod, dens))
            prod = poly_mul(f12, g23)
            dens = (fij.den_pow, 0, gkl.den_pow)
            for m, cm in bracket_basis(alg, j, k).items():
                contribs.append(((i, m, l), cm * prod, dens))
            prod = poly_mul(f13, g23)
            dens = (0, fij.den_pow, gkl.den_pow)
            for m, cm in bracket_basis(alg, j, l).items():
                contribs.append(((i, k, m), cm * prod, dens))
    if not contribs:
        return SpectralCyb(Sparse(), (0, 0, 0))
    common = tuple(max(d[s] for (_, _, d) in contribs) for s in range(3))
    total = Sparse()
    for key, num, dens in contribs:
        for s in range(3):
            for _ in range(common[s] - dens[s]):
                num = poly_mul(num, _DIFFS[s])
        for mono, c in num.items():
            total.iadd(key + mono, c)
    return SpectralCyb(total, common)
