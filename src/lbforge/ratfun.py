"""Exact scalar substrate: univariate rational functions and their Taylor
series at 0, and bivariate rational functions num/(v - u)^k in lowest terms
(``bivar``); their scaling and affine substitution are tensor passes.

Polynomials are ``Sparse`` maps exponent -> Fraction; univariate keys are
ints, bivariate keys are (deg_u, deg_v) pairs.  A num with no (v - u)
factor is in lowest terms after one pass, the remainder num(u, u).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleAtZeroError
from .sparse import Sparse, poly_mul


def poly1(coeffs) -> Sparse:
    """Univariate polynomial from a list (degree = position) or dict."""
    if isinstance(coeffs, (list, tuple)):
        return Sparse(enumerate(coeffs))
    return Sparse(coeffs)


@dataclass(frozen=True)
class RatFun1:
    """Quotient num/den of univariate polynomials, den nonzero."""

    num: Sparse
    den: Sparse

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")


def expand_at_zero(f: RatFun1, order: int):
    """Taylor coefficients t_0..t_order of f at u = 0 by long division."""
    d0 = f.den.get(0, 0)
    if d0 == 0:
        raise PoleAtZeroError("denominator vanishes at u = 0")
    coeffs = []
    for k in range(order + 1):
        acc = f.num.get(k, Fraction(0))
        for j, dj in f.den.items():
            if 1 <= j <= k:
                acc -= dj * coeffs[k - j]
        coeffs.append(acc / d0)
    return coeffs


# -- bivariate layer ---------------------------------------------------------

def poly2(entries) -> Sparse:
    """Bivariate polynomial from {(deg_u, deg_v): coeff}."""
    return Sparse(entries)


def poly2_divide_vu(p):
    """Divide p by (v - u) in the last two key entries (deg_u, deg_v): returns
    (quotient, remainder), both of p's type (``Sparse`` or dict).  Leading key
    entries, such as the leg indices of a polynomial tensor, ride along.

    Synthetic division in v at the root v = u; the remainder is p(u, u),
    with deg_v 0 in its keys.
    """
    by_v = {}
    for key, c in p.items():
        by_v.setdefault(key[-1], {})[key[:-1]] = c
    quot = {}
    carry = {}
    for b in range(max(by_v, default=0), -1, -1):
        for k, c in by_v.get(b, {}).items():
            carry[k] = carry.get(k, 0) + c
        if b:
            quot.update(((*k, b - 1), c) for k, c in carry.items() if c)
            carry = {(*k[:-1], k[-1] + 1): c for k, c in carry.items() if c}
    return type(p)(quot), type(p)(((*k, 0), c) for k, c in carry.items() if c)


@dataclass(frozen=True)
class BivarRat:
    """num(u, v) / (v - u)^den_pow, stored in lowest terms w.r.t. (v - u)."""

    num: Sparse
    den_pow: int

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        k = max(self.den_pow, other.den_pow)
        a = mul_vu_pow(self.num, k - self.den_pow)
        b = mul_vu_pow(other.num, k - other.den_pow)
        return bivar(a + b, k)


def mul_vu_pow(num, extra: int):
    """num(u, v) * (v - u)^extra, of num's type (``Sparse`` or a dict of ints):
    one product with the binomial row sum_i C(extra, i) (-1)^i u^i v^(extra - i)."""
    if not extra:
        return num
    row, c = {}, 1
    for i in range(extra + 1):
        row[i, extra - i] = c
        c = -c * (extra - i) // (i + 1)
    return poly_mul(num, row)


def bivar(num: Sparse, den_pow: int = 0) -> BivarRat:
    """Canonical BivarRat: cancel every (v - u) factor shared with num.  Each
    step sums num's coefficients by total degree, the remainder num(u, u) of
    the division by (v - u), and divides only when that vanishes."""
    if num.is_zero():
        return BivarRat(Sparse(), 0)
    while den_pow > 0:
        diag = {}
        for (a, b), c in num.items():
            diag[a + b] = diag.get(a + b, 0) + c
        if any(diag.values()):
            break
        num = poly2_divide_vu(num)[0]
        den_pow -= 1
    return BivarRat(num, den_pow)


def bivar_swap_vars(f: BivarRat) -> BivarRat:
    """f(v, u): swap the two variables; (u - v)^k = -(v - u)^k for odd k."""
    odd = f.den_pow % 2
    return BivarRat(Sparse(((b, a), -c if odd else c) for (a, b), c in f.num.items()),
                    f.den_pow)
