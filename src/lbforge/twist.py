"""Quasi-twist equivalence between two-point families: the affine change
of variable sigma(u) = p u + q, applied to a whole spectral tensor in one
pass, the scaling constant, and the exact identity between the transformed
and target r-matrices.

For admissible (c1, c2) and (d1, d2) there is a unique (p, q) with
d_i = c_i p / (1 - c_i q); the corresponding r-matrices then satisfy

    r_{d1,d2}(u, v) = C * r_{c1,c2}(p u + q, p v + q),
    C = p / ((1 - c1 q)(1 - c2 q)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSubstitutionError
from .liealg import LieAlgebraData, build_sl, r_dj, wedge_sum
from .pairing import CaseSpec
from .ratfun import bivar, poly2
from .rmatrix import (
    RKind,
    SpectralTensor2,
    build_r,
    from_constant,
    kernel_tensor,
)
from .sparse import Sparse, poly_mul


@dataclass(frozen=True)
class AffineChange:
    p: Fraction
    q: Fraction

    def __post_init__(self):
        if self.p == 0:
            raise DegenerateSubstitutionError("affine change needs p != 0")


def solve_pq(c1, c2, d1, d2) -> AffineChange:
    """The unique affine change carrying the (c1, c2) family to (d1, d2).

    Linear in X = 1/p and Y = q/p: 1/d_i = X/c_i - Y.  The result is
    validated by exact back-substitution.
    """
    c1, c2, d1, d2 = (Fraction(x) for x in (c1, c2, d1, d2))
    for pair in ((c1, c2), (d1, d2)):
        CaseSpec("I", "two-points", *pair)  # nonzero and distinct
    x = (1 / d1 - 1 / d2) / (1 / c1 - 1 / c2)
    y = x / c1 - 1 / d1
    if x == 0:
        raise DegenerateSubstitutionError("degenerate change of variable")
    ch = AffineChange(1 / x, y / x)
    for c, d in ((c1, d1), (c2, d2)):
        if 1 - c * ch.q == 0:
            raise DegenerateSubstitutionError("change of variable hits a pole")
        if d != c * ch.p / (1 - c * ch.q):
            raise DegenerateSubstitutionError("back-substitution failed")
    return ch


def scaling_constant(c1, c2, ch: AffineChange) -> Fraction:
    return ch.p / ((1 - Fraction(c1) * ch.q) * (1 - Fraction(c2) * ch.q))


def substitute_affine_tensor(r: SpectralTensor2, ch: AffineChange) -> SpectralTensor2:
    """u -> p u + q, v -> p v + q in one pass, one table of (p x + q)^a for
    every entry: num/(v - u)^k becomes p^-k num(pu + q, pv + q)/(v - u)^k."""
    lin = Sparse({1: ch.p, 0: ch.q})
    powers = [Sparse({0: 1})]
    out = {}
    for key, val in r.items():
        while len(powers) <= max(max(e) for e in val.num):
            powers.append(poly_mul(powers[-1], lin))
        num = Sparse(((k1, k2), c * c1 * c2) for (a, b), c in val.num.items()
                     for k1, c1 in powers[a].items() for k2, c2 in powers[b].items())
        out[key] = bivar(Fraction(ch.p) ** -val.den_pow * num, val.den_pow)
    return SpectralTensor2(out)


@dataclass
class TwistReport:
    change: AffineChange
    scale: Fraction
    equal: bool


def quasi_twist_verify(
    c1, c2, d1, d2, alg: LieAlgebraData = None, source: SpectralTensor2 = None
) -> TwistReport:
    """Check the scaling identity between two two-point families.

    Both sides are built over sl_2 (or a supplied algebra) with the
    Drinfeld-Jimbo constant part; equality is exact.  A given ``source``
    (a tensor read from a file) is transformed in place of the (c1, c2) one.
    """
    alg = alg or build_sl(2)
    ch = solve_pq(c1, c2, d1, d2)
    scale = scaling_constant(c1, c2, ch)
    rk = RKind.mcybe(alg, r_dj(alg))
    target = build_r(alg, CaseSpec("I", "two-points", Fraction(d1), Fraction(d2)), rk)
    if source is None:
        source = build_r(alg, CaseSpec("I", "two-points", Fraction(c1), Fraction(c2)), rk)
    transformed = scale * substitute_affine_tensor(source, ch)
    return TwistReport(change=ch, scale=scale, equal=(transformed == target))


def remark_example_check(alg: LieAlgebraData = None, scale=Fraction(2)) -> bool:
    """The worked change-of-variable example.

    (1 - u v)/(v - u) Omega + sum e ^ f, rewritten through u -> 2u - 1,
    equals scale * (u(1 - v)/(v - u) Omega + r_DJ); the identity holds
    with scale = 2.
    """
    alg = alg or build_sl(2)
    lhs = kernel_tensor(alg, poly2({(0, 0): 1, (1, 1): -1}))
    lhs += from_constant(wedge_sum(alg))
    transformed = substitute_affine_tensor(lhs, AffineChange(Fraction(2), Fraction(-1)))
    rk = RKind.mcybe(alg, r_dj(alg))
    rhs = Fraction(scale) * build_r(alg, CaseSpec("II", "simple-pole"), rk)
    return transformed == rhs
