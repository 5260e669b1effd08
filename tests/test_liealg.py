"""The matrix realization is checked against an independent oracle: plain
integer matrices multiplied entrywise, with no shared code path."""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbforge.cli import main
from lbforge.cobracket import axiom_sweep
from lbforge.errors import InvalidParameterError, InvalidRankError
from lbforge.liealg import (
    LEGS,
    basis_element,
    bracket,
    bracket3,
    bracket_basis,
    build_sl,
    casimir,
    cyb,
    jordanian,
    r_c1c2,
    r_dj,
    swap2,
)
from lbforge.pairing import CaseSpec
from lbforge.rmatrix import build_r, catalog_rkind
from lbforge.sparse import Sparse, gauss_solve


# -- oracle: dense integer matrices --------------------------------------------

def dense_basis(n):
    """E/F/H basis as dense integer matrices, in the package's basis order."""
    roots = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]

    def unit(i, j):
        m = [[0] * n for _ in range(n)]
        m[i - 1][j - 1] = 1
        return m

    mats = [unit(i, j) for (i, j) in roots]
    mats += [unit(j, i) for (i, j) in roots]
    for i in range(1, n):
        m = [[0] * n for _ in range(n)]
        m[i - 1][i - 1] = 1
        m[i][i] = -1
        mats.append(m)
    return mats


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


@dataclasses.dataclass(frozen=True)
class Oracle:
    """sl_n's invariants from its matrix units alone, sharing no code with
    ``build_sl``.  gram[a][b] = tr(b_a b_b); dual[a] is the row of b^a =
    sum_m dual[a][m] b_m, the inverse of gram; struct[a][b] is {m: c} with
    [b_a, b_b] = sum_m c b_m, each commutator solved for in the matrix
    units by dense elimination."""

    gram: list
    dual: list
    struct: list


@functools.cache
def oracle(n) -> Oracle:
    mats = dense_basis(n)
    dim = len(mats)
    gram = [[mat_trace(mat_mul(x, y)) for y in mats] for x in mats]
    dual = gauss_solve(gram, [[int(a == b) for b in range(dim)] for a in range(dim)])
    comms = [sum(mat_sub(mat_mul(x, y), mat_mul(y, x)), []) for x in mats for y in mats]
    flat = [sum(m, []) for m in mats]
    coords = gauss_solve([[v[p] for v in flat] for p in range(n * n)],
                         [[c[p] for c in comms] for p in range(n * n)])
    struct = [[{m: coords[m][a * dim + b] for m in range(dim) if coords[m][a * dim + b]}
               for b in range(dim)] for a in range(dim)]
    return Oracle(gram, dual, struct)


def to_dense(alg, x: Sparse, mats):
    n = len(mats[0])
    out = [[0] * n for _ in range(n)]
    for idx, c in x.items():
        for i in range(n):
            for j in range(n):
                out[i][j] += c * mats[idx][i][j]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_structure_constants_match_matrix_commutators(n):
    alg = build_sl(n)
    mats = dense_basis(n)
    for a in range(alg.dim):
        for b in range(alg.dim):
            expected = mat_sub(mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a]))
            got = to_dense(alg, bracket_basis(alg, a, b), mats)
            assert got == expected, (alg.basis[a], alg.basis[b])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gram_matches_trace_form(n):
    alg, mats = build_sl(n), dense_basis(n)
    for a in range(alg.dim):
        row = dict(alg.gram_rows[a])
        for b in range(alg.dim):
            assert row.get(b, 0) == mat_trace(mat_mul(mats[a], mats[b]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gram_rows_are_the_nonzero_gram_entries(n):
    alg = build_sl(n)
    assert type(alg.gram_rows) is tuple and len(alg.gram_rows) == alg.dim
    for a, row in enumerate(alg.gram_rows):
        assert row == tuple((b, g) for b, g in enumerate(oracle(n).gram[a]) if g)
        assert all(type(g) is int for _, g in row)


def form(alg, x: Sparse, y: Sparse) -> Fraction:
    """The trace form K(x, y) of two elements of g, extended bilinearly from
    the oracle's trace form of the matrix units."""
    gram = oracle(alg.n).gram
    return sum(
        (ci * cj * gram[i][j] for i, ci in x.items() for j, cj in y.items()),
        Fraction(0),
    )


@pytest.mark.parametrize("n", range(2, 10))
def test_gram_inverse_is_inverse(n):
    # dual_rows x gram_rows = identity, gram_rows being checked against the trace form
    alg = build_sl(n)
    assert type(alg.dual_rows) is tuple and len(alg.dual_rows) == alg.dim
    for a, row in enumerate(alg.dual_rows):
        assert [m for m, _ in row] == sorted(m for m, _ in row)
        assert all(type(c) is Fraction and c for _, c in row)
        entry = Sparse()
        for m, c in row:
            for b, g in alg.gram_rows[m]:
                entry.iadd(b, c * g)
        assert entry == Sparse({a: 1}), alg.basis[a]
    if n <= 6:
        assert alg.dual_rows == tuple(tuple((m, c) for m, c in enumerate(row) if c)
                                      for row in oracle(n).dual)


def test_sl2_frozen_table():
    alg = build_sl(2)
    assert alg.basis == ("E(1,2)", "F(1,2)", "H(1)")
    e, f, h = 0, 1, 2
    assert bracket_basis(alg, e, f) == Sparse({h: 1})
    assert bracket_basis(alg, h, e) == Sparse({e: 2})
    assert bracket_basis(alg, h, f) == Sparse({f: -2})
    assert form(alg, basis_element(e), basis_element(f)) == 1
    assert form(alg, basis_element(h), basis_element(h)) == 2


def test_sl3_shape():
    alg = build_sl(3)
    assert len(alg.positive_roots) == 3 and alg.rank == 2
    for root in alg.positive_roots:
        e = basis_element(alg.e_index(root))
        f = basis_element(alg.f_index(root))
        assert form(alg, e, f) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_full_enumeration(n):
    alg = build_sl(n)
    for a in range(alg.dim):
        xa = basis_element(a)
        for b in range(a + 1, alg.dim):
            xb = basis_element(b)
            ab = bracket(alg, xa, xb)
            for c in range(b + 1, alg.dim):
                xc = basis_element(c)
                total = (
                    bracket(alg, ab, xc)
                    + bracket(alg, bracket(alg, xb, xc), xa)
                    + bracket(alg, bracket(alg, xc, xa), xb)
                )
                assert total.is_zero(), (a, b, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisymmetry(n):
    alg = build_sl(n)
    for a in range(alg.dim):
        for b in range(alg.dim):
            assert bracket_basis(alg, a, b) == -bracket_basis(alg, b, a)
        assert bracket(alg, basis_element(a), basis_element(a)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_form_invariance(n):
    alg = build_sl(n)
    for a in range(alg.dim):
        xa = basis_element(a)
        for b in range(alg.dim):
            xb = basis_element(b)
            ab = bracket(alg, xa, xb)
            for c in range(alg.dim):
                xc = basis_element(c)
                lhs = form(alg, ab, xc)
                rhs = form(alg, xa, bracket(alg, xb, xc))
                assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_coroot_normalization(n):
    # h_alpha = [e, f] acts on e_alpha with eigenvalue 2
    alg = build_sl(n)
    for root in alg.positive_roots:
        e = basis_element(alg.e_index(root))
        f = basis_element(alg.f_index(root))
        h = bracket(alg, e, f)
        assert bracket(alg, h, e) == 2 * e


def test_invalid_rank():
    with pytest.raises(InvalidRankError):
        build_sl(1)


def test_casimir_sl2_frozen():
    # oracle: invert the 3x3 Gram matrix by hand
    alg = build_sl(2)
    assert casimir(alg) == Sparse(
        {(0, 1): 1, (1, 0): 1, (2, 2): Fraction(1, 2)}
    )


def ad_action2(alg, x: Sparse, t: Sparse) -> Sparse:
    """[x (x) 1 + 1 (x) x, t] on a constant 2-tensor."""
    out = Sparse()
    for (i, j), c in t.items():
        for k, ck in bracket(alg, x, basis_element(i)).items():
            out.iadd((k, j), c * ck)
        for k, ck in bracket(alg, x, basis_element(j)).items():
            out.iadd((i, k), c * ck)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_casimir_symmetric_and_invariant(n):
    alg = build_sl(n)
    om = casimir(alg)
    assert swap2(om) == om
    for i in range(alg.dim):
        assert ad_action2(alg, basis_element(i), om).is_zero()


def test_r_dj_sl2_frozen():
    alg = build_sl(2)
    assert r_dj(alg) == Sparse({(0, 1): 1, (2, 2): Fraction(1, 4)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_dj_contract(n):
    alg = build_sl(n)
    r = r_dj(alg)
    assert r + swap2(r) == casimir(alg)
    if n <= 3:
        assert cyb(alg, r).is_zero()
        assert cyb(alg, swap2(r)).is_zero()


def test_cyb_zero_tensor():
    alg = build_sl(2)
    assert cyb(alg, Sparse()).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyb_jordanian(n):
    alg = build_sl(n)
    assert cyb(alg, jordanian(alg)).is_zero()


def test_cyb_nonsolution_witness():
    # CYB(e (x) f) = -e (x) h (x) f by direct structure-constant expansion
    alg = build_sl(2)
    assert cyb(alg, Sparse({(0, 1): 1})) == Sparse({(0, 2, 1): -1})


SL2, SL3 = build_sl(2), build_sl(3)


def cyb_loop(alg, r):
    """CYB(r) by one loop over pairs of entries: the three-term expansion
    [r12, r13] + [r12, r23] + [r13, r23] written out index by index, on the
    oracle's structure constants."""
    struct = oracle(alg.n).struct
    out = Sparse()
    for (i, j), c in r.items():
        for (k, l), d in r.items():
            cd = c * d
            for m, cm in struct[i][k].items():
                out.iadd((m, j, l), cd * cm)
            for m, cm in struct[j][k].items():
                out.iadd((i, m, l), cd * cm)
            for m, cm in struct[j][l].items():
                out.iadd((i, k, m), cd * cm)
    return out


@st.composite
def constant_tensors(draw):
    """(alg, t): a constant 2-tensor with non-integer coefficients on sl_2 or sl_3."""
    alg = draw(st.sampled_from([SL2, SL3]))
    keys = st.tuples(st.integers(0, alg.dim - 1), st.integers(0, alg.dim - 1))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    return alg, Sparse(draw(st.dictionaries(keys, coeffs, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(constant_tensors())
def test_cyb_matches_loop_oracle(case):
    alg, t = case
    assert cyb(alg, t) == cyb_loop(alg, t)


def test_r_c1c2_sl2_literal():
    # on sl_2 the closed form is c1 f(x)e + c2 e(x)f + (c1+c2)/4 h(x)h
    alg = build_sl(2)
    for c1, c2 in [(Fraction(1), Fraction(2)), (Fraction(-3), Fraction(1, 2))]:
        expected = Sparse(
            {(1, 0): c1, (0, 1): c2, (2, 2): (c1 + c2) / 4}
        )
        assert r_c1c2(alg, c1, c2) == expected


def test_r_c1c2_one_minus_one():
    alg = build_sl(2)
    assert r_c1c2(alg, 1, -1) == Sparse({(1, 0): 1, (0, 1): -1})


@pytest.mark.parametrize("n", [2, 3])
def test_r_c1c2_rewriting(n):
    # c1*Omega - r_{c1,c2} == (c1 - c2) r_DJ
    alg = build_sl(n)
    c1, c2 = Fraction(5, 3), Fraction(-2)
    lhs = c1 * casimir(alg) - r_c1c2(alg, c1, c2)
    assert lhs == (c1 - c2) * r_dj(alg)


@pytest.mark.parametrize("n", [2, 3])
def test_r_c1c2_symmetric_part(n):
    alg = build_sl(n)
    c1, c2 = Fraction(3), Fraction(7, 2)
    r = r_c1c2(alg, c1, c2)
    assert r + swap2(r) == (c1 + c2) * casimir(alg)


def test_r_c1c2_invalid():
    alg = build_sl(2)
    with pytest.raises(InvalidParameterError):
        r_c1c2(alg, 1, 1)
    with pytest.raises(InvalidParameterError):
        r_c1c2(alg, 0, 1)


def test_jordanian_unknown_root():
    alg = build_sl(2)
    with pytest.raises(InvalidParameterError):
        jordanian(alg, (2, 5))


# -- one immutable sl_n per n ---------------------------------------------------

def test_build_sl_is_one_value_per_n():
    for n in (2, 3, 4):
        assert build_sl(n) is build_sl(n)
    assert build_sl(2) is not build_sl(3)


def immutable(value):
    """True for an int, str or Fraction, or a tuple of such values at every depth."""
    if type(value) is tuple:
        return all(immutable(v) for v in value)
    return type(value) in (int, str, Fraction)


def test_algebra_fields_cannot_be_assigned():
    alg = build_sl(2)
    for name in ("n", "basis", "ad", "gram_rows", "dual_rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(alg, name, None)
    assert [f.name for f in dataclasses.fields(alg)] == [
        "n", "rank", "positive_roots", "basis", "ad", "gram_rows", "dual_rows"]
    assert all(type(getattr(alg, name)) is tuple
               for name in ("positive_roots", "basis", "ad", "gram_rows", "dual_rows"))


def test_shared_algebra_is_unchanged_by_its_callers(tmp_path, capsys):
    # every CLI path and one sweep read the memoised sl_n; none may write to it
    for n in (3, 4):
        algebra, tensor = f"A:{n}", tmp_path / f"r{n}.json"
        assert main(["build", "--algebra", algebra, "--case", "I:two-points:1,2", "--r", "dj",
                     "--out", str(tensor)]) == 0
        assert main(["verify", "--in", str(tensor), "--case", "I:two-points:1,2",
                     "--checks", "cybe,skew,duality,equiv"]) == 0
        assert main(["dualbasis", "--algebra", algebra, "--case", "I:double-pole",
                     "--degree", "2"]) == 0
    assert main(["table", "I", "simple", "2"]) == 0
    capsys.readouterr()
    alg = build_sl(3)
    spec = CaseSpec.parse("I:two-points:1,2")
    records = axiom_sweep(alg, "I:two-points:1,2", build_r(alg, spec, catalog_rkind(alg, spec)), 1)
    assert records and all(rec["pass"] for rec in records)
    for n in (2, 3, 4):
        shared, fresh = build_sl(n), build_sl.__wrapped__(n)
        assert shared is not fresh
        for f in dataclasses.fields(shared):
            # tuples all the way down: no caller can have written to them
            assert immutable(getattr(shared, f.name)), (n, f.name)
            assert getattr(shared, f.name) == getattr(fresh, f.name), (n, f.name)


# -- bracket3 against its per-pair loop on the oracle's structure constants --------

def bracket3_loop(alg, ta, tb, legs_a, legs_b):
    """bracket3 as one lookup of the oracle's structure constants per pair of
    shared-leg indices, each turned into an int: the oracle of the ad-table form."""
    struct = oracle(alg.n).struct
    c = (set(legs_a) & set(legs_b)).pop()
    ia, ib = legs_a.index(c), legs_b.index(c)
    oa, ob = legs_a[1 - ia], legs_b[1 - ib]
    by_a, by_b = {}, {}
    for t, i, by in ((ta, ia, by_a), (tb, ib, by_b)):
        for key, coeff in t.items():
            by.setdefault(key[i], []).append((key[1 - i], coeff))
    out, met, key = {}, False, [0, 0, 0]
    for x, rows_a in by_a.items():
        for y, rows_b in by_b.items():
            for m, s in struct[x][y].items():
                met, key[c] = True, m
                s = s.numerator if s.denominator == 1 else s
                for key[oa], ca in rows_a:
                    for key[ob], cb in rows_b:
                        k = tuple(key)
                        out[k] = out.get(k, 0) + s * ca * cb
    return {k: v for k, v in out.items() if v}, met


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bracket3_matches_bracket_basis_loop(n):
    alg, rng = build_sl(n), random.Random(n)
    coeffs = [-3, -1, 1, 2, 5, Fraction(1, 2), Fraction(-4, 3)]
    for _ in range(8):
        ta, tb = ({(rng.randrange(alg.dim), rng.randrange(alg.dim)): rng.choice(coeffs)
                   for _ in range(rng.randint(1, 2 * alg.dim))} for _ in range(2))
        for a, b in LEGS:
            got = bracket3(alg, ta, tb, LEGS[a], LEGS[b])
            want = bracket3_loop(alg, ta, tb, LEGS[a], LEGS[b])
            assert got == want and list(got[0]) == list(want[0]), (n, a, b)
