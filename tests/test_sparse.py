from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbforge.sparse import RowSpan, Sparse, gauss_solve, poly_mul

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
vectors = st.dictionaries(st.integers(min_value=0, max_value=6), fracs, max_size=5)


def test_zero_values_are_dropped():
    s = Sparse({0: Fraction(1), 1: Fraction(0)})
    assert 1 not in s
    s.iadd(0, -1)
    assert s.is_zero()


@given(vectors, vectors)
def test_addition_matches_dict_sum(a, b):
    total = Sparse(a) + Sparse(b)
    for k in set(a) | set(b):
        assert total.get(k, 0) == Fraction(a.get(k, 0)) + Fraction(b.get(k, 0))


@given(vectors, fracs)
def test_scaling_distributes(a, c):
    s = Sparse(a)
    assert c * s + s == (c + 1) * s


def test_poly_mul_univariate():
    p = Sparse({0: Fraction(1), 1: Fraction(1)})  # 1 + u
    q = Sparse({0: Fraction(1), 1: Fraction(-1)})  # 1 - u
    assert poly_mul(p, q) == Sparse({0: Fraction(1), 2: Fraction(-1)})


def test_poly_mul_tuple_keys():
    p = Sparse({(1, 0): Fraction(2)})
    q = Sparse({(0, 1): Fraction(3)})
    assert poly_mul(p, q) == Sparse({(1, 1): Fraction(6)})


def test_gauss_solve_unique():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    b = [[Fraction(3)], [Fraction(0)]]
    x = gauss_solve(a, b)
    assert x == [[Fraction(1)], [Fraction(1)]]


def test_gauss_solve_inconsistent():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    b = [[Fraction(1)], [Fraction(3)]]
    assert gauss_solve(a, b) is None


def test_gauss_solve_underdetermined_raises():
    a = [[Fraction(1), Fraction(1)]]
    b = [[Fraction(1)]]
    with pytest.raises(ValueError):
        gauss_solve(a, b)


def test_row_span_dim_is_rank():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]
    span = RowSpan()
    for row in rows:
        span.add(Sparse(enumerate(row)))
    assert span.dim == 2


@given(st.lists(vectors, max_size=8))
def test_row_span_rows_stay_fully_reduced(vecs):
    span = RowSpan()
    for vec in vecs:
        span.add(Sparse(vec))
        for piv, row in span.rows.items():
            assert row[piv] == 1
            assert all(other not in row for other in span.rows if other != piv)


# cheaper to draw than ``fracs``, which matters for whole matrices
entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def full_rank_systems(draw):
    """(A, X): A is m x n of full column rank, X is n x t.

    A is a row-shuffled [U; R], U upper triangular with a nonzero diagonal,
    times a unit lower-triangular L, so rank(A) = n by construction.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = n + draw(st.integers(min_value=0, max_value=3))
    t = draw(st.integers(min_value=1, max_value=3))

    def matrix(rows, cols):
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return [flat[i * cols:(i + 1) * cols] for i in range(rows)]

    diag = draw(st.lists(entries.filter(bool), min_size=n, max_size=n))
    u = [[x if j > i else Fraction(0) for j, x in enumerate(row)]
         for i, row in enumerate(matrix(n, n))]
    low = [[x if j < i else Fraction(0) for j, x in enumerate(row)]
           for i, row in enumerate(matrix(n, n))]
    for i in range(n):
        u[i][i] = diag[i]
        low[i][i] = Fraction(1)
    stacked = draw(st.permutations(u + matrix(m - n, n)))
    return _matmul(stacked, low), matrix(n, t)


def _matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(full_rank_systems())
def test_gauss_solve_recovers_full_rank_solutions(system):
    a, x = system
    b = _matmul(a, x)
    sol = gauss_solve(a, b)
    assert sol == x
    assert _matmul(a, sol) == b


def test_row_span_membership():
    span = RowSpan()
    assert span.add(Sparse({0: 1, 1: 2}))
    assert span.add(Sparse({1: 1}))
    assert not span.add(Sparse({0: 2, 1: 1}))
    assert span.contains(Sparse({0: -3, 1: 5}))
    assert not span.contains(Sparse({2: 1}))
    assert span.dim == 2
