"""Exact linear algebra: determinant, inverse and kernel against
independent definitions, over QQ and over Q(params)."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.errors import DimensionError
from polyzero.linalg import kernel_basis, mat_det, mat_inverse
from polyzero.poly import QQ, FractionField, ordinary_ring

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _matrices(min_rows=0, max_rows=4, min_cols=0, max_cols=4):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(st.lists(_entries, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(
                lambda rows: (rows, c))))


def _square_matrices(max_n=4):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _cofactor_det(a):
    if not a:
        return Fraction(1)
    return sum((-1) ** j * a[0][j] *
               _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def _rank(rows, ncols):
    """Size of the largest nonvanishing minor."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if _cofactor_det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _product(a, b, field):
    return [[sum((x * y for x, y in zip(row, col)), field.zero())
             for col in zip(*b)] for row in a]


def _identity(n, field):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
def test_det_agrees_with_cofactor_expansion(a):
    assert mat_det(a, QQ) == _cofactor_det(a)


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
def test_inverse_is_none_exactly_when_singular(a):
    inv = mat_inverse(a, QQ)
    if _cofactor_det(a) == 0:
        assert inv is None
    else:
        assert _product(inv, a, QQ) == _identity(len(a), QQ)
        assert _product(a, inv, QQ) == _identity(len(a), QQ)


@settings(max_examples=150, deadline=None)
@given(_matrices(max_rows=3, max_cols=4))
def test_kernel_basis_is_annihilated_full_and_rref(case):
    rows, ncols = case
    basis = kernel_basis(rows, ncols, QQ)
    assert len(basis) == ncols - _rank(rows, ncols)
    for vec in basis:
        assert len(vec) == ncols
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows)
    # RREF shape: vector i is 1 at its own free column, 0 at the others
    free = [next(j for j in reversed(range(ncols)) if vec[j] != 0)
            for vec in basis]
    assert free == sorted(set(free))
    for i, vec in enumerate(basis):
        assert [vec[j] for j in free] == [int(i == k)
                                          for k in range(len(free))]


def test_rational_function_matrices():
    pring = ordinary_ring(["p"])
    field = FractionField(pring)
    p = field.coerce(pring.var("p"))
    one, zero = field.one(), field.zero()
    a = [[p, one], [one, p]]
    assert mat_det(a, field) == p * p - one
    inv = mat_inverse(a, field)
    assert _product(inv, a, field) == _identity(2, field)
    assert mat_inverse([[p, p * p], [one, p]], field) is None
    (vec,) = kernel_basis([[p, p * p], [one, p]], 2, field)
    assert vec[0] == -p and vec[1] == one
    assert kernel_basis([[zero, zero]], 2, field) == _identity(2, field)


def test_empty_and_non_square_matrices():
    assert mat_det([], QQ) == 1
    assert mat_inverse([], QQ) == []
    assert kernel_basis([], 0, QQ) == []
    assert kernel_basis([], 2, QQ) == _identity(2, QQ)
    assert kernel_basis([[1, 2, 3]], 3, QQ) == [[-2, 1, 0], [-3, 0, 1]]
    with pytest.raises(DimensionError):
        mat_det([[1, 2]], QQ)
    with pytest.raises(DimensionError):
        mat_inverse([[1, 2], [3]], QQ)
    with pytest.raises(DimensionError):
        kernel_basis([[1, 2], [3]], 2, QQ)
