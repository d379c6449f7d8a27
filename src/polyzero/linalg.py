"""Exact dense linear algebra over the package's coefficient fields.

Matrices are lists of row lists whose entries support field arithmetic
through operators (Fraction or RatFunc).  Pivoting always selects the
first usable row, keeping every result deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError


def mat_det(rows: Sequence[Sequence], field):
    """Determinant by fraction-free-enough Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant of a non-square matrix")
    a = [list(r) for r in rows]
    det = field.one()
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not field.is_zero(a[r][col]):
                piv = r
                break
        if piv is None:
            return field.zero()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = field.one() / a[col][col]
        for r in range(col + 1, n):
            if field.is_zero(a[r][col]):
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def mat_inverse(rows: Sequence[Sequence], field) -> list[list] | None:
    """Inverse matrix, or None if singular (Gauss-Jordan)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("inverse of a non-square matrix")
    a = [list(r) + [field.one() if i == j else field.zero() for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not field.is_zero(a[r][col]):
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = field.one() / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r == col or field.is_zero(a[r][col]):
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def kernel_basis(rows: Sequence[Sequence], ncols: int, field) -> list[list]:
    """Basis of the right kernel of the matrix, deterministic RREF form.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so callers get a canonical generating set.
    """
    a = [list(r) for r in rows]
    for r in a:
        if len(r) != ncols:
            raise DimensionError("ragged matrix")
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(a)):
            if not field.is_zero(a[r][col]):
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = field.one() / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r == row or field.is_zero(a[r][col]):
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][free]
        basis.append(vec)
    return basis

