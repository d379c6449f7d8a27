"""Exact dense linear algebra over the package's coefficient fields.

Matrices are lists of row lists of field elements, combined through
``+ - *`` and divided through ``field.div``.  Every routine is a thin
caller of one Gauss-Jordan elimination, whose pivoting always selects
the first usable row, keeping every result deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError


def _gauss_jordan(rows: Sequence[Sequence], ncols: int, field):
    """Reduced row echelon form, pivoting in the first ncols columns.

    Returns the reduced rows, the pivot columns, and the determinant
    factor: the product of the pivots, negated once per row swap (the
    determinant when the matrix is square and every column has a pivot).
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    det = field.one()
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a))
                    if not field.is_zero(a[r][col])), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            det = -det
        det = det * a[row][col]
        inv = field.div(field.one(), a[row][col])
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r == row or field.is_zero(a[r][col]):
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots, det


def mat_det(rows: Sequence[Sequence], field):
    """Determinant by Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant of a non-square matrix")
    _, pivots, det = _gauss_jordan(rows, n, field)
    return det if len(pivots) == n else field.zero()


def mat_inverse(rows: Sequence[Sequence], field) -> list[list] | None:
    """Inverse matrix, or None if singular (Gauss-Jordan on [A | I])."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("inverse of a non-square matrix")
    a, pivots, _ = _gauss_jordan(
        [list(r) + [field.one() if i == j else field.zero() for j in range(n)]
         for i, r in enumerate(rows)], n, field)
    if len(pivots) < n:
        return None
    return [row[n:] for row in a]


def kernel_basis(rows: Sequence[Sequence], ncols: int, field) -> list[list]:
    """Basis of the right kernel of the matrix, deterministic RREF form.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so callers get a canonical generating set.
    """
    if any(len(r) != ncols for r in rows):
        raise DimensionError("ragged matrix")
    a, pivots, _ = _gauss_jordan(rows, ncols, field)
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
