"""Exact rational linear algebra.

Gaussian elimination with partial pivoting on the magnitude of a canonical
integer lift: every row is rescaled to a primitive integer vector before it
is used as a pivot, which keeps intermediate entries small without leaving
exact arithmetic. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive_int_row(row) -> list[int]:
    """Scale a row of ints (bools included) and Fractions to a primitive
    integer row (gcd 1, or all zero)."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def echelon(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over the integers (primitive rows), with pivot columns.

    Returns (reduced_rows, pivot_cols); reduced_rows[i] has its pivot in
    pivot_cols[i] and zeros in every other pivot column.
    """
    work = [_primitive_int_row(r) for r in rows]
    work = [r for r in work if any(r)]
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        best = None
        for i, r in enumerate(work):
            if r[col] != 0 and (best is None or abs(r[col]) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        pivot_row = work.pop(best)
        p = pivot_row[col]
        nxt = []
        for r in work:
            if r[col] != 0:
                f1, f2 = p, r[col]
                r = [f1 * a - f2 * b for a, b in zip(r, pivot_row)]
                g = gcd(*r)
                if g > 1:
                    r = [v // g for v in r]
            if any(r):
                nxt.append(r)
        work = nxt
        # clear this column from earlier pivot rows (back substitution)
        for i, r in enumerate(reduced):
            if r[col] != 0:
                f1, f2 = p, r[col]
                r = [f1 * a - f2 * b for a, b in zip(r, pivot_row)]
                g = gcd(*r)
                if g > 1:
                    r = [v // g for v in r]
                reduced[i] = r
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return reduced, pivots


def rank(rows, ncols: int) -> int:
    return len(echelon(rows, ncols)[1])


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : Rx = 0}, one vector per free column."""
    reduced, pivots = echelon(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(vec))
    return basis


def solve_columns(A_rows, B_rows) -> list[list[Fraction]]:
    """Solve A X = B column by column; A given by rows, B by rows.

    A must have full column rank and every column of B must lie in the column
    span of A, otherwise ValueError is raised. Returns X as a list of rows.
    """
    m = len(A_rows)
    na = len(A_rows[0]) if m else 0
    nb = len(B_rows[0]) if B_rows else 0
    if len(B_rows) != m:
        raise ValueError("row count mismatch")
    aug = [list(a) + list(b) for a, b in zip(A_rows, B_rows)]
    reduced, pivots = echelon(aug, na + nb)
    if any(p >= na for p in pivots):
        raise ValueError("inconsistent system: RHS outside column span")
    if len(pivots) != na:
        raise ValueError("matrix does not have full column rank")
    X = [[Fraction(0)] * nb for _ in range(na)]
    for row, pc in zip(reduced, pivots):
        for j in range(nb):
            if row[na + j]:
                X[pc][j] = Fraction(row[na + j], row[pc])
    return X


def det(A) -> Fraction:
    """Determinant by fraction-free elimination."""
    n = len(A)
    rows = [[Fraction(x) for x in r] for r in A]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        p = rows[col][col]
        result *= p
        for i in range(col + 1, n):
            f = rows[i][col] / p
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return sign * result

