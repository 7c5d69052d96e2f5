"""Exact rational linear algebra.

One echelon routine, sparse and online: every row is scaled to a primitive
integer row over its nonzeros ({col: int}), rows equal up to sign are taken
once, and each new row is reduced against the pivot rows found so far on
the columns where it is nonzero only. What is left becomes a pivot row at
its least column, with a positive pivot, and that column is cleared from
the other pivot rows, so the pivot rows stay in reduced form throughout.
Determinants use Bareiss' fraction-free elimination (Math. Comp. 22, 1968),
whose every division is exact. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row) -> tuple[list[int], int]:
    """A row of ints (bools included) and Fractions as (ints, den): den is
    the lcm of the denominators and ints the integers den * row."""
    if all(type(x) is int for x in row):
        return list(row), 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive_int_row(row) -> list[int]:
    """Scale a row of ints (bools included) and Fractions to a primitive
    integer row (gcd 1, or all zero)."""
    try:
        g = gcd(*row)
    except TypeError:  # Fractions: clear the denominators first
        row = clear_denominators(row)[0]
        g = gcd(*row)
    return [v // g for v in row] if g > 1 else [+v for v in row]  # +bool is int


def _sparse_row(row) -> dict[int, int]:
    """A dense row or a {col: value} row as a primitive integer {col: int}
    over its nonzeros, its least column positive (empty for a zero row)."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    r = {j: +v for j, v in items if v}  # unary plus makes a bool an int
    if not r:
        return r
    try:
        g = gcd(*r.values())
    except TypeError:  # Fractions: clear the denominators first
        r = dict(zip(r, clear_denominators(r.values())[0]))
        g = gcd(*r.values())
    if r[min(r)] < 0:
        g = -g
    return r if g == 1 else {j: v // g for j, v in r.items()}


def _eliminate(r: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """p * r - r[col] * prow over the lowest terms of p = prow[col] > 0 and
    r[col], which clears col from r; not made primitive, and r itself is
    updated when p is 1."""
    p, a = prow[col], r[col]
    if p != 1:
        g = gcd(p, a)
        p, a = p // g, a // g
        r = {j: p * v for j, v in r.items()}
    for j, v in prow.items():
        w = r.get(j, 0) - a * v
        if w:
            r[j] = w
        else:
            del r[j]
    return r


def _primitive(r: dict[int, int]) -> dict[int, int]:
    """r divided by the gcd of its values; the signs are kept."""
    g = gcd(*r.values())
    return r if g == 1 else {j: v // g for j, v in r.items()}


def echelon(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers, with pivot columns.

    rows are dense sequences (ints, bools, Fractions) or {col: value} dicts.
    Returns (reduced_rows, pivot_cols) with pivot_cols increasing;
    reduced_rows[i] is a dense primitive integer row with a positive pivot
    in pivot_cols[i] and zeros in every other pivot column. Rows already in
    that form (pivot rows of an earlier call) insert without elimination.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    seen = set()
    for row in rows:
        r = _sparse_row(row)
        if not r:
            continue
        key = frozenset(r.items())
        if key in seen:
            continue
        seen.add(key)
        hits = pivot_rows.keys() & r.keys()
        if hits:
            for col in hits:
                r = _eliminate(r, pivot_rows[col], col)
            if not r:
                continue
            r = _sparse_row(r)
        lead = min(r)
        for pc, prow in pivot_rows.items():
            if lead in prow:
                pivot_rows[pc] = _primitive(_eliminate(prow, r, lead))
        pivot_rows[lead] = r
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    reduced = []
    for pc in pivots:
        row = [0] * ncols
        for j, v in pivot_rows[pc].items():
            row[j] = v
        reduced.append(row)
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
    """Determinant by Bareiss' fraction-free elimination: step k replaces
    every entry below and right of the pivot by the 2 x 2 minor with the
    pivot divided by the previous pivot, a division that is always exact,
    so integer input stays integer. Each row of Fractions is first scaled by
    the lcm of its denominators, which the result divides back out."""
    rows, scale = [], 1
    for r in A:
        ints, den = clear_denominators(r)
        rows.append(ints)
        scale *= den
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            rows[i] = [0] * (k + 1) + [(p * row[j] - f * pivot_row[j]) // prev
                                       for j in range(k + 1, n)]
        prev = p
    return Fraction(sign * rows[-1][-1] if n else 1, scale)
