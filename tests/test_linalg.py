from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylbox import linalg


def _primitive(row):
    """A row of ints, bools and Fractions as a primitive integer row."""
    row = [F(x) for x in row]
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def dense_echelon(rows, ncols):
    """The dense elimination that ``linalg.echelon`` replaced, kept as its
    reference: every column scans every remaining row for the smallest
    pivot, then clears the column below and above it."""
    work = [_primitive(r) for r in rows]
    work = [r for r in work if any(r)]
    reduced, pivots = [], []
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
                r = _primitive([p * a - r[col] * b for a, b in zip(r, pivot_row)])
            if any(r):
                nxt.append(r)
        work = nxt
        for i, r in enumerate(reduced):
            if r[col] != 0:
                reduced[i] = _primitive(
                    [p * a - r[col] * b for a, b in zip(r, pivot_row)])
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return reduced, pivots


def dense_nullspace(rows, ncols):
    """``linalg.nullspace``'s formula on the reference echelon form."""
    reduced, pivots = dense_echelon(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = F(-row[fc], row[pc])
        basis.append(tuple(vec))
    return basis


def fraction_det(A):
    """The Fraction elimination that Bareiss' determinant replaced."""
    n = len(A)
    rows = [[F(x) for x in r] for r in A]
    sign, result = 1, F(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return F(0)
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


def dense(row, ncols):
    return [row.get(j, 0) for j in range(ncols)] if isinstance(row, dict) \
        else list(row)


@st.composite
def int_matrices(draw):
    """Small integer matrices with some bool entries and some zero rows."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-6, 6), st.booleans())
    row = st.one_of(st.lists(entry, min_size=ncols, max_size=ncols),
                    st.just([0] * ncols))
    return draw(st.lists(row, max_size=6)), ncols


@st.composite
def sparse_systems(draw):
    """Mostly-zero matrices of ints, bools or Fractions, small, tall (up to
    40 x 6) or wide (up to 4 x 30), with repeated, negated, scaled and zero
    rows mixed in, and some rows given as {col: value} dicts."""
    nrows, ncols = draw(st.sampled_from([(6, 6), (40, 6), (4, 30)]))
    ncols = draw(st.integers(1, ncols))
    value = draw(st.sampled_from([
        st.integers(-6, 6),
        st.booleans(),
        st.fractions(min_value=-6, max_value=6, max_denominator=6)]))
    entry = st.one_of(st.just(0), value)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=nrows))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=6)):
            scale = draw(st.sampled_from([1, -1, 2, -3, F(1, 2)]))
            rows.append([scale * x for x in rows[i]])
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    as_dict = draw(st.lists(st.booleans(), min_size=len(rows),
                            max_size=len(rows)))
    return [{j: x for j, x in enumerate(row) if x or j % 2} if d else row
            for row, d in zip(rows, as_dict)], ncols


@st.composite
def square_matrices(draw):
    """Square matrices up to 5 x 5 of ints, bools or Fractions, some with
    zero pivots that need a row swap."""
    n = draw(st.integers(0, 5))
    value = draw(st.sampled_from([
        st.integers(-9, 9),
        st.booleans(),
        st.fractions(min_value=-9, max_value=9, max_denominator=7)]))
    entry = st.one_of(st.just(0), value)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))


class TestIntegerRowsMatchFractionRows:
    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_echelon_rank_nullspace(self, drawn):
        rows, ncols = drawn
        fracs = [[F(x) for x in row] for row in rows]
        reduced, pivots = linalg.echelon(rows, ncols)
        assert (reduced, pivots) == linalg.echelon(fracs, ncols)
        assert all(type(v) is int for row in reduced for v in row)
        assert linalg.rank(rows, ncols) == linalg.rank(fracs, ncols)
        assert linalg.nullspace(rows, ncols) == linalg.nullspace(fracs, ncols)

    @pytest.mark.parametrize("row,expected", [
        ([2, 4, -6], [1, 2, -3]),
        ([3, 5], [3, 5]),
        ([True, False, True], [1, 0, 1]),
        ([F(1, 2), F(1, 3), F(1)], [3, 2, 6]),
        ([F(4), F(-6)], [2, -3]),
        ([True, F(1, 2), 3], [2, 1, 6]),
        ([6, F(3, 2), True], [12, 3, 2]),
        ([0, 0, 0], [0, 0, 0]),
        ([F(0), False], [0, 0]),
    ])
    def test_primitive_int_row(self, row, expected):
        got = linalg._primitive_int_row(row)
        assert got == expected == _primitive(row)
        assert all(type(v) is int for v in got)

    def test_primitive_rows(self):
        assert linalg.echelon([[2, 4, 6], [0, 0, 0]], 3) == ([[1, 2, 3]], [0])
        assert linalg.echelon([[F(1, 2), F(1)], [True, False]], 2) == \
            linalg.echelon([[1, 2], [1, 0]], 2)


class TestSparseEchelonMatchesDense:
    @given(sparse_systems())
    @settings(max_examples=200, deadline=None)
    def test_against_the_dense_reference(self, drawn):
        rows, ncols = drawn
        dense_rows = [dense(row, ncols) for row in rows]
        reduced, pivots = linalg.echelon(rows, ncols)
        ref_reduced, ref_pivots = dense_echelon(dense_rows, ncols)
        assert pivots == ref_pivots
        for row, ref in zip(reduced, ref_reduced, strict=True):
            assert row == ref or row == [-x for x in ref]
        for row, pc in zip(reduced, pivots):
            assert len(row) == ncols and all(type(x) is int for x in row)
            assert gcd(*row) == 1 and row[pc] > 0
            assert all(row[other] == 0 for other in pivots if other != pc)
        assert linalg.rank(rows, ncols) == len(ref_pivots)
        assert linalg.nullspace(rows, ncols) == dense_nullspace(dense_rows, ncols)

    def test_duplicates_and_negations_are_one_row(self):
        rows = [[0, 2, -4], {1: -1, 2: 2}, [0, -3, 6], [0, 0, 0], {}]
        assert linalg.echelon(rows, 3) == ([[0, 1, -2]], [1])

    def test_earlier_pivot_rows_insert_unchanged(self):
        reduced, pivots = linalg.echelon([[2, 1, 0, 3], [1, 1, 1, 1]], 4)
        assert linalg.echelon(reduced, 4) == (reduced, pivots)
        assert linalg.echelon(reduced + [[0, 0, 1, 5]], 4) == \
            linalg.echelon([[2, 1, 0, 3], [1, 1, 1, 1], [0, 0, 1, 5]], 4)


class TestBareissDeterminant:
    @given(square_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_elimination(self, A):
        d = linalg.det(A)
        assert type(d) is F and d == fraction_det(A)

    def test_zero_pivot_swaps(self):
        assert linalg.det([[0, 1], [1, 0]]) == -1
        assert linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert linalg.det([[0, 1], [0, 2]]) == 0
        assert linalg.det([]) == 1

    def test_fraction_rows_are_scaled_back(self):
        assert linalg.det([[F(1, 2), 1], [1, F(1, 3)]]) == F(-5, 6)
