from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from weylbox import linalg


@st.composite
def int_matrices(draw):
    """Small integer matrices with some bool entries and some zero rows."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-6, 6), st.booleans())
    row = st.one_of(st.lists(entry, min_size=ncols, max_size=ncols),
                    st.just([0] * ncols))
    return draw(st.lists(row, max_size=6)), ncols


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

    def test_primitive_rows(self):
        assert linalg.echelon([[2, 4, 6], [0, 0, 0]], 3) == ([[1, 2, 3]], [0])
        assert linalg.echelon([[F(1, 2), F(1)], [True, False]], 2) == \
            linalg.echelon([[1, 2], [1, 0]], 2)
