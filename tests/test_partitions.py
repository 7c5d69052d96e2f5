import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weylbox.partitions import (Partition, Tableau, canonical_tableau,
                                conjugate, count_ssyt, dim_weyl,
                                enumerate_ssyt, is_even, iter_ssyt, kostka,
                                partitions_of, weak_compositions)


def is_semistandard(T):
    """Rows weakly increase and columns strictly increase."""
    rows_ok = all(a <= b for row in T.rows for a, b in zip(row, row[1:]))
    return rows_ok and all(a < b for col in T.columns()
                           for a, b in zip(col, col[1:]))


def naive_ssyt(shape, max_entry):
    """Independent oracle: filter all fillings by the semistandard predicate."""
    shape = tuple(shape)
    cells = [(r, c) for r, w in enumerate(shape) for c in range(w)]
    found = []
    for values in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        grid = {}
        for (r, c), v in zip(cells, values):
            grid[(r, c)] = v
        ok = True
        for (r, c) in cells:
            if c > 0 and grid[(r, c)] < grid[(r, c - 1)]:
                ok = False
            if r > 0 and (r - 1, c) in grid and grid[(r, c)] <= grid[(r - 1, c)]:
                ok = False
        if ok:
            found.append(tuple(tuple(grid[(r, c)] for c in range(w))
                               for r, w in enumerate(shape)))
    return found


partition_strategy = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n)) or [Partition()]))


class TestPartition:
    def test_construction_strips_trailing_zeros(self):
        assert Partition((3, 2, 0, 0)) == Partition((3, 2))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_serialize_roundtrip(self):
        assert Partition((4, 2, 1)).serialize() == "4,2,1"
        assert Partition.parse("4,2,1") == Partition((4, 2, 1))
        assert Partition().serialize() == ""
        assert Partition.parse("") == Partition()

    def test_size_length(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7 and len(lam) == 3


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((4, 3, 1))) == Partition((3, 2, 2, 1))
        assert conjugate(Partition((1,))) == Partition((1,))
        assert conjugate(Partition((5,))) == Partition((1, 1, 1, 1, 1))
        assert conjugate(Partition()) == Partition()

    @given(partition_strategy)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam


def test_is_even():
    assert is_even(Partition((4, 2)))
    assert not is_even(Partition((3, 1)))
    assert is_even(Partition())


class TestSSYT:
    def test_shape_2_max_2(self):
        got = enumerate_ssyt(Partition((2,)), 2)
        assert [t.rows for t in got] == [((1, 1),), ((1, 2),), ((2, 2),)]

    def test_column(self):
        got = enumerate_ssyt(Partition((1, 1)), 2)
        assert len(got) == 1 and got[0].rows == ((1,), (2,))

    def test_too_long_column(self):
        assert enumerate_ssyt(Partition((1, 1, 1)), 2) == []

    def test_all_semistandard_and_order(self):
        got = enumerate_ssyt(Partition((2, 1)), 3)
        assert all(is_semistandard(t) for t in got)
        readings = [tuple(e for row in t.rows for e in row) for t in got]
        assert readings == sorted(readings)

    @pytest.mark.parametrize("shape,max_entry", [
        ((2,), 2), ((2, 1), 3), ((3, 1), 2), ((2, 2), 3), ((1, 1, 1), 3)])
    def test_against_naive_oracle(self, shape, max_entry):
        got = {t.rows for t in enumerate_ssyt(Partition(shape), max_entry)}
        assert got == set(naive_ssyt(shape, max_entry))


@st.composite
def shape_and_content(draw):
    """A partition of at most 6 and a weak composition of its size into
    1..5 parts, cut by stars and bars."""
    lam = draw(partition_strategy.filter(lambda lam: lam.size <= 6))
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.lists(st.integers(0, lam.size),
                                min_size=n - 1, max_size=n - 1)))
    content = tuple(b - a for a, b in zip([0] + cuts, cuts + [lam.size]))
    return lam, content


class TestKostka:
    def test_example(self):
        # oracle: two SSYT of shape (2,1) with content (1,1,1)
        assert kostka(Partition((2, 1)), (1, 1, 1)) == 2
        fillings = [t for t in naive_ssyt((2, 1), 3)
                    if sorted(e for row in t for e in row) == [1, 2, 3]]
        assert len(fillings) == 2

    def test_single_row(self):
        assert kostka(Partition((4,)), (2, 1, 1)) == 1
        assert kostka(Partition((4,)), (0, 4)) == 1

    def test_column_repeated_content(self):
        assert kostka(Partition((1, 1)), (2, 0)) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka(Partition((2, 1)), (1, 1))

    @given(shape_and_content())
    @settings(max_examples=60, deadline=None)
    def test_against_enumeration(self, case):
        # strip recursion against counting enumerated tableaux by content
        lam, content = case
        n = len(content)
        expected = sum(1 for rows in iter_ssyt(lam, n)
                       if Tableau(rows).content(n) == content)
        assert kostka(lam, content) == expected


class TestDimWeyl:
    def test_standard(self):
        for n in range(1, 6):
            assert dim_weyl(Partition((1,)), n) == n

    def test_determinant(self):
        assert dim_weyl(Partition((1, 1)), 2) == 1

    def test_sym2(self):
        assert dim_weyl(Partition((2,)), 2) == 3

    def test_too_long(self):
        assert dim_weyl(Partition((1, 1, 1)), 2) == 0

    def test_negative_n_refused(self):
        for lam in [(), (2, 1)]:
            with pytest.raises(ValueError, match="nonnegative"):
                dim_weyl(Partition(lam), -1)
        assert dim_weyl(Partition(()), 0) == 1
        assert dim_weyl(Partition((1,)), 0) == 0

    @given(partition_strategy, st.integers(1, 4))
    def test_kostka_sum(self, lam, n):
        by_content = 0
        for content in itertools.product(range(lam.size + 1), repeat=n):
            if sum(content) == lam.size:
                by_content += kostka(lam, content)
        assert dim_weyl(lam, n) == by_content

    @given(partition_strategy, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_hook_content_is_ssyt_count(self, lam, n):
        assert dim_weyl(lam, n) == count_ssyt(lam, n)

    def test_count_matches_enumeration(self):
        for shape in [(2, 1), (3,), (2, 2), (3, 1)]:
            for n in (2, 3):
                assert count_ssyt(Partition(shape), n) == \
                    len(enumerate_ssyt(Partition(shape), n))


def test_canonical_tableau():
    T = canonical_tableau(Partition((4, 2, 1)))
    assert T.rows == ((1, 1, 1, 1), (2, 2), (3,))
    assert is_semistandard(T)


def test_tableau_content():
    T = Tableau(((1, 1, 2), (2,)))
    assert T.content(3) == (2, 2, 0)
    assert T.shape == Partition((3, 1))


def test_partitions_of_order():
    got = list(partitions_of(4))
    assert got == [Partition((4,)), Partition((3, 1)), Partition((2, 2)),
                   Partition((2, 1, 1)), Partition((1, 1, 1, 1))]
    assert list(partitions_of(4, max_length=2)) == \
        [Partition((4,)), Partition((3, 1)), Partition((2, 2))]


@given(st.integers(-1, 12), st.lists(st.integers(0, 4), max_size=5))
@settings(max_examples=80, deadline=None)
def test_weak_compositions_match_filtered_product(total, caps):
    expected = [c for c in itertools.product(*(range(cap, -1, -1) for cap in caps))
                if sum(c) == total]
    assert list(weak_compositions(total, caps)) == expected
