import math
from itertools import permutations

import pytest

from weylbox.config import BudgetError
from weylbox.kronecker import (CharacterTable, GStretchSeries, class_size,
                               det_stabilizer_invariant_mult, g_stretch,
                               kronecker, sym_character)
from weylbox.partitions import Partition, partitions_of

P = Partition


def hook_length_syt_count(lam):
    """Independent oracle for chi_lam(identity): hook length formula."""
    lam = P(lam)
    if not lam:
        return 1
    cols = [sum(1 for p in lam if p > c) for c in range(lam[0])]
    product = 1
    for i, width in enumerate(lam):
        for j in range(width):
            product *= (width - j) + (cols[j] - i) - 1
    return math.factorial(lam.size) // product


class TestCharacters:
    def test_trivial_character(self):
        for n in (2, 3, 4, 5):
            for mu in partitions_of(n):
                assert sym_character(P((n,)), mu) == 1

    def test_sign_character(self):
        assert sym_character(P((1, 1)), P((2,))) == -1
        assert sym_character(P((1, 1, 1)), P((3,))) == 1
        assert sym_character(P((1, 1, 1)), P((2, 1))) == -1

    def test_identity_column_is_syt_count(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert sym_character(lam, P((1,) * n)) == \
                    hook_length_syt_count(lam)

    def test_standard_rep(self):
        assert sym_character(P((2, 1)), P((1, 1, 1))) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sym_character(P((2, 1)), P((2,)))

    def test_row_orthogonality(self):
        for n in range(1, 8):
            parts = list(partitions_of(n))
            for i, a in enumerate(parts):
                for b in parts[i:]:
                    total = sum(class_size(mu) * sym_character(a, mu)
                                * sym_character(b, mu) for mu in parts)
                    assert total == (math.factorial(n) if a == b else 0)

    def test_class_sizes_sum(self):
        for n in range(1, 8):
            assert sum(class_size(mu) for mu in partitions_of(n)) == \
                math.factorial(n)

    def test_table_wrapper(self):
        table = CharacterTable(3)
        assert table.partitions == (P((3,)), P((2, 1)), P((1, 1, 1)))
        assert table.row(P((2, 1))) == (-1, 0, 2)


class TestKronecker:
    def test_pairing_with_trivial(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert kronecker(P((n,)), lam, mu) == (1 if lam == mu else 0)

    def test_sign_squared(self):
        assert kronecker(P((1, 1)), P((1, 1)), P((2,))) == 1

    def test_s3(self):
        assert kronecker(P((2, 1)), P((2, 1)), P((2, 1))) == 1

    def test_symmetric_in_arguments(self):
        for n in (3, 4):
            parts = list(partitions_of(n))
            for a in parts:
                for b in parts:
                    for c in parts:
                        vals = {kronecker(x, y, z)
                                for x, y, z in permutations((a, b, c))}
                        assert len(vals) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kronecker(P((2,)), P((1, 1)), P((3,)))

    def test_table_cap(self):
        lam, mu, nu = P((15,)), P((14, 1)), P((13, 2))
        with pytest.raises(BudgetError, match="n=15 > 14"):
            kronecker(lam, mu, nu)
        assert kronecker(lam, mu, nu, table_cap=15) == 0
        with pytest.raises(BudgetError, match="n=6 > 5"):
            det_stabilizer_invariant_mult(P((3, 3)), 2, table_cap=5)


class TestDetStabilizer:
    def test_indivisible(self):
        assert det_stabilizer_invariant_mult(P((3,)), 2) == 0

    def test_sym2(self):
        assert det_stabilizer_invariant_mult(P((2,)), 2) == 1

    def test_wedge2(self):
        assert det_stabilizer_invariant_mult(P((1, 1)), 2) == 0

    def test_length_overflow(self):
        with pytest.raises(ValueError, match="length"):
            det_stabilizer_invariant_mult(P((1,) * 5), 2)

    def test_positive_needs_divisibility(self):
        for size in range(1, 9):
            for lam in partitions_of(size, max_length=4):
                if size % 2 != 0:
                    assert det_stabilizer_invariant_mult(lam, 2) == 0


class TestGStretch:
    def test_sym2_series(self):
        series = g_stretch(P((2,)), 2, 4)
        assert isinstance(series, GStretchSeries)
        assert series.values == tuple(
            det_stabilizer_invariant_mult(P((2,)).scale(k), 2)
            for k in range(1, 5))

    def test_odd_sizes_vanish(self):
        series = g_stretch(P((1,)), 2, 4)
        assert series.values[0] == 0 and series.values[2] == 0

    def test_larger_shape(self):
        series = g_stretch(P((2, 2)), 2, 3)
        assert len(series.values) == 3
        assert all(v >= 0 for v in series.values)

    def test_budget_names_k(self):
        with pytest.raises(BudgetError, match="k=8"):
            g_stretch(P((2,)), 2, 8)

    def test_raised_cap_reaches_each_coefficient(self):
        assert g_stretch(P((2,)), 2, 8, table_cap=16).values == (1,) * 8
