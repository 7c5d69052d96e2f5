import math
from dataclasses import replace
from itertools import permutations

import pytest

from weylbox import kronecker as kronecker_module
from weylbox.config import DEFAULT, BudgetError
from weylbox.kronecker import (GStretchSeries, _character_row, _class_sizes,
                               class_size, det_stabilizer_invariant_mult,
                               g_stretch, kronecker, sym_character)
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
        assert tuple(partitions_of(3)) == (P((3,)), P((2, 1)), P((1, 1, 1)))
        assert _character_row((2, 1)) == (-1, 0, 2)
        assert _class_sizes(3) == (2, 3, 1)


def class_sum_kronecker(lam, mu, nu):
    """Reference: the class sum over cycle types, one sym_character per
    cell (the per-query loop the cached rows replaced)."""
    n = P(lam).size
    total = 0
    for rho in partitions_of(n):
        total += (class_size(rho) * sym_character(lam, rho)
                  * sym_character(mu, rho) * sym_character(nu, rho))
    value, rem = divmod(total, math.factorial(n))
    assert rem == 0 and value >= 0
    return value


class TestKronecker:
    def test_class_sum_reference(self):
        for n in range(1, 8):
            parts = list(partitions_of(n))
            for a in parts:
                for b in parts:
                    for c in parts:
                        assert kronecker(a, b, c) == \
                            class_sum_kronecker(a, b, c), (a, b, c)

    def test_dimension_identity(self):
        # chi_lam * chi_mu = sum_nu g(lam, mu, nu) chi_nu at the identity
        for n in range(1, 10):
            parts = list(partitions_of(n))
            f = {lam: hook_length_syt_count(lam) for lam in parts}
            for i, a in enumerate(parts):
                for b in parts[i:]:
                    assert f[a] * f[b] == sum(
                        kronecker(a, b, c) * f[c] for c in parts), (a, b)

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
        raised = replace(DEFAULT, char_table_max_n=15)
        assert kronecker(lam, mu, nu, raised) == 0
        with pytest.raises(BudgetError, match="n=6 > 5"):
            det_stabilizer_invariant_mult(
                P((3, 3)), 2, replace(DEFAULT, char_table_max_n=5))

    def test_cap_checked_before_cached_rows(self, monkeypatch):
        # (14,1) x (8,7) holds (8,6,1) once: remove a box, then add one
        lam, mu, nu = P((8, 7)), P((14, 1)), P((8, 6, 1))
        assert kronecker(lam, mu, nu,
                         replace(DEFAULT, char_table_max_n=15)) == 1
        # the rows are cached now, and the default cap still refuses them
        with pytest.raises(BudgetError, match="n=15 > 14"):
            kronecker(lam, mu, nu)

        def untouchable(*args):
            raise AssertionError("character computed past the cap")

        monkeypatch.setattr(kronecker_module, "_mn", untouchable)
        rows, sizes = _character_row.cache_info(), _class_sizes.cache_info()
        with pytest.raises(BudgetError, match="n=16 > 14"):
            kronecker(P((16,)), P((15, 1)), P((9, 7)))
        assert _character_row.cache_info() == rows
        assert _class_sizes.cache_info() == sizes


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
        raised = replace(DEFAULT, char_table_max_n=16)
        assert g_stretch(P((2,)), 2, 8, raised).values == (1,) * 8
