import pytest
from dataclasses import replace
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from weylbox import lr, polytope
from weylbox.config import DEFAULT, BudgetError
from weylbox.lr import (LRQuery, OracleMismatchError, hive_polytope,
                        lr_coefficient, lr_positive, lr_stretch, _hive_rows,
                        _reduced_hive, _skew_lr_count)
from weylbox.partitions import Partition, partitions_of
from weylbox.polytope import ParamPolytope, _Reduced, count_integer_points
from weylbox.symfunc import product_expand

P = Partition
TIGHT = replace(DEFAULT, hive_side_cap=2)


def q(a, b, lam):
    return LRQuery(P(a), P(b), P(lam))


def reference_hive_rows(q: LRQuery, n: int):
    """The side-n hive rows built rhombus by rhombus, as ``hive_polytope``
    did before the per-side template: the reference the template must
    equal."""
    alpha = q.alpha.padded(n)
    beta = q.beta.padded(n)
    lam = q.lam.padded(n)
    boundary: dict[tuple[int, int, int], int] = {}
    s = 0
    for j in range(n + 1):
        boundary[(0, j, n - j)] = s  # partial sums of alpha
        if j < n:
            s += alpha[j]
    s = q.alpha.size
    for i in range(1, n + 1):
        s += beta[i - 1]
        boundary[(i, n - i, 0)] = s  # |alpha| plus partial sums of beta
    s = 0
    for i in range(1, n + 1):
        s += lam[i - 1]
        boundary[(i, 0, n - i)] = s  # partial sums of lam; corner agrees

    interior = [(i, j, n - i - j) for i in range(1, n - 1)
                for j in range(1, n - i)]
    index = {v: t for t, v in enumerate(interior)}
    T = len(interior)
    tight: dict[tuple[int, ...], int] = {}

    def add_row(*terms: tuple[tuple[int, int, int], int]):
        row = [0] * T
        bound = 0
        for v, coeff in terms:
            t = index.get(v)
            if t is None:
                bound -= coeff * boundary[v]
            else:
                row[t] = coeff
        key = tuple(row)
        if any(key) or bound < 0:
            tight[key] = min(bound, tight.get(key, bound))

    # rhombus concavity, three orientations per inner lattice triangle
    for i in range(n - 1):
        for j in range(n - 1 - i):
            k = n - 2 - i - j
            add_row(((i, j + 2, k), 1), ((i + 1, j, k + 1), 1),
                    ((i + 1, j + 1, k), -1), ((i, j + 1, k + 1), -1))
            add_row(((i + 2, j, k), 1), ((i, j + 1, k + 1), 1),
                    ((i + 1, j + 1, k), -1), ((i + 1, j, k + 1), -1))
            add_row(((i, j, k + 2), 1), ((i + 1, j + 1, k), 1),
                    ((i + 1, j, k + 1), -1), ((i, j + 1, k + 1), -1))

    return list(tight), list(tight.values())


@pytest.fixture
def fresh_hives():
    _reduced_hive.cache_clear()
    yield
    _reduced_hive.cache_clear()


SMALL_PARTS = [p for s in range(4) for p in partitions_of(s, max_length=3)]
SMALL_TRIPLES = [LRQuery(a, b, lam) for a in SMALL_PARTS for b in SMALL_PARTS
                 for lam in partitions_of(a.size + b.size, max_length=3)]


class TestHivePolytope:
    def test_single_point(self):
        assert count_integer_points(hive_polytope(q((1,), (1,), (2,)))) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            hive_polytope(q((1,), (1,), (3,)))

    def test_two_points(self):
        assert count_integer_points(
            hive_polytope(q((2, 1), (2, 1), (3, 2, 1)))) == 2

    def test_dilation_structure(self):
        base = hive_polytope(q((2, 1), (2, 1), (3, 2, 1)))
        scaled = hive_polytope(q((2, 1), (2, 1), (3, 2, 1)).scale(3))
        assert scaled.A == base.A
        assert scaled.b == base.at(3).b

    def test_empty_query(self):
        assert count_integer_points(hive_polytope(q((), (), ()))) == 1

    @pytest.mark.parametrize("k", range(1, 8))
    def test_dilation_identity(self, k):
        # lr_stretch counts the dilations of one hive, which is valid only
        # because the k-scaled query gives the same matrix and k times b
        for query in SMALL_TRIPLES:
            base = hive_polytope(query)
            scaled = hive_polytope(query.scale(k))
            assert scaled.A == base.A, query
            assert scaled.b == base.at(k).b, query

    def test_pairs_to_fixpoint(self):
        # substituting the first round's equalities makes one more +- pair,
        # so the 10 interior vertices reduce to 7 free coordinates, the
        # affine dimension of this hive polytope
        hive = hive_polytope(q((8, 6, 4, 2), (8, 6, 4, 2), (12, 10, 8, 6, 2, 2)))
        assert hive.dim == 10
        assert len(_Reduced(hive.A, hive.b).free) == 7

    def test_side_cap(self):
        with pytest.raises(BudgetError, match="cap"):
            hive_polytope(q((2, 1), (2, 1), (3, 2, 1)), budgets=TIGHT)

    def test_explicit_side(self):
        P4 = ParamPolytope(*_hive_rows(q((1,), (1,), (2,)), 4))
        assert count_integer_points(P4) == 1


@st.composite
def hive_queries(draw):
    """A size-matched triple of length at most n <= 6, lam often not
    containing alpha, and a side between its length and 6."""
    n = draw(st.integers(1, 6))
    a, b = (draw(st.integers(0, 7).flatmap(
        lambda s: st.sampled_from(list(partitions_of(s, max_length=n)))))
        for _ in range(2))
    lam = draw(st.sampled_from(list(partitions_of(a.size + b.size, max_length=n))))
    length = max(len(a), len(b), len(lam), 1)
    return LRQuery(a, b, lam), draw(st.integers(length, 6))


class TestHiveTemplate:
    @given(hive_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_rhombus_builder(self, case):
        query, side = case
        A, b = _hive_rows(query, side)
        assert (A, b) == reference_hive_rows(query, side)
        assert all(type(x) is int for row in A for x in row)
        assert all(type(x) is int for x in b)

    @pytest.mark.parametrize("side", range(1, 7))
    def test_every_side(self, side):
        # contained, not contained, and the empty query, at every side <= 6
        for query in [q((), (), ()), q((1,), (1,), (2,)),
                      q((2, 2), (1,), (3, 1, 1)), q((3, 2), (4, 1), (9, 1))]:
            if side >= max(len(query.alpha), len(query.beta), len(query.lam)):
                assert _hive_rows(query, side) == reference_hive_rows(query, side)

    def test_cap_before_template(self, monkeypatch):
        def untouched(n):
            raise AssertionError("template built for an over-cap query")

        monkeypatch.setattr(lr, "_hive_template", untouched)
        with pytest.raises(BudgetError, match="cap"):
            hive_polytope(q((2, 1), (2, 1), (3, 2, 1)), budgets=TIGHT)


class TestSharedReduction:
    QUERY = q((3, 2, 1), (3, 2, 1), (4, 4, 3, 1))

    def counting_reductions(self, monkeypatch):
        calls = []

        class Counting(lr._Reduced):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(lr, "_Reduced", Counting)
        monkeypatch.setattr(polytope, "_Reduced", Counting)
        return calls

    def test_coefficient_and_positivity_reduce_once(self, monkeypatch, fresh_hives):
        calls = self.counting_reductions(monkeypatch)
        assert lr_coefficient(self.QUERY) == 3
        assert lr_positive(self.QUERY)
        assert len(calls) == 1

    def test_stretch_reduces_once(self, monkeypatch, fresh_hives):
        calls = self.counting_reductions(monkeypatch)
        assert lr_stretch(self.QUERY, 7).values == (3, 6, 10, 15, 21, 28, 36)
        assert len(calls) == 1
        assert lr_coefficient(self.QUERY) == 3
        assert len(calls) == 1

    def test_cap_checked_on_a_cached_query(self, fresh_hives):
        assert lr_coefficient(self.QUERY) == 3
        with pytest.raises(BudgetError, match="cap"):
            lr_coefficient(self.QUERY, TIGHT)
        with pytest.raises(BudgetError, match="cap"):
            lr_positive(self.QUERY, TIGHT)
        with pytest.raises(BudgetError, match="cap"):
            lr_stretch(self.QUERY, 5, TIGHT)

    def test_tableau_rule_always_runs(self, monkeypatch, fresh_hives):
        monkeypatch.setattr(lr, "_skew_lr_count", lambda *args: 99)
        for _ in range(2):
            with pytest.raises(OracleMismatchError):
                lr_coefficient(self.QUERY)

    def test_bounded(self):
        maxsize = _reduced_hive.cache_info().maxsize
        assert maxsize is not None and maxsize <= 16


class TestCoefficient:
    def test_examples(self):
        assert lr_coefficient(q((1,), (1,), (1, 1))) == 1
        assert lr_coefficient(q((2, 1), (2, 1), (3, 2, 1))) == 2

    def test_not_contained(self):
        assert lr_coefficient(q((2, 2), (1,), (3, 1, 1))) == 0
        assert lr_coefficient(q((1, 1, 1), (1,), (4,))) == 0

    def test_budget_before_tableaux(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("tableaux enumerated for an over-cap query")

        monkeypatch.setattr(lr, "_skew_lr_count", enumerated)
        with pytest.raises(BudgetError, match="cap"):
            lr_coefficient(q((2, 1), (2, 1), (3, 2, 1)), TIGHT)

    def test_side_two_zero(self):
        # a side-2 hive has no interior vertex: only its constant rows decide
        assert lr_coefficient(q((3, 2), (4, 1), (9, 1))) == 0

    def test_size_mismatch_is_zero(self):
        assert lr_coefficient(q((1,), (1,), (3,))) == 0

    def test_empty_alpha(self):
        assert lr_coefficient(q((), (2, 1), (2, 1))) == 1
        assert lr_coefficient(q((), (2, 1), (3,))) == 0

    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_schur_product(self, size):
        parts = [p for s in range(size + 1) for p in partitions_of(s, max_length=3)]
        for a in parts:
            for b in parts:
                prod = product_expand(a, b)
                for lam in partitions_of(a.size + b.size, max_length=3):
                    assert lr_coefficient(LRQuery(a, b, lam)) == \
                        prod.get(lam, 0), (a, b, lam)


partition_up_to_6 = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n, max_length=5)) or [P()]))


@st.composite
def lr_queries(draw):
    a = draw(partition_up_to_6)
    b = draw(partition_up_to_6)
    # the dominant weight alpha + beta always has coefficient 1
    dominant = P(tuple(x + y for x, y in zip(a.padded(5), b.padded(5))))
    lam = draw(st.one_of(st.just(dominant), st.sampled_from(
        list(partitions_of(a.size + b.size, max_length=5)) or [P()])))
    return LRQuery(a, b, lam)


class TestRandomQueries:
    @given(lr_queries())
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, query):
        value = lr_coefficient(query)  # raises OracleMismatchError otherwise
        assert lr_positive(query) == (value > 0)
        hive = hive_polytope(query)
        n = max(len(query.alpha), len(query.beta), len(query.lam), 1)
        assert hive.dim == (n - 1) * (n - 2) // 2
        assert all(x.denominator == 1 for row in hive.A for x in row)
        assert all(x.denominator == 1 for x in hive.b)


class TestPositive:
    def test_examples(self):
        assert lr_positive(q((2, 1), (2, 1), (3, 2, 1)))
        assert not lr_positive(q((2,), (2,), (2, 1, 1)))
        assert lr_positive(q((1,), (1,), (2,)))

    def test_size_mismatch(self):
        assert not lr_positive(q((1,), (1,), (3,)))

    def test_no_enumeration_needed(self):
        # large coefficients stay cheap because only feasibility is decided
        assert lr_positive(q((8, 4), (8, 4), (12, 8, 4)))


class TestStretch:
    def test_headline(self):
        series = lr_stretch(q((2, 1), (2, 1), (3, 2, 1)), 5)
        assert series.values == (2, 3, 4, 5, 6)
        assert series.fit.period == 1
        assert [series.fit.eval(k) for k in range(1, 6)] == [2, 3, 4, 5, 6]

    def test_constant(self):
        series = lr_stretch(q((1,), (1,), (2,)), 4)
        assert series.values == (1, 1, 1, 1)
        assert series.fit.degree == 0

    def test_zero_series(self):
        series = lr_stretch(q((2,), (2,), (2, 1, 1)), 4)
        assert series.values == (0, 0, 0, 0)
        assert series.fit.eval(9) == 0

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="K >= 4"):
            lr_stretch(q((1,), (1,), (2,)), 3)

    def test_quadratic(self):
        series = lr_stretch(q((3, 2, 1), (3, 2, 1), (4, 4, 3, 1)), 7)
        assert series.values == (3, 6, 10, 15, 21, 28, 36)
        assert series.fit.degree == 2

    def test_one_hive(self, monkeypatch, fresh_hives):
        calls = []
        build = lr._hive_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(lr, "_hive_rows", counting)
        series = lr_stretch(q((3, 2, 1), (3, 2, 1), (4, 4, 3, 1)), 7)
        assert series.values == (3, 6, 10, 15, 21, 28, 36)
        assert len(calls) == 1


class TestSkewRule:
    def test_independent_of_hive(self):
        # row-insertion-free check of a classical value
        assert _skew_lr_count(P((2,)), P((2,)), P((3, 1))) == 1
        assert _skew_lr_count(P((2,)), P((2,)), P((2, 2))) == 1
        assert _skew_lr_count(P((2,)), P((2,)), P((4,))) == 1
        assert _skew_lr_count(P((2,)), P((2,)), P((2, 1, 1))) == 0

    def test_oracle_mismatch_never_silent(self):
        # same query through both routes; equality enforced inside
        value = lr_coefficient(q((3, 1), (2, 2), (4, 3, 1)))
        assert value == _skew_lr_count(P((3, 1)), P((2, 2)), P((4, 3, 1)))
        assert value == count_integer_points(
            hive_polytope(q((3, 1), (2, 2), (4, 3, 1))))
