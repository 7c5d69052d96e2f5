import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylbox import symfunc
from weylbox.config import DEFAULT, BudgetError
from weylbox.lr import LRQuery, lr_coefficient
from weylbox.partitions import (Partition, dim_weyl, iter_ssyt, kostka,
                                partitions_of, weak_compositions)
from weylbox.symfunc import (NonHomogeneousError, SymPoly, _alphabet,
                             _m_table, _sort, _ways, plethysm_expand,
                             product_expand, schur, schur_expand)

P = Partition

small_partition = st.integers(0, 4).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n)) or [P()]))


class TestSchur:
    def test_elementary(self):
        assert dict(schur(P((1, 1)), 2).terms) == {P((1, 1)): 1}

    def test_sym2(self):
        assert dict(schur(P((2,)), 2).terms) == {P((2,)): 1, P((1, 1)): 1}

    def test_too_long_column(self):
        assert schur(P((1, 1, 1)), 2).is_zero()

    def test_empty(self):
        assert dict(schur(P(), 3).terms) == {P(): 1}


class TestSchurExpand:
    def test_monomial(self):
        assert schur_expand(SymPoly(2, {P((1, 1)): 1})) == {P((1, 1)): 1}

    def test_resolves_to_schur(self):
        f = SymPoly(2, {P((2,)): 1, P((1, 1)): 1})
        assert schur_expand(f) == {P((2,)): 1}

    def test_zero(self):
        assert schur_expand(SymPoly(3, {})) == {}

    def test_nonhomogeneous_rejected(self):
        f = SymPoly(3, {P((2,)): 1, P((1,)): 1})
        with pytest.raises(NonHomogeneousError):
            schur_expand(f)

    @given(small_partition, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, lam, N):
        if len(lam) > N:
            assert schur(lam, N).is_zero()
        else:
            assert schur_expand(schur(lam, N)) == {lam: 1}


class TestProduct:
    def test_s1_squared(self):
        assert product_expand(P((1,)), P((1,))) == {P((2,)): 1, P((1, 1)): 1}

    def test_s21_squared(self):
        expected = {P((4, 2)): 1, P((4, 1, 1)): 1, P((3, 3)): 1,
                    P((3, 2, 1)): 2, P((3, 1, 1, 1)): 1, P((2, 2, 2)): 1,
                    P((2, 2, 1, 1)): 1}
        assert product_expand(P((2, 1)), P((2, 1))) == expected

    def test_unit(self):
        assert product_expand(P((3, 1)), P()) == {P((3, 1)): 1}
        assert product_expand(P(), P()) == {P(): 1}

    @given(small_partition, small_partition)
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, a, b):
        assert product_expand(a, b) == product_expand(b, a)

    @given(small_partition, small_partition, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_dimension_identity(self, a, b, n):
        coeffs = product_expand(a, b)
        total = sum(c * dim_weyl(lam, n) for lam, c in coeffs.items())
        assert total == dim_weyl(a, n) * dim_weyl(b, n)

    def test_cap_checked_before_table(self, monkeypatch):
        tables, schurs = _m_table.cache_info(), schur.cache_info()
        with pytest.raises(BudgetError, match="degree 17 exceeds cap 16"):
            product_expand(P((9,)), P((4, 4)))
        assert _m_table.cache_info() == tables
        assert schur.cache_info() == schurs

        def untouchable(*args):
            raise AssertionError("table built past the cap")

        monkeypatch.setattr(symfunc, "_m_table", untouchable)
        with pytest.raises(BudgetError, match="degree 5 exceeds cap 4"):
            product_expand(P((3,)), P((1, 1)),
                           replace(DEFAULT, product_degree_cap=4))

    def test_cap_admits_its_own_degree(self):
        assert product_expand(P((1,)), P((1,)),
                              replace(DEFAULT, product_degree_cap=2)) == \
            {P((2,)): 1, P((1, 1)): 1}

    def test_table_keyed_by_sizes_only(self):
        # the oracle workload's products: 1 <= |alpha|, |beta| <= 4
        shapes = [lam for n in range(1, 5) for lam in partitions_of(n)]
        pairs = [(a, b) for a in shapes for b in shapes]
        assert len(pairs) == 121
        _m_table.cache_clear()
        for a, b in pairs:
            product_expand(a, b)
        sizes = {(a.size, b.size, min(len(a) + len(b), a.size + b.size))
                 for a, b in pairs}
        assert _m_table.cache_info().currsize == len(sizes)


def convolve(f: SymPoly, g: SymPoly) -> SymPoly:
    """Reference: the m-basis product that walks every weak composition
    c <= lam and sorts c and lam - c on every call, the walk the cached
    ``_m_table`` replaced."""
    if f.num_vars != g.num_vars:
        raise ValueError("variable counts differ")
    acc: dict[Partition, object] = {}
    for d1 in {k.size for k in f.terms}:
        for d2 in {k.size for k in g.terms}:
            for lam in partitions_of(d1 + d2, max_length=f.num_vars):
                total = acc.get(lam, 0)
                for c in weak_compositions(d1, lam):
                    a = f.terms.get(_sort(c))
                    if a:
                        b = g.terms.get(_sort([x - y for x, y in zip(lam, c)]))
                        if b:
                            total += a * b
                acc[lam] = total
    return SymPoly(f.num_vars, acc)


coefficient = st.one_of(st.integers(-6, 6),
                        st.fractions(-3, 3, max_denominator=4))


@st.composite
def sympoly(draw, N: int) -> SymPoly:
    """A symmetric polynomial in N variables over up to three consecutive
    degrees, possibly empty."""
    low = draw(st.integers(0, 3))
    keys = [lam for d in range(low, low + 3)
            for lam in partitions_of(d, max_length=N)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    return SymPoly(N, {lam: draw(coefficient) for lam in chosen})


class TestTabulatedProduct:
    @given(st.integers(1, 6).flatmap(lambda N: st.tuples(sympoly(N),
                                                          sympoly(N))))
    @settings(max_examples=60, deadline=None)
    def test_matches_convolution(self, pair):
        f, g = pair
        got, want = (f * g).terms, convolve(f, g).terms
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == \
            [type(v) for v in want.values()]


class TestPlethysm:
    def test_sym2_of_sym2(self):
        assert plethysm_expand(P((2,)), P((2,))) == \
            {P((4,)): 1, P((2, 2)): 1}

    def test_wedge2_of_sym2(self):
        assert plethysm_expand(P((1, 1)), P((2,))) == {P((3, 1)): 1}

    def test_identity(self):
        # s_(1)[s_mu] = s_mu and s_pi[s_(1)] = s_pi, to size 8
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert plethysm_expand(P((1,)), lam) == {lam: 1}, lam
                assert plethysm_expand(lam, P((1,))) == {lam: 1}, lam

    def test_empty_shapes(self):
        # s_()[s_mu] = 1 and s_pi[s_()] = s_pi(1): 1 for one row, else 0
        assert plethysm_expand(P(), P((2, 1))) == {P(): 1}
        for n in range(5):
            for pi in partitions_of(n):
                want = {P(): 1} if len(pi) <= 1 else {}
                assert plethysm_expand(pi, P()) == want, pi

    def test_degree_cap(self):
        with pytest.raises(BudgetError, match="cap"):
            plethysm_expand(P((3,)), P((3,)),
                            replace(DEFAULT, plethysm_degree_cap=8))

    def test_cap_checked_before_alphabet(self, monkeypatch):
        alphabets, schurs = _alphabet.cache_info(), schur.cache_info()
        with pytest.raises(BudgetError, match="degree 12 exceeds cap 10"):
            plethysm_expand(P((2,)), P((3, 3)))
        assert _alphabet.cache_info() == alphabets
        assert schur.cache_info() == schurs

        def untouchable(*args):
            raise AssertionError("alphabet built past the cap")

        monkeypatch.setattr(symfunc, "_alphabet", untouchable)
        with pytest.raises(BudgetError, match="degree 12 exceeds cap 11"):
            plethysm_expand(P((2, 1, 1)), P((2, 1)),
                            replace(DEFAULT, plethysm_degree_cap=11))

    def test_sym3_of_sym2(self):
        # classical: Sym^3(Sym^2) = S(6) + S(4,2) + S(2,2,2)
        assert plethysm_expand(P((3,)), P((2,))) == \
            {P((6,)): 1, P((4, 2)): 1, P((2, 2, 2)): 1}

    def test_coefficients_nonnegative(self):
        for pi in partitions_of(3):
            for mu in partitions_of(2):
                assert all(v > 0 for v in plethysm_expand(pi, mu).values())


def copies_plethysm(pi: Partition, mu: Partition,
                    degree_cap: int | None = None) -> dict[Partition, int]:
    """Reference: the copy-per-letter search the grouped alphabet replaced.

    Plethysm constants a^lam_{pi,mu} by monomial substitution.

    The monomials of s_mu (with multiplicity, one per semistandard tableau)
    are listed in N = |pi|*|mu| variables; s_pi is then evaluated with the
    monomial list as its alphabet, at each dominant monomial x^lam by a
    search over the multisets of |pi| letters that sum to lam, and the
    result expanded in the Schur basis.
    """
    pi, mu = Partition(pi), Partition(mu)
    if degree_cap is None:
        degree_cap = DEFAULT.plethysm_degree_cap
    degree = pi.size * mu.size
    if degree > degree_cap:
        raise BudgetError(
            f"plethysm degree {degree} exceeds cap {degree_cap}")
    if not pi:
        return {Partition(): 1}
    N, p = degree, pi.size
    # the alphabet: each monomial x^e of s_mu, repeated K_{mu,e} times; a
    # target lam has lam[t] <= degree // (t + 1), so larger e[t] never fit
    caps = [min(mu.size, degree // (t + 1)) for t in range(N)]
    letters = [e for e in weak_compositions(mu.size, caps)
               for _ in range(kostka(mu, e))]
    # exponent vectors packed one field per variable, with a guard bit on
    # top of each field: e <= rem componentwise iff every guard bit survives
    # ((rem | guard) - e), and rem - e is then a plain subtraction
    width = degree.bit_length() + 1
    guard = sum(1 << (width * t + width - 1) for t in range(N))

    def pack(expo) -> int:
        return sum(v << (width * t) for t, v in enumerate(expo))

    codes = [pack(e) for e in letters]
    last_letters: dict[int, list[int]] = {}
    for i, c in enumerate(codes):
        last_letters.setdefault(c, []).append(i)
    chosen: list[int] = []

    def count(start: int, rem: int) -> int:
        # multisets of p - len(chosen) letters, from index start on, summing
        # to rem; each is weighted by s_pi's m-coefficient K_{pi,m} at its
        # letter multiplicities m
        if len(chosen) == p - 1:
            return sum(kostka(pi, Counter(chosen + [i]).values())
                       for i in last_letters.get(rem, ()) if i >= start)
        total = 0
        guarded = rem | guard
        for i in range(start, len(codes)):
            if (guarded - codes[i]) & guard == guard:
                chosen.append(i)
                total += count(i, rem - codes[i])
                chosen.pop()
        return total

    acc = {lam: count(0, pack(lam)) for lam in partitions_of(degree, max_length=N)}
    poly = SymPoly(N, acc)
    return {k: int(v) for k, v in schur_expand(poly).items()}


def literal_plethysm(pi, mu):
    """Reference s_pi[s_mu]: list the monomials of s_mu in N = |pi||mu|
    variables, one per semistandard tableau, fill every semistandard tableau
    of shape pi with that alphabet, and keep the dominant exponent sums."""
    N = pi.size * mu.size
    alphabet = []
    for rows in iter_ssyt(mu, N):
        expo = [0] * N
        for row in rows:
            for v in row:
                expo[v - 1] += 1
        alphabet.append(expo)
    acc = {}
    for rows in iter_ssyt(pi, len(alphabet)):
        expo = [sum(col) for col in
                zip([0] * N, *(alphabet[v - 1] for row in rows for v in row))]
        if all(expo[t] >= expo[t + 1] for t in range(N - 1)):
            key = Partition(expo)
            acc[key] = acc.get(key, 0) + 1
    return schur_expand(SymPoly(N, acc))


def plethysm_pairs(max_degree):
    """Every (pi, mu) with nonempty shapes and |pi|*|mu| <= max_degree."""
    return [(pi, mu) for a in range(1, max_degree + 1)
            for b in range(1, max_degree // a + 1)
            for pi in partitions_of(a) for mu in partitions_of(b)]


PLETHYSM_PAIRS = plethysm_pairs(6)

partition_up_to_6 = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n, max_length=5)) or [P()]))


class TestAgainstIndependentRoutes:
    @given(partition_up_to_6, partition_up_to_6)
    @settings(max_examples=30, deadline=None)
    def test_product_is_lr_coefficient(self, a, b):
        prod = product_expand(a, b)
        longest = len(a) + len(b)
        assert all(len(lam) <= longest for lam in prod)
        for lam in partitions_of(a.size + b.size, max_length=longest):
            assert prod.get(lam, 0) == lr_coefficient(LRQuery(a, b, lam)), lam

    @given(st.sampled_from(PLETHYSM_PAIRS))
    @settings(max_examples=40, deadline=None)
    def test_plethysm_is_literal_substitution(self, pair):
        assert plethysm_expand(*pair) == literal_plethysm(*pair)

    def test_grouped_alphabet_is_copies_search(self):
        pairs = plethysm_pairs(8)
        assert len(pairs) == 167
        for pi, mu in pairs + [(P((1,)), P((5, 3, 1, 1))), (P((2,)), P((3, 2)))]:
            assert plethysm_expand(pi, mu) == copies_plethysm(pi, mu), (pi, mu)

    def test_ways_counts_weak_compositions(self):
        for j in range(1, 7):
            for m in range(1, 7):
                brute = Counter(_sort(c) for c in weak_compositions(j, [j] * m))
                assert brute == {tuple(rho): _ways(rho, m)
                                 for rho in partitions_of(j, max_length=m)}

    def test_literal_reference(self):
        assert literal_plethysm(P((3,)), P((2,))) == \
            {P((6,)): 1, P((4, 2)): 1, P((2, 2, 2)): 1}


# every pair with |pi||mu| <= 10, recorded from the search before it covered
# the lowest open part first; one JSON line per pair, in plethysm_pairs order
FROZEN = Path(__file__).with_name("plethysm_degree10.jsonl")


class TestPastTheReferences:
    """Plethysms beyond the degrees the two reference routes reach."""

    def test_frozen_answers_to_degree_10(self):
        budgets = replace(DEFAULT, plethysm_degree_cap=10)
        lines = FROZEN.read_text().splitlines()
        pairs = plethysm_pairs(10)
        assert len(lines) == len(pairs) == 348
        for (pi, mu), line in zip(pairs, lines):
            got = plethysm_expand(pi, mu, budgets)
            frozen = json.loads(line)
            assert (P.parse(frozen["pi"]), P.parse(frozen["mu"])) == (pi, mu)
            assert {lam.serialize(): v for lam, v in sorted(got.items())} == \
                frozen["coefficients"], (pi, mu)

    @pytest.mark.parametrize("mu,N", [
        (P((1,)), 8), (P((2,)), 8), (P((2, 1)), 9), (P((3,)), 12),
        (P((2, 2)), 12), (P((3, 1, 1)), 10)])
    def test_alphabet_tables_match_their_definition(self, mu, N):
        width, codes, mults, index, first = _alphabet(mu, N)
        low = (1 << width) - 1
        expos = [[c >> width * t & low for t in range(N)] for c in codes]
        assert expos == sorted(expos, reverse=True)
        assert index == {c: i for i, c in enumerate(codes)}
        assert len(first) == N
        for t, row in enumerate(first):
            assert len(row) == N // (t + 1) + 1
            for v, at in enumerate(row):
                assert at == next((i for i, e in enumerate(expos)
                                   if not any(e[:t]) and e[t] <= v),
                                  len(codes)), (t, v)
