"""Exact symmetric-polynomial calculus.

Schur polynomials are built from their Kostka numbers, the m-basis
coefficients of their semistandard-tableau content generating functions.
Products and plethysms are evaluated only at the dominant monomials x^lam
(lam a partition), the ones a Schur expansion reads: a product coefficient
is the convolution of the factors' m-coefficients over the ways to split
lam, read from a table of the m-basis structure constants that depends only
on the two degrees and the variable count (``_m_table``), and a plethysm
coefficient comes from literal substitution of the monomials of the inner
polynomial into the outer one, organized by target monomial, with equal
monomials grouped into one letter that carries its Kostka multiplicity; the
search covers the lowest variable the target still needs first, and looks
its last pick up. The targets of a degree, each with its packed code, come
from a per-degree table (``_targets``). Both tables are keyed on sizes
only, never on an answer, and ``product_degree_cap`` and
``plethysm_degree_cap`` bound them. Nothing here knows about
Littlewood-Richardson or plethysm rules: this module is the brute-force
oracle the rest of the toolkit is checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from operator import sub
from typing import Mapping

from .config import DEFAULT, BudgetError, Budgets
from .partitions import (Partition, _kostka, kostka, partitions_of,
                         weak_compositions)


class NonHomogeneousError(ValueError):
    """Schur expansion requires a homogeneous input."""


def _sort(expo) -> tuple[int, ...]:
    """The partition of an exponent vector's nonzero entries, as a plain
    tuple (equal to, and hashed like, the Partition it names)."""
    return tuple(sorted(filter(None, expo), reverse=True))


@dataclass(frozen=True)
class SymPoly:
    """A symmetric polynomial in ``num_vars`` variables, stored in the
    monomial-symmetric basis: ``terms[lam]`` is the coefficient of m_lam."""

    num_vars: int
    terms: Mapping[Partition, object]

    def __post_init__(self):
        clean = {}
        for key, coeff in self.terms.items():
            key = Partition(key)
            if coeff == 0:
                continue
            if len(key) > self.num_vars:
                raise ValueError(
                    f"key {key} longer than variable count {self.num_vars}")
            clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def is_homogeneous(self) -> bool:
        return len({k.size for k in self.terms}) <= 1

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        """Product in the m basis, computed only at dominant monomials:
        [x^lam](f g) = sum over c <= lam of f_{sort c} g_{sort(lam - c)}.
        The splits of lam are read, tallied, from ``_m_table`` for each pair
        of degrees in f and g, so a product walks no composition once the
        table for its sizes is built."""
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")
        f, g = self.terms, other.terms
        acc: dict[Partition, object] = {}
        for d1 in {k.size for k in f}:
            for d2 in {k.size for k in g}:
                N = min(self.num_vars, d1 + d2)
                for lam, splits in _m_table(d1, d2, N):
                    total = acc.get(lam, 0)
                    for a, b, mult in splits:
                        x = f.get(a)
                        if x:
                            y = g.get(b)
                            if y:
                                total += mult * x * y
                    acc[lam] = total
        return SymPoly(self.num_vars, acc)


@lru_cache(maxsize=None)
def _m_table(d1: int, d2: int, N: int) -> tuple:
    """The m-basis structure constants m_a * m_b = sum M^lam_{ab} m_lam for
    deg a = d1, deg b = d2 in N variables: for each lam |- d1 + d2 with at
    most N parts, in ``partitions_of`` order, the pair ``(lam, splits)``,
    where ``splits`` holds ``(sort c, sort(lam - c), multiplicity)`` over the
    weak compositions c of d1 with c <= lam, in order of first appearance.
    The key is sizes only, never a factor or an answer; callers pass
    N <= d1 + d2, since longer lam do not exist, so one table serves every
    larger variable count."""
    table = []
    for lam in partitions_of(d1 + d2, max_length=N):
        splits = Counter((_sort(c), _sort(map(sub, lam, c)))
                         for c in weak_compositions(d1, lam))
        table.append((lam, tuple((a, b, m) for (a, b), m in splits.items())))
    return tuple(table)


@lru_cache(maxsize=None)
def schur(lam: Partition, N: int) -> SymPoly:
    """Schur polynomial s_lam(x_1..x_N) as its SSYT content generating
    function: the m_mu coefficient is the Kostka number K_{lam,mu}."""
    lam = Partition(lam)
    if len(lam) > N:
        return SymPoly(N, {})
    terms = {}
    for mu in partitions_of(lam.size, max_length=N):
        k = kostka(lam, tuple(mu))
        if k:
            terms[mu] = k
    return SymPoly(N, terms)


def schur_expand(f: SymPoly) -> dict[Partition, object]:
    """Expand a homogeneous symmetric polynomial in the Schur basis.

    Triangular elimination: repeatedly strip the lexicographically largest
    monomial key, which is dominance-maximal, using s_key = m_key + lower
    terms. Exact rational coefficients pass through unchanged.
    """
    if not f.is_homogeneous():
        raise NonHomogeneousError("cannot Schur-expand a nonhomogeneous polynomial")
    work = dict(f.terms)
    out: dict[Partition, object] = {}
    while work:
        top = max(work)
        coeff = work.pop(top)
        out[top] = coeff
        for key, c in schur(top, f.num_vars).terms.items():
            if key == top:
                continue
            nxt = work.get(key, 0) - coeff * c
            if nxt:
                work[key] = nxt
            else:
                work.pop(key, None)
    return out


def product_expand(alpha: Partition, beta: Partition,
                   budgets: Budgets = DEFAULT) -> dict[Partition, int]:
    """Littlewood-Richardson coefficients c^lam_{alpha,beta} as the Schur
    expansion of s_alpha * s_beta, computed in len(alpha)+len(beta)
    variables: enough to determine every coefficient, since c^lam_{alpha,beta}
    vanishes when lam is longer. The degree cap (``product_degree_cap``) is
    checked before any cached work, so it also bounds ``_m_table``."""
    alpha, beta = Partition(alpha), Partition(beta)
    degree = alpha.size + beta.size
    if degree > budgets.product_degree_cap:
        raise BudgetError(f"product degree {degree} exceeds cap "
                          f"{budgets.product_degree_cap}")
    N = len(alpha) + len(beta)
    prod = schur(alpha, N) * schur(beta, N)
    return {k: int(v) for k, v in schur_expand(prod).items()}


def _pack(expo, width: int) -> int:
    return sum(v << (width * t) for t, v in enumerate(expo))


def _width(N: int) -> int:
    """Bits per variable of a packed exponent vector of degree N: room for
    0..N and one guard bit on top."""
    return N.bit_length() + 1


@lru_cache(maxsize=None)
def _targets(N: int) -> tuple[tuple[Partition, int], ...]:
    """Every lam |- N, in ``partitions_of`` order, with its code packed in
    ``_width(N)`` bits per variable, as ``_alphabet(mu, N)`` packs letters.
    The key is the degree alone, never a factor or an answer."""
    width = _width(N)
    return tuple((lam, _pack(lam, width))
                 for lam in partitions_of(N, max_length=N))


@lru_cache(maxsize=None)
def _alphabet(mu: Partition, N: int) -> tuple:
    """The distinct monomials x^e of s_mu in N variables, packed, as
    ``(width, codes, mults, index, first)``: ``codes[i]`` packs e_i with one
    field of ``width`` bits per variable (variable 0 lowest), ``mults[i]``
    is K_{mu,e_i}, and the codes run in lexicographically decreasing order
    of e_i. Only e[t] <= N // (t + 1) is listed, the most a partition of N
    allows in part t. ``index`` maps each code to its position. The letters
    that are zero in every variable below t form a suffix of ``codes``, in
    decreasing order of e[t]; ``first[t][v]``, for v <= N // (t + 1), is
    the position of the first of them with e[t] <= v, so those with
    a <= e[t] <= v are ``codes[first[t][v]:first[t][a - 1]]`` for a >= 1."""
    caps = [min(mu.size, N // (t + 1)) for t in range(N)]
    kostkas = schur(mu, N).terms
    width = _width(N)
    codes, mults = [], []
    for e in weak_compositions(mu.size, caps):
        m = kostkas.get(_sort(e))
        if m:
            codes.append(_pack(e, width))
            mults.append(m)
    index = {c: i for i, c in enumerate(codes)}
    # each letter's lowest nonzero variable t and -e[t]: these ascend along
    # codes, and first[t][v] is the first letter whose pair is >= (t, -v)
    low, leads = (1 << width) - 1, []
    for c in codes:
        t = ((c & -c).bit_length() - 1) // width
        leads.append((t, -(c >> width * t & low)))
    first = tuple(tuple(bisect_left(leads, (t, -v))
                        for v in range(N // (t + 1) + 1)) for t in range(N))
    return width, tuple(codes), tuple(mults), index, first


def _ways(rho: tuple[int, ...], m: int) -> int:
    """Ways to spread |rho| picks over m identical letters so that the
    nonzero pick counts form rho: m! / ((m - len(rho))! * prod mult!)."""
    denominator = factorial(m - len(rho))
    for c in Counter(rho).values():
        denominator *= factorial(c)
    return factorial(m) // denominator


@lru_cache(maxsize=None)
def _splits(j: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every rho |- j that j picks among m identical letters can form, with
    its ``_ways(rho, m)``."""
    return tuple((tuple(rho), _ways(rho, m))
                 for rho in partitions_of(j, max_length=m))


def plethysm_expand(pi: Partition, mu: Partition,
                    budgets: Budgets = DEFAULT) -> dict[Partition, int]:
    """Plethysm constants a^lam_{pi,mu} by monomial substitution.

    The alphabet is the monomials of s_mu in N = |pi|*|mu| variables, one
    per semistandard tableau; equal monomials x^e form one letter of
    multiplicity K_{mu,e}. s_pi is evaluated with that alphabet at each
    dominant monomial x^lam by a search over the multisets of distinct
    letters, each taken j >= 1 times, whose |pi| picks sum to lam, and the
    result expanded in the Schur basis. The lam and their packed codes come
    from ``_targets(N)``, cached on the degree alone, never on an answer.
    j picks among m equal letters split as rho |- j in ``_ways(rho, m)``
    ways, so a multiset weighs sum of prod _ways * K_{pi, union of the rho},
    each K read from the cached ``_kostka``.

    The search covers the remainder's lowest nonzero variable t first. The
    next letter must be zero below t, with e[t] at most the remainder's and
    at least the remainder's divided by the picks left; those letters are
    one run of the alphabet, read from ``_alphabet``'s ``first`` table. The
    last pick is looked up, never searched: all picks left on one letter,
    or the rest of a letter's picks plus one later letter equal to what
    remains. The degree cap (``plethysm_degree_cap``) is checked before any
    cached work, the target table included.
    """
    pi, mu = Partition(pi), Partition(mu)
    degree = pi.size * mu.size
    if degree > budgets.plethysm_degree_cap:
        raise BudgetError(f"plethysm degree {degree} exceeds cap "
                          f"{budgets.plethysm_degree_cap}")
    if not pi or not mu:
        # s_()[f] = 1, and s_pi[s_()] = s_pi(1) is 1 for one row, else 0
        return {Partition(): 1} if len(pi) <= 1 else {}
    N = degree
    width, codes, mults, index, first = _alphabet(mu, N)
    # a guard bit on top of each field: e <= rem componentwise iff every
    # guard bit survives ((rem | guard) - e), and rem - e is then a plain
    # subtraction
    guard = sum(1 << (width * t + width - 1) for t in range(N))
    low = (1 << width) - 1
    weights: dict[tuple, int] = {}

    def weight(groups: list[tuple[int, int]]) -> int:
        # s_pi's m-coefficient summed over the ways each group of j picks
        # splits among its m equal letters
        key = tuple(sorted(groups))
        w = weights.get(key)
        if w is None:
            w = 0
            for choice in product(*(_splits(j, m) for j, m in key)):
                ways, content = 1, []
                for rho, rho_ways in choice:
                    ways *= rho_ways
                    content.extend(rho)
                # the rho are partitions of the j, which sum to |pi|: the
                # content is valid, so the cached kernel is read directly
                content.sort(reverse=True)
                w += ways * _kostka(pi, tuple(content))
            weights[key] = w
        return w

    def count(start: int, rem: int, left: int,
              groups: list[tuple[int, int]]) -> int:
        # multisets of distinct letters from index start on, with left picks
        # in all, summing to rem (never 0: every letter has size |mu|)
        total = 0
        last = rem // left  # the last group: all left picks on one letter
        i = index.get(last, -1) if last * left == rem else -1
        if i >= start:
            groups.append((left, mults[i]))
            total += weight(groups)
            groups.pop()
        if left == 1:
            return total
        # t is the lowest variable rem still needs: every letter left must be
        # zero below t and have e[t] <= rem[t], and the letter taken first,
        # the one of largest e[t], must cover rem[t] with the left picks
        t = ((rem & -rem).bit_length() - 1) // width
        need = rem >> width * t & low
        lows = first[t]
        for i in range(max(start, lows[need]), lows[(need - 1) // left]):
            code = codes[i]
            r = rem
            for j in range(1, left - 1):
                if ((r | guard) - code) & guard != guard:
                    break
                r -= code
                groups.append((j, mults[i]))
                total += count(i + 1, r, left - j, groups)
                groups.pop()
            else:
                # the last pick: left - 1 copies of letter i and one later
                # letter k. A letter code equal to r - code already fits:
                # two fields of at most N each add without a carry
                k = index.get(r - code, -1)
                if k > i:
                    groups.append((left - 1, mults[i]))
                    groups.append((1, mults[k]))
                    total += weight(groups)
                    del groups[-2:]
        return total

    acc = {lam: count(0, code, pi.size, []) for lam, code in _targets(N)}
    poly = SymPoly(N, acc)
    return {k: int(v) for k, v in schur_expand(poly).items()}
