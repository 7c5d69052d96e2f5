"""Exact symmetric-polynomial calculus.

Schur polynomials are built from their Kostka numbers, the m-basis
coefficients of their semistandard-tableau content generating functions.
Products and plethysms are evaluated only at the dominant monomials x^lam
(lam a partition), the ones a Schur expansion reads: a product coefficient
is the convolution of the factors' m-coefficients over the ways to split
lam, and a plethysm coefficient comes from literal substitution of the
monomials of the inner polynomial into the outer one, organized by target
monomial. Nothing here knows about Littlewood-Richardson or plethysm rules:
this module is the brute-force oracle the rest of the toolkit is checked
against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .config import DEFAULT, BudgetError
from .partitions import Partition, kostka, partitions_of, weak_compositions


class NonHomogeneousError(ValueError):
    """Schur expansion requires a homogeneous input."""


def _sort(expo) -> tuple[int, ...]:
    """The partition of an exponent vector's nonzero entries, as a plain
    tuple (equal to, and hashed like, the Partition it names)."""
    return tuple(sorted((e for e in expo if e), reverse=True))


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

    @property
    def degree(self) -> int | None:
        """Homogeneous degree, or None for the zero polynomial."""
        sizes = {k.size for k in self.terms}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise NonHomogeneousError(f"mixed degrees {sorted(sizes)}")
        return sizes.pop()

    def is_homogeneous(self) -> bool:
        return len({k.size for k in self.terms}) <= 1

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymPoly") -> "SymPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return SymPoly(self.num_vars, terms)

    def scale(self, c) -> "SymPoly":
        return SymPoly(self.num_vars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        """Product in the m basis, computed only at dominant monomials:
        [x^lam](f g) = sum over c <= lam of f_{sort c} g_{sort(lam - c)}."""
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")
        f, g = self.terms, other.terms
        acc: dict[Partition, object] = {}
        for d1 in {k.size for k in f}:
            for d2 in {k.size for k in g}:
                for lam in partitions_of(d1 + d2, max_length=self.num_vars):
                    total = acc.get(lam, 0)
                    for c in weak_compositions(d1, lam):
                        a = f.get(_sort(c))
                        if a:
                            b = g.get(_sort([x - y for x, y in zip(lam, c)]))
                            if b:
                                total += a * b
                    acc[lam] = total
        return SymPoly(self.num_vars, acc)


@lru_cache(maxsize=None)
def schur(lam: Partition, N: int) -> SymPoly:
    """Schur polynomial s_lam(x_1..x_N) as its SSYT content generating
    function: the m_mu coefficient is the Kostka number K_{lam,mu}."""
    lam = Partition(lam)
    if len(lam) > N:
        return SymPoly(N, {})
    terms = {}
    for mu in partitions_of(lam.size, max_length=max(N, 1)):
        k = kostka(lam, tuple(mu)) if lam else 1
        if k:
            terms[mu] = k
    if not lam:
        terms = {Partition(): 1}
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
        if coeff == 0:
            continue
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


def product_expand(alpha: Partition, beta: Partition) -> dict[Partition, int]:
    """Littlewood-Richardson coefficients c^lam_{alpha,beta} as the Schur
    expansion of s_alpha * s_beta, computed in len(alpha)+len(beta)
    variables: enough to determine every coefficient, since c^lam_{alpha,beta}
    vanishes when lam is longer."""
    alpha, beta = Partition(alpha), Partition(beta)
    N = len(alpha) + len(beta)
    prod = schur(alpha, N) * schur(beta, N)
    return {k: int(v) for k, v in schur_expand(prod).items()}


def plethysm_expand(pi: Partition, mu: Partition,
                    degree_cap: int | None = None) -> dict[Partition, int]:
    """Plethysm constants a^lam_{pi,mu} by monomial substitution.

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
