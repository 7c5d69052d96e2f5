"""Magic squares, basic permanent-like invariants, and the strongly explicit
obstruction family.

A magic square of weight r (all row and column sums r) names a basic
invariant p_A, the orbit sum of the monomial x^A under row and column
permutations; orbit representatives form a basis of the permanent-stabilizer
invariant ring. The obstruction family emits, for each n, the single-row
even partition (2n): evenness gives an invariant on the permanent side while
the first tensor factor being trivial rules one out on the trace side.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from .config import DEFAULT, BudgetError, Budgets
from .partitions import Partition, is_even, weak_compositions
from .weylmod import (MultiPoly, _grid_relabels, _monomial_kernel,
                      _torus_monomials, perm_stabilizer_invariants)


class ObstructionError(ValueError):
    """A certificate failed verification."""


@dataclass(frozen=True)
class MagicSquare:
    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError(f"entries must form an {self.n}x{self.n} matrix")
        if any(v < 0 for row in self.entries for v in row):
            raise ValueError("entries must be nonnegative")
        sums = {sum(row) for row in self.entries}
        sums |= {sum(self.entries[i][j] for i in range(self.n))
                 for j in range(self.n)}
        if len(sums) != 1:
            raise ValueError("row and column sums must all be equal")

    def canonical_form(self) -> tuple[tuple[int, ...], ...]:
        """Lexicographically minimal matrix in the row/column permutation
        orbit. For a fixed row order the least column order sorts the
        columns, so only the n! row orders need to be tried."""
        return min(tuple(zip(*sorted(zip(*rows))))
                   for rows in itertools.permutations(self.entries))

    def orbit(self) -> set[tuple[tuple[int, ...], ...]]:
        out = set()
        for rp in itertools.permutations(range(self.n)):
            rows = [self.entries[i] for i in rp]
            for cp in itertools.permutations(range(self.n)):
                out.add(tuple(tuple(row[j] for j in cp) for row in rows))
        return out


def magic_orbits(n: int, r: int, budgets: Budgets = DEFAULT
                 ) -> tuple[list[MagicSquare], list[MagicSquare]]:
    """All n x n magic squares of weight r, and one representative per orbit
    under row/column permutations: the sorted distinct canonical forms, each
    computed once per square. n and r are refused above ``magic_size_cap``
    and ``magic_weight_cap``."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > budgets.magic_size_cap:
        raise BudgetError(f"n={n} exceeds cap {budgets.magic_size_cap}")
    if r < 0:
        raise ValueError("weight must be nonnegative")
    if r > budgets.magic_weight_cap:
        raise BudgetError(f"weight {r} exceeds cap {budgets.magic_weight_cap}")

    squares: list[MagicSquare] = []
    col_left = [r] * n
    rows_acc: list[tuple[int, ...]] = []

    def fill(row_idx: int):
        if row_idx == n - 1:
            last = tuple(col_left)
            if sum(last) == r:
                squares.append(MagicSquare(n, tuple(rows_acc) + (last,)))
            return
        for row in weak_compositions(r, tuple(col_left)):
            rows_acc.append(row)
            for j in range(n):
                col_left[j] -= row[j]
            fill(row_idx + 1)
            for j in range(n):
                col_left[j] += row[j]
            rows_acc.pop()

    fill(0)
    forms = sorted({sq.canonical_form() for sq in squares})
    return squares, [MagicSquare(n, f) for f in forms]


def enumerate_magic_squares(n: int, r: int, budgets: Budgets = DEFAULT
                            ) -> tuple[list[MagicSquare], int]:
    """All n x n magic squares of weight r plus the number of orbits under
    row/column permutations (canonical-form counting)."""
    squares, reps = magic_orbits(n, r, budgets)
    return squares, len(reps)


def basic_invariant_poly(A: MagicSquare) -> MultiPoly:
    """p_A: the sum of monomials x^{A'} over the row/column permutation
    orbit of A, a basic permanent-like invariant."""
    n = A.n
    terms = {}
    for mat in A.orbit():
        expo = tuple(v for row in mat for v in row)
        terms[expo] = 1
    return MultiPoly(n * n, terms)


def invariant_ring_dimension_check(n: int, r: int,
                                   budgets: Budgets = DEFAULT) -> bool:
    """Two independent computations of the dimension of the degree-nr
    invariant space must agree: the number of magic-square orbits and the
    fixed subspace of the row and column permutations on the torus-fixed
    monomials, which never reads the magic enumerator. The orbit count is a
    dimension because the p_A are verified to have pairwise disjoint
    supports: nonzero polynomials with disjoint supports are independent."""
    if n > 3:
        raise ValueError("dimension check is budgeted for n <= 3")
    reps = magic_orbits(n, r, budgets)[1]
    seen: set[tuple[int, ...]] = set()
    for rep in reps:
        support = basic_invariant_poly(rep).terms
        if not seen.isdisjoint(support):
            raise RuntimeError("basic invariants p_A share a monomial")
        seen.update(support)

    fixed_dim = len(_monomial_kernel([{e: 1} for e in _torus_monomials(n, r)],
                                     _grid_relabels(n)))
    if fixed_dim != len(reps):
        raise RuntimeError(
            f"invariant dimension mismatch: {len(reps)} orbit representatives"
            f" vs fixed-space dimension {fixed_dim}")
    return True


@dataclass(frozen=True)
class ObstructionChecks:
    even: bool
    alpha_neq_beta: bool
    invariant_dim: int | None = None


@dataclass(frozen=True)
class ObstructionCertificate:
    """The pair (n, gamma) with its verification record; gamma labels the
    candidate obstruction (trivial) (x) V_gamma(SL_n) with |gamma| = 2n."""

    n: int
    gamma: Partition
    checks: ObstructionChecks

    @property
    def bitlength(self) -> int:
        return n_bits(self.n) + sum(n_bits(p) for p in self.gamma)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma.serialize(),
            "checks": {
                "even": self.checks.even,
                "alpha_neq_beta": self.checks.alpha_neq_beta,
                "invariant_dim": self.checks.invariant_dim,
            },
            "bitlength": self.bitlength,
        }

    @classmethod
    def from_json(cls, data) -> "ObstructionCertificate":
        if not (isinstance(data, dict) and isinstance(data.get("n"), int)
                and isinstance(data.get("gamma"), str)
                and isinstance(data.get("checks", {}), dict)):
            raise ValueError('a certificate is an object {"n": int, "gamma": str}')
        checks = data.get("checks", {})
        return cls(int(data["n"]), Partition.parse(data["gamma"]),
                   ObstructionChecks(bool(checks.get("even", False)),
                                     bool(checks.get("alpha_neq_beta", False)),
                                     checks.get("invariant_dim")))


def n_bits(v: int) -> int:
    return max(v.bit_length(), 1)


def emit_obstruction_family(N: int, budgets: Budgets = DEFAULT):
    """Certificates for n = 2..N, made as they are read, with the canonical
    choice gamma_n = (2n): a single even row, never empty, so construction
    takes O(n) integer work and the serialized label has O(log n) bits. N
    below 2 or above ``emit_n_cap`` is refused at the call, before any
    certificate."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > budgets.emit_n_cap:
        raise BudgetError(f"family N={N} exceeds cap {budgets.emit_n_cap}")
    return (ObstructionCertificate(n, Partition((2 * n,)),
                                   ObstructionChecks(even=True, alpha_neq_beta=True))
            for n in range(2, N + 1))


def verify_obstruction(cert: ObstructionCertificate, full: bool = False,
                       budgets: Budgets = DEFAULT) -> ObstructionCertificate:
    """Structural verification always: gamma must be even (occurrence on the
    permanent side) and nonempty (no invariant on the trace side, where the
    first factor is trivial). With full=True and n <= 3 the invariant
    multiplicity is computed explicitly, within the budgets' Weyl-module
    dimension cap, and must be positive. The returned
    invariant_dim is the one computed here, else None: a value read with the
    certificate is never passed through unchecked."""
    if cert.gamma.size != 2 * cert.n:
        raise ObstructionError(
            f"|gamma| = {cert.gamma.size} must equal 2n = {2 * cert.n}")
    if not is_even(cert.gamma):
        raise ObstructionError(f"not an obstruction: {cert.gamma} is not even")
    if not cert.gamma:
        raise ObstructionError("not an obstruction: empty gamma")
    inv_dim = None
    if full and cert.n <= 3:
        inv_dim = perm_stabilizer_invariants(cert.gamma, cert.n, budgets)
        if inv_dim < 1:
            raise ObstructionError(
                "not an obstruction: no stabilizer invariant found")
    return replace(cert, checks=ObstructionChecks(True, True, inv_dim))


def read_certificates(path: str) -> list[ObstructionCertificate]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("a certificate file holds a JSON list of certificates")
    return [ObstructionCertificate.from_json(d) for d in data]
