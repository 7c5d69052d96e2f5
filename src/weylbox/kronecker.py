"""Symmetric-group characters, Kronecker coefficients, and the multiplicity
of determinant-stabilizer invariants.

Characters come from the Murnaghan-Nakayama rule in its beta-set form:
removing a border strip of length r from lam is replacing a first-column
hook length b by b - r, with sign (-1)^(number of hooks jumped over).
Kronecker coefficients are then plain class sums over cached character
rows: chi_lam at every cycle type is computed once per shape, so a query
is one sum over four tuples, after its size has passed the table cap. The
multiplicity of the trivial SL_m x SL_m representation inside an
irreducible of GL(m^2) reduces to a Kronecker coefficient at a rectangular
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .config import DEFAULT, BudgetError, Budgets
from .partitions import Partition, partitions_of
from .polytope import QuasiPolynomial, FitError, fit_quasipolynomial


def _betas_to_partition(betas: list[int]) -> tuple[int, ...]:
    betas = sorted(betas, reverse=True)
    l = len(betas)
    parts = tuple(b - (l - 1 - i) for i, b in enumerate(betas))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    l = len(lam)
    betas = [lam[i] + (l - 1 - i) for i in range(l)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = [x for x in betas if x != b] + [nb]
        total += (-1) ** height * _mn(_betas_to_partition(new_betas), rest)
    return total


def sym_character(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam(mu) of S_n, n = |lam| = |mu|."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"|lam|={lam.size} != |mu|={mu.size}")
    return _mn(tuple(lam), tuple(mu))


def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu."""
    mu = Partition(mu)
    z = 1
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return factorial(mu.size) // z


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    """Class sizes of S_n, one per cycle type in ``partitions_of(n)`` order."""
    return tuple(class_size(rho) for rho in partitions_of(n))


@lru_cache(maxsize=None)
def _character_row(lam: tuple[int, ...]) -> tuple[int, ...]:
    """chi_lam at every cycle type of S_|lam|, in ``partitions_of`` order."""
    return tuple(_mn(lam, tuple(rho)) for rho in partitions_of(sum(lam)))


def kronecker(lam: Partition, mu: Partition, nu: Partition,
              budgets: Budgets = DEFAULT) -> int:
    """Kronecker coefficient: multiplicity of the trivial character in
    chi_lam * chi_mu * chi_nu, symmetric in all three arguments. Refuses
    with BudgetError when n exceeds ``char_table_max_n``, before any
    character row is read or built."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    n = lam.size
    if mu.size != n or nu.size != n:
        raise ValueError(
            f"sizes differ: {lam.size}, {mu.size}, {nu.size}")
    if n > budgets.char_table_max_n:
        raise BudgetError(f"character table budget exceeded: "
                          f"n={n} > {budgets.char_table_max_n}")
    if n == 0:
        return 1
    total = sum(z * a * b * c for z, a, b, c in zip(
        _class_sizes(n), _character_row(tuple(lam)),
        _character_row(tuple(mu)), _character_row(tuple(nu))))
    value, rem = divmod(total, factorial(n))
    if rem != 0 or value < 0:
        raise RuntimeError(
            f"kronecker class sum is not a nonnegative integer: {total}")
    return value


def det_stabilizer_invariant_mult(lam: Partition, m: int,
                                  budgets: Budgets = DEFAULT) -> int:
    """Multiplicity of the trivial SL_m x SL_m representation in the
    irreducible GL(m^2)-representation labelled by lam, restricted through
    GL_m x GL_m acting on C^m (x) C^m.

    The restriction multiplicities are Kronecker coefficients; the
    SL-trivial constituents are those with both GL_m labels rectangular,
    which forces the single shape R = (|lam|/m, ..., |lam|/m). The discrete
    transpose part of the full determinant stabilizer is ignored here.
    The budgets bound the Kronecker coefficient as in :func:`kronecker`.
    """
    lam = Partition(lam)
    if m < 1:
        raise ValueError("m must be positive")
    if len(lam) > m * m:
        raise ValueError(f"length {len(lam)} exceeds m^2 = {m * m}")
    if lam.size % m != 0:
        return 0
    R = Partition((lam.size // m,) * m)
    return kronecker(lam, R, R, budgets)


@dataclass(frozen=True)
class GStretchSeries:
    lam: Partition
    m: int
    values: tuple[int, ...]
    fit: QuasiPolynomial | None


def g_stretch(lam: Partition, m: int, K: int,
              budgets: Budgets = DEFAULT) -> GStretchSeries:
    """The stretching function k -> det_stabilizer_invariant_mult(k*lam, m)
    for k = 1..K, with an empirical quasi-polynomial fit within the budgets'
    period and degree when K leaves room for their holdout."""
    lam = Partition(lam)
    if K < 1:
        raise ValueError("K must be positive")
    for k in range(1, K + 1):
        if k * lam.size > budgets.char_table_max_n:
            raise BudgetError(
                f"character table budget exceeded at k={k}: "
                f"|k*lam|={k * lam.size} > {budgets.char_table_max_n}")
    values = tuple(det_stabilizer_invariant_mult(lam.scale(k), m, budgets)
                   for k in range(1, K + 1))
    fit = None
    if K >= budgets.holdout + 2:
        try:
            fit = fit_quasipolynomial(values, budgets.max_period,
                                      budgets.max_degree, budgets.holdout)
        except FitError:
            fit = None  # recorded as empirical data without a fit
    return GStretchSeries(lam, m, values, fit)
