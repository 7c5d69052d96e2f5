"""Littlewood-Richardson coefficients by two independent routes.

Route one is the classical rule: count skew semistandard tableaux of shape
lam/alpha and content beta whose reverse reading word is a lattice word.
Route two is polyhedral: count integer points of the hive polytope. A hive is
a triangular array with rhombus concavity inequalities whose boundary is the
partial sums of alpha, beta and lam; since that boundary is known, the
polytope is built over the interior vertices alone, with the boundary
substituted into integer right-hand sides. The public coefficient routine
runs both routes and refuses to answer when they disagree; positivity is
decided by exact LP feasibility of the hive without any enumeration
(saturation: Knutson-Tao 1999, Buch 2000).

The hive stays integer from its rows to its count. Which rows a hive of
side n has, and which rhombi merge into each, is a per-side template built
once; a query only fills in its boundary partial sums. The rows are reduced
once per query (``_reduced_hive``, a small bounded memo), and the
coefficient, positivity and stretch routines all count or test that one
reduction. The memo holds reductions, never answers: the tableau rule runs
on every coefficient query, and the side cap is checked before the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .config import DEFAULT, BudgetError, Budgets
from .partitions import Partition
from .polytope import ParamPolytope, QuasiPolynomial, _Reduced, fit_quasipolynomial


class OracleMismatchError(RuntimeError):
    """The tableau rule and the hive count disagree: a bug, never a value."""


@dataclass(frozen=True)
class LRQuery:
    alpha: Partition
    beta: Partition
    lam: Partition

    def __post_init__(self):
        object.__setattr__(self, "alpha", Partition(self.alpha))
        object.__setattr__(self, "beta", Partition(self.beta))
        object.__setattr__(self, "lam", Partition(self.lam))

    def sizes_match(self) -> bool:
        return self.lam.size == self.alpha.size + self.beta.size

    def scale(self, k: int) -> "LRQuery":
        return LRQuery(self.alpha.scale(k), self.beta.scale(k), self.lam.scale(k))


@dataclass(frozen=True)
class StretchSeries:
    query: LRQuery
    values: tuple[int, ...]
    fit: QuasiPolynomial | None


def _hive_side(q: LRQuery, side: int | None) -> int:
    """The side n of q's hive, checked against the sizes and lengths."""
    if not q.sizes_match():
        raise ValueError(
            f"size mismatch: |lam|={q.lam.size} != |alpha|+|beta|="
            f"{q.alpha.size + q.beta.size}")
    n = max(len(q.alpha), len(q.beta), len(q.lam), 1)
    if side is not None:
        if side < n:
            raise ValueError(f"side {side} too small for lengths up to {n}")
        n = side
    return n


def _capped_side(q: LRQuery, side: int | None, budgets: Budgets) -> int:
    """``_hive_side``, then refused when it exceeds the hive side cap."""
    n = _hive_side(q, side)
    if n > budgets.hive_side_cap:
        raise BudgetError(f"hive side {n} exceeds cap {budgets.hive_side_cap}")
    return n


@lru_cache(maxsize=16)
def _hive_template(n: int):
    """The query-independent part of a side-n hive.

    Which rows exist, their interior parts and which rhombi merge into one
    row depend only on n. Boundary vertices index a vector of 3n + 1
    partial sums: alpha's n + 1 on the j-edge, |alpha| plus beta's n on the
    k-edge, then lam's n on the i-edge (the corner (n, 0, 0) reads lam's,
    which agrees). Returns each interior key, in order of first appearance,
    with one group of (position, coefficient) boundary terms per rhombus
    that has it, each term already moved to the right-hand side. Every
    rhombus contains the three vertices around its inner triangle, which are
    all interior for n >= 3; so only side 2 has rows with no interior part,
    and there they all share the key ().
    """
    position: dict[tuple[int, int, int], int] = {}
    for j in range(n + 1):
        position[(0, j, n - j)] = j
    for i in range(1, n + 1):
        position[(i, n - i, 0)] = n + i
    for i in range(1, n + 1):
        position[(i, 0, n - i)] = 2 * n + i
    interior = [(i, j, n - i - j) for i in range(1, n - 1)
                for j in range(1, n - i)]
    index = {v: t for t, v in enumerate(interior)}
    rows: dict[tuple[int, ...], list] = {}
    # rhombus concavity, three orientations per inner lattice triangle
    for i in range(n - 1):
        for j in range(n - 1 - i):
            k = n - 2 - i - j
            for rhombus in ((((i, j + 2, k), 1), ((i + 1, j, k + 1), 1),
                             ((i + 1, j + 1, k), -1), ((i, j + 1, k + 1), -1)),
                            (((i + 2, j, k), 1), ((i, j + 1, k + 1), 1),
                             ((i + 1, j + 1, k), -1), ((i + 1, j, k + 1), -1)),
                            (((i, j, k + 2), 1), ((i + 1, j + 1, k), 1),
                             ((i + 1, j, k + 1), -1), ((i, j + 1, k + 1), -1))):
                row = [0] * len(interior)
                group = []
                for v, coeff in rhombus:
                    t = index.get(v)
                    if t is None:
                        group.append((position[v], -coeff))
                    else:
                        row[t] = coeff
                rows.setdefault(tuple(row), []).append(tuple(group))
    return tuple(rows.items())


def _hive_rows(q: LRQuery, side: int | None = None):
    """Integer (A, b) of the hive polytope (see ``hive_polytope``): the
    side-n template with this query's boundary partial sums filled in. The
    side cap is the caller's check."""
    n = _hive_side(q, side)
    sums = list(accumulate(q.alpha.padded(n) + q.beta.padded(n), initial=0))
    sums += accumulate(q.lam.padded(n))
    A, b = [], []
    for key, groups in _hive_template(n):
        bound = min(sum(c * sums[p] for p, c in group) for group in groups)
        # the empty key (side 2 only) is a condition 0 <= bound: dropped
        # when it holds, kept to make the polytope empty when it fails
        if key or bound < 0:
            A.append(key)
            b.append(bound)
    return A, b


def hive_polytope(q: LRQuery, side: int | None = None,
                  budgets: Budgets = DEFAULT) -> ParamPolytope:
    """The hive model for c^lam_{alpha,beta}, in interior coordinates.

    A hive of side n is a triangular array indexed by (i, j, k) with
    i+j+k = n, subject to the three families of rhombus concavity
    inequalities. The query fixes the boundary: the j-edge carries the
    partial sums of alpha, the k-edge continues with beta, and the i-edge
    carries the partial sums of lam. The variables are therefore only the
    (n-1)(n-2)/2 interior vertices (i, j, k >= 1), in lexicographic order,
    and each rhombus row moves its boundary terms into its right-hand side
    as an integer constant. Rows with the same interior part are merged into
    the tightest one. A row with no interior part is dropped when its
    constant is nonnegative and kept as 0 <= constant otherwise, which makes
    the polytope empty. Integer points biject with Littlewood-Richardson
    fillings, and the k-scaled query gives the same matrix with every
    constant times k.

    The rows come from a per-side template (``_hive_template``), so a query
    only fills in its boundary partial sums; the side cap is checked first.
    """
    return ParamPolytope(*_hive_rows(q, _capped_side(q, side, budgets)))


def _skew_lr_count(alpha: Partition, beta: Partition, lam: Partition) -> int:
    """Classical rule: skew semistandard fillings of lam/alpha with content
    beta whose reverse reading word (rows read right to left, top to bottom)
    is a lattice word."""
    if lam.size != alpha.size + beta.size:
        return 0
    rows = len(lam)
    if len(alpha) > rows:
        return 0
    a = alpha.padded(rows)
    if any(a[r] > lam[r] for r in range(rows)):
        return 0
    if not beta:
        return 1 if lam == alpha else 0
    nletters = len(beta)
    # cells in reverse reading order: per row, right to left
    cells = [(r, c) for r in range(rows) for c in range(lam[r] - 1, a[r] - 1, -1)]
    grid = [[0] * lam[r] for r in range(rows)]
    counts = [0] * (nletters + 1)

    def above(r: int, c: int) -> int:
        if r == 0 or c >= lam[r - 1] or c < a[r - 1]:
            return 0
        return grid[r - 1][c]

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = grid[r][c + 1] if c + 1 < lam[r] else nletters
        lo = above(r, c) + 1
        total = 0
        for e in range(lo, right + 1):
            if counts[e] >= beta[e - 1]:
                continue
            if e > 1 and counts[e] >= counts[e - 1]:
                continue  # lattice prefix condition
            grid[r][c] = e
            counts[e] += 1
            total += fill(idx + 1)
            counts[e] -= 1
        grid[r][c] = 0
        return total

    return fill(0)


@lru_cache(maxsize=8)
def _reduced_hive(q: LRQuery, side: int) -> _Reduced:
    """The side-``side`` hive of q, reduced once and shared by the
    coefficient, positivity and stretch queries on q. It holds only the
    reduction, never an answer, and no budget: callers check the side cap
    first."""
    return _Reduced(*_hive_rows(q, side))


def _hive(q: LRQuery, budgets: Budgets) -> _Reduced:
    """The shared reduction of q's hive, after the side-cap check."""
    return _reduced_hive(q, _capped_side(q, None, budgets))


def lr_coefficient(q: LRQuery, budgets: Budgets = DEFAULT) -> int:
    """c^lam_{alpha,beta} computed by BOTH the tableau rule and hive
    counting; raises OracleMismatchError when the two disagree. The hive,
    and with it the side cap, comes first, so an over-cap query refuses
    before any tableau is enumerated."""
    if not q.sizes_match():
        return 0
    hive = _hive(q, budgets)
    t = _skew_lr_count(q.alpha, q.beta, q.lam)
    h = hive.count(1)
    if t != h:
        raise OracleMismatchError(
            f"oracle mismatch for {q}: tableau rule {t}, hive count {h}")
    return t


def lr_positive(q: LRQuery, budgets: Budgets = DEFAULT) -> bool:
    """Positivity via the saturation property: c > 0 iff the hive polytope
    is nonempty, decided by exact LP with no integer enumeration."""
    if not q.sizes_match():
        return False
    return _hive(q, budgets).feasible(1)


def lr_stretch(q: LRQuery, K: int,
               budgets: Budgets = DEFAULT) -> StretchSeries:
    """Counts at the k-scaled query for k = 1..K, with a quasi-polynomial fit.

    The k-scaled hive polytope is the k-dilation of the unscaled one (same
    matrix, right-hand side times k; see ``hive_polytope``), so the one
    reduced hive of q is counted as an Ehrhart family, and fitted within
    the budgets' period, degree and holdout. K above ``stretch_k_cap`` is
    refused with BudgetError before the hive is built.
    """
    if K < 4:
        raise ValueError("need K >= 4 for a meaningful stretch series")
    if K > budgets.stretch_k_cap:
        raise BudgetError(f"stretch K={K} exceeds cap {budgets.stretch_k_cap}")
    if budgets.holdout < 2:
        raise ValueError("holdout must be at least 2")
    if not q.sizes_match():
        raise ValueError("size mismatch in stretch query")

    values = _hive(q, budgets).counts(K)
    fit = fit_quasipolynomial(values, budgets.max_period, budgets.max_degree,
                              budgets.holdout)
    return StretchSeries(q, values, fit)
