"""Exact-rational polyhedra: feasibility, integer-point counts, and
quasi-polynomial fitting of parametrized counting sequences.

There is no floating point in this module. ``fractions.Fraction`` is the
boundary type: inputs, ``ParamPolytope`` and ``QuasiPolynomial`` data and
returned values. One type holds every polyhedron: a family
{x : Ax <= k*b + c}, whose c defaults to zero, and a single polytope is the
family at k = 1. Inside, every constraint is a primitive integer row and the
inner loops run on Python integers: a family is reduced once for every k
(``_Reduced``, which also takes integer rows as they are, as the LR hive
does) by one worklist that pins each +/- pair of rows as it appears and
substitutes the pin into the other rows, linear programs go through one
fraction-free simplex with Bland's rule, integer points are counted by a
DFS over the reduced rows, and a quasi-polynomial fit puts the values over
one common denominator, decides each period by integer forward differences
per residue class and expands only the period that fits, from each class's
Newton form. The DFS follows a plan built once per family (the rows that
bound each coordinate, by sign, and the rows its leaf reads), so a k
computes only its right-hand side, its integer box and the caps of the
levels above the leaf. Whenever no pinned coordinate needs an integrality
test, which a pin with pivot 1 never does, the leaf closes the last two
levels: per value v of the next-to-last coordinate it reads each row's bound
on the last one as a floor of (slack - s*v) over the row's coefficient, and
counts the values in between. Answers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul, neg
from typing import Sequence

from .config import DEFAULT, BudgetError, Budgets
from .linalg import _primitive_int_row, clear_denominators


class InfeasibleError(ValueError):
    """The polytope is empty where a point was required."""


class UnboundedPolytopeError(ValueError):
    """A coordinate has no finite minimum or maximum."""


class FitError(ValueError):
    """No quasi-polynomial within the requested period/degree bounds."""


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction) -> str:
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rationals(values, what: str) -> tuple[Fraction, ...]:
    """A JSON list of rationals, refused with ValueError in any other form."""
    if not isinstance(values, list):
        raise ValueError(f"polytope {what} must be a JSON list")
    try:
        return tuple(Fraction(x) for x in values)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"polytope {what}: {exc}") from None


@dataclass(frozen=True)
class ParamPolytope:
    """The family {x : Ax <= k*b + c} indexed by integers k >= 0, with exact
    rational data. c defaults to zero, which makes the family the dilations
    of {x : Ax <= b}; a single polytope is the family at k = 1."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        A = tuple(tuple(_frac(x) for x in row) for row in self.A)
        b = tuple(_frac(x) for x in self.b)
        c = (Fraction(0),) * len(b) if self.c is None else tuple(map(_frac, self.c))
        if not (len(A) == len(b) == len(c)):
            raise ValueError("A, b, c must have the same number of rows")
        if len({len(row) for row in A}) > 1:
            raise ValueError("ragged constraint matrix")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return len(self.A[0]) if self.A else 0

    def at(self, k: int) -> "ParamPolytope":
        """The member P(k) = {x : Ax <= k*b + c}, as a family with c = 0."""
        if k < 0:
            raise ValueError("parameter k must be nonnegative")
        return ParamPolytope(self.A, tuple(k * v + w for v, w in zip(self.b, self.c)))

    def to_json(self) -> dict:
        data = {"A": [[format_rational(x) for x in row] for row in self.A],
                "b": [format_rational(x) for x in self.b]}
        if any(self.c):
            data["c"] = [format_rational(x) for x in self.c]
        return data

    @classmethod
    def from_json(cls, data) -> "ParamPolytope":
        """{"A": rows, "b": list, "c": optional list}; else a ValueError."""
        if not (isinstance(data, dict) and isinstance(data.get("A"), list)
                and "b" in data):
            raise ValueError('a polytope is a JSON object with "A" rows and "b"')
        return cls(tuple(_rationals(row, "A row") for row in data["A"]),
                   _rationals(data["b"], "b"),
                   _rationals(data["c"], "c") if "c" in data else None)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

def _simplex(A, b, c) -> tuple[str, Fraction | None]:
    """min c.x subject to Ax <= b with x free.

    Returns (status, value): status is "optimal", "infeasible" or
    "unbounded", and value is the exact optimum when status is "optimal",
    else None. Free variables are split x = u - v; Bland's rule makes every
    pivot choice deterministic and precludes cycling.

    The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every row is
    scaled to a primitive integer row and the true tableau is T / D for one
    common denominator D > 0. A pivot on p = T[r][j] maps each other row to
    (p*T[i] - T[i][j]*T[r]) // D and sets D = p; by Sylvester's identity the
    division is exact, since every entry is a minor of the initial integer
    tableau. The objective row rides along as one more such row.
    """
    m = len(A)
    n = len(c)
    # columns: u_0..u_{n-1}, v_0..v_{n-1}, slacks s_0..s_{m-1},
    # artificials, then the rhs
    scaled = [_primitive_int_row([*row, rhs]) for row, rhs in zip(A, b)]
    art_rows = [i for i in range(m) if scaled[i][n] < 0]
    ncols = 2 * n + m + len(art_rows)
    rows = []
    basis = []
    for i, coeffs in enumerate(scaled):
        r = coeffs[:n] + [-x for x in coeffs[:n]] + [0] * (ncols - 2 * n)
        r.append(coeffs[n])
        r[2 * n + i] = 1
        if coeffs[n] < 0:
            r = [-x for x in r]
        rows.append(r)
        basis.append(2 * n + i)
    for idx, i in enumerate(art_rows):
        rows[i][2 * n + m + idx] = 1
        basis[i] = 2 * n + m + idx
    D = 1
    z: list[int] = []

    def set_objective(obj):
        # z = D * (reduced costs), with -D * (objective value) in the rhs slot
        nonlocal z
        z = [D * x for x in obj] + [0]
        for i in range(m):
            cb = obj[basis[i]]
            if cb:
                z = [x - cb * y for x, y in zip(z, rows[i])]

    def pivot(r, j):
        nonlocal D, z
        prow = rows[r]
        p = prow[j]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][j]
            if f:
                rows[i] = [(p * x - f * y) // D for x, y in zip(rows[i], prow)]
            elif p != D:
                rows[i] = [p * x // D for x in rows[i]]
        f = z[j]
        z = [(p * x - f * y) // D for x, y in zip(z, prow)]
        D = p
        basis[r] = j
        if D < 0:
            D = -D
            z = [-x for x in z]
            for i in range(m):
                rows[i] = [-x for x in rows[i]]

    def run_phase(limit_cols):
        while True:
            entering = next((j for j in range(limit_cols) if z[j] < 0), -1)
            if entering < 0:
                return "optimal"
            leaving = -1
            for i in range(m):
                a = rows[i][entering]
                if a > 0:
                    if leaving < 0:
                        leaving = i
                        continue
                    # compare rhs_i / a with the best ratio by cross-multiplying
                    lhs = rows[i][-1] * rows[leaving][entering]
                    rhs = rows[leaving][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                return "unbounded"
            pivot(leaving, entering)

    if art_rows:
        set_objective([0] * (2 * n + m) + [1] * len(art_rows))
        run_phase(ncols)  # phase 1 is always bounded below by 0
        if z[-1] != 0:
            return "infeasible", None
        # drive any artificial still in the basis out: every row has its own
        # slack column and the slack block stays nonsingular under pivots, so
        # the row has a nonzero entry left of the artificials
        for i in range(m):
            if basis[i] >= 2 * n + m:
                pivot(i, next(j for j in range(2 * n + m) if rows[i][j]))

    cost, cden = clear_denominators(c)
    if not any(cost):
        return "optimal", Fraction(0)
    set_objective(cost + [-x for x in cost] + [0] * (ncols - 2 * n))
    if run_phase(2 * n + m) == "unbounded":  # artificials may not re-enter
        return "unbounded", None
    return "optimal", Fraction(-z[-1], D * cden)


def feasible(P: ParamPolytope) -> bool:
    """Exact emptiness test for P at k = 1 (``_Reduced.feasible``)."""
    return _Reduced(P.A, P.b, P.c).feasible(1)


def _coordinate_bounds(A, b, n: int, i: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of x_i over {x in Q^n : Ax <= b}; raises on
    unbounded or infeasible."""
    cost = [0] * n
    cost[i] = 1
    status, lo = _simplex(A, b, cost)
    if status == "infeasible":
        raise InfeasibleError("empty polytope")
    if status == "unbounded":
        raise UnboundedPolytopeError("unbounded polytope")
    cost[i] = -1
    status, neghi = _simplex(A, b, cost)
    if status == "unbounded":
        raise UnboundedPolytopeError("unbounded polytope")
    return lo, -neghi


def _propagated_box(A, b, nvars: int):
    """Sound per-coordinate intervals of {x : Ax <= b}, for integer rows and
    right-hand sides, by fixpoint interval propagation.

    Returns (status, boxes) with status "empty" when some interval became
    contradictory; entries of boxes are (lo, hi) with None for an unknown
    (possibly infinite) side. Bounds are exact rationals, kept as int while
    they are integral, and valid but not necessarily tight.
    """
    lo: list = [None] * nvars
    hi: list = [None] * nvars
    rows = [(row, rhs, [j for j, a in enumerate(row) if a])
            for row, rhs in zip(A, b)]
    for _ in range(3 * nvars + 6):
        changed = False
        for row, rhs, support in rows:
            for j in support:
                aj = row[j]
                residual = rhs
                ok = True
                for t in support:
                    if t == j:
                        continue
                    at = row[t]
                    bound = lo[t] if at > 0 else hi[t]
                    if bound is None:
                        ok = False
                        break
                    residual -= at * bound
                if not ok:
                    continue
                if type(residual) is int and residual % aj == 0:
                    cand = residual // aj
                else:
                    cand = Fraction(residual, aj)
                if aj > 0:
                    if hi[j] is None or cand < hi[j]:
                        hi[j] = cand
                        changed = True
                elif lo[j] is None or cand > lo[j]:
                    lo[j] = cand
                    changed = True
        if not changed:
            break
    for j in range(nvars):
        if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
            return "empty", None
    return "ok", list(zip(lo, hi))


# ---------------------------------------------------------------------------
# the integer core: a family {x : Ax <= k*b + c}, reduced once for every k
# ---------------------------------------------------------------------------

def _substitute(row, pc, prow) -> tuple[int, ...]:
    """Eliminate coordinate pc from an integer row (a, b, c) with the pin
    prow, whose pivot prow[pc] is positive, and divide the result by its gcd
    (every row here is already integer)."""
    f = row[pc]
    if not f:
        return row
    p = prow[pc]
    row = [p * x - f * y for x, y in zip(row, prow)]
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else tuple(row)


class _Reduced:
    """The family {x : Ax <= k*b + c}, k >= 1, with its equalities
    eliminated once for every k.

    Each row (a, b, c) is scaled to a primitive integer tuple, so a row and
    a positive multiple of its negation hash to a +/- pair: an equality
    a.x = k*b + c. The rows sit in one dict, worked as a list: while some
    row's negation is also there, the pair leaves it and pins its least
    nonzero coordinate, with a positive pivot, and that pin is substituted
    into the earlier pins and into every row left, which may make the next
    pair. So the pins stay in reduced echelon form, which is unique for the
    equalities found whatever order the pairs turn up in. A pair with no
    coordinate left, 0 = k*b + c, pins nothing: it goes to ``consts`` as
    both 0 <= k*b + c and 0 <= -(k*b + c), which hold together at one k
    at most. ``free`` lists the surviving coordinates and ``A``, ``b``,
    ``c`` their rows. ``consts`` holds (b, c) for each condition
    0 <= k*b + c left with no coefficient.

    ``count`` runs a DFS over the free coordinates on ``_plan``, which
    depends on the family only and is built once, at its first count, for
    every k. Each pinned coordinate p * x_pc = k*b + c - coeffs . x_free is
    an integer exactly when p divides the right side; with p = 1 it always
    is, so only pins with p > 1 are tested, and without them the DFS closes
    its last two levels.
    """

    def __init__(self, A, b, c=None):
        n = len(A[0]) if A else 0
        rows = dict.fromkeys(tuple(_primitive_int_row([*row, bv, cv]))
                             for row, bv, cv in zip(A, b, c or [0] * len(b)))
        pinned: dict[int, tuple[int, ...]] = {}
        self.consts = []
        while True:
            row = next((r for r in rows if any(r) and tuple(map(neg, r)) in rows),
                       None)
            if row is None:
                break
            opposite = tuple(map(neg, row))
            del rows[row], rows[opposite]
            pc = next((j for j in range(n) if row[j]), None)
            if pc is None:  # no coordinate left: 0 = k*b + c
                self.consts += [row[n:], opposite[n:]]
                continue
            if row[pc] < 0:
                row = opposite
            pinned = {j: _substitute(prow, pc, row) for j, prow in pinned.items()}
            pinned[pc] = row
            rows = dict.fromkeys(_substitute(r, pc, row) for r in rows)
        # the pins are the reduced echelon form, whatever the pair order
        self.free = [j for j in range(n) if j not in pinned]
        self.A, self.b, self.c = [], [], []
        for row in rows:
            coeffs = [row[j] for j in self.free]
            if any(coeffs):
                self.A.append(coeffs)
                self.b.append(row[n])
                self.c.append(row[n + 1])
            else:
                self.consts.append((row[n], row[n + 1]))
        # per pinned coordinate: its pivot p, free coefficients and (b, c),
        # so that p * x_pc = k*b + c - coeffs . x_free
        self._pins = [(row[pc], [row[j] for j in self.free], row[n], row[n + 1])
                      for pc, row in sorted(pinned.items())]

    def rhs(self, k: int) -> list[int] | None:
        """The right-hand sides k*b + c of the rows, or None when P(k) is
        empty because a condition with no coefficient fails at k."""
        if self.consts and any(k * bv + cv < 0 for bv, cv in self.consts):
            return None
        return [k * bv + cv for bv, cv in zip(self.b, self.c)]

    def feasible(self, k: int) -> bool:
        """Whether P(k) is nonempty: the equalities are already eliminated
        exactly, and the surviving rows go to the exact-pivot simplex."""
        rhs = self.rhs(k)
        return rhs is not None and \
            _simplex(self.A, rhs, [0] * len(self.free))[0] != "infeasible"

    def _bounds(self, rhs):
        """Exact (lo, hi) per free coordinate of {x : Ax <= rhs}, or None
        when that set is empty; raises UnboundedPolytopeError."""
        nfree = len(self.free)
        status, boxes = _propagated_box(self.A, rhs, nfree)
        if status == "empty":
            return None
        if any(lo is None or hi is None for lo, hi in boxes):
            # propagation could not certify boundedness: decide exactly by
            # LP, whose first bound also finds an empty set
            try:
                boxes = [(lo, hi) if lo is not None and hi is not None
                         else _coordinate_bounds(self.A, rhs, nfree, i)
                         for i, (lo, hi) in enumerate(boxes)]
            except InfeasibleError:
                return None
        return boxes

    @cached_property
    def _unit_bounds(self):
        bounds = self._bounds(self.b)
        return bounds and [(lo.numerator, lo.denominator, hi.numerator,
                            hi.denominator) for lo, hi in bounds]

    def box(self, k: int, rhs: list[int]) -> list[tuple[int, int]] | None:
        """The integer box (ceil lo, floor hi) of the free coordinates at k,
        or None when P(k) is empty. Propagation and the LP bounds are
        positively homogeneous in the right-hand side, so for c = 0 they are
        computed once, at k = 1, kept as integer numerators and
        denominators, and the box at k is (ceil(k*lo), floor(k*hi))."""
        if any(self.c):
            bounds = self._bounds(rhs)
            return bounds and [(-(-lo.numerator // lo.denominator),
                                hi.numerator // hi.denominator) for lo, hi in bounds]
        bounds = self._unit_bounds
        return bounds and [(-(-k * p // q), k * r // s) for p, q, r, s in bounds]

    @cached_property
    def _plan(self):
        """The DFS plan, fixed for the family (and built at the first count)
        as (pins, stop, levels, exact, closed).

        ``pins`` are the pins with a pivot above 1, the only ones a point is
        tested against. ``levels[d]`` holds the rows with a nonzero
        coefficient a at coordinate d, per sign as (r, |a|), then all as
        (r, a). The DFS enumerates the coordinates below ``stop``, and
        ``exact`` holds per sign (r, |a|, 0) for the rows that bound
        x_stop with nothing after it. Without a pin above 1 and with two
        coordinates or more, stop is the next-to-last coordinate v, closed
        with the last one x: ``closed`` holds per sign (r, |a|) for the rows
        that bound x alike for every v, and (r, |a|, s) for the rows with
        coefficient s at v. Otherwise stop is the last coordinate and
        ``closed`` is None."""
        A, nfree = self.A, len(self.free)
        pins = [pin for pin in self._pins if pin[0] != 1]
        levels = []
        for d in range(nfree):
            terms = [(r, row[d]) for r, row in enumerate(A) if row[d]]
            levels.append(([(r, a) for r, a in terms if a > 0],
                           [(r, -a) for r, a in terms if a < 0], terms))
        stop = nfree - 1 if pins or nfree < 2 else nfree - 2
        exact = [[(r, a, 0) for r, a in rows if not any(A[r][stop + 1:])]
                 for rows in levels[stop][:2]]
        if stop == nfree - 1:
            return pins, stop, levels, exact, None
        fixed, moving = ([], []), ([], [])
        for sign, rows in enumerate(levels[stop + 1][:2]):
            for r, a in rows:
                if A[r][stop]:
                    moving[sign].append((r, a, A[r][stop]))
                else:
                    fixed[sign].append((r, a))
        return pins, stop, levels, exact, (fixed, moving)

    def count(self, k: int) -> int:
        """|P(k) ∩ Z^n| by bounding box plus DFS with constraint propagation;
        raises UnboundedPolytopeError when some coordinate has no finite
        range.

        The DFS runs on the plan (``_plan``), so a k computes only its
        right-hand side, its integer box and the caps of the levels above
        the leaf: per row, its minimum over the box of its terms beyond
        that level. The DFS keeps each row's slack, the right-hand side less
        the terms set so far; a row bounds a coordinate by the floor of its
        slack less its cap over its coefficient, exact because the
        coordinate is integral, and at a row's last nonzero column the cap
        is 0 and the bound exact, so every row holds at every point the DFS
        reaches. A free point counts when every pinned coordinate it
        determines is an integer; a pin with pivot 1 always is, so only pins
        with pivots above 1 are tested, one point at a time. Without such a
        pin the last two levels are closed: one loop over the values v of
        the next-to-last coordinate, in which each row bounds the last
        coordinate x by a*x <= slack - s*v, read directly as a floor per v,
        and the values of x are counted, not enumerated."""
        rhs = self.rhs(k)
        if rhs is None:
            return 0
        if not self.free:
            return int(all((k * bv + cv) % p == 0 for p, _, bv, cv in self._pins))
        box = self.box(k, rhs)
        if box is None:  # an empty range in box leaves the DFS nothing
            return 0
        pins, stop, levels, exact, closed = self._plan
        if pins:
            pins = [(p, coeffs, k * bv + cv) for p, coeffs, bv, cv in pins]
        # caps[d]: per sign, (r, |a|, the row's minimum over the box of its
        # terms beyond d), swept up from the last level; exact at the leaf
        caps = [None] * stop + [exact]
        tail = [0] * len(rhs)
        for d in range(len(box) - 1, -1, -1) if stop else ():
            pos, neg, _ = levels[d]
            if d < stop:
                caps[d] = ([(r, a, tail[r]) for r, a in pos],
                           [(r, a, tail[r]) for r, a in neg])
            lo, hi = box[d]
            for r, a in pos:
                tail[r] += a * lo
            for r, a in neg:
                tail[r] -= a * hi
        slack = rhs
        point = [0] * len(box)

        def dfs(d: int) -> int:
            lo, hi = box[d]
            pos, neg = caps[d]
            for r, a, t in pos:
                bound = (slack[r] - t) // a
                if bound < hi:
                    hi = bound
            for r, a, t in neg:
                bound = -((slack[r] - t) // a)
                if bound > lo:
                    lo = bound
            if lo > hi:
                return 0
            n = 0
            if d < stop:
                rows = levels[d][2]
                base = [slack[r] for r, _ in rows]
                for v in range(lo, hi + 1):
                    point[d] = v
                    for (r, a), s0 in zip(rows, base):
                        slack[r] = s0 - a * v
                    n += dfs(d + 1)
                for (r, _), s0 in zip(rows, base):
                    slack[r] = s0
            elif not closed:
                if not pins:
                    return hi - lo + 1
                for v in range(lo, hi + 1):
                    point[d] = v
                    n += all((r - sum(map(mul, coeffs, point))) % p == 0
                             for p, coeffs, r in pins)
            else:
                # at v = x_d a row bounds x = x_last by a*x <= slack - s*v,
                # so x runs over [-down, up]: up is the least floor over
                # a > 0 and down the least over a < 0, by |a|; rows with
                # s = 0 bound x alike for every v and are folded in first
                (fixed_pos, fixed_neg), (ups, downs) = closed
                low, high = box[-1]
                top, bottom = high, -low
                for r, a in fixed_pos:
                    bound = slack[r] // a
                    if bound < top:
                        top = bound
                for r, a in fixed_neg:
                    bound = slack[r] // a
                    if bound < bottom:
                        bottom = bound
                if not ups and not downs:
                    return (hi - lo + 1) * max(top + bottom + 1, 0)
                for v in range(lo, hi + 1):
                    up = top
                    for r, a, s in ups:
                        bound = (slack[r] - s * v) // a
                        if bound < up:
                            up = bound
                    down = bottom
                    for r, a, s in downs:
                        bound = (slack[r] - s * v) // a
                        if bound < down:
                            down = bound
                    if up + down >= 0:
                        n += up + down + 1
            return n

        return dfs(0)

    def counts(self, K: int) -> tuple[int, ...]:
        """``count(k)`` for k = 1..K, all on the one plan of the family."""
        out = []
        for k in range(1, K + 1):
            try:
                out.append(self.count(k))
            except UnboundedPolytopeError as exc:
                raise UnboundedPolytopeError(f"unbounded polytope at k={k}") from exc
        return tuple(out)


def count_integer_points(P: ParamPolytope) -> int:
    """Exact |P(1) ∩ Z^n| for a bounded P(1) (``_Reduced.count`` at k = 1).
    Raises UnboundedPolytopeError when some coordinate has no finite
    range."""
    return _Reduced(P.A, P.b, P.c).count(1)


def ehrhart_counts(PP: ParamPolytope, K: int,
                   budgets: Budgets = DEFAULT) -> tuple[int, ...]:
    """Integer-point counts of PP.at(k) for k = 1..K, K at most the budgets'
    ``series_k_cap`` (else BudgetError). The family is reduced once
    (``_Reduced``) and counted by ``_Reduced.counts``."""
    if K < 1:
        raise ValueError("K must be positive")
    if K > budgets.series_k_cap:
        raise BudgetError(f"series K={K} exceeds cap {budgets.series_k_cap}")
    return _Reduced(PP.A, PP.b, PP.c).counts(K)


# ---------------------------------------------------------------------------
# quasi-polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiPolynomial:
    """f(k) = components[k mod period](k), coefficients constant first."""

    period: int
    components: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.period < 1 or len(self.components) != self.period:
            raise ValueError("need one component polynomial per residue")
        comps = tuple(tuple(_frac(c) for c in comp) for comp in self.components)
        object.__setattr__(self, "components", comps)

    def eval(self, k: int) -> Fraction:
        coeffs = self.components[k % self.period]
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc

    @property
    def degree(self) -> int:
        deg = 0
        for comp in self.components:
            nz = [i for i, c in enumerate(comp) if c != 0]
            if nz:
                deg = max(deg, nz[-1])
        return deg

    def to_json(self) -> dict:
        return {"period": self.period,
                "components": [[format_rational(c) for c in comp]
                               for comp in self.components]}

    @classmethod
    def from_json(cls, data: dict) -> "QuasiPolynomial":
        return cls(data["period"],
                   tuple(tuple(Fraction(c) for c in comp)
                         for comp in data["components"]))


def _newton(k0: int, period: int, lead: list[int]) -> tuple[list[int], int]:
    """The polynomial sum_i lead[i] * prod_{j<i} (k - k0 - j*period)
    / (i! * period^i), the Newton form through a class whose forward
    differences at k0 are lead, as (numerators, denominator) with
    numerators constant first and denominator (m-1)! * period^(m-1),
    m = len(lead). Integer Horner steps in the Newton form: weight i is
    (m-1)!/i! * period^(m-1-i)."""
    acc, w = [lead[-1]], 1
    for i in range(len(lead) - 2, -1, -1):
        w *= (i + 1) * period
        x = k0 + i * period
        acc = [a - x * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += lead[i] * w
    return acc, w


def fit_quasipolynomial(values: Sequence, max_period: int, max_degree: int,
                        holdout: int, skip_prefix: int = 0) -> QuasiPolynomial:
    """Smallest-period exact quasi-polynomial through counting data.

    ``values[i]`` is the count at k = i + 1, an int or a Fraction. The last
    ``holdout`` values are excluded from interpolation and used purely for
    verification; the first ``skip_prefix >= 0`` values are discarded
    entirely (asymptotic counting functions may deviate on a finite
    prefix). Periods are tried in increasing order. A residue class, the
    values at k0, k0 + period, ... up to the last value, is a polynomial of
    degree below m in k exactly when its m-th forward differences vanish
    (equally spaced points), with m = min(max_degree + 1, the number of the
    class's fitting values): then the interpolant through its first m
    fitting values reproduces every fitting and holdout value, and by
    uniqueness it is the interpolant through all of its fitting values.
    The test is integer subtraction only; the accepted period alone is
    expanded, per class from its Newton form (``_newton``). Raises
    FitError when no (period, degree) combination reproduces fitting and
    holdout values.
    """
    K = len(values)
    if holdout < 1:
        raise ValueError("holdout must be positive")
    if max_period < 1:
        raise ValueError("max_period must be positive")
    if skip_prefix < 0:
        raise ValueError("skip_prefix must be nonnegative")
    last = K - holdout  # the last fitting k
    if last <= skip_prefix:
        raise ValueError("no fitting values left after skip_prefix/holdout")
    if max_degree < 0:
        raise FitError("not quasi-polynomial within bounds")  # every degree is >= 0
    # the values over one common denominator, so fits run on integers
    ys, scale = clear_denominators(values)

    # a period above last - skip_prefix leaves some class no fitting value
    for period in range(1, min(max_period, last - skip_prefix) + 1):
        leads = []
        for k0 in range(skip_prefix + 1, skip_prefix + period + 1):
            seq = ys[k0 - 1::period]
            lead = []
            for _ in range(min(max_degree + 1, (last - k0) // period + 1)):
                lead.append(seq[0])
                seq = [b - a for a, b in zip(seq, seq[1:])]
            if any(seq):
                break
            leads.append((k0, lead))
        else:
            comps = [()] * period
            for k0, lead in leads:
                coeffs, den = _newton(k0, period, lead)
                while len(coeffs) > 1 and coeffs[-1] == 0:
                    coeffs.pop()
                comps[k0 % period] = tuple(Fraction(c, den * scale) for c in coeffs)
            return QuasiPolynomial(period, tuple(comps))
    raise FitError("not quasi-polynomial within bounds")
