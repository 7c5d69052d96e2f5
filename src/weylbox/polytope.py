"""Exact-rational polyhedra: feasibility, vertices, integer-point counts,
and quasi-polynomial fitting of parametrized counting sequences.

Everything runs over ``fractions.Fraction``; there is no floating point in
this module. Linear programs are solved by an exact-pivot simplex with
Bland's rule, so feasibility and optimality answers are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Sequence

from .linalg import echelon


class InfeasibleError(ValueError):
    """The polytope is empty where a point was required."""


class UnboundedPolytopeError(ValueError):
    """A coordinate has no finite minimum or maximum."""


class NoVertexError(ValueError):
    """The polyhedron has no vertex reachable by lexicographic minimization."""


class FitError(ValueError):
    """No quasi-polynomial within the requested period/degree bounds."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Polytope:
    """The set {x : Ax <= b} with exact rational data."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        A = tuple(tuple(_frac(x) for x in row) for row in self.A)
        b = tuple(_frac(x) for x in self.b)
        if len(A) != len(b):
            raise ValueError("A and b must have the same number of rows")
        widths = {len(row) for row in A}
        if len(widths) > 1:
            raise ValueError("ragged constraint matrix")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.A[0]) if self.A else 0

    def dilate(self, k: int) -> "Polytope":
        return Polytope(self.A, tuple(k * v for v in self.b))

    def contains(self, point: Sequence) -> bool:
        pt = [_frac(x) for x in point]
        return all(sum(a * x for a, x in zip(row, pt)) <= rhs
                   for row, rhs in zip(self.A, self.b))

    def to_json(self) -> dict:
        return {"A": [[format_rational(x) for x in row] for row in self.A],
                "b": [format_rational(x) for x in self.b]}

    @classmethod
    def from_json(cls, data: dict) -> "Polytope":
        return cls(tuple(tuple(parse_rational(x) for x in row) for row in data["A"]),
                   tuple(parse_rational(x) for x in data["b"]))


@dataclass(frozen=True)
class ParamPolytope:
    """A family of polytopes {x : Ax <= k*b + c} indexed by integers k >= 0."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        A = tuple(tuple(_frac(x) for x in row) for row in self.A)
        b = tuple(_frac(x) for x in self.b)
        c = tuple(_frac(x) for x in self.c)
        if not (len(A) == len(b) == len(c)):
            raise ValueError("A, b, c must have the same number of rows")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def at(self, k: int) -> Polytope:
        if k < 0:
            raise ValueError("parameter k must be nonnegative")
        return Polytope(self.A, tuple(k * bv + cv for bv, cv in zip(self.b, self.c)))

    def to_json(self) -> dict:
        data = {"A": [[format_rational(x) for x in row] for row in self.A],
                "b": [format_rational(x) for x in self.b]}
        if any(self.c):
            data["c"] = [format_rational(x) for x in self.c]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ParamPolytope":
        A = tuple(tuple(parse_rational(x) for x in row) for row in data["A"])
        b = tuple(parse_rational(x) for x in data["b"])
        if "c" in data:
            c = tuple(parse_rational(x) for x in data["c"])
        else:
            c = tuple(Fraction(0) for _ in b)
        return cls(A, b, c)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

def _simplex(A, b, c):
    """min c.x subject to Ax <= b with x free.

    Returns (status, x, value) where status is "optimal", "infeasible" or
    "unbounded". Free variables are split x = u - v; Bland's rule makes every
    pivot choice deterministic and precludes cycling.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    Z = Fraction(0)

    # columns: u_0..u_{n-1}, v_0..v_{n-1}, slacks s_0..s_{m-1}, artificials
    rows = []
    rhs = []
    art_rows = []
    for i in range(m):
        coeffs = [_frac(x) for x in A[i]]
        r = coeffs + [-x for x in coeffs] + [Z] * m
        bi = _frac(b[i])
        if bi < 0:
            r = [-x for x in r]
            bi = -bi
            r[2 * n + i] = Fraction(-1)
            art_rows.append(i)
        else:
            r[2 * n + i] = Fraction(1)
        rows.append(r)
        rhs.append(bi)

    ncols = 2 * n + m + len(art_rows)
    for r in rows:
        r.extend([Z] * len(art_rows))
    for idx, i in enumerate(art_rows):
        rows[i][2 * n + m + idx] = Fraction(1)
    art_of_row = {i: 2 * n + m + idx for idx, i in enumerate(art_rows)}
    basis = [art_of_row.get(i, 2 * n + i) for i in range(m)]

    def pivot(rowi, colj):
        piv = rows[rowi][colj]
        inv = Fraction(1) / piv
        rows[rowi] = [x * inv for x in rows[rowi]]
        rhs[rowi] *= inv
        prow = rows[rowi]
        pr = rhs[rowi]
        for i in range(m):
            if i == rowi:
                continue
            f = rows[i][colj]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
                rhs[i] -= f * pr
        basis[rowi] = colj

    def run_phase(obj, limit_cols):
        # Bland's rule; reduced costs recomputed each iteration (exact, and
        # cheap at the sizes this toolkit meets)
        while True:
            duals_cost = [obj[basis[i]] for i in range(m)]
            entering = -1
            for j in range(limit_cols):
                red = obj[j] - sum(duals_cost[i] * rows[i][j] for i in range(m))
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving = -1
            best = None
            for i in range(m):
                a = rows[i][entering]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            pivot(leaving, entering)

    if art_rows:
        obj1 = [Z] * ncols
        for idx in range(len(art_rows)):
            obj1[2 * n + m + idx] = Fraction(1)
        status = run_phase(obj1, ncols)
        assert status == "optimal"  # phase 1 is always bounded below by 0
        value1 = sum(obj1[basis[i]] * rhs[i] for i in range(m))
        if value1 != 0:
            return "infeasible", None, None
        # drive any artificial still in the basis out (or drop its row)
        for i in range(m):
            if basis[i] >= 2 * n + m:
                replaced = False
                for j in range(2 * n + m):
                    if rows[i][j] != 0:
                        pivot(i, j)
                        replaced = True
                        break
                if not replaced:
                    # redundant row: zero it so it never constrains again
                    rows[i] = [Z] * ncols
                    rhs[i] = Z

    obj2 = [Z] * ncols
    for j in range(n):
        cj = _frac(c[j])
        obj2[j] = cj
        obj2[n + j] = -cj
    status = run_phase(obj2, 2 * n + m)  # artificials may not re-enter
    if status == "unbounded":
        return "unbounded", None, None
    x = [Z] * n
    for i in range(m):
        bj = basis[i]
        if bj < n:
            x[bj] += rhs[i]
        elif bj < 2 * n:
            x[bj - n] -= rhs[i]
    value = sum(_frac(c[j]) * x[j] for j in range(n))
    return "optimal", tuple(x), value


def feasible(P: Polytope) -> bool:
    """Exact emptiness test for {x : Ax <= b}.

    Paired <=/>= rows are eliminated exactly first; the survivors go to the
    exact-pivot simplex.
    """
    if not P.A:
        return True
    red = _Reduced(P)
    if red.infeasible:
        return False
    Q = red.poly
    if not Q.A:
        return True
    status, _, _ = _simplex(Q.A, Q.b, [Fraction(0)] * Q.dim)
    return status != "infeasible"


def _minimize(P: Polytope, cost) -> tuple[str, tuple[Fraction, ...] | None, Fraction | None]:
    return _simplex(P.A, P.b, cost)


# ---------------------------------------------------------------------------
# equality detection and elimination (used to shrink systems before counting)
# ---------------------------------------------------------------------------

def _split_equalities(P: Polytope):
    """Detect rows that occur as +/- pairs; return (equalities, inequalities).

    Each equality is (coeffs, rhs); inequalities keep the (row, rhs) form.
    """
    seen = {}
    eq = []
    ineq_idx = set(range(len(P.A)))
    for i, (row, rhs) in enumerate(zip(P.A, P.b)):
        key = (row, rhs)
        neg = (tuple(-x for x in row), -rhs)
        if neg in seen and seen[neg] in ineq_idx and i in ineq_idx:
            j = seen[neg]
            eq.append((row, rhs))
            ineq_idx.discard(i)
            ineq_idx.discard(j)
        else:
            seen.setdefault(key, i)
    ineqs = [(P.A[i], P.b[i]) for i in sorted(ineq_idx)]
    return eq, ineqs


class _Reduced:
    """Result of eliminating paired equalities from a polytope.

    ``free`` lists the surviving coordinates; ``lift`` maps a free-coordinate
    point back to the original space. ``infeasible`` is set when the equality
    system itself is contradictory.
    """

    def __init__(self, P: Polytope):
        n = P.dim
        eqs, ineqs = _split_equalities(P)
        self.infeasible = False
        if not eqs:
            self.free = list(range(n))
            self.poly = P
            self._pivots = []
            self._rows = []
            self._n = n
            return
        rows = [list(row) + [rhs] for row, rhs in eqs]
        reduced, pivots = echelon(rows, n + 1)
        if n in pivots:
            self.infeasible = True
            self.free = []
            self.poly = Polytope((), ())
            self._pivots = []
            self._rows = []
            self._n = n
            return
        pivot_set = set(pivots)
        self.free = [c for c in range(n) if c not in pivot_set]
        self._pivots = pivots
        self._rows = reduced
        self._n = n
        # substitute pinned coordinates into the inequalities
        sub = {}  # pivot col -> (const, {free col: coeff})
        for row, pc in zip(reduced, pivots):
            piv = Fraction(row[pc])
            const = Fraction(row[n]) / piv
            lin = {c: Fraction(-row[c]) / piv for c in self.free if row[c]}
            sub[pc] = (const, lin)
        new_rows = []
        new_rhs = []
        for row, rhs in ineqs:
            acc = {c: Fraction(0) for c in self.free}
            const = Fraction(0)
            for c, a in enumerate(row):
                if a == 0:
                    continue
                if c in sub:
                    c0, lin = sub[c]
                    const += a * c0
                    for fc, coef in lin.items():
                        acc[fc] += a * coef
                else:
                    acc[c] += a
            vec = tuple(acc[c] for c in self.free)
            new_rhs_val = rhs - const
            if any(vec):
                new_rows.append(vec)
                new_rhs.append(new_rhs_val)
            elif new_rhs_val < 0:
                self.infeasible = True
        self.poly = Polytope(tuple(new_rows), tuple(new_rhs))

    def lift(self, free_point) -> tuple[Fraction, ...]:
        full = [Fraction(0)] * self._n
        for c, v in zip(self.free, free_point):
            full[c] = _frac(v)
        for row, pc in zip(self._rows, self._pivots):
            piv = Fraction(row[pc])
            val = Fraction(row[self._n])
            for fc, v in zip(self.free, free_point):
                val -= row[fc] * _frac(v)
            full[pc] = val / piv
        return tuple(full)


def _coordinate_bounds(P: Polytope, i: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of x_i over P; raises on unbounded or infeasible."""
    n = P.dim
    cost = [Fraction(0)] * n
    cost[i] = Fraction(1)
    status, _, lo = _minimize(P, cost)
    if status == "infeasible":
        raise InfeasibleError("empty polytope")
    if status == "unbounded":
        raise UnboundedPolytopeError("unbounded polytope")
    cost[i] = Fraction(-1)
    status, _, neghi = _minimize(P, cost)
    if status == "unbounded":
        raise UnboundedPolytopeError("unbounded polytope")
    return lo, -neghi


def _propagated_box(A, b, nvars: int, rounds: int | None = None):
    """Sound per-coordinate intervals by fixpoint interval propagation.

    Returns (status, boxes) with status "empty" when some interval became
    contradictory; entries of boxes are (lo, hi) with None for an unknown
    (possibly infinite) side. Bounds are valid but not necessarily tight.
    """
    if rounds is None:
        rounds = 3 * nvars + 6
    lo: list[Fraction | None] = [None] * nvars
    hi: list[Fraction | None] = [None] * nvars
    rows = [(tuple(row), rhs, [j for j, a in enumerate(row) if a != 0])
            for row, rhs in zip(A, b)]
    for _ in range(rounds):
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
                if aj > 0:
                    cand = residual / aj
                    if hi[j] is None or cand < hi[j]:
                        hi[j] = cand
                        changed = True
                else:
                    cand = residual / aj
                    if lo[j] is None or cand > lo[j]:
                        lo[j] = cand
                        changed = True
        if not changed:
            break
    for j in range(nvars):
        if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
            return "empty", None
    return "ok", list(zip(lo, hi))


def count_integer_points(P: Polytope) -> int:
    """Exact |P ∩ Z^n| for a bounded P, by bounding box plus DFS with
    constraint propagation. Raises UnboundedPolytopeError when some
    coordinate has no finite range."""
    red = _Reduced(P)
    if red.infeasible:
        return 0
    Q = red.poly
    nfree = len(red.free)
    if nfree == 0:
        if any(rhs < 0 for rhs in Q.b):
            return 0  # a surviving row reads 0 <= negative
        point = red.lift(())
        if all(v.denominator == 1 for v in point):
            return 1
        return 0
    status, boxes = _propagated_box(Q.A, Q.b, nfree)
    if status == "empty":
        return 0
    if any(lo is None or hi is None for lo, hi in boxes):
        # propagation could not certify boundedness: decide exactly by LP
        if not feasible(Q):
            return 0
        boxes = [(lo, hi) if lo is not None and hi is not None
                 else _coordinate_bounds(Q, i)
                 for i, (lo, hi) in enumerate(boxes)]
        if any(lo > hi for lo, hi in boxes):
            return 0

    A = [list(row) for row in Q.A]
    b = list(Q.b)
    m = len(A)
    # tail_min[r][d] = minimum of sum_{j >= d} A[r][j] * x_j over the box
    tail_min = [[Fraction(0)] * (nfree + 1) for _ in range(m)]
    for r in range(m):
        for d in range(nfree - 1, -1, -1):
            a = A[r][d]
            tail_min[r][d] = tail_min[r][d + 1] + min(a * boxes[d][0], a * boxes[d][1])
    partial = [Fraction(0)] * m
    point = [0] * nfree
    count = 0

    def dfs(d: int):
        nonlocal count
        if d == nfree:
            # propagation is a relaxation; check the system exactly at leaves
            if all(partial[r] <= b[r] for r in range(m)):
                lifted = red.lift(point)
                if all(v.denominator == 1 for v in lifted):
                    count += 1
            return
        lo, hi = boxes[d]
        lo_i, hi_i = ceil(lo), floor(hi)
        for r in range(m):
            a = A[r][d]
            if a == 0:
                continue
            slack = b[r] - partial[r] - tail_min[r][d + 1]
            if a > 0:
                hi_i = min(hi_i, floor(slack / a))
            else:
                lo_i = max(lo_i, ceil(slack / a))
        for v in range(lo_i, hi_i + 1):
            point[d] = v
            for r in range(m):
                partial[r] += A[r][d] * v
            dfs(d + 1)
            for r in range(m):
                partial[r] -= A[r][d] * v

    dfs(0)
    return count


def vertex(P: Polytope) -> tuple[Fraction, ...]:
    """An exact vertex found by minimizing coordinates lexicographically.

    Deterministic: minimizes x_0, pins it, minimizes x_1, and so on. Raises
    InfeasibleError for empty P and NoVertexError when some stage is
    unbounded below (in particular whenever P has a lineality direction).
    """
    n = P.dim
    rows = [list(r) for r in P.A]
    rhs = list(P.b)
    if not feasible(P):
        raise InfeasibleError("empty polytope")
    values: list[Fraction] = []
    for i in range(n):
        cost = [Fraction(0)] * n
        cost[i] = Fraction(1)
        status, _, opt = _simplex(rows, rhs, cost)
        if status == "unbounded":
            raise NoVertexError("no vertex")
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        rows.append(tuple(unit))
        rhs.append(opt)
        rows.append(tuple(-u for u in unit))
        rhs.append(-opt)
        values.append(opt)
    return tuple(values)


def smallest_integral_dilation(P: Polytope) -> tuple[int, tuple[int, ...]]:
    """A dilation factor k with an integral point of kP, via the denominators
    of the deterministic vertex. This is an upper-bound witness: k is the lcm
    of the vertex denominators, not necessarily the least dilation with an
    integer point."""
    v = vertex(P)
    k = lcm(*(x.denominator for x in v)) if v else 1
    point = tuple(int(k * x) for x in v)
    return k, point


def ehrhart_counts(PP: ParamPolytope, K: int) -> tuple[int, ...]:
    """Integer-point counts of PP.at(k) for k = 1..K."""
    if K < 1:
        raise ValueError("K must be positive")
    out = []
    for k in range(1, K + 1):
        try:
            out.append(count_integer_points(PP.at(k)))
        except UnboundedPolytopeError as exc:
            raise UnboundedPolytopeError(f"unbounded polytope at k={k}") from exc
    return tuple(out)


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
                   tuple(tuple(parse_rational(c) for c in comp)
                         for comp in data["components"]))


def _lagrange(points: list[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through the given (k, value) points,
    as a coefficient tuple, constant first."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= Fraction(xi - xj)
        scale = _frac(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fit_quasipolynomial(values: Sequence, max_period: int, max_degree: int,
                        holdout: int, skip_prefix: int = 0) -> QuasiPolynomial:
    """Smallest-period exact quasi-polynomial through counting data.

    ``values[i]`` is the count at k = i + 1. The last ``holdout`` values are
    excluded from interpolation and used purely for verification; the first
    ``skip_prefix`` values are discarded entirely (asymptotic counting
    functions may deviate on a finite prefix). Periods are tried in
    increasing order; per residue class the fit is the exact Lagrange
    interpolant through that class's fitting values. Raises FitError when no
    (period, degree) combination reproduces fitting and holdout values.
    """
    K = len(values)
    if holdout < 1:
        raise ValueError("holdout must be positive")
    if max_period < 1:
        raise ValueError("max_period must be positive")
    vals = [_frac(v) for v in values]
    fit_ks = list(range(skip_prefix + 1, K - holdout + 1))
    check_ks = list(range(skip_prefix + 1, K + 1))
    if not fit_ks:
        raise ValueError("no fitting values left after skip_prefix/holdout")

    for period in range(1, max_period + 1):
        classes: dict[int, list[tuple[int, Fraction]]] = {r: [] for r in range(period)}
        for k in fit_ks:
            classes[k % period].append((k, vals[k - 1]))
        if any(not pts for pts in classes.values()):
            continue
        comps = []
        ok = True
        for r in range(period):
            coeffs = _lagrange(classes[r])
            if len(coeffs) - 1 > max_degree:
                ok = False
                break
            comps.append(coeffs)
        if not ok:
            continue
        qp = QuasiPolynomial(period, tuple(comps))
        if all(qp.eval(k) == vals[k - 1] for k in check_ks):
            return qp
    raise FitError("not quasi-polynomial within bounds")
