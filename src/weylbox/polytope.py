"""Exact-rational polyhedra: feasibility, vertices, integer-point counts,
and quasi-polynomial fitting of parametrized counting sequences.

There is no floating point in this module. ``fractions.Fraction`` is the
boundary type: inputs, ``Polytope`` and ``QuasiPolynomial`` data and returned
values. The three inner loops run on Python integers instead: linear
programs go through a fraction-free (integer-pivoting) simplex with Bland's
rule, integer points are counted by a DFS over integer-scaled rows, and each
residue class of a quasi-polynomial fit is interpolated over one common
denominator. Feasibility, optimality and counting answers are exact.
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
        return cls(tuple(tuple(Fraction(x) for x in row) for row in data["A"]),
                   tuple(Fraction(x) for x in data["b"]))


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
        A = tuple(tuple(Fraction(x) for x in row) for row in data["A"])
        b = tuple(Fraction(x) for x in data["b"])
        if "c" in data:
            c = tuple(Fraction(x) for x in data["c"])
        else:
            c = tuple(Fraction(0) for _ in b)
        return cls(A, b, c)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

def _int_row(row, rhs) -> list[int]:
    """The row with its rhs appended, scaled to integers by the lcm of their
    denominators (a positive factor, so the constraint is unchanged)."""
    L = lcm(rhs.denominator, *(a.denominator for a in row))
    return [a.numerator * (L // a.denominator) for a in row] + \
        [rhs.numerator * (L // rhs.denominator)]


def _simplex(A, b, c) -> tuple[str, Fraction | None]:
    """min c.x subject to Ax <= b with x free.

    Returns (status, value): status is "optimal", "infeasible" or
    "unbounded", and value is the exact optimum when status is "optimal",
    else None. Free variables are split x = u - v; Bland's rule makes every
    pivot choice deterministic and precludes cycling.

    The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every row is
    scaled to integers and the true tableau is T / D for one common
    denominator D > 0. A pivot on p = T[r][j] maps each other row to
    (p*T[i] - T[i][j]*T[r]) // D and sets D = p; by Sylvester's identity the
    division is exact, since every entry is a minor of the initial integer
    tableau. The objective row rides along as one more such row.
    """
    m = len(A)
    n = len(c)
    # columns: u_0..u_{n-1}, v_0..v_{n-1}, slacks s_0..s_{m-1},
    # artificials, then the rhs
    scaled = [_int_row(row, rhs) for row, rhs in zip(A, b)]
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
        # drive any artificial still in the basis out (or drop its row)
        for i in range(m):
            if basis[i] >= 2 * n + m:
                j = next((j for j in range(2 * n + m) if rows[i][j]), -1)
                if j >= 0:
                    pivot(i, j)
                else:
                    # redundant row: zero it so it never constrains again
                    rows[i] = [0] * (ncols + 1)

    cden = lcm(*(x.denominator for x in c)) if c else 1
    cost = [x.numerator * (cden // x.denominator) for x in c]
    if not any(cost):
        return "optimal", Fraction(0)
    set_objective(cost + [-x for x in cost] + [0] * (ncols - 2 * n))
    if run_phase(2 * n + m) == "unbounded":  # artificials may not re-enter
        return "unbounded", None
    return "optimal", Fraction(-z[-1], D * cden)


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
    status, _ = _simplex(Q.A, Q.b, [0] * Q.dim)
    return status != "infeasible"


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

    ``free`` lists the surviving coordinates; ``integral`` tells whether a
    free-coordinate point lifts to an integer point of the original space.
    ``infeasible`` is set when the equality system itself is contradictory.
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

    def integral(self, free_point) -> bool:
        """Whether the lift of an integer free-coordinate point is integral.

        Each echelon row is an integer row with pivot p in a pinned column,
        so that coordinate is (row[n] - sum row[fc] * x_fc) / p.
        """
        n = self._n
        return all((row[n] - sum(row[fc] * v for fc, v in zip(self.free, free_point)))
                   % row[pc] == 0
                   for row, pc in zip(self._rows, self._pivots))


def _coordinate_bounds(P: Polytope, i: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of x_i over P; raises on unbounded or infeasible."""
    cost = [0] * P.dim
    cost[i] = 1
    status, lo = _simplex(P.A, P.b, cost)
    if status == "infeasible":
        raise InfeasibleError("empty polytope")
    if status == "unbounded":
        raise UnboundedPolytopeError("unbounded polytope")
    cost[i] = -1
    status, neghi = _simplex(P.A, P.b, cost)
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
    coordinate has no finite range.

    The DFS runs on integers: every row is scaled to integers, the box
    shrinks to (ceil lo, floor hi), and the bound a row puts on a coordinate
    is a floor division, exact because the coordinate is integral."""
    red = _Reduced(P)
    if red.infeasible:
        return 0
    Q = red.poly
    nfree = len(red.free)
    if nfree == 0:
        if any(rhs < 0 for rhs in Q.b):
            return 0  # a surviving row reads 0 <= negative
        return int(red.integral(()))
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
    box = [(ceil(lo), floor(hi)) for lo, hi in boxes]
    if any(lo > hi for lo, hi in box):
        return 0

    A, b = [], []
    for row, rhs in zip(Q.A, Q.b):
        *coeffs, bound = _int_row(row, rhs)
        if any(coeffs):
            A.append(coeffs)
            b.append(bound)
        elif bound < 0:
            return 0  # an all-zero row reads 0 <= negative
    m = len(A)
    # tail_min[r][d] = minimum of sum_{j >= d} A[r][j] * x_j over the box
    tail_min = [[0] * (nfree + 1) for _ in range(m)]
    for r in range(m):
        for d in range(nfree - 1, -1, -1):
            a = A[r][d]
            tail_min[r][d] = tail_min[r][d + 1] + min(a * box[d][0], a * box[d][1])
    # per depth, the rows that constrain that coordinate: (row, coeff, tail)
    at_depth = [[(r, A[r][d], tail_min[r][d + 1]) for r in range(m) if A[r][d]]
                for d in range(nfree)]
    partial = [0] * m
    point = [0] * nfree
    last = nfree - 1
    pinned = bool(red._pivots)
    count = 0

    # The slack bound at a row's last nonzero column is exact (its tail is
    # empty), so every row holds at every point the DFS reaches: with no
    # pinned coordinate the last one is counted in closed form.
    def dfs(d: int):
        nonlocal count
        lo, hi = box[d]
        for r, a, tail in at_depth[d]:
            slack = b[r] - partial[r] - tail
            if a > 0:
                hi = min(hi, slack // a)
            else:
                lo = max(lo, -(slack // -a))
        if lo > hi:
            return
        if d == last:
            if not pinned:
                count += hi - lo + 1
                return
            for v in range(lo, hi + 1):
                point[d] = v
                if red.integral(point):
                    count += 1
            return
        rows = at_depth[d]
        base = [partial[r] for r, _, _ in rows]
        for v in range(lo, hi + 1):
            point[d] = v
            for (r, a, _), p0 in zip(rows, base):
                partial[r] = p0 + a * v
            dfs(d + 1)
        for (r, _, _), p0 in zip(rows, base):
            partial[r] = p0

    dfs(0)
    return count


def vertex(P: Polytope) -> tuple[Fraction, ...]:
    """An exact vertex found by minimizing coordinates lexicographically.

    Deterministic: minimizes x_0, pins it, minimizes x_1, and so on. Raises
    InfeasibleError for empty P and NoVertexError when some stage is
    unbounded below (in particular whenever P has a lineality direction).
    """
    n = P.dim
    rows = list(P.A)
    rhs = list(P.b)
    if not feasible(P):
        raise InfeasibleError("empty polytope")
    values: list[Fraction] = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        status, opt = _simplex(rows, rhs, unit)
        if status == "unbounded":
            raise NoVertexError("no vertex")
        rows += [unit, [-u for u in unit]]
        rhs += [opt, -opt]
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
                   tuple(tuple(Fraction(c) for c in comp)
                         for comp in data["components"]))


def _lagrange(points: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Exact interpolating polynomial through integer (k, value) points, as
    (numerators, denominator) with numerators constant first. Integer
    arithmetic throughout: the denominator is the lcm of the Lagrange
    weights prod_{j != i} (k_i - k_j)."""
    bases, weights = [], []
    for i, (xi, _) in enumerate(points):
        basis = [1]
        weight = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            weight *= xi - xj
        bases.append(basis)
        weights.append(weight)
    den = lcm(*weights)
    coeffs = [0] * len(points)
    for (_, yi), basis, weight in zip(points, bases, weights):
        scale = yi * (den // weight)
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs, den


def _horner(coeffs: list[int], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def fit_quasipolynomial(values: Sequence, max_period: int, max_degree: int,
                        holdout: int, skip_prefix: int = 0) -> QuasiPolynomial:
    """Smallest-period exact quasi-polynomial through counting data.

    ``values[i]`` is the count at k = i + 1. The last ``holdout`` values are
    excluded from interpolation and used purely for verification; the first
    ``skip_prefix`` values are discarded entirely (asymptotic counting
    functions may deviate on a finite prefix). Periods are tried in
    increasing order; per residue class the fit is the exact Lagrange
    interpolant through that class's first ``max_degree + 1`` fitting values,
    which must then reproduce every fitting and holdout value. By uniqueness
    of the interpolant this is the interpolant through all of the class's
    fitting values whenever that one has degree at most ``max_degree``.
    Raises FitError when no (period, degree) combination reproduces fitting
    and holdout values.
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
    if max_degree < 0:
        raise FitError("not quasi-polynomial within bounds")  # every degree is >= 0
    # the values over one common denominator, so fits run on integers
    scale = lcm(*(v.denominator for v in vals))
    ys = [v.numerator * (scale // v.denominator) for v in vals]

    for period in range(1, max_period + 1):
        classes: dict[int, list[tuple[int, int]]] = {r: [] for r in range(period)}
        for k in fit_ks:
            classes[k % period].append((k, ys[k - 1]))
        if any(not pts for pts in classes.values()):
            continue
        fits = [_lagrange(classes[r][:max_degree + 1]) for r in range(period)]
        if not all(_horner(fits[k % period][0], k) == ys[k - 1] * fits[k % period][1]
                   for k in check_ks):
            continue
        comps = []
        for coeffs, den in fits:
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            comps.append(tuple(Fraction(c, den * scale) for c in coeffs))
        return QuasiPolynomial(period, tuple(comps))
    raise FitError("not quasi-polynomial within bounds")
