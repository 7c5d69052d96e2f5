import json
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, floor, gcd
from operator import mul, neg

import pytest
from hypothesis import given, settings, strategies as st

from weylbox import polytope
from weylbox.acceptance import STRETCH_QUERIES
from weylbox.linalg import _primitive_int_row, det, echelon, solve_columns
from weylbox.lr import LRQuery, _hive_rows, _hive_side, _reduced_hive, lr_stretch
from weylbox.partitions import Partition, partitions_of
from weylbox.polytope import (FitError, InfeasibleError, ParamPolytope,
                              QuasiPolynomial,
                              UnboundedPolytopeError, _coordinate_bounds,
                              _Reduced, _simplex, count_integer_points,
                              ehrhart_counts, feasible, fit_quasipolynomial)


def box(n, hi=1):
    A, b = [], []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(1)
        A.append(tuple(row))
        b.append(F(hi))
        row = [F(0)] * n
        row[i] = F(-1)
        A.append(tuple(row))
        b.append(F(0))
    return ParamPolytope(tuple(A), tuple(b))


def contains(P, point):
    return all(sum(a * F(x) for a, x in zip(row, point)) <= rhs
               for row, rhs in zip(P.A, P.b))


def inverse(M):
    n = len(M)
    return solve_columns(M, [[int(i == j) for j in range(n)]
                             for i in range(n)])


TRIANGLE = ParamPolytope(((F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))),
                         (F(0), F(0), F(1, 2)))


def brute_force_count(P, lo=-10, hi=10):
    """Independent oracle: scan a box of integer points."""
    n = P.dim
    return sum(1 for pt in product(range(lo, hi + 1), repeat=n)
               if contains(P, pt))


class TestFeasible:
    def test_contradictory(self):
        assert not feasible(ParamPolytope(((F(1),), (F(-1),)), (F(-1), F(0))))

    def test_unit_interval(self):
        assert feasible(ParamPolytope(((F(1),), (F(-1),)), (F(1), F(0))))

    def test_empty_system(self):
        assert feasible(ParamPolytope((), ()))


class TestCount:
    def test_unit_square(self):
        assert count_integer_points(box(2)) == 4

    def test_dilated_square(self):
        assert count_integer_points(box(2).at(3)) == 16

    def test_dilated_simplex(self):
        P = ParamPolytope(((F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))),
                          (F(2), F(0), F(0)))
        assert count_integer_points(P) == 6
        assert count_integer_points(P) == brute_force_count(P)

    def test_unbounded_errors(self):
        with pytest.raises(UnboundedPolytopeError, match="unbounded polytope"):
            count_integer_points(ParamPolytope(((F(-1),),), (F(0),)))

    def test_infeasible_is_zero(self):
        assert count_integer_points(
            ParamPolytope(((F(1),), (F(-1),)), (F(-1), F(0)))) == 0

    def test_zero_dimensional_rows(self):
        # with no variables left, a row reads 0 <= rhs
        assert count_integer_points(ParamPolytope(((),), (F(0),))) == 1
        empty = ParamPolytope(((),), (F(-1),))
        assert not feasible(empty)
        assert count_integer_points(empty) == 0

    def test_fractional_point(self):
        P = ParamPolytope(((F(1),), (F(-1),)), (F(1, 3), F(-1, 3)))
        assert count_integer_points(P) == 0
        assert count_integer_points(P.at(3)) == 1

    def test_dilation_identity_cubes(self):
        for n in (1, 2, 3):
            for k in range(1, 6):
                assert count_integer_points(box(n).at(k)) == (k + 1) ** n

    def test_matches_brute_force_fractional(self):
        assert count_integer_points(TRIANGLE) == brute_force_count(TRIANGLE)


def brute_vertices(P):
    """Independent oracle: the feasible unique solutions of every n-row
    subsystem. A bounded nonempty P is the convex hull of these."""
    n = P.dim
    out = set()
    for idx in combinations(range(len(P.A)), n):
        M = [list(P.A[i]) for i in idx]
        if det(M) == 0:
            continue
        inv = inverse(M)
        pt = tuple(sum(inv[r][t] * P.b[idx[t]] for t in range(n))
                   for r in range(n))
        if contains(P, pt):
            out.add(pt)
    return out


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
widths = st.builds(F, st.integers(1, 9), st.integers(1, 3))


@st.composite
def bounded_polytopes(draw):
    """A bounded polytope of dimension 1-3 with rational data. 'axis' ones
    carry a box. 'rotated' ones bound an invertible integer matrix with at
    least two nonzeros per row from both sides, so box propagation bounds no
    coordinate and the LP computes the bounds. Up to two extra rows may cut
    or empty it, and a +- row pair pins it to a hyperplane, so the equality
    elimination runs."""
    kind = draw(st.sampled_from(["axis", "rotated"]))
    n = draw(st.integers(1 if kind == "axis" else 2, 3))
    A, b = [], []

    def two_sided(row):
        lo = draw(rationals)
        A.extend([tuple(F(a) for a in row), tuple(F(-a) for a in row)])
        b.extend([lo + draw(widths), -lo])

    if kind == "axis":
        for i in range(n):
            two_sided([int(j == i) for j in range(n)])
    else:
        dense = [row for row in product((-1, 0, 1), repeat=n)
                 if sum(1 for a in row if a) >= 2]
        M = draw(st.lists(st.sampled_from(dense), min_size=n, max_size=n)
                 .filter(lambda M: det(M) != 0))
        for row in M:
            two_sided(row)
    rows = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    for row, rhs in draw(st.lists(st.tuples(rows, rationals), max_size=2)):
        A.append(tuple(F(a) for a in row))
        b.append(rhs + 4)
    if draw(st.integers(0, 2)) == 0:
        row, rhs = draw(rows), draw(rationals)
        A.extend([tuple(F(a) for a in row), tuple(F(-a) for a in row)])
        b.extend([rhs, -rhs])
    return ParamPolytope(tuple(A), tuple(b))


class TestKernelsAgainstBruteForce:
    """The integer simplex and the integer DFS against exact enumeration."""

    @given(bounded_polytopes())
    @settings(max_examples=200, deadline=None)
    def test_random_bounded(self, P):
        verts = brute_vertices(P)
        assert feasible(P) == bool(verts)
        if not verts:
            assert count_integer_points(P) == 0
            with pytest.raises(InfeasibleError):
                _coordinate_bounds(P.A, P.b, P.dim, 0)
            return
        ranges = []
        for i in range(P.dim):
            lo, hi = min(v[i] for v in verts), max(v[i] for v in verts)
            assert _coordinate_bounds(P.A, P.b, P.dim, i) == (lo, hi)
            ranges.append(range(ceil(lo), floor(hi) + 1))
        assert count_integer_points(P) == sum(
            1 for pt in product(*ranges) if contains(P, pt))


def lex_min_vertex(P):
    """The lexicographically least point of P by the LP kernel: minimize
    x_0, pin it, minimize x_1, and so on. None when some stage is unbounded
    below (P has no vertex); InfeasibleError when P is empty."""
    if not feasible(P):
        raise InfeasibleError("empty polytope")
    rows, rhs, values = list(P.A), list(P.b), []
    for i in range(P.dim):
        unit = [int(j == i) for j in range(P.dim)]
        status, opt = _simplex(rows, rhs, unit)
        if status == "unbounded":
            return None
        rows += [unit, [-u for u in unit]]
        rhs += [opt, -opt]
        values.append(opt)
    return tuple(values)


class TestVertex:
    def test_square_lex_min(self):
        assert lex_min_vertex(box(2)) == (F(0), F(0))

    def test_single_point(self):
        P = ParamPolytope(((F(1),), (F(-1),)), (F(1, 3), F(-1, 3)))
        assert lex_min_vertex(P) == (F(1, 3),)

    def test_triangle_against_enumeration(self):
        # oracle: enumerate candidate vertices as pairwise constraint
        # intersections, keep the feasible ones, take the lex-min
        candidates = []
        for (r1, b1), (r2, b2) in combinations(zip(TRIANGLE.A, TRIANGLE.b), 2):
            dd = det([list(r1), list(r2)])
            if dd == 0:
                continue
            inv = inverse([list(r1), list(r2)])
            pt = tuple(inv[i][0] * b1 + inv[i][1] * b2 for i in range(2))
            if contains(TRIANGLE, pt):
                candidates.append(pt)
        assert lex_min_vertex(TRIANGLE) == min(candidates)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            lex_min_vertex(ParamPolytope(((F(1),), (F(-1),)), (F(-1), F(0))))

    def test_not_pointed(self):
        # slab 0 <= x <= 1 in the plane has a lineality direction
        assert lex_min_vertex(
            ParamPolytope(((F(1), F(0)), (F(-1), F(0))), (F(1), F(0)))) is None

    def test_vertex_satisfies_constraints(self):
        v = lex_min_vertex(TRIANGLE)
        assert contains(TRIANGLE, v)


class TestEhrhart:
    def test_square_series(self):
        pp = ParamPolytope(box(2).A, box(2).b, tuple(F(0) for _ in box(2).b))
        assert ehrhart_counts(pp, 4) == (4, 9, 16, 25)

    def test_half_interval(self):
        pp = ParamPolytope(((F(1),), (F(-1),)), (F(1, 2), F(0)), (F(0), F(0)))
        assert ehrhart_counts(pp, 6) == (1, 2, 2, 3, 3, 4)

    def test_simplex(self):
        pp = ParamPolytope(((F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))),
                           (F(1), F(0), F(0)), (F(0), F(0), F(0)))
        assert ehrhart_counts(pp, 3) == (3, 6, 10)

    def test_unbounded_names_k(self):
        pp = ParamPolytope(((F(-1),),), (F(0),), (F(0),))
        with pytest.raises(UnboundedPolytopeError, match="k=1"):
            ehrhart_counts(pp, 2)

    def test_offset_c(self):
        # x <= k/2 + 1, x >= 0
        pp = ParamPolytope(((F(1),), (F(-1),)), (F(1, 2), F(0)), (F(1), F(0)))
        assert ehrhart_counts(pp, 4) == (2, 3, 3, 4)


class TestReduction:
    def test_scalar_multiple_pair(self):
        # 2x <= 2 and -x <= -1 are one equality x = 1 once rows are primitive
        P = ParamPolytope(((F(2),), (F(-1),)), (F(2), F(-1)))
        red = _Reduced(P.A, P.b)
        assert red.free == [] and red.A == []
        assert count_integer_points(P) == 1

    def test_pair_made_by_substitution(self):
        # x = 1 turns x + y <= 3 into y <= 2, the partner of -y <= -2
        P = ParamPolytope(((F(1), F(0)), (F(-1), F(0)), (F(1), F(1)), (F(0), F(-1))),
                          (F(1), F(-1), F(3), F(-2)))
        assert _Reduced(P.A, P.b).free == []
        assert count_integer_points(P) == 1

    def test_every_row_an_equality(self):
        # y is left with no row at all: unbounded, not a crash
        P = ParamPolytope(((F(1), F(0)), (F(-1), F(0))), (F(1), F(-1)))
        with pytest.raises(UnboundedPolytopeError, match="unbounded polytope"):
            count_integer_points(P)
        assert feasible(P)

    def test_inconsistent_equalities(self):
        # x = 1 and x = 2 as two pairs
        P = ParamPolytope(((F(1),), (F(-1),), (F(2),), (F(-2),)),
                          (F(1), F(-1), F(4), F(-4)))
        assert not feasible(P)
        assert count_integer_points(P) == 0


def counting_calls(monkeypatch, name):
    calls = []
    original = getattr(polytope, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope, name, wrapper)
    return calls


ROTATED = ((F(1), F(1)), (F(-1), F(-1)), (F(1), F(-1)), (F(-1), F(1)))


class TestFamilyReducedOnce:
    """ehrhart_counts reduces the family once; with c = 0 it also bounds it
    once, at k = 1, and scales that box."""

    def test_one_reduction(self, monkeypatch):
        calls = []

        class Counting(_Reduced):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(polytope, "_Reduced", Counting)
        pp = ParamPolytope(box(2).A, box(2).b, tuple(F(0) for _ in box(2).b))
        assert ehrhart_counts(pp, 6) == tuple((k + 1) ** 2 for k in range(1, 7))
        assert len(calls) == 1

    def test_homogeneous_box_once(self, monkeypatch):
        # rotated rows: propagation bounds nothing, so the LP bounds each
        # coordinate, once for the whole family
        pp = ParamPolytope(ROTATED, (F(1, 2), F(1, 3), F(1, 2), F(1)), (F(0),) * 4)
        expected = tuple(count_integer_points(pp.at(k)) for k in range(1, 7))
        props = counting_calls(monkeypatch, "_propagated_box")
        lps = counting_calls(monkeypatch, "_coordinate_bounds")
        assert ehrhart_counts(pp, 6) == expected
        assert len(props) == 1
        assert len(lps) == 2

    def test_offset_box_per_k(self, monkeypatch):
        props = counting_calls(monkeypatch, "_propagated_box")
        pp = ParamPolytope(box(2).A, box(2).b, (F(1), F(0), F(0), F(0)))
        ehrhart_counts(pp, 5)
        assert len(props) == 5


small_rationals = st.builds(F, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def families(draw, homogeneous=None):
    """A family {x : Ax <= k*b + c} of dimension 1-3. Its rows bound an
    axis box or, for 'rotated', an invertible matrix with at least two
    nonzeros per row, which propagation cannot use, from both sides; each
    side gets its own b and c, so some members may be empty. Optionally
    (always, with ``homogeneous``) c is 0, one side is dropped (unbounded),
    up to two extra rows cut it, and a pair (a, b, c), (-a, -b, -c), given
    as different multiples of one row, pins it to a hyperplane."""
    kind = draw(st.sampled_from(["axis", "rotated"]))
    n = draw(st.integers(1 if kind == "axis" else 2, 3))
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    rhs = st.tuples(small_rationals.map(lambda x: x + 1),
                    st.just(F(0)) if homogeneous else small_rationals)
    A, b, c = [], [], []

    def add(row, bc, scale=1):
        A.append(tuple(F(scale * a) for a in row))
        b.append(scale * bc[0])
        c.append(scale * bc[1])

    if kind == "axis":
        M = [[int(j == i) for j in range(n)] for i in range(n)]
    else:
        dense = [row for row in product((-1, 0, 1), repeat=n)
                 if sum(1 for a in row if a) >= 2]
        M = draw(st.lists(st.sampled_from(dense), min_size=n, max_size=n)
                 .filter(lambda M: det(M) != 0))
    for row in M:
        add(row, draw(rhs))
        add([-a for a in row], draw(rhs))
    if draw(st.integers(0, 3)) == 0:
        del A[0], b[0], c[0]
    rows = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    for row in draw(st.lists(rows, max_size=2)):
        add(row, draw(rhs))
    if draw(st.booleans()):
        row, bc = draw(rows), draw(rhs)
        add(row, bc, draw(st.integers(1, 3)))
        add([-a for a in row], (-bc[0], -bc[1]), draw(st.integers(1, 3)))
    return ParamPolytope(tuple(A), tuple(b), tuple(c))


class TestFamilyCounts:
    """One reduction for the whole family counts what a fresh count of each
    member does, and fails at the same k."""

    @given(families(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_member_counts(self, pp, K):
        expected = []
        for k in range(1, K + 1):
            try:
                expected.append(count_integer_points(pp.at(k)))
            except UnboundedPolytopeError:
                with pytest.raises(UnboundedPolytopeError,
                                   match=f"^unbounded polytope at k={k}$"):
                    ehrhart_counts(pp, K)
                return
        assert ehrhart_counts(pp, K) == tuple(expected)
        P = pp.at(1)
        if feasible(P):  # and bounded: a third route by box enumeration
            ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in
                      (_coordinate_bounds(P.A, P.b, P.dim, i) for i in range(P.dim))]
            assert expected[0] == sum(1 for pt in product(*ranges) if contains(P, pt))


    @given(families())
    @settings(max_examples=150, deadline=None)
    def test_single_polytope_reads_c(self, pp):
        # feasible and count_integer_points take pp at k = 1, c included,
        # as ehrhart_counts and pp.at(1) do
        assert feasible(pp) == feasible(pp.at(1))
        try:
            expected = ehrhart_counts(pp, 1)[0]
        except UnboundedPolytopeError:
            with pytest.raises(UnboundedPolytopeError):
                count_integer_points(pp)
            return
        assert count_integer_points(pp) == expected == count_integer_points(pp.at(1))

    def test_offset_c_single_polytope(self):
        # x <= 1/2 + c_0, x >= 0: c = 1 adds a point, c = -1 empties it
        A, b = ((F(1),), (F(-1),)), (F(1, 2), F(0))
        assert count_integer_points(ParamPolytope(A, b, (F(1), F(0)))) == 2
        empty = ParamPolytope(A, b, (F(-1), F(0)))
        assert not feasible(empty) and count_integer_points(empty) == 0


def reference_count(reduced, k):
    """The DFS that ``_Reduced.count`` replaced, kept as its reference: it
    rebuilds its per-depth rows at every k, recurses once per value down to
    the last coordinate and tests every pin, whatever its pivot."""
    self = reduced
    rhs = self.rhs(k)
    if rhs is None:
        return 0
    pins = [(p, coeffs, k * bv + cv) for p, coeffs, bv, cv in self._pins]

    def integral(point) -> bool:
        return all((r - sum(map(mul, coeffs, point))) % p == 0
                   for p, coeffs, r in pins)

    nfree = len(self.free)
    if nfree == 0:
        return int(integral(()))
    box = self.box(k, rhs)
    if box is None or any(lo > hi for lo, hi in box):
        return 0

    A, b = self.A, rhs
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
    pinned = bool(pins)
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
                if integral(point):
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


@st.composite
def pinned_families(draw, homogeneous=None):
    """A family of ``families()`` with a new first coordinate x_0 pinned by
    a pair p*x_0 + a.x = k*b + c, (-p, -a, -b, -c). Reduced, x_0 has pivot p
    over the gcd of the row: pivot 1 is a unit pin, and a pivot of 2 or more
    (as in 2x - y) is tested for integrality at every point."""
    pp = draw(families(homogeneous))
    n = pp.dim
    p = draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    bv = draw(small_rationals)
    cv = F(0) if homogeneous else draw(small_rationals)
    eq = (F(p), *map(F, a))
    return ParamPolytope(
        tuple((F(0), *row) for row in pp.A) + (eq, tuple(-x for x in eq)),
        pp.b + (bv, -bv), pp.c + (cv, -cv))


def assert_counts_like_reference(pp, K):
    expected = []
    for k in range(1, K + 1):
        try:
            expected.append(reference_count(_Reduced(pp.A, pp.b, pp.c), k))
        except UnboundedPolytopeError:
            with pytest.raises(UnboundedPolytopeError,
                               match=f"^unbounded polytope at k={k}$"):
                _Reduced(pp.A, pp.b, pp.c).counts(K)
            return
    assert _Reduced(pp.A, pp.b, pp.c).counts(K) == tuple(expected)


class TestCountAgainstReference:
    """The DFS on the family's plan, with its closed last two levels, counts
    what the reference DFS counts, and fails at the same k."""

    @given(st.one_of(families(), pinned_families()), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, pp, K):
        assert_counts_like_reference(pp, K)

    @given(st.one_of(families(True), pinned_families(True)), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_families_to_k8(self, pp, K):
        # c = 0: the box at every k is scaled from the one at k = 1
        assert_counts_like_reference(pp, K)

    @given(st.one_of(families(), pinned_families()), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_counts_is_count_per_k(self, pp, K):
        # one plan for every k gives what a plan first built at k gives;
        # a single count names no k, the series names the first it fails at
        singles = []
        for k in range(1, K + 1):
            try:
                singles.append(_Reduced(pp.A, pp.b, pp.c).count(k))
            except UnboundedPolytopeError as exc:
                assert str(exc) == "unbounded polytope"
                with pytest.raises(UnboundedPolytopeError,
                                   match=f"^unbounded polytope at k={k}$"):
                    _Reduced(pp.A, pp.b, pp.c).counts(K)
                return
        assert _Reduced(pp.A, pp.b, pp.c).counts(K) == tuple(singles)

    def test_unbounded_messages(self):
        # x >= 0 and 0 <= y <= 1 leave x unbounded above: a point count says
        # so plainly, a series names the k
        pp = ParamPolytope(((F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))),
                           (F(0), F(1), F(0)))
        with pytest.raises(UnboundedPolytopeError, match="^unbounded polytope$"):
            count_integer_points(pp)
        with pytest.raises(UnboundedPolytopeError,
                           match="^unbounded polytope at k=1$"):
            ehrhart_counts(pp, 3)

    def test_pinned_hive(self):
        # the side-6 hive of the stretch probe: 7 free coordinates and three
        # pins, all of pivot 1, so it takes the closed last two levels
        q = LRQuery(Partition((8, 6, 4, 2)), Partition((8, 6, 4, 2)),
                    Partition((12, 10, 8, 6, 2, 2)))
        hive = _reduced_hive(q, 6)
        assert len(hive.free) == 7
        assert [p for p, _, _, _ in hive._pins] == [1, 1, 1]
        assert hive.counts(4) == (160, 3510, 30348, 158235)

    @pytest.mark.parametrize("raw", STRETCH_QUERIES)
    def test_stretch_hives(self, raw):
        q = LRQuery(*(Partition(p) for p in raw))
        hive = _reduced_hive(q, _hive_side(q, None))
        assert hive.counts(4) == tuple(reference_count(hive, k) for k in range(1, 5))

    def test_pivot_two_pin(self):
        # 2x = y + z over 0 <= y, z <= k: x is pinned with pivot 2, so only
        # the points with y + z even count, through the integrality test
        pp = ParamPolytope(
            ((F(0), F(1), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(1)),
             (F(0), F(0), F(-1)), (F(2), F(-1), F(-1)), (F(-2), F(1), F(1))),
            (F(1), F(0), F(1), F(0), F(0), F(0)))
        reduced = _Reduced(pp.A, pp.b, pp.c)
        assert [p for p, _, _, _ in reduced._pins] == [2]
        expected = tuple(((k + 1) ** 2 + 1) // 2 for k in range(1, 6))
        assert reduced.counts(5) == expected == (2, 5, 8, 13, 18)
        assert expected == tuple(reference_count(reduced, k) for k in range(1, 6))


def reference_reduced(A, b, c=None):
    """The equality elimination that ``_Reduced.__init__`` replaced, kept as
    its reference: rounds that split off every +/- pair of the current rows,
    bring all equalities so far to integer echelon form with
    ``linalg.echelon`` (b and c columns included) and substitute the pins
    into the rows left, until a round finds no pair. Returns the
    ``_Reduced`` this state makes, with today's counting code, and whether
    some equality was pinned on its b or c column."""

    def _split_equalities(rows):
        unpaired: dict[tuple[int, ...], list[int]] = {}
        eqs, paired = [], set()
        for i, row in enumerate(rows):
            partners = unpaired.get(tuple(map(neg, row)))
            if partners:
                paired.update((i, partners.pop()))
                eqs.append(row)
            else:
                unpaired.setdefault(row, []).append(i)
        return eqs, [row for i, row in enumerate(rows) if i not in paired]

    def _substitute(row, pinned) -> tuple[int, ...]:
        for prow, pc in pinned:
            f = row[pc]
            if f:
                p = prow[pc]
                row = [p * x - f * y for x, y in zip(row, prow)]
        g = gcd(*row)
        return tuple(v // g for v in row) if g > 1 else tuple(row)

    self = _Reduced.__new__(_Reduced)
    n = len(A[0]) if A else 0
    rows = [tuple(_primitive_int_row([*row, bv, cv]))
            for row, bv, cv in zip(A, b, c or [0] * len(b))]
    reduced, pivots, pinned = [], [], []
    while True:
        new, rows = _split_equalities(rows)
        if not new:
            break
        # the rows of the last round are already reduced: only the new
        # equalities do any elimination work
        reduced, pivots = echelon(reduced + new, n + 2)
        pinned = [(row, pc) for row, pc in zip(reduced, pivots) if pc < n]
        rows = [_substitute(row, pinned) for row in rows]
    self.free = [j for j in range(n) if j not in pivots]
    self.consts = []
    for row, pc in zip(reduced, pivots):
        if pc >= n:  # no coordinate left: 0 = k*b + c
            self.consts += [(row[n], row[n + 1]), (-row[n], -row[n + 1])]
    self.A, self.b, self.c = [], [], []
    for row in dict.fromkeys(rows):
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
                  for row, pc in pinned]
    return self, any(pc >= n for pc in pivots)


def outcome(call):
    """A call's value, or its exception's type and message."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_reduces_like_reference(A, b, c, K):
    reduced = _Reduced(A, b, c)
    reference, bc_pinned = reference_reduced(A, b, c)
    assert outcome(lambda: reduced.counts(K)) == outcome(lambda: reference.counts(K))
    for k in range(1, K + 1):
        assert reduced.feasible(k) == reference.feasible(k)
    if not bc_pinned:
        for field in ("free", "A", "b", "c", "_pins"):
            assert getattr(reduced, field) == getattr(reference, field), field


class TestReductionAgainstReference:
    """The worklist of +/- pairs reduces a family as the rounds over
    ``echelon`` did: the same counts, feasibility and errors, and the same
    free coordinates, rows and pins unless the reference pinned an equality
    0 = k*b + c on its b or c column, which the worklist keeps in
    ``consts`` only."""

    @given(st.one_of(families(), pinned_families()), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_families(self, pp, K):
        assert_reduces_like_reference(pp.A, pp.b, pp.c, K)

    def test_oracle_triangle_hives(self):
        # every hive of the lr-oracle-triangle range: |alpha|, |beta| <= 4,
        # lengths <= 4
        parts = [p for s in range(5) for p in partitions_of(s, max_length=4)]
        for alpha, beta in product(parts, parts):
            for lam in partitions_of(alpha.size + beta.size, max_length=4):
                q = LRQuery(alpha, beta, lam)
                A, b = _hive_rows(q, _hive_side(q, None))
                assert_reduces_like_reference(A, b, None, 2)

    def test_constant_equality(self):
        # x = k and x = 2 as two pairs: x - k = 0 pins nothing, and P(k) is
        # the point x = 2 at k = 2 and empty at every other k
        pp = ParamPolytope(((F(1),), (F(-1),), (F(1),), (F(-1),)),
                           (F(1), F(-1), F(0), F(0)), (F(0), F(0), F(2), F(-2)))
        assert ehrhart_counts(pp, 4) == (0, 1, 0, 0)
        reduced = _Reduced(pp.A, pp.b, pp.c)
        assert [reduced.feasible(k) for k in range(1, 5)] == [False, True, False, False]
        assert reference_reduced(pp.A, pp.b, pp.c)[0].counts(4) == (0, 1, 0, 0)

    def test_constant_equality_with_free_coordinate(self):
        # the same with 0 <= y <= k: y is left free, three points at k = 2
        pp = ParamPolytope(((F(1), F(0)), (F(-1), F(0)), (F(1), F(0)), (F(-1), F(0)),
                            (F(0), F(1)), (F(0), F(-1))),
                           (F(1), F(-1), F(0), F(0), F(1), F(0)),
                           (F(0), F(0), F(2), F(-2), F(0), F(0)))
        assert ehrhart_counts(pp, 4) == (0, 3, 0, 0)
        reduced = _Reduced(pp.A, pp.b, pp.c)
        assert reduced.free == [1]
        assert [reduced.feasible(k) for k in range(1, 5)] == [False, True, False, False]
        assert reference_reduced(pp.A, pp.b, pp.c)[0].counts(4) == (0, 3, 0, 0)


class TestFit:
    def test_polynomial(self):
        qp = fit_quasipolynomial([(k + 1) ** 2 for k in range(1, 9)], 4, 6, 2)
        assert qp.period == 1
        assert qp.components[0] == (F(1), F(2), F(1))

    def test_period_two(self):
        qp = fit_quasipolynomial([k // 2 + 1 for k in range(1, 11)], 4, 6, 2)
        assert qp.period == 2
        for k in range(1, 11):
            assert qp.eval(k) == k // 2 + 1

    def test_geometric_fails(self):
        with pytest.raises(FitError, match="not quasi-polynomial"):
            fit_quasipolynomial([1, 2, 4, 8, 16, 32], 2, 1, 2)

    def test_degree_cap(self):
        with pytest.raises(FitError):
            fit_quasipolynomial([k ** 3 for k in range(1, 9)], 1, 2, 2)

    def test_skip_prefix(self):
        # constant after a deviant first value
        values = [99] + [7] * 7
        with pytest.raises(FitError):
            fit_quasipolynomial(values, 2, 3, 2)
        qp = fit_quasipolynomial(values, 2, 3, 2, skip_prefix=1)
        assert qp.eval(5) == 7

    def test_reproduces_all_supplied_values(self):
        values = [3, 6, 10, 15, 21, 28, 36]
        qp = fit_quasipolynomial(values, 4, 6, 2)
        assert [qp.eval(k) for k in range(1, 8)] == values

    def test_negative_skip_prefix_refused(self):
        # the counts of [0, k/2]: period 2, which skip_prefix=0 fits
        values = [k // 2 + 1 for k in range(1, 9)]
        assert fit_quasipolynomial(values, 2, 1, 2).period == 2
        with pytest.raises(ValueError, match="skip_prefix must be nonnegative"):
            fit_quasipolynomial(values, 2, 1, 2, skip_prefix=-1)


def reference_fit(values, max_period, max_degree, holdout, skip_prefix=0):
    """Independent oracle: per residue class, the exact interpolant through
    every fitting value (a Vandermonde solve), rejected above max_degree."""
    K = len(values)
    for period in range(1, max_period + 1):
        comps = []
        for r in range(period):
            pts = [(k, F(values[k - 1]))
                   for k in range(skip_prefix + 1, K - holdout + 1)
                   if k % period == r]
            if not pts:
                break
            X = solve_columns([[F(k) ** d for d in range(len(pts))] for k, _ in pts],
                              [[y] for _, y in pts])
            coeffs = [row[0] for row in X]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) - 1 > max_degree:
                break
            comps.append(tuple(coeffs))
        else:
            qp = QuasiPolynomial(period, tuple(comps))
            if all(qp.eval(k) == values[k - 1]
                   for k in range(skip_prefix + 1, K + 1)):
                return qp
    return None


def fit_or_none(values, max_period, max_degree, holdout, skip_prefix=0):
    try:
        return fit_quasipolynomial(values, max_period, max_degree, holdout,
                                   skip_prefix)
    except FitError:
        return None


@st.composite
def fit_cases(draw):
    """A random quasi-polynomial's values at k = 1..K, period 1-4, degree
    0-4 and rational coefficients, perhaps with one value perturbed, and
    random fit bounds that leave at least one fitting value."""
    period = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    comps = [draw(st.lists(small_rationals, min_size=1, max_size=degree + 1))
             for _ in range(period)]
    holdout = draw(st.integers(1, 3))
    skip_prefix = draw(st.integers(0, 2))
    K = draw(st.integers(skip_prefix + holdout + 1, 20))
    values = [sum(c * k ** i for i, c in enumerate(comps[k % period]))
              for k in range(1, K + 1)]
    if draw(st.booleans()):
        values[draw(st.integers(0, K - 1))] += draw(
            small_rationals.filter(bool))
    return (values, draw(st.integers(1, 5)), draw(st.integers(-1, 6)),
            holdout, skip_prefix)


class TestFitAgainstReference:
    """The fit through each class's first max_degree + 1 values equals the
    fit through all of them, and fails in exactly the same cases."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_degree_above_cap_fails(self, d):
        values = [k ** (d + 1) for k in range(1, 2 * d + 7)]
        with pytest.raises(FitError):
            fit_quasipolynomial(values, 2, d, 2)
        assert reference_fit(values, 2, d, 2) is None

    def test_class_not_polynomial_beyond_degree_bound(self):
        # per class, the first two fitting values lie on a line and a later
        # fitting value (k = 6) does not; both holdout values do
        values = [1, 2, 3, 4, 5, 100, 7, 8]
        with pytest.raises(FitError):
            fit_quasipolynomial(values, 2, 1, 2)
        assert reference_fit(values, 2, 1, 2) is None

    def test_half_interval(self):
        pp = ParamPolytope(((F(1),), (F(-1),)), (F(1, 2), F(0)), (F(0), F(0)))
        values = ehrhart_counts(pp, 10)
        qp = fit_quasipolynomial(values, 4, 1, 2)
        assert qp == QuasiPolynomial(2, ((F(1), F(1, 2)), (F(1, 2), F(1, 2))))
        assert qp == reference_fit(values, 4, 1, 2)

    @pytest.mark.parametrize("raw", STRETCH_QUERIES)
    def test_lr_stretch_series(self, raw):
        series = lr_stretch(LRQuery(*(Partition(p) for p in raw)), 7)
        assert series.fit == reference_fit(series.values, 4, 6, 2)
        for max_degree in (0, 1, 2):
            assert fit_or_none(series.values, 4, max_degree, 2) == \
                reference_fit(series.values, 4, max_degree, 2)

    @pytest.mark.parametrize("values", [
        [(k + 1) ** 2 for k in range(1, 9)],
        [k // 2 + 1 for k in range(1, 11)],
        [F(k * k, 3) + (k % 3) for k in range(1, 15)],
        [1, 2, 4, 8, 16, 32],
        [0] * 6])
    def test_series(self, values):
        for max_degree in range(-1, 4):
            assert fit_or_none(values, 3, max_degree, 2) == \
                reference_fit(values, 3, max_degree, 2)

    @given(fit_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_quasipolynomials(self, case):
        assert fit_or_none(*case) == reference_fit(*case)


class TestSerialization:
    def test_polytope_roundtrip(self):
        data = TRIANGLE.to_json()
        assert data["b"] == ["0", "0", "1/2"]
        assert ParamPolytope.from_json(json.loads(json.dumps(data))) == TRIANGLE

    def test_ragged_matrix_refused(self):
        with pytest.raises(ValueError, match="ragged constraint matrix"):
            ParamPolytope(((F(1), F(0)), (F(-1),)), (F(1), F(0)))

    @pytest.mark.parametrize("data", [
        [["1"]],
        {"b": ["1"]},
        {"A": [["1"]]},
        {"A": ["1"], "b": ["1"]},
        {"A": [["1"]], "b": "1"},
        {"A": [["1"], ["-1"]], "b": ["1", "0"], "c": "00"},
        {"A": [[None]], "b": ["1"]}])
    def test_malformed_json_refused(self, data):
        with pytest.raises(ValueError):
            ParamPolytope.from_json(data)

    def test_param_polytope_optional_c(self):
        pp = ParamPolytope.from_json({"A": [["1"], ["-1"]], "b": ["1/2", "0"]})
        assert pp.c == (F(0), F(0))
        assert pp.at(3).b == (F(3, 2), F(0))

    def test_quasipolynomial_roundtrip(self):
        qp = QuasiPolynomial(2, ((F(1), F(1, 2)), (F(1, 2), F(1, 2))))
        back = QuasiPolynomial.from_json(json.loads(json.dumps(qp.to_json())))
        assert back == qp
