import json
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from weylbox.linalg import det, mat_inv
from weylbox.polytope import (FitError, InfeasibleError, NoVertexError,
                              ParamPolytope, Polytope, QuasiPolynomial,
                              UnboundedPolytopeError, count_integer_points,
                              ehrhart_counts, feasible, fit_quasipolynomial,
                              smallest_integral_dilation, vertex)


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
    return Polytope(tuple(A), tuple(b))


TRIANGLE = Polytope(((F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))),
                    (F(0), F(0), F(1, 2)))


def brute_force_count(P, lo=-10, hi=10):
    """Independent oracle: scan a box of integer points."""
    n = P.dim
    return sum(1 for pt in product(range(lo, hi + 1), repeat=n)
               if P.contains(pt))


class TestFeasible:
    def test_contradictory(self):
        assert not feasible(Polytope(((F(1),), (F(-1),)), (F(-1), F(0))))

    def test_unit_interval(self):
        assert feasible(Polytope(((F(1),), (F(-1),)), (F(1), F(0))))

    def test_empty_system(self):
        assert feasible(Polytope((), ()))


class TestCount:
    def test_unit_square(self):
        assert count_integer_points(box(2)) == 4

    def test_dilated_square(self):
        assert count_integer_points(box(2).dilate(3)) == 16

    def test_dilated_simplex(self):
        P = Polytope(((F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))),
                     (F(2), F(0), F(0)))
        assert count_integer_points(P) == 6
        assert count_integer_points(P) == brute_force_count(P)

    def test_unbounded_errors(self):
        with pytest.raises(UnboundedPolytopeError, match="unbounded polytope"):
            count_integer_points(Polytope(((F(-1),),), (F(0),)))

    def test_infeasible_is_zero(self):
        assert count_integer_points(
            Polytope(((F(1),), (F(-1),)), (F(-1), F(0)))) == 0

    def test_zero_dimensional_rows(self):
        # with no variables left, a row reads 0 <= rhs
        assert count_integer_points(Polytope(((),), (F(0),))) == 1
        empty = Polytope(((),), (F(-1),))
        assert not feasible(empty)
        assert count_integer_points(empty) == 0

    def test_fractional_point(self):
        P = Polytope(((F(1),), (F(-1),)), (F(1, 3), F(-1, 3)))
        assert count_integer_points(P) == 0
        assert count_integer_points(P.dilate(3)) == 1

    def test_dilation_identity_cubes(self):
        for n in (1, 2, 3):
            for k in range(1, 6):
                assert count_integer_points(box(n).dilate(k)) == (k + 1) ** n

    def test_matches_brute_force_fractional(self):
        assert count_integer_points(TRIANGLE) == brute_force_count(TRIANGLE)


class TestVertex:
    def test_square_lex_min(self):
        assert vertex(box(2)) == (F(0), F(0))

    def test_single_point(self):
        P = Polytope(((F(1),), (F(-1),)), (F(1, 3), F(-1, 3)))
        assert vertex(P) == (F(1, 3),)

    def test_triangle_against_enumeration(self):
        # oracle: enumerate candidate vertices as pairwise constraint
        # intersections, keep the feasible ones, take the lex-min
        candidates = []
        for (r1, b1), (r2, b2) in combinations(zip(TRIANGLE.A, TRIANGLE.b), 2):
            dd = det([list(r1), list(r2)])
            if dd == 0:
                continue
            inv = mat_inv([list(r1), list(r2)])
            pt = tuple(inv[i][0] * b1 + inv[i][1] * b2 for i in range(2))
            if TRIANGLE.contains(pt):
                candidates.append(pt)
        assert vertex(TRIANGLE) == min(candidates)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            vertex(Polytope(((F(1),), (F(-1),)), (F(-1), F(0))))

    def test_not_pointed(self):
        # slab 0 <= x <= 1 in the plane has a lineality direction
        with pytest.raises(NoVertexError, match="no vertex"):
            vertex(Polytope(((F(1), F(0)), (F(-1), F(0))), (F(1), F(0))))

    def test_vertex_satisfies_constraints(self):
        v = vertex(TRIANGLE)
        assert TRIANGLE.contains(v)


class TestSmallestIntegralDilation:
    def test_third(self):
        P = Polytope(((F(1),), (F(-1),)), (F(1, 3), F(-1, 3)))
        assert smallest_integral_dilation(P) == (3, (1,))

    def test_unit_square(self):
        assert smallest_integral_dilation(box(2)) == (1, (0, 0))

    def test_triangle_integral_corner(self):
        # the deterministic vertex is (0,0), already integral
        assert smallest_integral_dilation(TRIANGLE) == (1, (0, 0))

    def test_mixed_denominators(self):
        P = Polytope(((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))),
                     (F(1, 3), F(-1, 3), F(1, 2), F(-1, 2)))
        assert smallest_integral_dilation(P) == (6, (2, 3))


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


class TestSerialization:
    def test_polytope_roundtrip(self):
        data = TRIANGLE.to_json()
        assert data["b"] == ["0", "0", "1/2"]
        assert Polytope.from_json(json.loads(json.dumps(data))) == TRIANGLE

    def test_param_polytope_optional_c(self):
        pp = ParamPolytope.from_json({"A": [["1"], ["-1"]], "b": ["1/2", "0"]})
        assert pp.c == (F(0), F(0))
        assert pp.at(3).b == (F(3, 2), F(0))

    def test_quasipolynomial_roundtrip(self):
        qp = QuasiPolynomial(2, ((F(1), F(1, 2)), (F(1, 2), F(1, 2))))
        back = QuasiPolynomial.from_json(json.loads(json.dumps(qp.to_json())))
        assert back == qp
