import itertools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from test_polytope import inverse
from test_weylmod import permute_variables, poly_sum, variable

from weylbox import linalg, obstructions
from weylbox.config import BudgetError
from weylbox.obstructions import (MagicSquare, ObstructionCertificate,
                                  ObstructionChecks, ObstructionError,
                                  basic_invariant_poly,
                                  emit_obstruction_family,
                                  enumerate_magic_squares,
                                  invariant_ring_dimension_check,
                                  magic_orbits, verify_obstruction)
from weylbox.partitions import Partition
from weylbox.weylmod import MultiPoly

P = Partition


def trace_like_invariance_check(n, j, trials, seed=91):
    """Exact check, in MultiPoly arithmetic, that
    trace((A X A^-1)^j) = trace(X^j) for random invertible rational A, X the
    n x n matrix of variables; singular samples are redrawn."""
    rng = random.Random(seed)
    nv = n * n
    X = [[variable(nv, i * n + k) for k in range(n)] for i in range(n)]

    def mat_mul(U, V):
        # entries are MultiPolys or rationals, never rational on both sides
        def times(p, q):
            if isinstance(p, MultiPoly) and isinstance(q, MultiPoly):
                return p * q
            return p.scale(q) if isinstance(p, MultiPoly) else q.scale(p)
        return [[poly_sum(*(times(U[i][t], V[t][k]) for t in range(n)))
                 for k in range(n)] for i in range(n)]

    def trace_of_power(M, k):
        R = [[MultiPoly.constant(nv, int(i == t)) for t in range(n)]
             for i in range(n)]
        for _ in range(k):
            R = mat_mul(R, M)
        return poly_sum(*(R[i][i] for i in range(n)))

    target = trace_of_power(X, j)
    for _ in range(trials):
        A = None
        while A is None or linalg.det(A) == 0:
            A = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
        A_inv = inverse(A)
        if trace_of_power(mat_mul(mat_mul(A, X), A_inv), j) != target:
            return False
    return True


class TestMagicSquares:
    def test_weight_one_is_permutations(self):
        squares, orbits = enumerate_magic_squares(3, 1)
        assert len(squares) == 6 and orbits == 1
        for sq in squares:
            assert sorted(v for row in sq.entries for v in row) == [0] * 6 + [1] * 3

    def test_two_by_two_weight_three(self):
        squares, orbits = enumerate_magic_squares(2, 3)
        assert len(squares) == 4  # a free diagonal parameter 0..3
        assert orbits == 2

    def test_zero_weight(self):
        squares, orbits = enumerate_magic_squares(2, 0)
        assert len(squares) == 1 and orbits == 1

    def test_three_by_three_weight_three_count(self):
        # classical: H_3(3) = 55
        squares, _ = enumerate_magic_squares(3, 3)
        assert len(squares) == 55

    def test_caps(self):
        with pytest.raises(BudgetError):
            enumerate_magic_squares(5, 1)
        with pytest.raises(BudgetError):
            enumerate_magic_squares(2, 99)

    def test_invalid_square_rejected(self):
        with pytest.raises(ValueError):
            MagicSquare(2, ((1, 0), (0, 2)))


def brute_canonical_form(sq):
    """Reference: the least matrix over all (n!)^2 row and column orders."""
    best = None
    for rp in itertools.permutations(range(sq.n)):
        rows = [sq.entries[i] for i in rp]
        for cp in itertools.permutations(range(sq.n)):
            cand = tuple(tuple(row[j] for j in cp) for row in rows)
            if best is None or cand < best:
                best = cand
    return best


class TestCanonicalForm:
    """Sorting the columns under each of the n! row orders finds the same
    form as trying all (n!)^2 row and column orders."""

    @pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3) for r in range(5)])
    def test_every_small_square(self, n, r):
        squares, orbits = enumerate_magic_squares(n, r)
        forms = [brute_canonical_form(sq) for sq in squares]
        assert [sq.canonical_form() for sq in squares] == forms
        assert orbits == len(set(forms))
        assert [rep.entries for rep in magic_orbits(n, r)[1]] == \
            sorted(set(forms))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_four_by_four(self, seed):
        rng = random.Random(seed)
        squares = rng.sample(enumerate_magic_squares(4, 3)[0], 20)
        for _ in range(20):
            # a sum of r permutation matrices is magic of weight r
            entries = [[0] * 4 for _ in range(4)]
            for _ in range(rng.randint(1, 6)):
                for i, j in enumerate(rng.sample(range(4), 4)):
                    entries[i][j] += 1
            squares.append(MagicSquare(4, tuple(map(tuple, entries))))
        for sq in squares:
            assert sq.canonical_form() == brute_canonical_form(sq)


class TestBasicInvariants:
    def names(self, n):
        return [f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)]

    def test_identity_orbit_is_perm(self):
        poly = basic_invariant_poly(MagicSquare(2, ((1, 0), (0, 1))))
        assert poly.to_string(self.names(2)) == "x11*x22 + x12*x21"

    def test_all_ones_fixed(self):
        poly = basic_invariant_poly(MagicSquare(2, ((1, 1), (1, 1))))
        assert poly.to_string(self.names(2)) == "x11*x12*x21*x22"

    def test_doubled_diagonal(self):
        poly = basic_invariant_poly(MagicSquare(2, ((2, 0), (0, 2))))
        assert poly.to_string(self.names(2)) == "x11^2*x22^2 + x12^2*x21^2"

    def test_invariance_under_permutations(self):
        # symbolic check: substituting a row or column permutation fixes p_A
        sq = MagicSquare(3, ((2, 1, 0), (0, 2, 1), (1, 0, 2)))
        poly = basic_invariant_poly(sq)
        n = 3
        for perm in [[1, 0, 2], [1, 2, 0]]:
            row_sub = [perm[t // n] * n + t % n for t in range(n * n)]
            col_sub = [(t // n) * n + perm[t % n] for t in range(n * n)]
            assert permute_variables(poly, row_sub) == poly
            assert permute_variables(poly, col_sub) == poly


class TestInvariantRingDimension:
    @pytest.mark.parametrize("n,r", [(2, 0), (2, 1), (2, 2), (2, 3),
                                     (3, 0), (3, 1), (3, 2), (3, 3)])
    def test_agreement(self, n, r):
        assert invariant_ring_dimension_check(n, r)

    def test_representative_count_weight_one(self):
        assert len(magic_orbits(3, 1)[1]) == 1

    def test_repeated_representative_raises(self, monkeypatch):
        # one orbit twice gives two p_A with the same support; the
        # disjoint-support check must catch it before the count comparison
        real = obstructions.magic_orbits

        def doubled(*args):
            squares, reps = real(*args)
            return squares, reps + reps[:1]

        monkeypatch.setattr(obstructions, "magic_orbits", doubled)
        with pytest.raises(RuntimeError, match="share a monomial"):
            invariant_ring_dimension_check(3, 2)


class TestTraceInvariance:
    @pytest.mark.parametrize("n,j", [(2, 2), (3, 0), (2, 3), (3, 2)])
    def test_invariance(self, n, j):
        assert trace_like_invariance_check(n, j, trials=3)


class TestObstructionFamily:
    def test_emit_small(self):
        certs = list(emit_obstruction_family(4))
        assert [c.gamma for c in certs] == [P((4,)), P((6,)), P((8,))]
        assert all(c.checks.even and c.checks.alpha_neq_beta for c in certs)

    @pytest.mark.parametrize("N,error", [(1, ValueError), (1001, BudgetError)])
    def test_emit_refuses_at_the_call(self, N, error):
        # refused before anything is iterated, not at the first certificate
        with pytest.raises(error):
            emit_obstruction_family(N)

    def test_emit_fifty_fast(self):
        t0 = time.perf_counter()
        certs = list(emit_obstruction_family(50))
        for c in certs:
            verify_obstruction(c)
        assert time.perf_counter() - t0 < 1.0
        assert len(certs) == 49

    def test_full_verification(self):
        cert = next(iter(emit_obstruction_family(2)))
        full = verify_obstruction(cert, full=True)
        assert full.checks.invariant_dim >= 1

    def test_rejects_odd(self):
        bad = ObstructionCertificate(2, P((3, 1)), ObstructionChecks(False, True))
        with pytest.raises(ObstructionError, match="not even"):
            verify_obstruction(bad)

    def test_rejects_wrong_size(self):
        bad = ObstructionCertificate(3, P((4,)), ObstructionChecks(True, True))
        with pytest.raises(ObstructionError, match="2n"):
            verify_obstruction(bad)

    def test_structural_only_for_large_n(self):
        cert = ObstructionCertificate(7, P((10, 4)), ObstructionChecks(True, True))
        verified = verify_obstruction(cert, full=True)
        assert verified.checks.invariant_dim is None  # out of full budget

    def test_claimed_invariant_dim_not_passed_through(self):
        claimed = ObstructionCertificate.from_json(
            {"n": 10, "gamma": "20", "checks": {"invariant_dim": 999}})
        assert claimed.checks.invariant_dim == 999
        for full in (False, True):
            assert verify_obstruction(claimed, full=full).checks.invariant_dim is None
        small = replace(claimed, n=2, gamma=P((4,)))
        assert verify_obstruction(small).checks.invariant_dim is None
        assert verify_obstruction(small, full=True).checks.invariant_dim == \
            verify_obstruction(next(iter(emit_obstruction_family(2))),
                               full=True).checks.invariant_dim

    def test_json_roundtrip(self):
        cert = verify_obstruction(
            next(iter(emit_obstruction_family(2))), full=True)
        data = json.loads(json.dumps(cert.to_json()))
        back = ObstructionCertificate.from_json(data)
        assert back.n == cert.n and back.gamma == cert.gamma
        assert back.checks.invariant_dim == cert.checks.invariant_dim

    def test_bitlength_logarithmic(self):
        certs = list(emit_obstruction_family(50))
        for cert in certs:
            # O(log n): a generous explicit constant, far below the O(n) bound
            assert cert.bitlength <= 4 * math.log2(cert.n) + 8
            serialized = cert.gamma.serialize()
            assert 8 * len(serialized.encode()) <= 32 * math.log2(cert.n) + 32
