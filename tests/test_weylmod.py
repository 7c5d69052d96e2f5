import hashlib
import itertools
import random
from dataclasses import astuple, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import dense_nullspace

from weylbox import linalg, obstructions, weylmod
from weylbox.config import DEFAULT, BudgetError
from weylbox.partitions import (Partition, Tableau, dim_weyl, is_even,
                                partitions_of, weak_compositions)
from weylbox.weylmod import (MultiPoly, _monomial_kernel, _relabel, _shift,
                             _torus_monomials, deruyts_generator,
                             det_polynomial, fixed_subspace_dim,
                             group_action_matrix, highest_weight_vector,
                             kempf_irreducibility_check,
                             matrix_variable_names, perm_generators,
                             perm_polynomial, perm_stabilizer_invariants,
                             symmetry_characterization_space, weyl_module)

P = Partition


def variable(nvars, idx):
    return MultiPoly(nvars, {tuple(int(t == idx) for t in range(nvars)): 1})


def poly_sum(*polys):
    """Sum of MultiPolys, over the variable count of the first."""
    out = {}
    for p in polys:
        for e, c in p.terms.items():
            out[e] = out.get(e, 0) + c
    return MultiPoly(polys[0].nvars, out)


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def permutation_matrix(n, perm):
    """0/1 matrix sending basis vector j to perm[j]."""
    mat = [[F(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        mat[i][j] = F(1)
    return mat


def literal_pow(p, k):
    result = MultiPoly.constant(p.nvars, 1)
    for _ in range(k):
        result = result * p
    return result


def compose_linear(p, images):
    """Reference substitution: variable t of p becomes images[t], expanded
    monomial by monomial."""
    result = MultiPoly(p.nvars)
    powers = {}
    for e, c in p.terms.items():
        term = MultiPoly.constant(p.nvars, c)
        for t, k in enumerate(e):
            if k:
                if (t, k) not in powers:
                    powers[t, k] = literal_pow(images[t], k)
                term = term * powers[t, k]
        result = poly_sum(result, term)
    return result


def basis_matrix_rows(polys, monomials):
    """Dense matrix with one row per monomial and one column per poly."""
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[0] * len(polys) for _ in monomials]
    for col, poly in enumerate(polys):
        for e, c in poly.terms.items():
            rows[index[e]][col] = c
    return rows


def literal_action_matrix(M, g):
    """Coordinates of every e_T(Z g), with Z g substituted literally:
    z_ij -> sum_k z_ik g[k][j], and solved exactly against the dense basis
    matrix (solve_columns raises when a poly leaves the span)."""
    n, nv = M.n, M.n * M.n
    images = []
    for i in range(n):
        for j in range(n):
            images.append(MultiPoly(nv, {
                tuple(int(t == i * n + k) for t in range(nv)): F(g[k][j])
                for k in range(n)}))
    polys = [compose_linear(p, images) for p in M.basis]
    monomials = sorted({e for p in M.basis + tuple(polys) for e in p.terms})
    X = linalg.solve_columns(basis_matrix_rows(M.basis, monomials),
                             basis_matrix_rows(polys, monomials))
    return tuple(tuple(row) for row in X)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((F(A[i][t]) * F(B[t][j]) for t in range(k)), F(0))
             for j in range(m)] for i in range(n)]


def rand_invertible(n, rng):
    while True:
        g = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(g) != 0:
            return g


class TestDeruyts:
    def test_single_cell(self):
        poly = deruyts_generator(Tableau(((1,),)), 2)
        assert poly.to_string(matrix_variable_names(2)) == "z11"

    def test_column_determinant(self):
        poly = deruyts_generator(Tableau(((1,), (2,))), 2)
        assert poly.to_string(matrix_variable_names(2)) == "z11*z22 - z12*z21"

    def test_repeated_entry_vanishes(self):
        assert deruyts_generator(Tableau(((1,), (1,))), 2).is_zero()

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="entries"):
            deruyts_generator(Tableau(((3,),)), 2)


class TestWeylModule:
    def test_determinant_module(self):
        M = weyl_module(P((1, 1)), 2)
        assert M.dimension == 1
        assert M.basis[0] == det_polynomial(2)

    def test_dimensions(self):
        assert weyl_module(P((2,)), 2).dimension == 3
        assert weyl_module(P((2, 1)), 3).dimension == 8

    def test_budget(self):
        with pytest.raises(BudgetError):
            weyl_module(P((2,)), 2, replace(DEFAULT, weyl_dim_cap=2))

    def test_empty_shape_variable_count_capped(self):
        # dimension 1 at every n, but the model has n^2 variables
        capped = replace(DEFAULT, weyl_dim_cap=3)
        assert weyl_module(P(), 3, capped).dimension == 1
        with pytest.raises(BudgetError, match="n=4 exceeds cap 3"):
            weyl_module(P(), 4, capped)
        with pytest.raises(BudgetError, match="exceeds cap 200"):
            weyl_module(P(), 10 ** 8)

    def test_dimension_matches_count(self):
        for lam in [P((2,)), P((2, 1)), P((3, 1))]:
            assert weyl_module(lam, 3).dimension == dim_weyl(lam, 3)


class TestAction:
    def test_identity(self):
        M = weyl_module(P((2, 1)), 3)
        A = group_action_matrix(M, identity(3))
        assert A == tuple(tuple(r) for r in identity(M.dimension))

    def test_standard_rep_is_g(self):
        M = weyl_module(P((1,)), 3)
        rng = random.Random(11)
        g = rand_invertible(3, rng)
        A = group_action_matrix(M, g)
        assert [list(r) for r in A] == [[F(x) for x in row] for row in g]

    def test_determinant_rep(self):
        M = weyl_module(P((1, 1)), 2)
        rng = random.Random(12)
        g = rand_invertible(2, rng)
        A = group_action_matrix(M, g)
        assert A == ((linalg.det(g),),)

    def test_singular_rejected(self):
        M = weyl_module(P((1,)), 2)
        with pytest.raises(ValueError, match="singular"):
            group_action_matrix(M, [[F(1), F(1)], [F(1), F(1)]])

    @pytest.mark.parametrize("lam,n", [((2,), 2), ((2, 1), 3), ((3, 1), 2)])
    def test_homomorphism_property(self, lam, n):
        M = weyl_module(P(lam), n)
        rng = random.Random(13)
        for _ in range(10):
            g, h = rand_invertible(n, rng), rand_invertible(n, rng)
            Ag = group_action_matrix(M, g)
            Ah = group_action_matrix(M, h)
            Agh = group_action_matrix(M, mat_mul(g, h))
            prod = mat_mul(Ag, Ah)
            assert [list(r) for r in Agh] == prod

    def test_weight_grading(self):
        # diagonal g acts on e_T by prod t_i^(content_i)
        M = weyl_module(P((2, 1)), 3)
        t = [F(2), F(3), F(5)]
        g = [[t[i] if i == j else F(0) for j in range(3)] for i in range(3)]
        A = group_action_matrix(M, g)
        for idx, T in enumerate(M.tableaux):
            content = T.content(3)
            expected = F(1)
            for ti, ci in zip(t, content):
                expected *= ti ** ci
            assert A[idx][idx] == expected
            assert all(A[r][idx] == 0 for r in range(M.dimension) if r != idx)


MODULES = [(lam, n) for n in (1, 2, 3) for size in range(5)
           for lam in partitions_of(size, max_length=n)]
entry = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def group_elements(n):
    """Invertible rational n x n matrices: dense with denominators up to 4,
    permutation matrices, and diagonal matrices."""
    dense = st.lists(st.lists(entry, min_size=n, max_size=n),
                     min_size=n, max_size=n).filter(
                         lambda g: linalg.det(g) != 0)
    perm = st.permutations(range(n)).map(
        lambda p: permutation_matrix(n, list(p)))
    diag = st.lists(entry.filter(bool), min_size=n, max_size=n).map(
        lambda d: [[d[i] if i == j else F(0) for j in range(n)]
                   for i in range(n)])
    return st.one_of(dense, perm, diag)


def module_with(count):
    return st.sampled_from(MODULES).flatmap(
        lambda case: st.tuples(st.just(case),
                               *[group_elements(case[1])] * count))


class TestActionAgainstSubstitution:
    @given(module_with(1))
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_substitution(self, drawn):
        (lam, n), g = drawn
        M = weyl_module(lam, n)
        assert group_action_matrix(M, g) == literal_action_matrix(M, g)

    @given(module_with(2))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, drawn):
        (lam, n), g, h = drawn
        M = weyl_module(lam, n)
        Agh = group_action_matrix(M, mat_mul(g, h))
        prod = mat_mul(group_action_matrix(M, g), group_action_matrix(M, h))
        assert [list(r) for r in Agh] == prod

    def test_literal_reference(self):
        M = weyl_module(P((1, 1)), 2)
        g = [[F(1), F(2)], [F(3), F(4)]]
        assert literal_action_matrix(M, g) == ((F(-2),),)


def expected_lead(T, n):
    """prod z_{i,T(i,j)}: the product of the diagonal terms of the column
    minors of e_T."""
    expo = [0] * (n * n)
    for i, row in enumerate(T.rows):
        for entry in row:
            expo[i * n + entry - 1] += 1
    return tuple(expo)


def digest_cases():
    """(lam, n, g): every lam with |lam| <= 5 and at most n <= 4 rows, acted
    on by the n-cycle permutation matrix and by one seeded rational
    matrix."""
    rng = random.Random(2024)
    cases = []
    for n in (1, 2, 3, 4):
        cycle = permutation_matrix(n, [(i + 1) % n for i in range(n)])
        for size in range(6):
            for lam in partitions_of(size, max_length=n):
                cases.append((lam, n, cycle))
                cases.append((lam, n, rand_invertible(n, rng)))
    return cases


# sha256 of repr([group_action_matrix(weyl_module(lam, n), g) ...]) over
# digest_cases(), recorded from the exact dense solve against the basis
# matrix that the leading-monomial reduction replaced; repr pins both the
# values and their Fraction type
ACTION_DIGEST = \
    "ec3d87e5723d2f0bf51d249d82d2cbfbd4bcbc76584265fb78b47b8077f48f43"


class TestUnitriangularBasis:
    def test_leading_monomials(self):
        for n in (1, 2, 3, 4):
            for size in range(7):
                for lam in partitions_of(size, max_length=n):
                    M = weyl_module(lam, n)
                    for T, poly in zip(M.tableaux, M.basis):
                        lead = expected_lead(T, n)
                        assert max(poly.terms) == lead, (lam, n, T)
                        assert poly.terms[lead] == 1, (lam, n, T)

    def test_action_matrices_pinned(self):
        cases = digest_cases()
        assert len(cases) == 104
        mats = [group_action_matrix(weyl_module(lam, n), g)
                for lam, n, g in cases]
        assert hashlib.sha256(repr(mats).encode()).hexdigest() == \
            ACTION_DIGEST

    @pytest.mark.parametrize("image", [
        MultiPoly(4, {(2, 0, 0, 0): 1}),  # z11^2: off the basis support
        # in the support of e_T = z11*z22 - z12*z21, but not its lead
        MultiPoly(4, {(0, 1, 1, 0): 1}),
    ], ids=["off-support", "non-lead"])
    def test_image_outside_span_raises(self, monkeypatch, image):
        M = weyl_module(P((1, 1)), 2)
        assert group_action_matrix(M, identity(2)) == ((1,),)
        real = weylmod._column_minor_products

        def outside(n, tableaux, G=None):
            return real(n, tableaux) if G is None else [image]

        monkeypatch.setattr(weylmod, "_column_minor_products", outside)
        with pytest.raises(ValueError, match="span"):
            group_action_matrix(M, identity(2))

    def test_repeated_basis_element_raises(self, monkeypatch):
        real = weylmod._column_minor_products

        def repeated(n, tableaux, G=None):
            out = real(n, tableaux, G)
            return out[:1] + out[:-1]

        monkeypatch.setattr(weylmod, "_column_minor_products", repeated)
        with pytest.raises(RuntimeError, match="unitriangular"):
            weyl_module(P((2,)), 2)

    def test_lead_coefficient_other_than_one_raises(self, monkeypatch):
        real = weylmod._column_minor_products

        def doubled(n, tableaux, G=None):
            out = real(n, tableaux, G)
            return [out[0].scale(2)] + out[1:]

        monkeypatch.setattr(weylmod, "_column_minor_products", doubled)
        with pytest.raises(RuntimeError, match="unitriangular"):
            weyl_module(P((2,)), 2)


def sampled_borel_lines(M, trials=5, seed=178):
    """The sampled check that the raising-operator kernel replaced: the
    basis indices whose e_T is an eigenvector of the action of `trials`
    pseudo-random upper-triangular rational matrices."""
    rng = random.Random(seed)
    candidates = set(range(M.dimension))
    for _ in range(trials):
        b = [[F(0)] * M.n for _ in range(M.n)]
        for i in range(M.n):
            b[i][i] = F(rng.randint(1, 9))
            for j in range(i + 1, M.n):
                b[i][j] = F(rng.randint(-9, 9), rng.randint(1, 3))
        A = group_action_matrix(M, b)
        candidates = {s for s in candidates if A[s][s] and
                      all(A[r][s] == 0 for r in range(M.dimension) if r != s)}
    return candidates


HWV_MODULES = [(lam, n) for n in (1, 2, 3, 4) for size in range(7)
               for lam in partitions_of(size, max_length=n)
               if dim_weyl(lam, n) <= 200]


class TestHighestWeight:
    def test_matches_sampled_borel_check(self):
        assert len(HWV_MODULES) == 73
        for lam, n in HWV_MODULES:
            M = weyl_module(lam, n)
            assert sampled_borel_lines(M) == {highest_weight_vector(M)}, \
                (lam, n)

    def test_wrong_canonical_tableau_raises(self, monkeypatch):
        M = weyl_module(P((2, 1)), 3)
        other = M.tableaux[-1]
        monkeypatch.setattr(weylmod, "canonical_tableau", lambda lam: other)
        with pytest.raises(RuntimeError, match="highest weight"):
            highest_weight_vector(M)

    def test_second_killed_vector_raises(self):
        M = weyl_module(P((2, 1)), 3)
        # a constant is killed by every raising operator
        extra = replace(M, tableaux=M.tableaux + (Tableau(((9,),)),),
                        basis=M.basis + (MultiPoly.constant(9, 1),))
        with pytest.raises(RuntimeError, match="highest weight"):
            highest_weight_vector(extra)

    def test_row_module(self):
        M = weyl_module(P((2,)), 2)
        idx = highest_weight_vector(M)
        assert M.tableaux[idx].rows == ((1, 1),)
        names = matrix_variable_names(2)
        assert M.basis[idx].to_string(names) == "z11^2"

    def test_determinant(self):
        M = weyl_module(P((1, 1)), 2)
        assert highest_weight_vector(M) == 0

    def test_canonical_tableau(self):
        M = weyl_module(P((2, 1)), 3)
        idx = highest_weight_vector(M)
        assert M.tableaux[idx].rows == ((1, 1), (2,))


def matrix_fixed_subspace_dim(M, perms, weight):
    """The matrix route that column relabelling replaced: the weight columns
    of A - I, A the action of each permutation matrix, ranked exactly."""
    cols = [t for t, T in enumerate(M.tableaux)
            if weight == "any" or T.content(M.n) == weight]
    rows = []
    for perm in perms:
        A = group_action_matrix(M, permutation_matrix(M.n, perm))
        rows += [[A[r][t] - (r == t) for t in cols] for r in range(M.dimension)]
    return len(cols) - linalg.rank(rows, len(cols))


def fixed_subspace_cases():
    """(M, perms, weight): every module with n <= 3 and |lam| <= 6, at each
    of its weights and "any", under the S_n generators, one swap, the
    identity and no permutation at all."""
    cases = []
    for n in (1, 2, 3):
        perm_sets = [perm_generators(n), [list(range(n))], []]
        if n > 1:
            perm_sets.append([[1, 0] + list(range(2, n))])
        for size in range(7):
            for lam in partitions_of(size, max_length=n):
                M = weyl_module(lam, n)
                weights = sorted({T.content(n) for T in M.tableaux})
                cases += [(M, perms, weight) for perms in perm_sets
                          for weight in ["any"] + weights]
    return cases


class TestFixedSubspace:
    def test_identity_gives_dim(self):
        M = weyl_module(P((2,)), 2)
        assert fixed_subspace_dim(M, [[0, 1]], "any") == 3

    def test_swap_weight_11(self):
        M = weyl_module(P((2,)), 2)
        assert fixed_subspace_dim(M, [[1, 0]], (1, 1)) == 1

    def test_determinant_swap(self):
        M = weyl_module(P((1, 1)), 2)
        assert fixed_subspace_dim(M, [[1, 0]], "any") == 0

    def test_no_generators(self):
        M = weyl_module(P((2,)), 2)
        assert fixed_subspace_dim(M, [], "any") == 3

    def test_matches_the_matrix_route(self):
        cases = fixed_subspace_cases()
        assert len(cases) == 1306
        for M, perms, weight in cases:
            assert fixed_subspace_dim(M, perms, weight) == \
                matrix_fixed_subspace_dim(M, perms, weight), \
                (M.lam, M.n, perms, weight)

    @pytest.mark.parametrize("perms", [[[0, 0]], [[0, 1, 2]], [[1]]])
    def test_non_permutation_refused(self, perms):
        with pytest.raises(ValueError, match="image list"):
            fixed_subspace_dim(weyl_module(P((2,)), 2), perms)


class TestPermStabilizerInvariants:
    def test_even_positive_n2(self):
        assert perm_stabilizer_invariants(P((4,)), 2) >= 1
        assert perm_stabilizer_invariants(P((2, 2)), 2) >= 1

    def test_odd_zero_n2(self):
        assert perm_stabilizer_invariants(P((3, 1)), 2) == 0

    def test_n3(self):
        assert perm_stabilizer_invariants(P((2, 2, 2)), 3) >= 1
        assert perm_stabilizer_invariants(P((3, 2, 1)), 3) == 0

    def test_pinned_values(self):
        # recorded from the permutation-matrix route over group_action_matrix
        # that column relabelling replaced: every gamma of 2n with n <= 4
        # inside the default dimension cap
        pinned = {
            ((2,), 1): 1, ((4,), 2): 1, ((3, 1), 2): 0, ((2, 2), 2): 1,
            ((6,), 3): 1, ((5, 1), 3): 0, ((4, 2), 3): 1, ((4, 1, 1), 3): 0,
            ((3, 3), 3): 0, ((3, 2, 1), 3): 0, ((2, 2, 2), 3): 1,
            ((8,), 4): 1, ((6, 1, 1), 4): 0, ((5, 1, 1, 1), 4): 0,
            ((4, 4), 4): 1, ((4, 3, 1), 4): 0, ((4, 2, 2), 4): 1,
            ((4, 2, 1, 1), 4): 0, ((3, 3, 2), 4): 0, ((3, 3, 1, 1), 4): 0,
            ((3, 2, 2, 1), 4): 0, ((2, 2, 2, 2), 4): 1}
        got = {(tuple(gamma), n): perm_stabilizer_invariants(gamma, n)
               for n in (1, 2, 3, 4)
               for gamma in partitions_of(2 * n, max_length=n)
               if dim_weyl(gamma, n) <= 200}
        assert got == pinned

    def test_equivalence_with_evenness(self):
        for n in (2, 3):
            for gamma in partitions_of(2 * n, max_length=n):
                positive = perm_stabilizer_invariants(gamma, n) > 0
                assert positive == is_even(gamma), gamma

    @pytest.mark.parametrize("budgets", [DEFAULT,
                                         replace(DEFAULT, weyl_dim_cap=400)])
    def test_matches_the_module_route(self, budgets):
        # the route the weight-space computation replaced: the whole module,
        # then its (2, ..., 2) weight space; refusals must match too
        def outcome(route, gamma, n):
            try:
                return route(gamma, n)
            except BudgetError as exc:
                return str(exc)

        def module_route(gamma, n):
            return fixed_subspace_dim(weyl_module(gamma, n, budgets),
                                      perm_generators(n), (2,) * n)

        def weight_route(gamma, n):
            return perm_stabilizer_invariants(gamma, n, budgets)

        cases = [(gamma, n) for n in range(5)
                 for gamma in partitions_of(2 * n, max_length=n)]
        assert len(cases) == 27
        got = [outcome(weight_route, *case) for case in cases]
        assert got == [outcome(module_route, *case) for case in cases]
        refused = sum(isinstance(v, str) for v in got)
        assert refused == (4 if budgets is DEFAULT else 0)

    def test_refused_before_any_tableau(self, monkeypatch):
        def no_tableaux(*args):
            raise AssertionError("tableaux enumerated past the cap")

        monkeypatch.setattr(weylmod, "iter_ssyt", no_tableaux)
        with pytest.raises(BudgetError, match="dim 360 exceeds cap 200"):
            perm_stabilizer_invariants(P((6, 2)), 4)

    def test_kostka_disagreement_raises(self, monkeypatch):
        real = weylmod.kostka
        monkeypatch.setattr(weylmod, "kostka",
                            lambda lam, content: real(lam, content) + 1)
        with pytest.raises(RuntimeError, match="Kostka"):
            perm_stabilizer_invariants(P((4, 2)), 3)

    def test_repeated_lead_raises(self, monkeypatch):
        real = weylmod._column_minor_products

        def repeated(n, tableaux, G=None):
            out = real(n, tableaux, G)
            return out[:1] + out[:-1]

        assert weylmod.kostka(P((4, 2)), (2, 2, 2)) > 1
        monkeypatch.setattr(weylmod, "_column_minor_products", repeated)
        with pytest.raises(RuntimeError, match="unitriangular"):
            perm_stabilizer_invariants(P((4, 2)), 3)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="2n"):
            perm_stabilizer_invariants(P((3,)), 2)
        with pytest.raises(ValueError, match="length"):
            perm_stabilizer_invariants(P((2, 2, 1, 1)), 3)


class TestSymmetryCharacterization:
    @pytest.mark.parametrize("kind,size", [("det", 2), ("perm", 2), ("perm", 3)])
    def test_dimension_one(self, kind, size):
        assert symmetry_characterization_space(kind, size)[0] == 1

    def test_perm_line_is_perm(self):
        dim, basis = symmetry_characterization_space("perm", 3)
        assert dim == 1
        target = perm_polynomial(3)
        vec = basis[0]
        anchor, coeff = next(iter(target.terms.items()))
        scale = F(vec.terms.get(anchor, 0)) / F(coeff)
        assert scale != 0 and vec == target.scale(scale)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_perm_polynomial_matches_permutation_loop(self, m):
        # reference: one monomial prod z_{i, s(i)} per permutation s of m
        terms = {}
        for perm in itertools.permutations(range(m)):
            expo = [0] * (m * m)
            for i in range(m):
                expo[i * m + perm[i]] += 1
            terms[tuple(expo)] = 1
        assert perm_polynomial(m) == MultiPoly(m * m, terms)

    def test_det_line_is_det(self):
        dim, basis = symmetry_characterization_space("det", 2)
        assert dim == 1
        target = det_polynomial(2)
        vec = basis[0]
        anchor, coeff = next(iter(target.terms.items()))
        scale = F(vec.terms.get(anchor, 0)) / F(coeff)
        assert scale != 0 and vec == target.scale(scale)

    def test_unsupported_size(self):
        with pytest.raises(ValueError, match="size"):
            symmetry_characterization_space("det", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            symmetry_characterization_space("imm", 2)


# ---------------------------------------------------------------------------
# references for the monomial-operator kernel: the polynomial-level
# operators and the one-operator-at-a-time kernel intersection it replaced
# ---------------------------------------------------------------------------

def derivative(p, idx):
    out = {}
    for e, c in p.terms.items():
        if e[idx]:
            ne = list(e)
            ne[idx] -= 1
            out[tuple(ne)] = c * e[idx]
    return MultiPoly(p.nvars, out)


def permute_variables(p, perm):
    """Exponent of variable t moves to perm[t]."""
    out = {}
    for e, c in p.terms.items():
        ne = [0] * p.nvars
        for t, k in enumerate(e):
            if k:
                ne[perm[t]] += k
        key = tuple(ne)
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return MultiPoly(p.nvars, out)


def sl_left(m, a, b, p):
    # sum_j y_bj d/dy_aj
    nv = m * m
    out = MultiPoly(nv)
    for j in range(m):
        out = poly_sum(out, derivative(p, a * m + j) * variable(nv, b * m + j))
    return out


def sl_right(m, a, b, p):
    # sum_i y_ia d/dy_ib
    nv = m * m
    out = MultiPoly(nv)
    for i in range(m):
        out = poly_sum(out, derivative(p, i * m + b) * variable(nv, i * m + a))
    return out


def kernel_intersection(basis: list[dict], operators) -> list[dict]:
    """Iteratively intersect the kernel of each operator with the current
    subspace; vectors are sparse dicts over monomials."""
    for op in operators:
        if not basis:
            return []
        images = [op(vec) for vec in basis]
        support = sorted({m for img in images for m in img})
        if support:
            sup_index = {m: i for i, m in enumerate(support)}
            rows = [[0] * len(basis) for _ in support]
            for j, img in enumerate(images):
                for mkey, c in img.items():
                    rows[sup_index[mkey]][j] = c
            combos = linalg.nullspace(rows, len(basis))
        else:
            combos = [tuple(F(1) if i == j else F(0)
                            for j in range(len(basis)))
                      for i in range(len(basis))]
        new_basis = []
        for combo in combos:
            vec: dict = {}
            for coeff, old in zip(combo, basis):
                if coeff == 0:
                    continue
                for mkey, c in old.items():
                    v = vec.get(mkey, 0) + coeff * c
                    if v:
                        vec[mkey] = v
                    else:
                        vec.pop(mkey, None)
            if vec:
                new_basis.append(vec)
        basis = new_basis
    return basis


def linear_extension(table):
    """The operator on sparse vectors that sends monomial e to table[e]."""
    def op(vec):
        out = {}
        for e, c in vec.items():
            for key, v in table[e].items():
                out[key] = out.get(key, 0) + c * v
        return {key: v for key, v in out.items() if v}
    return op


small_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def operator_systems(draw):
    """Columns (single monomials, or random polynomials that may repeat or
    depend on each other) over a monomial set, and operators given by the
    image table of every monomial in it."""
    monos = draw(st.lists(small_monomials, min_size=1, max_size=8, unique=True))
    poly = st.dictionaries(st.sampled_from(monos),
                           st.integers(-3, 3).filter(bool), max_size=4)
    polys = draw(st.one_of(st.just([{e: 1} for e in monos]),
                           st.lists(poly, min_size=1, max_size=6)))
    image = st.dictionaries(small_monomials, st.integers(-2, 2), max_size=3)
    tables = draw(st.lists(st.fixed_dictionaries({e: image for e in monos}),
                           max_size=4))
    return polys, tables


def combine(coeffs, polys):
    """sum_j coeffs[j] polys[j] as a sparse dict, coeffs a dict over j."""
    out = {}
    for j, a in coeffs.items():
        for e, c in polys[j].items():
            out[e] = out.get(e, 0) + a * c
    return {e: c for e, c in out.items() if c}


class TestMonomialKernel:
    @given(operator_systems())
    @settings(max_examples=200, deadline=None)
    def test_spans_the_intersection(self, system):
        polys, tables = system
        got = _monomial_kernel(polys, [table.__getitem__ for table in tables])
        ref = kernel_intersection(
            [{j: 1} for j in range(len(polys))],
            [lambda vec, t=t: linear_extension(t)(combine(vec, polys))
             for t in tables])
        ref_rows = [[vec.get(j, 0) for j in range(len(polys))] for vec in ref]
        assert len(got) == len(ref)
        assert linalg.rank([list(v) for v in got] + ref_rows,
                           len(polys)) == len(ref)
        for vec in got:
            assert len(vec) == len(polys) and any(vec)
            for table in tables:
                killed = combine(dict(enumerate(vec)), polys)
                assert linear_extension(table)(killed) == {}

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_is_the_sl_operator(self, m, data):
        a, b = data.draw(st.permutations(range(m)))[:2]
        e = tuple(data.draw(st.lists(st.integers(0, 3), min_size=m * m,
                                     max_size=m * m)))
        p = MultiPoly(m * m, {e: 1})
        left = _shift([(a * m + j, b * m + j) for j in range(m)])
        right = _shift([(i * m + b, i * m + a) for i in range(m)])
        assert left(e) == sl_left(m, a, b, p).terms
        assert right(e) == sl_right(m, a, b, p).terms

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabel_is_substitution_minus_identity(self, nv, data):
        image = data.draw(st.permutations(range(nv)))
        e = tuple(data.draw(st.lists(st.integers(0, 3), min_size=nv,
                                     max_size=nv)))
        p = MultiPoly(nv, {e: 1})
        assert _relabel(image)(e) == \
            poly_sum(permute_variables(p, image), p.scale(-1)).terms

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_torus_monomials_are_filtered_compositions(self, n, r):
        def constant_degrees(e):
            rows = [sum(e[i * n:(i + 1) * n]) for i in range(n)]
            cols = [sum(e[i * n + j] for i in range(n)) for j in range(n)]
            return len(set(rows)) == 1 and len(set(cols)) == 1

        expected = [e for e in weak_compositions(n * r, (n * r,) * (n * n))
                    if constant_degrees(e)]
        assert list(_torus_monomials(n, r)) == expected


def dense_kernel(polys, ops):
    """The kernel as it was before sparse rows: one dense row per image
    monomial, solved by the dense reference elimination."""
    rows = []
    for op in ops:
        index = {}
        for j, poly in enumerate(polys):
            for e, c in poly.items():
                for key, v in op(e).items():
                    index.setdefault(key, [0] * len(polys))[j] += c * v
        rows.extend(index.values())
    return dense_nullspace(rows, len(polys))


def kernel_systems(monkeypatch, module, calls):
    """The (polys, ops) systems that ``module`` hands to _monomial_kernel
    while each of calls runs."""
    systems = []

    def spy(polys, ops):
        systems.append((polys, ops))
        return _monomial_kernel(polys, ops)

    monkeypatch.setattr(module, "_monomial_kernel", spy)
    for call in calls:
        call()
    return systems


class TestSparseKernelMatchesDense:
    def test_highest_weight_systems(self, monkeypatch):
        systems = kernel_systems(
            monkeypatch, weylmod,
            [lambda lam=lam, n=n: highest_weight_vector(weyl_module(lam, n))
             for lam, n in HWV_MODULES])
        assert len(systems) == len(HWV_MODULES)
        for polys, ops in systems:
            assert _monomial_kernel(polys, ops) == dense_kernel(polys, ops)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariant_ring_systems(self, monkeypatch, n):
        systems = kernel_systems(
            monkeypatch, obstructions,
            [lambda r=r: obstructions.invariant_ring_dimension_check(n, r)
             for r in range(5)])
        assert [len(polys) for polys, _ in systems] == \
            [len(_torus_monomials(n, r)) for r in range(5)]
        for polys, ops in systems:
            assert _monomial_kernel(polys, ops) == dense_kernel(polys, ops)

    @pytest.mark.parametrize("kind", ["det", "perm"])
    @pytest.mark.parametrize("size", [2, 3])
    def test_symmetry_systems(self, monkeypatch, kind, size):
        systems = kernel_systems(
            monkeypatch, weylmod,
            [lambda: symmetry_characterization_space(kind, size)])
        (polys, ops), = systems
        assert _monomial_kernel(polys, ops) == dense_kernel(polys, ops)


class TestKempf:
    def test_small_cases(self):
        for n in (2, 3):
            result = kempf_irreducibility_check(n)
            assert result.stable and not result.degenerate

    def test_degenerate(self):
        result = kempf_irreducibility_check(1)
        assert result.stable and result.degenerate

    def test_bool_protocol(self):
        assert kempf_irreducibility_check(2)

    def test_flags_pinned(self):
        assert astuple(kempf_irreducibility_check(1)) == \
            (True, True, True, True)
        for n in range(2, 7):
            assert astuple(kempf_irreducibility_check(n)) == \
                (True, False, True, True)


class TestMultiPoly:
    def test_arithmetic(self):
        x_plus_y = poly_sum(variable(2, 0), variable(2, 1))
        p = x_plus_y * x_plus_y
        assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_literal_reference(self, data):
        nv = data.draw(st.integers(1, 4))
        coeffs = data.draw(st.sampled_from([
            st.integers(-3, 3),
            st.fractions(min_value=-2, max_value=2, max_denominator=3)]))

        def poly():
            return MultiPoly(nv, data.draw(st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * nv), coeffs, max_size=4)))

        def literal(p, q):
            out = {}
            for e1, c1 in p.terms.items():
                for e2, c2 in q.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return {e: c for e, c in out.items() if c != 0}

        p, q, u, v = poly(), poly(), poly(), poly()
        # (u + v)(u - v): the cross terms u*v and -v*u always cancel
        pairs = [(p, q), (poly_sum(u, v), poly_sum(u, v.scale(-1)))]
        for f, g in pairs:
            product = f * g
            assert product.nvars == nv
            assert product.terms == literal(f, g)
            assert all(c != 0 for c in product.terms.values())

    def test_product_drops_cancelled_terms(self):
        x, y = variable(2, 0), variable(2, 1)
        p = poly_sum(x, y) * poly_sum(x, y.scale(-1))
        assert p.terms == {(2, 0): 1, (0, 2): -1}
        assert (x * MultiPoly(2)).is_zero()

    def test_to_string_stable(self):
        x, y = variable(2, 0), variable(2, 1)
        p = poly_sum(x * x, y.scale(-2))
        assert p.to_string(["a", "b"]) == "a^2 - 2*b"
