"""Explicit Weyl-module models inside a polynomial ring.

The model realizes the irreducible GL_n representation labelled by lam as the
span of column-minor products e_T inside C[Z], Z an n x n matrix of
variables, with the action (g . f)(Z) = f(Z g). The semistandard e_T form a
basis. A group element g is scaled to an integer matrix G = D g; since e_T
is homogeneous of degree |lam|, g acts as G does times D^-|lam|. By
Cauchy-Binet the minor of Z G on the first l rows and a column set c is
sum_S det Z[rows, S] det G[S, c] over the l-subsets S, so e_T(Z G) is a
product of integer factor polynomials, one per distinct column set, and the
basis is the case G = I. In lexicographic monomial order each e_T has the
leading monomial prod z_{i,T(i,j)} with coefficient 1, and distinct T give
distinct leading monomials (standard monomial theory), so the basis is
unitriangular: subtracting e_T along the leading monomials, largest first,
gives integer coordinates and hence the action matrix.

Every fixed space is solved by one exact kernel, ``_monomial_kernel``: the
combinations of given polynomials that a list of operators kills. An
operator maps a monomial to its image {monomial: coeff} and extends
linearly; it is either a derivation sum x_t d/dx_s (``_shift``) or a
relabelling f -> f(x_image) - f (``_relabel``). The highest weight line of
a module is the kernel of the raising derivations E_{i,i+1} on its basis,
and the permanent stabilizer's invariants are the kernel of the column
relabellings by S_n generators on the weight space of content (2, ..., 2)
alone: only its e_T are built, and their number is checked against the
Kostka number K_{gamma, (2^n)}. The symmetry characterizations
of the determinant and the permanent, and the invariant-ring check in
``obstructions``, need no module: they take the kernel on the torus-fixed
monomials. None of these builds an action matrix; ``group_action_matrix``
is the public action of a general g. Last comes the concrete
irreducibility criterion behind the permanent's stability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import linalg
from .config import DEFAULT, BudgetError, Budgets
from .partitions import (Partition, Tableau, canonical_tableau, dim_weyl,
                         enumerate_ssyt, iter_ssyt, kostka, weak_compositions)


class MultiPoly:
    """Exact multivariate polynomial: exponent tuples over a fixed variable
    count mapping to rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    self.terms[tuple(expo)] = coeff

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def scale(self, c) -> "MultiPoly":
        if not c:
            return MultiPoly(self.nvars)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], object] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:  # cancelled
                    out.pop(e, None)
        # out holds tuple keys and no zero, so __init__ would only copy it
        product = MultiPoly.__new__(MultiPoly)
        product.nvars = self.nvars
        product.terms = out
        return product

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items(), reverse=True)

    def to_string(self, names: list[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{t}" for t in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{names[t]}^{k}" if k > 1 else names[t]
                       for t, k in enumerate(e) if k]
            mono = "*".join(factors) if factors else "1"
            coeff = Fraction(c)
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            piece = mono if mag == 1 and factors else f"{mag}*{mono}"
            parts.append((sign, piece))
        first_sign, first = parts[0]
        text = (("-" if first_sign == "-" else "") + first)
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()})"


def matrix_variable_names(n: int) -> list[str]:
    return [f"z{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def _var(n: int, i: int, j: int) -> int:
    return i * n + j


def minor(n: int, rows: list[int], cols: list[int]) -> MultiPoly:
    """Determinant of the submatrix of Z on the given rows and columns, in
    the given column order."""
    nv = n * n
    out: dict[tuple[int, ...], object] = {}
    l = len(rows)
    for perm in itertools.permutations(range(l)):
        inv = sum(1 for a in range(l) for b in range(a + 1, l)
                  if perm[a] > perm[b])
        sign = -1 if inv % 2 else 1
        expo = [0] * nv
        for r in range(l):
            expo[_var(n, rows[r], cols[perm[r]])] += 1
        key = tuple(expo)
        v = out.get(key, 0) + sign
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return MultiPoly(nv, out)


def _column_minor_products(n: int, tableaux,
                           G: list[list[int]] | None = None) -> list[MultiPoly]:
    """e_T(Z G) for each tableau T, with G an integer matrix (None for the
    identity, which gives the e_T themselves).

    The factor of a column c is the minor of Z G on the first len(c) rows
    and the columns c, which Cauchy-Binet writes as
    sum_S det Z[rows, S] det G[S, c] over the len(c)-subsets S, each
    det G[S, c] an integer from ``linalg.det``. Distinct S give disjoint
    monomials, so the factor is built without cancellation. Each distinct
    column set is expanded once and shared by every tableau.
    """
    nv = n * n
    z_minors: dict[tuple[int, ...], MultiPoly] = {}
    factors: dict[tuple[int, ...], MultiPoly] = {}

    def z_minor(cols: tuple[int, ...]) -> MultiPoly:
        if cols not in z_minors:
            z_minors[cols] = minor(n, list(range(len(cols))), list(cols))
        return z_minors[cols]

    def factor(cols: tuple[int, ...]) -> MultiPoly:
        if G is None:
            return z_minor(cols)
        terms = {}
        for S in itertools.combinations(range(n), len(cols)):
            d = int(linalg.det([[G[r][c] for c in cols] for r in S]))
            if d:
                for e, c in z_minor(S).terms.items():
                    terms[e] = d * c
        return MultiPoly(nv, terms)

    out = []
    for T in tableaux:
        poly = None
        for col in T.columns():
            cols = tuple(e - 1 for e in col)
            if cols not in factors:
                factors[cols] = factor(cols)
            poly = factors[cols] if poly is None else poly * factors[cols]
            if poly.is_zero():
                break
        out.append(MultiPoly.constant(nv, 1) if poly is None else poly)
    return out


def deruyts_generator(T: Tableau, n: int) -> MultiPoly:
    """The polynomial e_T: product over columns c of T of the minor of Z on
    the first len(c) rows and the columns named by c's entries. Zero exactly
    when some column repeats an entry."""
    if any(e > n for row in T.rows for e in row):
        raise ValueError(f"tableau entries must lie in 1..{n}")
    return _column_minor_products(n, [T])[0]


@dataclass(frozen=True)
class WeylModuleModel:
    """Basis {e_T : T semistandard} of the GL_n irreducible labelled by lam,
    with leads: each basis index and the leading monomial of its e_T, by
    decreasing monomial."""

    lam: Partition
    n: int
    tableaux: tuple[Tableau, ...]
    basis: tuple[MultiPoly, ...]
    leads: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates_of(self, polys: list[MultiPoly]) -> list[list]:
        """Exact coordinates of each poly in the e_T basis, in the polys' own
        arithmetic (integer polys give integers): walking the leads in order,
        the coefficient left on a lead is the coordinate of its e_T, which is
        then subtracted. Raises when a poly falls outside the span (that is a
        bug, never a value)."""
        X = [[0] * len(polys) for _ in self.basis]
        for j, poly in enumerate(polys):
            work = dict(poly.terms)
            for i, lead in self.leads:
                c = work.get(lead)
                if c:
                    X[i][j] = c
                    for e, v in self.basis[i].terms.items():
                        work[e] = work.get(e, 0) - c * v
            if any(work.values()):
                raise RuntimeError(
                    "polynomial leaves the Weyl-module span: basis bug")
        return X


def weyl_module(lam: Partition, n: int,
                budgets: Budgets = DEFAULT) -> WeylModuleModel:
    """Construct the explicit model. Linear independence of the basis is
    computed, not assumed: every e_T must have a leading monomial with
    coefficient 1, no two the same. The SSYT count must equal dim_weyl,
    which is refused above ``weyl_dim_cap`` before any tableau is built."""
    lam = Partition(lam)
    dim = _capped_dim(lam, n, budgets)
    tableaux = tuple(enumerate_ssyt(lam, n))
    if dim != len(tableaux):
        raise RuntimeError("tableau enumeration disagrees with dimension")
    basis = tuple(_column_minor_products(n, tableaux))
    return WeylModuleModel(lam, n, tableaux, basis, _unitriangular_leads(basis))


def _capped_dim(lam: Partition, n: int, budgets: Budgets) -> int:
    """dim_weyl(lam, n), refused above ``weyl_dim_cap``."""
    dim = dim_weyl(lam, n)
    if dim > budgets.weyl_dim_cap:
        raise BudgetError(f"dim {dim} exceeds cap {budgets.weyl_dim_cap}")
    return dim


def _unitriangular_leads(polys) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each index with the leading monomial of its poly, by decreasing
    monomial. Raises unless every lead has coefficient 1 and no two polys
    share a lead, which makes the polys linearly independent."""
    leads = tuple(sorted(((i, max(p.terms, default=()))
                          for i, p in enumerate(polys)),
                         key=lambda lead: lead[1], reverse=True))
    if any(polys[i].terms.get(e) != 1 for i, e in leads) or \
            len({e for _, e in leads}) != len(polys):
        raise RuntimeError("basis is not unitriangular: leading monomials"
                           " repeat or have a coefficient other than 1")
    return leads


def group_action_matrix(M: WeylModuleModel, g) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of f(Z) -> f(Z g) in the e_T basis; column T holds the
    coordinates of the transformed e_T. Exact, and a homomorphism:
    matrix(gh) = matrix(g) matrix(h).

    g is scaled to the integer matrix G = D g. Every e_T is homogeneous of
    degree |lam|, so e_T(Z g) = D^-|lam| e_T(Z G): the reduction runs on
    integers and only its result is scaled back.
    """
    n = M.n
    g = [[Fraction(x) for x in row] for row in g]
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"group element must be {n}x{n}")
    if linalg.det(g) == 0:
        raise ValueError("singular matrix cannot act on the module")
    flat, D = linalg.clear_denominators([x for row in g for x in row])
    G = [flat[i:i + n] for i in range(0, n * n, n)]
    X = M.coordinates_of(_column_minor_products(n, M.tableaux, G))
    scale = D ** M.lam.size
    return tuple(tuple(Fraction(x, scale) for x in row) for row in X)


def perm_generators(n: int) -> list[list[int]]:
    """Generators of S_n as image lists: the swap (0 1) and, for n > 2, the
    cycle i -> i + 1 mod n."""
    if n < 2:
        return []
    swap = list(range(n))
    swap[0], swap[1] = swap[1], swap[0]
    gens = [swap]
    if n > 2:
        gens.append([(i + 1) % n for i in range(n)])
    return gens


def highest_weight_vector(M: WeylModuleModel) -> int:
    """Index of e_{T0}, T0 the canonical tableau with i-th row all i's.

    Computed, not assumed: the raising operators E_{i,i+1} act on f(Z) as
    the derivations sum_r z_{r,i} d/dz_{r,i+1}, and their joint kernel on
    the basis must be exactly the line of e_{T0}. That proves e_{T0} a
    highest weight vector and its line the only one.
    """
    if M.dimension == 0:
        raise ValueError("zero module has no highest weight vector")
    n = M.n
    idx = M.tableaux.index(canonical_tableau(M.lam))
    raising = [_shift([(_var(n, r, i + 1), _var(n, r, i)) for r in range(n)])
               for i in range(n - 1)]
    kernel = _monomial_kernel([p.terms for p in M.basis], raising)
    supports = [[s for s, c in enumerate(vec) if c] for vec in kernel]
    if supports != [[idx]]:
        raise RuntimeError(
            f"highest weight verification failed: kernel supports {supports}"
            f" vs canonical index {idx}")
    return idx


def fixed_subspace_dim(M: WeylModuleModel, perms, weight="any") -> int:
    """Dimension of the vectors of a weight space fixed by permutations.

    Each perm is an image list (the ``perm_generators`` format) and acts
    through its 0/1 matrix P as f(Z) -> f(Z P), which relabels the columns
    of Z. The weight space is the span of the e_T with content(T) equal to
    the given vector over 1..n ("any" takes the whole module). The answer is
    the joint kernel of f -> f(Z P) - f on that span, taken on the
    polynomials themselves, so a weight space the permutations do not
    preserve is handled correctly.
    """
    if any(sorted(p) != list(range(M.n)) for p in perms):
        raise ValueError(
            f"each permutation must be an image list of 0..{M.n - 1}")
    polys = [p.terms for p, T in zip(M.basis, M.tableaux)
             if weight == "any" or T.content(M.n) == tuple(weight)]
    return len(_monomial_kernel(polys,
                                [_column_relabel(M.n, p) for p in perms]))


def perm_stabilizer_invariants(gamma: Partition, n: int,
                               budgets: Budgets = DEFAULT) -> int:
    """Multiplicity of permanent-stabilizer invariants in the SL_n x SL_n
    representation (trivial) (x) V_gamma, computed on the weight space of
    content (2, ..., 2) of V_gamma(GL_n) alone.

    The stabilizer's torus forces the constant content (2, ..., 2), since
    |gamma| = 2n (Gay 1976); the discrete part acts through the S_n
    generators as plain 0/1 permutation matrices, that is by relabelling the
    columns of Z (this lift convention is validated by the even-partition
    acceptance gate). The transpose flip of the full stabilizer does not
    preserve the factor (trivial) (x) V_gamma and is deliberately omitted.

    Only the e_T of that content are built. Their number must equal the
    Kostka number K_{gamma, (2^n)} from the horizontal-strip recursion, and
    their leads must be distinct with coefficient 1, so they are a basis of
    the weight space. The rest of the module, whose size ``weyl_dim_cap``
    bounds as for ``weyl_module``, is never built.
    """
    gamma = Partition(gamma)
    if gamma.size != 2 * n:
        raise ValueError(f"|gamma| = {gamma.size} must equal 2n = {2 * n}")
    if len(gamma) > n:
        raise ValueError(f"length {len(gamma)} exceeds n = {n}")
    _capped_dim(gamma, n, budgets)
    content = sorted([*range(1, n + 1)] * 2)  # (2, ..., 2), entries sorted
    tableaux = [Tableau(rows) for rows in iter_ssyt(gamma, n)
                if sorted(e for row in rows for e in row) == content]
    if len(tableaux) != kostka(gamma, (2,) * n):
        raise RuntimeError("weight-space enumeration disagrees with Kostka")
    polys = _column_minor_products(n, tableaux)
    _unitriangular_leads(polys)
    return len(_monomial_kernel([p.terms for p in polys],
                                [_column_relabel(n, p)
                                 for p in perm_generators(n)]))


# ---------------------------------------------------------------------------
# fixed spaces of operators on polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _torus_monomials(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Degree-nr monomials in the n x n matrix entries whose row and column
    degrees are all r, in lexicographically decreasing order: the monomials
    fixed by the torus of pairs of determinant-one diagonal matrices, and so
    exactly the weight-r magic squares, found without the magic enumerator:
    each row is a weak composition of r into n parts, and a product of n
    rows is kept when every column sums to r. Cached by (n, r)."""
    rows = list(weak_compositions(r, (r,) * n))
    return tuple(sum(square, ()) for square in itertools.product(rows, repeat=n)
                 if all(sum(col) == r for col in zip(*square)))


def _shift(pairs):
    """The derivation sum x_t d/dx_s over the pairs (s, t), as a map from a
    monomial to its image {monomial: coeff}."""
    def op(e):
        out = {}
        for s, t in pairs:
            if e[s]:
                ne = list(e)
                ne[s] -= 1
                ne[t] += 1
                key = tuple(ne)
                out[key] = out.get(key, 0) + e[s]
        return out
    return op


def _relabel(image):
    """f -> f(x_image) - f, where the exponent of variable t moves to
    image[t], as a map from a monomial to its image {monomial: coeff}."""
    def op(e):
        ne = [0] * len(e)
        for t, k in enumerate(e):
            ne[image[t]] += k
        ne = tuple(ne)
        return {} if ne == e else {ne: 1, e: -1}
    return op


def _column_relabel(m: int, perm):
    """f(Z) -> f(Z P) - f(Z) on an m x m matrix of variables, P the 0/1
    matrix sending e_j to e_perm[j]: z_ij becomes z_{i,perm[j]}."""
    return _relabel([_var(m, t // m, perm[t % m]) for t in range(m * m)])


def _grid_relabels(m: int) -> list:
    """Row and column permutations of an m x m matrix of variables, one of
    each per S_m generator."""
    return [op for gen in perm_generators(m)
            for op in (_relabel([_var(m, gen[t // m], t % m)
                                 for t in range(m * m)]),
                       _column_relabel(m, gen))]


def _monomial_kernel(polys: list[dict], ops) -> list[tuple[Fraction, ...]]:
    """Basis of the combinations of polys (dicts {monomial: coeff}) that
    every operator kills, as coefficient vectors over polys. Each operator
    acts on a monomial and extends linearly; the images of all operators
    are stacked into one sparse system, one row {poly index: coeff} per
    image monomial, solved by one exact nullspace."""
    rows = []
    for op in ops:
        index: dict[tuple[int, ...], dict[int, int]] = {}
        for j, poly in enumerate(polys):
            for e, c in poly.items():
                for key, v in op(e).items():
                    row = index.setdefault(key, {})
                    row[j] = row.get(j, 0) + c * v
        rows.extend(index.values())
    return linalg.nullspace(rows, len(polys))


# ---------------------------------------------------------------------------
# symmetry characterization of det and perm
# ---------------------------------------------------------------------------

def det_polynomial(m: int) -> MultiPoly:
    return minor(m, list(range(m)), list(range(m)))


def perm_polynomial(m: int) -> MultiPoly:
    """The permanent: det's monomials, each with coefficient 1. Exact, as
    every permutation gives a different monomial."""
    return MultiPoly(m * m, dict.fromkeys(det_polynomial(m).terms, 1))


def symmetry_characterization_space(kind: str, size: int) -> tuple[int, list[MultiPoly]]:
    """Dimension and basis of the space of degree-m forms on an m x m matrix
    sharing the symmetries of det (kind="det") or perm (kind="perm").

    Both start from the torus-fixed monomials, whose row and column degrees
    are all 1: for det the diagonal-difference derivations act on monomials
    by the row and column degree differences, for perm the diagonal factors
    have product one. On their span, det's space is the joint kernel of the
    infinitesimal left and right sl_m actions (the off-diagonal derivations)
    and of the transpose; perm's is fixed by the row and column permutations
    and the transpose. The basis is one exact nullspace of all these
    operators at once.
    """
    if size not in (2, 3):
        raise ValueError(f"unsupported size {size}: only 2 and 3 are in budget")
    if kind not in ("det", "perm"):
        raise ValueError(f"kind must be 'det' or 'perm', got {kind!r}")
    m = size
    nv = m * m
    ops = [_relabel([_var(m, t % m, t // m) for t in range(nv)])]  # transpose
    if kind == "det":
        for a, b in itertools.permutations(range(m), 2):
            ops.append(_shift([(_var(m, a, j), _var(m, b, j)) for j in range(m)]))
            ops.append(_shift([(_var(m, i, b), _var(m, i, a)) for i in range(m)]))
    else:
        ops.extend(_grid_relabels(m))
    monos = _torus_monomials(m, 1)
    basis = _monomial_kernel([{e: 1} for e in monos], ops)
    return len(basis), [MultiPoly(nv, dict(zip(monos, vec))) for vec in basis]


# ---------------------------------------------------------------------------
# concrete stability criterion for the permanent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KempfResult:
    stable: bool
    degenerate: bool
    torus_characters_distinct: bool
    permutations_transitive: bool

    def __bool__(self) -> bool:
        return self.stable


def kempf_irreducibility_check(n: int,
                               budgets: Budgets = DEFAULT) -> KempfResult:
    """Is C^n (x) C^n irreducible under the permanent's stabilizer?

    Checks the two halves of the concrete criterion: (i) the characters of
    the stabilizer torus (pairs of determinant-one diagonal matrices) on the
    n^2 matrix coordinates are pairwise distinct, and (ii) the S_n x S_n
    part permutes the coordinates transitively. n = 1 is degenerate: the
    space is one dimensional and the verdict is trivially true. n above
    ``kempf_n_cap`` is refused with BudgetError before any work.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > budgets.kempf_n_cap:
        raise BudgetError(f"n={n} exceeds cap {budgets.kempf_n_cap}")
    if n == 1:
        return KempfResult(True, True, True, True)

    # character of (D, E) on x_ij is d_i e_j; as characters of the torus
    # {det = 1 on both factors}, chi_ij = chi_kl iff e_i - e_k and e_j - e_l
    # are both integer multiples of the all-ones vector, so a character is
    # keyed by (e_i - e_i[0] * 1, e_j - e_j[0] * 1)
    def unit_mod_ones(i: int) -> tuple[int, ...]:
        e = [int(t == i) for t in range(n)]
        return tuple(x - e[0] for x in e)

    keys = {(unit_mod_ones(i), unit_mod_ones(j))
            for i in range(n) for j in range(n)}
    distinct = len(keys) == n * n

    # transitivity of S_n x S_n on the coordinate grid, by orbit growth
    gens = perm_generators(n)
    orbit = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        for g in gens:
            for nxt in ((g[i], j), (i, g[j])):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
    transitive = len(orbit) == n * n

    return KempfResult(distinct and transitive, False, distinct, transitive)
