"""The acceptance suite: one callable per criterion, shared by the pytest
module and the ``weylbox accept`` subcommand.

Every check is exact (integer or rational equality); the only tolerances in
this suite are wall-clock budgets on the two timed criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations as iter_permutations

from .config import Budgets, DEFAULT
from .kronecker import det_stabilizer_invariant_mult, kronecker
from .lr import LRQuery, lr_coefficient, lr_positive, lr_stretch
from .obstructions import emit_obstruction_family, enumerate_magic_squares, \
    invariant_ring_dimension_check, verify_obstruction
from .partitions import Partition, count_ssyt, dim_weyl, is_even, partitions_of
from .polytope import ParamPolytope, count_integer_points, ehrhart_counts, \
    fit_quasipolynomial
from .symfunc import plethysm_expand, product_expand
from .weylmod import det_polynomial, kempf_irreducibility_check, \
    perm_polynomial, perm_stabilizer_invariants, \
    symmetry_characterization_space


@dataclass(frozen=True)
class CriterionResult:
    key: str
    passed: bool
    detail: str
    seconds: float


def _lr_range(max_size: int = 4, max_length: int = 4):
    parts = [p for s in range(max_size + 1)
             for p in partitions_of(s, max_length=max_length)]
    for alpha in parts:
        for beta in parts:
            yield alpha, beta


STRETCH_QUERIES = (
    ((2, 1), (2, 1), (3, 2, 1)),
    ((1,), (1,), (2,)),
    ((1,), (1,), (1, 1)),
    ((2,), (1,), (2, 1)),
    ((2,), (2,), (2, 1, 1)),
    ((2, 1), (1, 1), (2, 2, 1)),
    ((2, 2), (2, 1), (3, 3, 1)),
    ((2, 1, 1), (2, 1, 1), (3, 2, 2, 1)),
    ((3, 2, 1), (3, 2, 1), (4, 4, 3, 1)),
    ((3, 2, 1), (3, 2, 1), (5, 4, 2, 1)),
)


def criterion_lr_oracle_triangle(budgets: Budgets) -> str:
    """Tableau rule = hive count = Schur-product coefficient on the full
    |alpha|, |beta| <= 4 range (lengths <= 4)."""
    triples = 0
    for alpha, beta in _lr_range():
        prod = product_expand(alpha, beta, budgets)
        for lam in partitions_of(alpha.size + beta.size, max_length=4):
            expected = prod.get(lam, 0)
            got = lr_coefficient(LRQuery(alpha, beta, lam), budgets)
            if got != expected:
                raise AssertionError(
                    f"oracle triangle broken at ({alpha},{beta},{lam}): "
                    f"lr={got} schur={expected}")
            triples += 1
    return f"{triples} triples, three pairwise-independent routes agree"


def criterion_lr_saturation(budgets: Budgets) -> str:
    """LP feasibility <=> c > 0 <=> c(2q) > 0 on the same range."""
    triples = 0
    for alpha, beta in _lr_range():
        for lam in partitions_of(alpha.size + beta.size, max_length=4):
            q = LRQuery(alpha, beta, lam)
            positive = lr_coefficient(q, budgets) > 0
            if lr_positive(q, budgets) != positive:
                raise AssertionError(f"LP positivity wrong at {q}")
            if (lr_coefficient(q.scale(2), budgets) > 0) != positive:
                raise AssertionError(f"saturation broken at {q}")
            triples += 1
    return f"{triples} triples, feasibility = positivity = scaled positivity"


def criterion_lr_stretch(budgets: Budgets) -> str:
    """Ten fixed stretch series at k = 1..7 all admit exact quasi-polynomial
    fits (within the budgets' period and degree, 4 and 6 by default)
    verified on two holdout points; the headline series equals k + 1."""
    budgets = replace(budgets, holdout=2)
    for raw in STRETCH_QUERIES:
        q = LRQuery(Partition(raw[0]), Partition(raw[1]), Partition(raw[2]))
        series = lr_stretch(q, 7, budgets)
        if series.fit is None:
            raise AssertionError(f"no fit for {raw}")
        for k, v in enumerate(series.values, start=1):
            if series.fit.eval(k) != v:
                raise AssertionError(f"fit does not reproduce values at {raw}")
    headline = lr_stretch(LRQuery(Partition((2, 1)), Partition((2, 1)),
                                  Partition((3, 2, 1))), 7, budgets)
    if headline.values != tuple(k + 1 for k in range(1, 8)):
        raise AssertionError(f"headline series is {headline.values}, not k+1")
    return f"{len(STRETCH_QUERIES)} series fitted exactly; headline = k+1"


def criterion_plethysm_oracle(budgets: Budgets) -> str:
    """Frozen small plethysms plus the dimension identity
    sum_lam a^lam * dim V_lam(GL_n) = #SSYT(pi, dim V_mu(GL_n)); two
    scaled-label series fit within the budgets' period and degree."""
    got = plethysm_expand(Partition((2,)), Partition((2,)), budgets)
    if got != {Partition((4,)): 1, Partition((2, 2)): 1}:
        raise AssertionError(f"plethysm (2)[(2)] = {got}")
    got = plethysm_expand(Partition((1, 1)), Partition((2,)), budgets)
    if got != {Partition((3, 1)): 1}:
        raise AssertionError(f"plethysm (1,1)[(2)] = {got}")
    pairs = 0
    for a in range(1, 9):
        for b in range(1, 9):
            if a * b > 8:
                continue
            for pi in partitions_of(a):
                for mu in partitions_of(b):
                    expansion = plethysm_expand(pi, mu, budgets)
                    pairs += 1
                    for n in (1, 2, 3):
                        lhs = sum(c * dim_weyl(lam, n)
                                  for lam, c in expansion.items())
                        rhs = count_ssyt(pi, dim_weyl(mu, n))
                        if lhs != rhs:
                            raise AssertionError(
                                f"dimension identity fails at {pi}[{mu}], n={n}")
    # stretched coefficients at scaled labels, where the degree cap leaves
    # room for a series: the outer shape scales, the inner one does not
    mu = Partition((2,))
    rows = []
    diag = []
    for k in range(1, 5):
        expansion = plethysm_expand(Partition((k,)), mu, budgets)
        rows.append(expansion.get(Partition((2 * k,)), 0))
        diag.append(expansion.get(Partition((k, k)), 0))
    row_fit = fit_quasipolynomial(rows, budgets.max_period, budgets.max_degree, 2)
    diag_fit = fit_quasipolynomial(diag, budgets.max_period, budgets.max_degree, 2)
    if rows != [1, 1, 1, 1] or row_fit.period != 1:
        raise AssertionError(f"single-row stretch is {rows}")
    if diag != [0, 1, 0, 1] or diag_fit.period != 2:
        raise AssertionError(f"two-row stretch is {diag}")
    return (f"2 frozen expansions + dimension identity over {pairs} pairs; "
            f"scaled-label series fit exactly (periods 1 and 2)")


def criterion_kronecker(budgets: Budgets) -> str:
    """Cauchy pairing, full argument symmetry, and the two determinant
    stabilizer multiplicities."""
    for m in range(1, 6):
        for lam in partitions_of(m):
            for mu in partitions_of(m):
                expected = 1 if lam == mu else 0
                if kronecker(Partition((m,)), lam, mu, budgets) != expected:
                    raise AssertionError(f"Cauchy fails at m={m}, {lam}, {mu}")
    checked = 0
    for n in range(1, 6):
        parts = list(partitions_of(n))
        for a in parts:
            for b in parts:
                for c in parts:
                    vals = {kronecker(x, y, z, budgets)
                            for x, y, z in iter_permutations((a, b, c))}
                    if len(vals) != 1:
                        raise AssertionError(f"symmetry fails at {(a, b, c)}")
                    checked += 1
    if det_stabilizer_invariant_mult(Partition((2,)), 2, budgets) != 1:
        raise AssertionError("det invariant mult at (2), m=2 is not 1")
    if det_stabilizer_invariant_mult(Partition((1, 1)), 2, budgets) != 0:
        raise AssertionError("det invariant mult at (1,1), m=2 is not 0")
    return f"Cauchy m<=5, symmetry on {checked} triples, det multiplicities"


def criterion_even_partition(budgets: Budgets) -> str:
    """perm_stabilizer_invariants(gamma, n) > 0 iff gamma is even, for every
    gamma of size 4 (length <= 2) at n = 2 and size 6 (length <= 3) at n = 3."""
    cases = 0
    for n in (2, 3):
        for gamma in partitions_of(2 * n, max_length=n):
            d = perm_stabilizer_invariants(gamma, n, budgets)
            if (d > 0) != is_even(gamma):
                raise AssertionError(
                    f"even-partition criterion fails at n={n}, {gamma}: dim {d}")
            cases += 1
    return f"{cases} gammas, positivity = evenness under the 0/1 lift"


def criterion_symmetry_characterization(budgets: Budgets) -> str:
    """The symmetry-fixed space is exactly one dimensional and spanned by
    det (resp. perm), coefficient by coefficient."""
    for kind in ("det", "perm"):
        for size in (2, 3):
            dim, basis = symmetry_characterization_space(kind, size)
            if dim != 1:
                raise AssertionError(f"{kind}@{size}: dim {dim} != 1")
            target = det_polynomial(size) if kind == "det" else perm_polynomial(size)
            vec = basis[0]
            anchor, coeff = next(iter(target.terms.items()))
            scale = Fraction(vec.terms.get(anchor, 0)) / Fraction(coeff)
            if scale == 0 or vec != target.scale(scale):
                raise AssertionError(f"{kind}@{size}: fixed line is not {kind}")
    return "det and perm at sizes 2 and 3: dim 1, span verified exactly"


def criterion_magic_squares(budgets: Budgets) -> str:
    """Orbit count = independently computed invariant dimension for n = 2, 3
    and r <= 3; weight-1 squares are the n! permutation matrices, one orbit."""
    from math import factorial
    for n in (2, 3):
        squares, orbits = enumerate_magic_squares(n, 1, budgets)
        if len(squares) != factorial(n) or orbits != 1:
            raise AssertionError(f"weight-1 count wrong at n={n}")
        for r in range(4):
            invariant_ring_dimension_check(n, r, budgets)  # raises on mismatch
    return "orbit counts match fixed-space dimensions (n <= 3, r <= 3)"


def criterion_obstruction_family(budgets: Budgets) -> str:
    """49 certificates through the CLI in under a second, all structurally
    verified; n = 2, 3 fully verified with positive invariant dimension."""
    import contextlib
    import io
    import json as jsonlib

    from .cli import run as cli_run  # deferred: cli imports this module

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli_run(["obstruct", "emit", "--max", "50"])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise AssertionError(f"CLI emit exited {code}")
    payload = jsonlib.loads(buf.getvalue())["payload"]
    if len(payload["certificates"]) != 49:
        raise AssertionError(
            f"expected 49 certificates, got {len(payload['certificates'])}")
    if elapsed >= 1.0:
        raise AssertionError(f"emission+structural took {elapsed:.3f}s >= 1s")
    certs = list(emit_obstruction_family(50, budgets))
    for cert in certs:
        verify_obstruction(cert)
    for cert in certs[:2]:  # n = 2, 3
        full = verify_obstruction(cert, True, budgets)
        if full.checks.invariant_dim is None or full.checks.invariant_dim < 1:
            raise AssertionError(f"full verification failed at n={cert.n}")
    return "49 certificates; n=2,3 fully verified"


def criterion_kempf(budgets: Budgets) -> str:
    """The concrete stability criterion holds for n = 2, 3, 4."""
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        if not kempf_irreducibility_check(n, budgets):
            raise AssertionError(f"Kempf criterion fails at n={n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        raise AssertionError(f"Kempf checks took {elapsed:.3f}s >= 1s")
    return "n = 2, 3, 4 stable"


def criterion_ehrhart_kernel(budgets: Budgets) -> str:
    """Unit-cube dilations count (k+1)^n for n <= 3, k <= 5, along both the
    dilation and the parametrized pathway; the half-interval fits period 2
    exactly with 2 holdout points, within the budgets' period and degree."""
    for n in (1, 2, 3):
        A, b = [], []
        for i in range(n):
            row = [Fraction(0)] * n
            row[i] = Fraction(1)
            A.append(tuple(row))
            b.append(Fraction(1))
            row = [Fraction(0)] * n
            row[i] = Fraction(-1)
            A.append(tuple(row))
            b.append(Fraction(0))
        cube = ParamPolytope(tuple(A), tuple(b))
        series = ehrhart_counts(cube, 5, budgets)
        for k in range(1, 6):
            expected = (k + 1) ** n
            if series[k - 1] != expected:
                raise AssertionError(f"cube count wrong at n={n}, k={k}")
            if count_integer_points(cube.at(k)) != expected:
                raise AssertionError(f"dilation pathway wrong at n={n}, k={k}")
    half = ParamPolytope(((Fraction(1),), (Fraction(-1),)),
                         (Fraction(1, 2), Fraction(0)))
    values = ehrhart_counts(half, 6, budgets)
    if values != (1, 2, 2, 3, 3, 4):
        raise AssertionError(f"half-interval counts are {values}")
    fit = fit_quasipolynomial(values, budgets.max_period, budgets.max_degree, 2)
    if fit.period != 2:
        raise AssertionError(f"half-interval period {fit.period} != 2")
    return "cube counts on both pathways; half-interval fits period 2"


CRITERIA = (
    ("lr-oracle-triangle", criterion_lr_oracle_triangle),
    ("lr-saturation", criterion_lr_saturation),
    ("lr-stretch-quasipolynomial", criterion_lr_stretch),
    ("plethysm-oracle", criterion_plethysm_oracle),
    ("kronecker-consistency", criterion_kronecker),
    ("even-partition-criterion", criterion_even_partition),
    ("symmetry-characterization", criterion_symmetry_characterization),
    ("magic-square-basis", criterion_magic_squares),
    ("strongly-explicit-family", criterion_obstruction_family),
    ("kempf-criterion", criterion_kempf),
    ("ehrhart-kernel", criterion_ehrhart_kernel),
)


def run_criterion(key: str, budgets: Budgets = DEFAULT) -> CriterionResult:
    func = dict(CRITERIA)[key]
    t0 = time.perf_counter()
    try:
        detail = func(budgets)
        passed = True
    except Exception as exc:  # noqa: BLE001 - a failed criterion is data
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(key, passed, detail, time.perf_counter() - t0)


def format_result(res: CriterionResult) -> str:
    flag = "PASS" if res.passed else "FAIL"
    return f"{flag} {res.key} ({res.seconds:.1f}s): {res.detail}"
