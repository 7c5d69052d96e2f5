"""Seeded query workloads for the weylbox benchmark.

Each workload turns a seed into a query stream, runs one query through the
library, reduces its answer to a canonical JSON form, and checks answers
against routes that do not share code with the timed one.

The stream is built for steady medians across seeds. Query types are
interleaved in a fixed pattern. Each type's population is sorted by a cost
proxy computed in the benchmark (never by timing the library) and cut into
strata of neighbouring cost. A cycle of a type draws one member from every
stratum, in seeded order, and the members of a stratum take turns in seeded
order too, so a run visits a small population completely. Any two seeds therefore run the
same mix of cheap and costly queries, in a different order and on
different members.

Nothing in this module imports weylbox at import time: the worker times the
library import as part of set-up, and this module is the benchmark's own code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# helpers written in the benchmark, independent of the library
# ---------------------------------------------------------------------------

def partitions(n: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_length parts, as plain tuples."""
    if max_length is None:
        max_length = n
    out: list[tuple[int, ...]] = []

    def rec(rem: int, bound: int, prefix: tuple[int, ...]):
        if rem == 0:
            out.append(prefix)
            return
        if len(prefix) == max_length:
            return
        for part in range(min(rem, bound), 0, -1):
            rec(rem - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def hook_content_dim(lam, n: int) -> int:
    """dim of the GL_n irreducible of highest weight lam, by the
    hook-content formula: prod over cells of (n + c - r) / hook(r, c)."""
    lam = tuple(p for p in lam if p)
    if len(lam) > n:
        return 0
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])] if lam else []
    num = den = 1
    for r, width in enumerate(lam):
        for c in range(width):
            num *= n + c - r
            den *= (width - c - 1) + (conj[c] - r - 1) + 1
    return num // den


def permanent_like_terms(m: int, signed: bool) -> dict[tuple[int, ...], int]:
    """Monomials of det (signed) or perm of a generic m x m matrix, keyed by
    row-major exponent vectors."""
    terms = {}
    for perm in itertools.permutations(range(m)):
        expo = [0] * (m * m)
        for i in range(m):
            expo[i * m + perm[i]] = 1
        inv = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
        terms[tuple(expo)] = -1 if signed and inv % 2 else 1
    return terms


def digest(canon) -> str:
    """Short stable digest of a canonical answer."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _frac_text(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _expansion(exp: dict) -> list:
    return sorted([list(lam), int(c)] for lam, c in exp.items())


def _fit(qp) -> dict | None:
    if qp is None:
        return None
    return {"period": qp.period,
            "components": [[_frac_text(c) for c in comp] for comp in qp.components]}


def strata(items, proxy, size: int) -> list[list]:
    """items sorted by a cost proxy, cut into equal groups of about ``size``
    neighbours (equal, so that no member is drawn more often than another)."""
    ordered = sorted(items, key=proxy)
    k = -(-len(ordered) // size)
    return [ordered[len(ordered) * j // k:len(ordered) * (j + 1) // k]
            for j in range(k)]


class Stream:
    """Seeded stratified query stream.

    ``pattern`` fixes the type of query at each position (cyclically);
    ``populations`` maps a type to its strata. Strata, and members within a
    stratum, are drawn in seeded shuffled cycles. ``take(i)`` returns query
    i as (type, query); the stream depends only on the seed.
    """

    def __init__(self, rng: random.Random, pattern: list[str],
                 populations: dict[str, list[list]]):
        self.rng = rng
        self.pattern = pattern
        self.populations = populations
        self.orders: dict[str, list[int]] = {t: [] for t in populations}
        self.members = {t: [[] for _ in strata] for t, strata in populations.items()}
        self.queries: list[tuple[str, object]] = []

    def _cycle(self, order: list[int], size: int) -> int:
        if not order:
            order.extend(range(size))
            self.rng.shuffle(order)
        return order.pop()

    def _next_of(self, kind: str):
        strata = self.populations[kind]
        s = self._cycle(self.orders[kind], len(strata))
        return strata[s][self._cycle(self.members[kind][s], len(strata[s]))]

    def take(self, i: int) -> tuple[str, object]:
        while len(self.queries) <= i:
            kind = self.pattern[len(self.queries) % len(self.pattern)]
            self.queries.append((kind, self._next_of(kind)))
        return self.queries[i]


# ---------------------------------------------------------------------------
# lr-hive
# ---------------------------------------------------------------------------

class LRHive:
    """LR triples with 1 <= |alpha|, |beta| <= 5, lengths <= 4, lam a
    partition of |alpha|+|beta| of length <= 4; one query in eight is a
    stretch series at K = 7 on a triple that is positive by the PRV theorem
    (lam is the sorted sum of alpha and a permutation of beta)."""

    name = "lr-hive"
    pattern = ["coeff"] * 7 + ["stretch"]
    stretch_K = 7
    nominal_rate = 40.0

    def populations(self, seed: int):
        from weylbox.lr import LRQuery
        from weylbox.partitions import Partition
        parts = [p for s in range(1, 6) for p in partitions(s, 4)]
        coeff, stretch = [], []
        for a in parts:
            for b in parts:
                for lam in partitions(sum(a) + sum(b), 4):
                    coeff.append(LRQuery(Partition(a), Partition(b), Partition(lam)))
                padded = b + (0,) * (4 - len(b))
                lams = {tuple(sorted((x + y for x, y in itertools.zip_longest(
                    a, perm, fillvalue=0)), reverse=True))
                    for perm in set(itertools.permutations(padded))}
                for lam in sorted(lams):
                    stretch.append(LRQuery(Partition(a), Partition(b), Partition(lam)))

        def proxy(q):  # hive side, then total size
            return (max(len(q.alpha), len(q.beta), len(q.lam)), q.lam.size,
                    tuple(q.lam), tuple(q.alpha))

        return {"coeff": strata(coeff, proxy, 100),
                "stretch": strata(stretch, proxy, 50)}

    def run(self, kind, q):
        from weylbox import lr
        if kind == "coeff":
            return lr.lr_coefficient(q), lr.lr_positive(q)
        return lr.lr_stretch(q, self.stretch_K)

    def canonical(self, kind, q, ans):
        key = [list(q.alpha), list(q.beta), list(q.lam)]
        if kind == "coeff":
            return [key, ans[0], ans[1]]
        return [key, list(ans.values), _fit(ans.fit)]

    def check(self, kind, q, ans) -> str | None:
        if kind == "coeff":
            coeff, positive = ans
            if positive != (coeff > 0):
                return f"lr_positive={positive} but coefficient={coeff}"
            return None
        if ans.values[0] <= 0:
            return "PRV triple has coefficient 0"
        if ans.fit is None or any(ans.fit.eval(k) != v
                                  for k, v in enumerate(ans.values, start=1)):
            return "stretch fit does not reproduce the values"
        return None


# ---------------------------------------------------------------------------
# ehrhart-generic
# ---------------------------------------------------------------------------

class EhrhartQuery:
    """A bounded ParamPolytope with c = 0 plus what the benchmark needs to
    check it: an integer box containing P(1) and the fit period bound."""

    def __init__(self, A, b, box, den):
        from weylbox.polytope import ParamPolytope
        self.A = A
        self.b = b
        self.box = box                   # per coordinate (lo, hi) for k = 1
        self.dim = len(A[0])
        self.max_period = 2 * den        # vertices have denominators | 2*den
        self.K = self.max_period * (self.dim + 1) + 2
        self.pp = ParamPolytope(tuple(tuple(Fraction(x) for x in row) for row in A),
                                tuple(b), tuple(Fraction(0) for _ in b))

    def proxy(self):
        """Box volume: the DFS visits about this many points per k^dim."""
        vol = Fraction(1)
        for lo, hi in self.box:
            vol *= hi - lo
        return vol, self.b

    def brute_count(self, k: int) -> int:
        ranges = [range(_ceil(k * lo), _floor(k * hi) + 1) for lo, hi in self.box]
        rows = list(zip(self.A, self.b))
        return sum(1 for x in itertools.product(*ranges)
                   if all(sum(a * v for a, v in zip(row, x)) <= k * rhs
                          for row, rhs in rows))


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


class EhrhartGeneric:
    """Bounded rational polytopes of dimension 2-3 built from non-negativity,
    sum and difference rows with right-hand sides p/den, den <= 3 and
    1 <= p <= den (den = 1 in dimension 3). 'axis' polytopes carry x_i >= 0
    and a total sum row, so box propagation bounds them; 'rotated' ones
    (dimension 2) carry only +-(x_0 + x_1) and +-(x_0 - x_1) rows, so the
    LP fallback computes their coordinate bounds. Each query counts
    k = 1..K with K = 2*den*(dim+1) + 2 and fits a quasi-polynomial of
    period <= 2*den and degree <= dim."""

    name = "ehrhart-generic"
    classes = [(2, 1, "axis"), (2, 2, "axis"), (2, 3, "axis"), (3, 1, "axis"),
               (2, 1, "rotated"), (2, 2, "rotated"), (2, 3, "rotated")]
    pattern = [f"{d}-{q}-{kind}" for d, q, kind in classes]
    population_size = 64
    nominal_rate = 12.0

    def populations(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}:shapes")
        return {f"{d}-{q}-{kind}": strata([self._make(rng, d, q, kind)
                                           for _ in range(self.population_size)],
                                          EhrhartQuery.proxy, 16)
                for d, q, kind in self.classes}

    @staticmethod
    def _rhs(rng, den: int) -> Fraction:
        return Fraction(rng.randint(1, den), den)

    def _make(self, rng, dim, den, kind) -> EhrhartQuery:
        A, b = [], []

        def row(coeffs, rhs):
            A.append(tuple(coeffs))
            b.append(rhs)

        if kind == "axis":
            total = self._rhs(rng, den)
            for i in range(dim):
                row([-1 if j == i else 0 for j in range(dim)], Fraction(0))
            row([1] * dim, total)
            for _ in range(2):
                i, j = rng.sample(range(dim), 2)
                sign = rng.choice((1, -1))
                coeffs = [0] * dim
                coeffs[i], coeffs[j] = 1, sign
                row(coeffs, self._rhs(rng, den))
            box = [(Fraction(0), total)] * dim
            return EhrhartQuery(A, b, box, den)
        # rotated, dimension 2: x_0 = (s + d)/2 and x_1 = (s - d)/2 with
        # s = x_0 + x_1 in [-s_lo, s_hi] and d = x_0 - x_1 in [-d_lo, d_hi]
        s_hi, s_lo, d_hi, d_lo = (self._rhs(rng, den) for _ in range(4))
        for coeffs, rhs in (((1, 1), s_hi), ((-1, -1), s_lo),
                            ((1, -1), d_hi), ((-1, 1), d_lo)):
            row(coeffs, rhs)
        box = [(-(s_lo + d_lo) / 2, (s_hi + d_hi) / 2),
               (-(s_lo + d_hi) / 2, (s_hi + d_lo) / 2)]
        return EhrhartQuery(A, b, box, den)

    def run(self, kind, q):
        from weylbox import polytope
        counts = polytope.ehrhart_counts(q.pp, q.K)
        try:
            fit = polytope.fit_quasipolynomial(counts, q.max_period, q.dim, 2)
        except polytope.FitError:
            fit = None
        return counts, fit

    def canonical(self, kind, q, ans):
        key = [[[int(x) for x in row] for row in q.A], [_frac_text(x) for x in q.b]]
        return [key, list(ans[0]), _fit(ans[1])]

    def check(self, kind, q, ans) -> str | None:
        counts, fit = ans
        if len(counts) != q.K:
            return f"{len(counts)} counts for K={q.K}"
        for k in (1, 2):
            expect = q.brute_count(k)
            if counts[k - 1] != expect:
                return f"count at k={k} is {counts[k - 1]}, box count {expect}"
        if fit is not None and any(fit.eval(k) != v
                                   for k, v in enumerate(counts, start=1)):
            return "fit does not reproduce the counts"
        return None


# ---------------------------------------------------------------------------
# schur-oracle
# ---------------------------------------------------------------------------

class SchurOracle:
    """30% product_expand(alpha, beta) with 1 <= |alpha|, |beta| <= 4; 30%
    plethysm_expand(pi, mu) with |pi|*|mu| <= 8; 40% kronecker(lam, mu, nu)
    with n = |lam| cycling through 4..12 and lam, mu, nu drawn uniformly
    from the partitions of n."""

    name = "schur-oracle"
    pattern = ["kron", "product", "plethysm", "kron", "product",
               "plethysm", "kron", "product", "plethysm", "kron"]
    kron_sizes = range(4, 13)
    kron_per_size = 40
    nominal_rate = 40.0

    def populations(self, seed: int):
        from weylbox.partitions import Partition
        small = [Partition(p) for s in range(1, 5) for p in partitions(s)]
        product = [(a, b) for a in small for b in small]
        plethysm = [(Partition(pi), Partition(mu))
                    for a in range(1, 9) for b in range(1, 9) if a * b <= 8
                    for pi in partitions(a) for mu in partitions(b)]
        rng = random.Random(f"{self.name}:{seed}:kron")
        kron = []
        for n in self.kron_sizes:
            parts = partitions(n)
            kron.append([tuple(Partition(rng.choice(parts)) for _ in range(3))
                         for _ in range(self.kron_per_size)])

        def product_proxy(q):  # raw monomials multiplied, up to symmetry
            N = q[0].size + q[1].size
            return hook_content_dim(q[0], N) * hook_content_dim(q[1], N), q

        def plethysm_proxy(q):  # leaves of the fill: SSYT of pi over s_mu
            N = q[0].size * q[1].size
            return hook_content_dim(q[0], hook_content_dim(q[1], N)), q

        return {"product": strata(product, product_proxy, 4),
                "plethysm": strata(plethysm, plethysm_proxy, 4),
                "kron": kron}

    def run(self, kind, q):
        from weylbox import kronecker, symfunc
        if kind == "product":
            return symfunc.product_expand(*q)
        if kind == "plethysm":
            return symfunc.plethysm_expand(*q)
        return kronecker.kronecker(*q)

    def canonical(self, kind, q, ans):
        key = [list(p) for p in q]
        return [key, ans if kind == "kron" else _expansion(ans)]

    def check(self, kind, q, ans) -> str | None:
        from weylbox import kronecker
        from weylbox.partitions import dim_weyl
        if kind == "kron":
            lam, mu, nu = q
            rotated = kronecker.kronecker(nu, lam, mu)
            swapped = kronecker.kronecker(mu, lam, nu)
            if not (ans == rotated == swapped) or ans < 0:
                return f"kronecker not symmetric: {ans}, {rotated}, {swapped}"
            return None
        size = (sum(q[0]) + sum(q[1]) if kind == "product"
                else sum(q[0]) * sum(q[1]))
        if any(sum(lam) != size or c <= 0 for lam, c in ans.items()):
            return "expansion has a wrong degree or a non-positive coefficient"
        for lam in ans:
            for n in (2, 3):
                if dim_weyl(lam, n) != hook_content_dim(lam, n):
                    return f"dim_weyl{lam, n} disagrees with hook-content"
        for n in (1, 2, 3):
            lhs = sum(c * hook_content_dim(lam, n) for lam, c in ans.items())
            if kind == "product":
                rhs = hook_content_dim(q[0], n) * hook_content_dim(q[1], n)
            else:
                rhs = hook_content_dim(q[0], hook_content_dim(q[1], n))
            if lhs != rhs:
                return f"GL_{n} dimension identity fails: {lhs} != {rhs}"
        return None


# ---------------------------------------------------------------------------
# weyl-modules
# ---------------------------------------------------------------------------

class WeylModules:
    """40% highest_weight_vector(weyl_module(lam, n)) for n in {2, 3, 4},
    2 <= |lam| <= 5 (<= 4 at n = 4, where |lam| = 5 costs 0.4-0.9 s and one
    such query would swing a run by 5%), dimension 2..30; 30% perm_stabilizer_invariants(gamma,
    n) for n in {2, 3} and every gamma of 2n with at most n parts; 15%
    invariant_ring_dimension_check(n, r) for n in {2, 3}, r in 1..3; 15%
    symmetry_characterization_space(kind, m) for det/perm, m in {2, 3}."""

    name = "weyl-modules"
    pattern = ["hwv", "perm", "hwv", "inv", "perm", "hwv", "sym", "perm",
               "hwv", "hwv", "perm", "inv", "hwv", "perm", "sym", "hwv",
               "perm", "hwv", "inv", "sym"]
    nominal_rate = 30.0

    def populations(self, seed: int):
        from weylbox.partitions import Partition
        hwv = [(Partition(lam), n) for n in (2, 3, 4) for s in range(2, 6 if n < 4 else 5)
               for lam in partitions(s, n)
               if 2 <= hook_content_dim(lam, n) <= 30]
        perm = [(Partition(g), n) for n in (2, 3) for g in partitions(2 * n, n)]
        inv = [(n, r) for n in (2, 3) for r in (1, 2, 3)]
        sym = [(kind, m) for kind in ("det", "perm") for m in (2, 3)]
        return {"hwv": strata(hwv, lambda q: (hook_content_dim(*q) * q[1], q), 3),
                "perm": strata(perm, lambda q: (hook_content_dim(*q), q), 2),
                "inv": strata(inv, lambda q: q, 1),
                "sym": strata(sym, lambda q: q, 1)}

    def run(self, kind, q):
        from weylbox import obstructions, weylmod
        if kind == "hwv":
            M = weylmod.weyl_module(*q)
            return M, weylmod.highest_weight_vector(M)
        if kind == "perm":
            return weylmod.perm_stabilizer_invariants(*q)
        if kind == "inv":
            return obstructions.invariant_ring_dimension_check(*q)
        return weylmod.symmetry_characterization_space(*q)

    def canonical(self, kind, q, ans):
        key = [list(q[0]) if kind in ("hwv", "perm") else q[0], q[1]]
        if kind == "hwv":
            M, idx = ans
            return [key, M.dimension, idx, [list(map(list, T.rows)) for T in M.tableaux]]
        if kind == "sym":
            dim, basis = ans
            return [key, dim, [sorted([list(e), _frac_text(c)] for e, c in p.terms.items())
                               for p in basis]]
        return [key, ans]

    def check(self, kind, q, ans) -> str | None:
        if kind == "hwv":
            M, idx = ans
            lam, n = q
            if M.dimension != hook_content_dim(lam, n):
                return f"module dim {M.dimension} != hook-content"
            canonical = tuple((i + 1,) * w for i, w in enumerate(lam))
            if M.tableaux[idx].rows != canonical:
                return f"highest weight index {idx} is not the canonical tableau"
            return None
        if kind == "perm":
            gamma, _ = q
            if (ans > 0) != all(p % 2 == 0 for p in gamma):
                return f"invariants {ans} but gamma={tuple(gamma)}"
            return None
        if kind == "inv":
            return None if ans is True else f"dimension check returned {ans!r}"
        kind_name, m = q
        dim, basis = ans
        if dim != 1 or len(basis) != 1:
            return f"symmetry space has dimension {dim}"
        target = permanent_like_terms(m, signed=kind_name == "det")
        terms = basis[0].terms
        if set(terms) != set(target):
            return "symmetry space is not spanned by the expected form"
        anchor = next(iter(target))
        scale = Fraction(terms[anchor]) / target[anchor]
        if any(Fraction(terms[e]) != scale * c for e, c in target.items()):
            return "symmetry space is not spanned by the expected form"
        return None


WORKLOADS = {w.name: w for w in (LRHive(), EhrhartGeneric(), SchurOracle(),
                                 WeylModules())}
