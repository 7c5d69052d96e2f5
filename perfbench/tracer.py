"""Outside-in tracing of weylbox: spans around the public functions of each
layer, installed by rebinding names in the library's module namespaces.

Nothing in the library changes. ``Tracer.install`` wraps every function
listed in ``SPANS`` once and rebinds the wrapper wherever a ``weylbox``
module binds the original object (``polytope.echelon``, ``weylmod.dim_weyl``,
...), so calls from one layer into another are caught too. Generators are
timed across all their resumptions; ``lru_cache`` functions keep their cache
and ``cache_info``. Spans are kept in memory as (name, start, end, busy,
parent, query) tuples and written once, by ``write``, at the end of a run.
A span's self time is its busy time minus the busy time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

SPANS = {
    "lr": ["lr_coefficient", "lr_positive", "hive_polytope", "lr_stretch"],
    "polytope": ["feasible", "count_integer_points", "ehrhart_counts",
                 "fit_quasipolynomial"],
    "linalg": ["echelon", "rank", "nullspace", "solve_columns", "det"],
    "symfunc": ["product_expand", "plethysm_expand", "schur", "schur_expand"],
    "partitions": ["iter_ssyt", "enumerate_ssyt", "kostka", "count_ssyt",
                   "dim_weyl"],
    "kronecker": ["kronecker", "sym_character"],
    "weylmod": ["weyl_module", "deruyts_generator", "group_action_matrix",
                "fixed_subspace_dim", "highest_weight_vector",
                "perm_stabilizer_invariants", "symmetry_characterization_space"],
    "obstructions": ["enumerate_magic_squares", "basic_invariant_poly",
                     "invariant_ring_dimension_check"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
MODULES = list(SPANS)
CACHES = {"cache.partitions.dim_weyl": ("partitions", "dim_weyl"),
          "cache.symfunc.schur": ("symfunc", "schur"),
          "cache.kronecker._mn": ("kronecker", "_mn")}
COUNTS = ["lr.hive.vars", "lr.hive.rows", "lr.zero_coeff_frac",
          "polytope.points_counted", "polytope.fit.found_frac",
          "linalg.echelon.cells", "weylmod.module_dim"]


def _count_hive(c: Counter, args, kwargs, result):
    c["lr.hive.vars"] += result.dim
    c["lr.hive.rows"] += len(result.A)


def _count_coefficient(c: Counter, args, kwargs, result):
    if args[0].sizes_match():  # otherwise neither route ran
        c["lr.coeff.computed"] += 1
        c["lr.coeff.zero"] += result == 0


def _count_points(c: Counter, args, kwargs, result):
    c["polytope.points_counted"] += result


def _count_fit(c: Counter, args, kwargs, result):
    c["polytope.fit.found"] += 1


def _count_echelon_cells(c: Counter, args, kwargs):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    c["linalg.echelon.cells"] += len(rows) * ncols


def _count_fit_attempt(c: Counter, args, kwargs):
    c["polytope.fit.attempted"] += 1


def _count_module(c: Counter, args, kwargs, result):
    c["weylmod.module_dim"] += result.dimension


# counters read from a span's arguments before the call, and from its return
# value after a normal return
ON_CALL = {"linalg.echelon": _count_echelon_cells,
           "polytope.fit_quasipolynomial": _count_fit_attempt}
ON_RETURN = {"lr.hive_polytope": _count_hive,
             "lr.lr_coefficient": _count_coefficient,
             "polytope.count_integer_points": _count_points,
             "polytope.fit_quasipolynomial": _count_fit,
             "weylmod.weyl_module": _count_module}


class Tracer:
    """Spans and counters of one worker; tracing is on between ``start`` and
    ``stop``, so answer checks between queries are never traced."""

    def __init__(self):
        self.enabled = False
        self.query = -1
        self.records: list[tuple[int, int, int, int, int, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cache_hits: Counter = Counter()
        self.cache_misses: Counter = Counter()
        self._caches = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed span in every loaded weylbox module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "weylbox" or name.startswith("weylbox.")}
        wrappers = {}
        for name_id, span in enumerate(SPAN_NAMES):
            mod, fn = span.split(".")
            original = getattr(modules[f"weylbox.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(name_id, span, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for metric, (mod, fn) in CACHES.items():
            self._caches[metric] = getattr(modules[f"weylbox.{mod}"], fn).cache_info

    def _wrap(self, name_id: int, span: str, fn):
        on_call = ON_CALL.get(span)
        on_return = ON_RETURN.get(span)
        records, stack, counts = self.records, self.stack, self.counts
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not self.enabled:
                    yield from inner
                    return
                idx = len(records)
                records.append(None)
                parent = stack[-1] if stack else -1
                first = last = None
                busy = 0
                try:
                    while True:
                        stack.append(idx)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            last = clock()
                            stack.pop()
                            first = t0 if first is None else first
                            busy += last - t0
                        yield item
                finally:
                    inner.close()
                    records[idx] = (name_id, first, last, busy, parent, self.query)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(counts, args, kwargs)
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records[idx] = (name_id, t0, t1, t1 - t0, parent, self.query)
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- per query --------------------------------------------------------

    def start(self, query: int) -> dict:
        """Begin tracing one query; returns the cache state to diff against."""
        self.query = query
        self.enabled = True
        return {m: info() for m, info in self._caches.items()}

    def stop(self, before: dict) -> None:
        self.enabled = False
        for metric, info in self._caches.items():
            now, then = info(), before[metric]
            self.cache_hits[metric] += now.hits - then.hits
            self.cache_misses[metric] += now.misses - then.misses

    # -- results ----------------------------------------------------------

    def metrics(self, timed_wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every traced query; timed_wall_s is the
        summed latency of those queries."""
        child_busy = [0] * len(self.records)
        for rec in self.records:
            if rec[4] >= 0:
                child_busy[rec[4]] += rec[3]
        self_ns = [0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        top_ns = 0
        for idx, rec in enumerate(self.records):
            self_ns[rec[0]] += rec[3] - child_busy[idx]
            calls[rec[0]] += 1
            if rec[4] < 0:
                top_ns += rec[3]
        out: dict[str, float] = {}
        module_ns = dict.fromkeys(MODULES, 0)
        for name_id, span in enumerate(SPAN_NAMES):
            out[f"{span}.self_s"] = self_ns[name_id] / 1e9
            out[f"{span}.calls"] = calls[name_id]
            module_ns[span.split(".")[0]] += self_ns[name_id]
        for mod, ns in module_ns.items():
            out[f"{mod}.self_s"] = ns / 1e9
            out[f"{mod}.share"] = ns / 1e9 / timed_wall_s
        c = self.counts
        out["lr.hive.vars"] = c["lr.hive.vars"]
        out["lr.hive.rows"] = c["lr.hive.rows"]
        out["lr.zero_coeff_frac"] = _ratio(c["lr.coeff.zero"], c["lr.coeff.computed"])
        out["polytope.points_counted"] = c["polytope.points_counted"]
        out["polytope.fit.found_frac"] = _ratio(c["polytope.fit.found"],
                                                c["polytope.fit.attempted"])
        out["linalg.echelon.cells"] = c["linalg.echelon.cells"]
        out["weylmod.module_dim"] = c["weylmod.module_dim"]
        for metric in CACHES:
            hits, misses = self.cache_hits[metric], self.cache_misses[metric]
            out[f"{metric}.hit_frac"] = _ratio(hits, hits + misses)
        out["trace.coverage"] = top_ns / 1e9 / timed_wall_s
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: query, name, start_ns, end_ns,
        busy_ns, parent (index of the parent line, -1 for none)."""
        t_base = min((rec[1] for rec in self.records), default=0)
        with open(path, "w") as fh:
            fh.write("query\tname\tstart_ns\tend_ns\tbusy_ns\tparent\n")
            for name_id, t0, t1, busy, parent, query in self.records:
                fh.write(f"{query}\t{SPAN_NAMES[name_id]}\t{t0 - t_base}\t"
                         f"{t1 - t_base}\t{busy}\t{parent}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
