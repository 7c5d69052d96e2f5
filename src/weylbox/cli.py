"""Command-line front end.

Every subcommand prints a single JSON object: the command echo, a
deterministic payload, a wall-time stamp and the package version. Exit codes:
0 on success, 1 on a domain error (with a machine-readable error object) or
when the reader closes stdout early, 2 on usage errors. Each subcommand is
one entry of ``COMMANDS``, which the parser, the dispatch and the ``kron``
shorthand all read; a new subcommand is one more entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

from . import __version__
from .acceptance import CRITERIA, format_result, run_criterion
from .config import BudgetError, Budgets, DEFAULT
from .kronecker import det_stabilizer_invariant_mult, g_stretch, kronecker
from .lr import (LRQuery, OracleMismatchError, _skew_lr_count, lr_coefficient,
                 lr_positive, lr_stretch)
from .obstructions import (basic_invariant_poly, emit_obstruction_family,
                           magic_orbits, read_certificates, verify_obstruction)
from .partitions import Partition, dim_weyl
from .polytope import (FitError, ParamPolytope, count_integer_points,
                       ehrhart_counts, fit_quasipolynomial)
from .symfunc import plethysm_expand, product_expand
from .weylmod import (kempf_irreducibility_check, matrix_variable_names,
                      perm_stabilizer_invariants,
                      symmetry_characterization_space, weyl_module)


def _partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _error(exc: Exception) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _coeff_map(expansion: dict) -> dict:
    return {lam.serialize(): int(v) for lam, v in sorted(expansion.items())}


def _lr_coeff(args, budgets):
    # lr_coefficient raises OracleMismatchError unless both routes agree
    value = lr_coefficient(LRQuery(args.alpha, args.beta, args.lam), budgets)
    return {"tableau": value, "hive": value, "agree": True}


def _lr_stretch(args, budgets):
    q = LRQuery(args.alpha, args.beta, args.lam)
    series = lr_stretch(q, args.K, budgets)
    tableau_values = []
    for k in range(1, args.K + 1):
        qk = q.scale(k)
        tableau_values.append(_skew_lr_count(qk.alpha, qk.beta, qk.lam))
    if list(series.values) != tableau_values:
        raise OracleMismatchError(
            f"oracle mismatch for {q}: tableau rule {tableau_values}, "
            f"hive count {list(series.values)}")
    return {"hive_values": list(series.values),
            "tableau_values": tableau_values, "agree": True,
            "fit": series.fit.to_json() if series.fit else None}


def _ehrhart(args, budgets):
    with open(args.polytope) as fh:
        pp = ParamPolytope.from_json(json.load(fh))
    if args.k is None and args.series is None:
        raise ValueError("need --k or --series")
    payload = {}
    if args.k is not None:
        if args.k > budgets.series_k_cap:
            raise BudgetError(f"k={args.k} exceeds cap {budgets.series_k_cap}")
        payload["k"] = args.k
        payload["count"] = count_integer_points(pp.at(args.k))
    if args.series is not None:
        values = ehrhart_counts(pp, args.series, budgets)
        payload["values"] = list(values)
        if args.fit:
            # a failed fit keeps the computed values beside its error
            try:
                fit = fit_quasipolynomial(
                    values, budgets.max_period, budgets.max_degree,
                    budgets.holdout, skip_prefix=args.skip_prefix)
            except FitError as exc:
                payload["error"] = _error(exc)
            else:
                payload["fit"] = fit.to_json()
    return payload


def _kron_g_stretch(args, budgets):
    series = g_stretch(args.lam, args.m, args.K, budgets)
    return {"values": list(series.values),
            "fit": series.fit.to_json() if series.fit else None}


def _weyl_dim(args, budgets):
    payload = {"dimension": dim_weyl(args.lam, args.n)}
    if args.basis:
        model = weyl_module(args.lam, args.n, budgets)
        names = matrix_variable_names(args.n)
        payload["basis"] = [
            {"tableau": [list(row) for row in T.rows],
             "polynomial": poly.to_string(names)}
            for T, poly in zip(model.tableaux, model.basis)]
    return payload


def _weyl_symcheck(args, budgets):
    dim, basis = symmetry_characterization_space(args.kind, args.size)
    letter = "y" if args.kind == "det" else "x"
    names = matrix_variable_names(args.size, letter)
    return {"dimension": dim,
            "fixed_line": [p.to_string(names) for p in basis]}


def _magic(args, budgets):
    squares, reps = magic_orbits(args.n, args.r, budgets)
    payload = {"count": len(squares), "orbits": len(reps)}
    payload["representatives"] = [[list(row) for row in rep.entries]
                                  for rep in reps]
    if args.polys:
        names = matrix_variable_names(args.n, "x")
        payload["basic_invariants"] = [
            basic_invariant_poly(rep).to_string(names) for rep in reps]
    return payload


def _obstruct_emit(args, budgets):
    certs = [verify_obstruction(cert, args.full, budgets)
             for cert in emit_obstruction_family(args.max_n, budgets)]
    payload = {"certificates": [c.to_json() for c in certs]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload["certificates"], fh, indent=1, sort_keys=True)
        payload["written"] = args.out
    return payload


def _obstruct_verify(args, budgets):
    verified = [verify_obstruction(c, args.full, budgets).to_json()
                for c in read_certificates(args.file)]
    return {"certificates": verified, "verified": len(verified)}


def _accept(args, budgets):
    keys = [args.only] if args.only else [key for key, _ in CRITERIA]
    results = []
    for key in keys:
        res = run_criterion(key, budgets)
        print(format_result(res), file=sys.stderr)
        results.append({"criterion": res.key, "passed": res.passed,
                        "detail": res.detail,
                        "seconds": round(res.seconds, 3)})
    return {"results": results,
            "all_passed": all(r["passed"] for r in results)}


def arg(*names, **kwargs):
    return names, kwargs


def parts(*names):
    """Positional partition arguments."""
    return tuple(arg(name, type=_partition) for name in names)


LR_TRIPLE = parts("alpha", "beta", "lam")
STRETCH_K = arg("--k", type=int, required=True, dest="K")
FULL = arg("--full", action="store_true")
N = arg("--n", type=int, required=True)
# the help of each word that groups subcommands
GROUPS = {"lr": "Littlewood-Richardson coefficients",
          "symfunc": "symmetric-function oracle",
          "kron": "Kronecker coefficients",
          "weyl": "explicit Weyl-module models",
          "obstruct": "obstruction certificates"}
# every runnable subcommand by its words, as (help, handler, arguments): the
# handler maps (args, budgets) to the payload, and each argument is what
# `add_argument` takes
COMMANDS = {
    "lr coeff": ("coefficient by both algorithms", _lr_coeff, LR_TRIPLE),
    "lr positive": (
        "positivity by LP feasibility",
        lambda args, budgets: {"positive": lr_positive(
            LRQuery(args.alpha, args.beta, args.lam), budgets)},
        LR_TRIPLE),
    "lr stretch": (
        "stretched coefficients and fit", _lr_stretch,
        (*LR_TRIPLE, STRETCH_K, arg("--max-period", type=int),
         arg("--holdout", type=int))),
    "symfunc product": (
        "Schur expansion of s_alpha*s_beta",
        lambda args, budgets: {"coefficients": _coeff_map(
            product_expand(args.alpha, args.beta, budgets))},
        parts("alpha", "beta")),
    "symfunc plethysm": (
        "Schur expansion of s_pi[s_mu]",
        lambda args, budgets: {"coefficients": _coeff_map(
            plethysm_expand(args.pi, args.mu, budgets))},
        parts("pi", "mu")),
    "ehrhart": (
        "integer points of a parametrized polytope", _ehrhart,
        (arg("--polytope", required=True, metavar="FILE",
             help="JSON file with A, b and optional c"),
         arg("--k", type=int),
         arg("--series", type=int, metavar="K", help="counts for k = 1..K"),
         arg("--fit", action="store_true"),
         arg("--max-period", type=int), arg("--max-degree", type=int),
         arg("--holdout", type=int),
         arg("--skip-prefix", type=int, default=0))),
    "kron coeff": (
        "kronecker coefficient",
        lambda args, budgets: {"kronecker": kronecker(
            args.lam, args.mu, args.nu, budgets)},
        parts("lam", "mu", "nu")),
    "kron det-invariant": (
        "multiplicity of SL_m x SL_m invariants",
        lambda args, budgets: {"multiplicity": det_stabilizer_invariant_mult(
            args.lam, args.m, budgets)},
        (*parts("lam"), arg("--m", type=int, required=True))),
    "kron g-stretch": (
        "stretching function values", _kron_g_stretch,
        (*parts("lam"), arg("--m", type=int, required=True), STRETCH_K)),
    "weyl dim": (
        "dimension of the model", _weyl_dim,
        (*parts("lam"), arg("n", type=int),
         arg("--basis", action="store_true",
             help="include explicit basis polynomials"))),
    "weyl invariants": (
        "permanent-stabilizer invariant dimension",
        lambda args, budgets: {"invariant_dim": perm_stabilizer_invariants(
            args.gamma, args.n, budgets)},
        (arg("--gamma", type=_partition, required=True), N)),
    "weyl symcheck": (
        "symmetry characterization", _weyl_symcheck,
        (arg("kind", choices=("det", "perm")),
         arg("--size", type=int, required=True))),
    "weyl kempf": (
        "stability criterion for perm",
        lambda args, budgets: asdict(
            kempf_irreducibility_check(args.n, budgets)), (N,)),
    "magic": (
        "magic squares and basic invariants", _magic,
        (arg("n", type=int), arg("r", type=int),
         arg("--polys", action="store_true",
             help="include the basic invariants p_A"))),
    "obstruct emit": (
        "emit the canonical family", _obstruct_emit,
        (arg("--max", type=int, required=True, dest="max_n"), FULL,
         arg("--out", metavar="FILE"))),
    "obstruct verify": ("verify certificates from a file", _obstruct_verify,
                        (arg("file"), FULL)),
    "accept": (
        "run the acceptance suite", _accept,
        (arg("--only", metavar="KEY", choices=[key for key, _ in CRITERIA],
             help="run a single criterion"),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbox",
        description="exact toolkit: LR and plethysm coefficients, Ehrhart "
                    "counting, Kronecker coefficients, Weyl-module models, "
                    "and the explicit obstruction family")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file overriding resource budgets")
    subs = {"": parser.add_subparsers(required=True)}
    for name, (text, _, args) in COMMANDS.items():
        group, _, word = name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(required=True)
        p = subs[group].add_parser(word, help=text)
        for names, kwargs in args:
            p.add_argument(*names, **kwargs)
        p.set_defaults(command=name)
    return parser


# flags that override a fit bound of the budgets; an explicit value is taken
# as given (a 0 is refused by the fit), never validated like a config file
FIT_FLAGS = ("max_period", "max_degree", "holdout")


def run(argv: list[str]) -> int:
    argv = list(argv)
    # `kron LAM MU NU` is sugar for `kron coeff LAM MU NU`, also after the
    # global `--config PATH` or `--config=PATH`
    i = 0
    while argv[i:i + 1] and argv[i].startswith("--config"):
        i += 1 if "=" in argv[i] else 2
    if argv[i:i + 1] == ["kron"] and argv[i + 1:] and argv[i + 1] not in (
            "-h", "--help") and f"kron {argv[i + 1]}" not in COMMANDS:
        argv.insert(i + 1, "coeff")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        budgets = Budgets.from_json(args.config) if args.config else DEFAULT
        budgets = replace(budgets, **{
            name: getattr(args, name) for name in FIT_FLAGS
            if getattr(args, name, None) is not None})
        _, handler, _ = COMMANDS[args.command]
        payload = handler(args, budgets)
        ok = "error" not in payload and payload.get("all_passed", True)
    except (ValueError, RuntimeError, OSError) as exc:
        payload = {"error": _error(exc)}
        ok = False
    result = {"command": list(argv), "payload": payload,
              "version": __version__,
              "wall_time_s": round(time.perf_counter() - started, 6)}
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early (`weylbox magic 4 4 | head -c 50`):
        # point stdout at devnull so the flush at exit cannot raise again,
        # and exit 1 as Python does on EPIPE
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
