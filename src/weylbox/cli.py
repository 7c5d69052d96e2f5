"""Command-line front end.

Every subcommand prints a single JSON object: the command echo, a
deterministic payload, a wall-time stamp and the package version. Exit codes:
0 on success, 1 on a domain error (with a machine-readable error object) or
when the reader closes stdout early, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from . import __version__
from .acceptance import CRITERIA, format_result, run_criterion
from .config import Budgets, DEFAULT
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbox",
        description="exact toolkit: LR and plethysm coefficients, Ehrhart "
                    "counting, Kronecker coefficients, Weyl-module models, "
                    "and the explicit obstruction family")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file overriding resource budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    lr = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    lr_sub = lr.add_subparsers(dest="lr_command", required=True)
    p = lr_sub.add_parser("coeff", help="coefficient by both algorithms")
    p.add_argument("alpha", type=_partition)
    p.add_argument("beta", type=_partition)
    p.add_argument("lam", type=_partition)
    p = lr_sub.add_parser("positive", help="positivity by LP feasibility")
    p.add_argument("alpha", type=_partition)
    p.add_argument("beta", type=_partition)
    p.add_argument("lam", type=_partition)
    p = lr_sub.add_parser("stretch", help="stretched coefficients and fit")
    p.add_argument("alpha", type=_partition)
    p.add_argument("beta", type=_partition)
    p.add_argument("lam", type=_partition)
    p.add_argument("--k", type=int, required=True, dest="K")
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--holdout", type=int, default=None)

    sf = sub.add_parser("symfunc", help="symmetric-function oracle")
    sf_sub = sf.add_subparsers(dest="sf_command", required=True)
    p = sf_sub.add_parser("product", help="Schur expansion of s_alpha*s_beta")
    p.add_argument("alpha", type=_partition)
    p.add_argument("beta", type=_partition)
    p = sf_sub.add_parser("plethysm", help="Schur expansion of s_pi[s_mu]")
    p.add_argument("pi", type=_partition)
    p.add_argument("mu", type=_partition)

    p = sub.add_parser("ehrhart", help="integer points of a parametrized polytope")
    p.add_argument("--polytope", required=True, metavar="FILE",
                   help="JSON file with A, b and optional c")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--series", type=int, default=None, metavar="K",
                   help="counts for k = 1..K")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--holdout", type=int, default=None)
    p.add_argument("--skip-prefix", type=int, default=0)

    kron = sub.add_parser("kron", help="Kronecker coefficients")
    kron_sub = kron.add_subparsers(dest="kron_command", required=True)
    p = kron_sub.add_parser("coeff", help="kronecker coefficient")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    p.add_argument("nu", type=_partition)
    p = kron_sub.add_parser("det-invariant",
                            help="multiplicity of SL_m x SL_m invariants")
    p.add_argument("lam", type=_partition)
    p.add_argument("--m", type=int, required=True)
    p = kron_sub.add_parser("g-stretch", help="stretching function values")
    p.add_argument("lam", type=_partition)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True, dest="K")

    weyl = sub.add_parser("weyl", help="explicit Weyl-module models")
    weyl_sub = weyl.add_subparsers(dest="weyl_command", required=True)
    p = weyl_sub.add_parser("dim", help="dimension of the model")
    p.add_argument("lam", type=_partition)
    p.add_argument("n", type=int)
    p.add_argument("--basis", action="store_true",
                   help="include explicit basis polynomials")
    p = weyl_sub.add_parser("invariants",
                            help="permanent-stabilizer invariant dimension")
    p.add_argument("--gamma", type=_partition, required=True)
    p.add_argument("--n", type=int, required=True)
    p = weyl_sub.add_parser("symcheck", help="symmetry characterization")
    p.add_argument("kind", choices=("det", "perm"))
    p.add_argument("--size", type=int, required=True)
    p = weyl_sub.add_parser("kempf", help="stability criterion for perm")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("magic", help="magic squares and basic invariants")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--polys", action="store_true",
                   help="include the basic invariants p_A")

    obstruct = sub.add_parser("obstruct", help="obstruction certificates")
    ob_sub = obstruct.add_subparsers(dest="obstruct_command", required=True)
    p = ob_sub.add_parser("emit", help="emit the canonical family")
    p.add_argument("--max", type=int, required=True, dest="max_n")
    p.add_argument("--full", action="store_true")
    p.add_argument("--out", metavar="FILE", default=None)
    p = ob_sub.add_parser("verify", help="verify certificates from a file")
    p.add_argument("file")
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", default=None, metavar="KEY",
                   choices=[key for key, _ in CRITERIA],
                   help="run a single criterion")

    return parser


# flags that override a fit bound of the budgets; an explicit value is taken
# as given (a 0 is refused by the fit), never validated like a config file
FIT_FLAGS = ("max_period", "max_degree", "holdout")


def _dispatch(args: argparse.Namespace, budgets: Budgets) -> dict:
    cmd = args.command
    budgets = replace(budgets, **{
        name: getattr(args, name) for name in FIT_FLAGS
        if getattr(args, name, None) is not None})

    if cmd == "lr":
        q = None
        if args.lr_command in ("coeff", "positive", "stretch"):
            q = LRQuery(args.alpha, args.beta, args.lam)
        if args.lr_command == "coeff":
            # lr_coefficient raises OracleMismatchError unless both routes agree
            value = lr_coefficient(q, budgets)
            return {"tableau": value, "hive": value, "agree": True}
        if args.lr_command == "positive":
            return {"positive": lr_positive(q, budgets)}
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
                "tableau_values": tableau_values,
                "agree": True,
                "fit": series.fit.to_json() if series.fit else None}

    if cmd == "symfunc":
        if args.sf_command == "product":
            return {"coefficients": _coeff_map(
                product_expand(args.alpha, args.beta, budgets))}
        return {"coefficients": _coeff_map(
            plethysm_expand(args.pi, args.mu, budgets))}

    if cmd == "ehrhart":
        with open(args.polytope) as fh:
            pp = ParamPolytope.from_json(json.load(fh))
        if args.k is None and args.series is None:
            raise ValueError("need --k or --series")
        payload = {}
        if args.k is not None:
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

    if cmd == "kron":
        if args.kron_command == "coeff":
            return {"kronecker": kronecker(args.lam, args.mu, args.nu, budgets)}
        if args.kron_command == "det-invariant":
            return {"multiplicity": det_stabilizer_invariant_mult(
                args.lam, args.m, budgets)}
        series = g_stretch(args.lam, args.m, args.K, budgets)
        return {"values": list(series.values),
                "fit": series.fit.to_json() if series.fit else None}

    if cmd == "weyl":
        if args.weyl_command == "dim":
            payload = {"dimension": dim_weyl(args.lam, args.n)}
            if args.basis:
                model = weyl_module(args.lam, args.n, budgets)
                names = matrix_variable_names(args.n)
                payload["basis"] = [
                    {"tableau": [list(row) for row in T.rows],
                     "polynomial": poly.to_string(names)}
                    for T, poly in zip(model.tableaux, model.basis)]
            return payload
        if args.weyl_command == "invariants":
            dim = perm_stabilizer_invariants(args.gamma, args.n, budgets)
            return {"invariant_dim": dim}
        if args.weyl_command == "symcheck":
            dim, basis = symmetry_characterization_space(args.kind, args.size)
            letter = "y" if args.kind == "det" else "x"
            names = [f"{letter}{i + 1}{j + 1}" for i in range(args.size)
                     for j in range(args.size)]
            return {"dimension": dim,
                    "fixed_line": [p.to_string(names) for p in basis]}
        result = kempf_irreducibility_check(args.n, budgets)
        return {"stable": result.stable, "degenerate": result.degenerate,
                "torus_characters_distinct": result.torus_characters_distinct,
                "permutations_transitive": result.permutations_transitive}

    if cmd == "magic":
        squares, reps = magic_orbits(args.n, args.r, budgets)
        payload = {"count": len(squares), "orbits": len(reps)}
        payload["representatives"] = [[list(row) for row in rep.entries]
                                      for rep in reps]
        if args.polys:
            names = [f"x{i + 1}{j + 1}" for i in range(args.n)
                     for j in range(args.n)]
            payload["basic_invariants"] = [
                basic_invariant_poly(rep).to_string(names) for rep in reps]
        return payload

    if cmd == "obstruct":
        if args.obstruct_command == "emit":
            certs = [verify_obstruction(cert, args.full, budgets)
                     for cert in emit_obstruction_family(args.max_n, budgets)]
            payload = {"certificates": [c.to_json() for c in certs]}
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(payload["certificates"], fh, indent=1,
                              sort_keys=True)
                payload["written"] = args.out
            return payload
        certs = read_certificates(args.file)
        verified = [verify_obstruction(c, args.full, budgets).to_json()
                    for c in certs]
        return {"certificates": verified, "verified": len(verified)}

    if cmd == "accept":
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

    raise ValueError(f"unhandled command {cmd}")  # pragma: no cover


def run(argv: list[str]) -> int:
    argv = list(argv)
    # `kron LAM MU NU` is sugar for `kron coeff LAM MU NU`, also after the
    # global `--config PATH` or `--config=PATH`
    i = 0
    while argv[i:i + 1] and argv[i].startswith("--config"):
        i += 1 if "=" in argv[i] else 2
    if argv[i:i + 1] == ["kron"] and len(argv) > i + 1 and argv[i + 1] not in (
            "coeff", "det-invariant", "g-stretch", "-h", "--help"):
        argv.insert(i + 1, "coeff")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        budgets = Budgets.from_json(args.config) if args.config else DEFAULT
        payload = _dispatch(args, budgets)
        ok = "error" not in payload and (
            args.command != "accept" or payload["all_passed"])
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
