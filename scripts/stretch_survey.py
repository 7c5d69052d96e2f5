#!/usr/bin/env python3
"""Survey stretching functions: LR coefficients at scaled labels and the
determinant-stabilizer multiplicities, with their exact quasi-polynomial fits.

Example:
    python scripts/stretch_survey.py --k 7
    python scripts/stretch_survey.py --query "2,1 2,1 3,2,1" --k 9 --holdout 3
"""

import argparse
from dataclasses import replace

from weylbox.config import DEFAULT
from weylbox.kronecker import g_stretch
from weylbox.lr import LRQuery, lr_stretch
from weylbox.partitions import Partition

DEFAULT_QUERIES = [
    "2,1 2,1 3,2,1",
    "1 1 2",
    "2 1 2,1",
    "2,2 2,1 3,3,1",
    "3,2,1 3,2,1 4,4,3,1",
    "3,2,1 3,2,1 5,4,2,1",
]

DEFAULT_G_SHAPES = ["2", "1,1", "2,2", "3,1"]


def fit_text(fit):
    if fit is None:
        return "(no fit)"
    comps = ["[" + ", ".join(str(c) for c in comp) + "]"
             for comp in fit.components]
    return f"period {fit.period}, degree {fit.degree}, coeffs {' '.join(comps)}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--query", action="append", default=None,
                        metavar="'A B L'",
                        help="space-separated alpha beta lambda (repeatable)")
    parser.add_argument("--k", type=int, default=7)
    parser.add_argument("--holdout", type=int, default=2)
    parser.add_argument("--skip-g", action="store_true",
                        help="only the LR survey")
    args = parser.parse_args()

    queries = args.query or DEFAULT_QUERIES
    budgets = replace(DEFAULT, holdout=args.holdout)
    print(f"== LR stretching functions, k = 1..{args.k} ==")
    for raw in queries:
        a, b, lam = (Partition.parse(tok) for tok in raw.split())
        series = lr_stretch(LRQuery(a, b, lam), args.k, budgets)
        print(f"  ({a.serialize()} | {b.serialize()} | {lam.serialize()}): "
              f"{list(series.values)}  ->  {fit_text(series.fit)}")

    if args.skip_g:
        return
    print("== determinant-stabilizer multiplicities G(k), m = 2 ==")
    for raw in DEFAULT_G_SHAPES:
        lam = Partition.parse(raw)
        K = max(2, 14 // max(lam.size, 1))
        series = g_stretch(lam, 2, K)
        print(f"  lam={lam.serialize()}: {list(series.values)}  ->  "
              f"{fit_text(series.fit)}")


if __name__ == "__main__":
    main()
