#!/usr/bin/env python3
"""Print the output of a fixed list of CLI calls, one JSON line per call,
with every timing removed, so that two trees can be compared by ``diff``.

The calls are every line of the README's "Command line" block, ``lr coeff``,
``lr positive`` and ``lr stretch --k 7`` on the ten acceptance stretch
queries, ``ehrhart --series 6``, plain and with ``--fit``, on four
polytope files (pinned equalities, an equality with c != 0, an equality
that reads 0 = k*b + c, and an unbounded one), ``weyl invariants`` on every
gamma of 2n with at most n parts for n = 2..4 (refusals included),
``weyl dim --basis`` on (2,1) and (3,2) at n = 3, and ``weyl symcheck`` for
det and perm at sizes 2 and 3; a call already in the README block is not
repeated. Then come three longer series: ``ehrhart --series 20 --fit`` on
a rotated polygon, which only the LP box bounds, ``ehrhart --series 10``
on a 3-dimensional axis polytope and ``lr stretch --k 10`` on the first
acceptance stretch query, two ``symfunc plethysm`` calls on
(2,2) of (3) and (4) of (3), degree 12, through a ``--config`` file that
raises ``plethysm_degree_cap`` to 12, and last two ``kron coeff`` calls at
n = 14, the default ``char_table_max_n``: the largest rows the bounded
Murnaghan-Nakayama memo builds by default. They run in process through
``weylbox.cli.run``, in a temporary directory that holds the files under relative names. Each
line is the call's JSON output plus its exit code, keys sorted, without
``wall_time_s`` and without any ``seconds`` field.

``tests/cli_payloads.jsonl`` holds this output, and a tier-1 test compares
it call by call; a change that alters a payload updates that file.

Example:
    PYTHONPATH=src python scripts/cli_payloads.py > after.jsonl
    diff tests/cli_payloads.jsonl after.jsonl
"""

import contextlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from weylbox.acceptance import STRETCH_QUERIES
from weylbox.cli import run
from weylbox.partitions import partitions_of

README = Path(__file__).resolve().parents[1] / "README.md"

FILES = {
    # the two files the README block reads
    "cube2.json": {"A": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
                   "b": ["1", "0", "1", "0"]},
    "half.json": {"A": [["1"], ["-1"]], "b": ["1/2", "0"]},
    # x + y = k, then z = k once x is substituted away, and 2x - 2w <= 0
    # with w - x <= 0, a pair once both rows are primitive
    "pairs.json": {
        "A": [["1", "1", "0", "0"], ["-1", "-1", "0", "0"],
              ["1", "1", "1", "0"], ["0", "0", "-1", "0"],
              ["2", "0", "0", "-2"], ["-1", "0", "0", "1"],
              ["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "1", "0", "0"]],
        "b": ["1", "-1", "2", "-1", "0", "0", "0", "0", "0", "1"]},
    # 0 <= x <= k/2 + 1, y >= 0 and x + y = k + 1
    "offset.json": {"A": [["1", "0"], ["-1", "0"], ["0", "-1"],
                          ["1", "1"], ["-1", "-1"]],
                    "b": ["1/2", "0", "0", "1", "-1"],
                    "c": ["1", "0", "0", "1", "-1"]},
    # x = k, x = 2 and 0 <= y <= k: x - k = 0 pins nothing
    "constant.json": {"A": [["1", "0"], ["-1", "0"], ["1", "0"], ["-1", "0"],
                            ["0", "1"], ["0", "-1"]],
                      "b": ["1", "-1", "0", "0", "1", "0"],
                      "c": ["0", "0", "2", "-2", "0", "0"]},
    # x >= 0
    "unbounded.json": {"A": [["-1"]], "b": ["0"]},
    # -1/3 <= x + y <= 1 and -1 <= x - y <= 1/3: propagation bounds nothing
    "rotated.json": {"A": [["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]],
                     "b": ["1", "1/3", "1/3", "1"]},
    # x >= 0, x0 + x1 + x2 <= 2, x0 - x1 <= 1 and x1 + x2 <= 1
    "axis3.json": {"A": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"],
                         ["1", "1", "1"], ["1", "-1", "0"], ["0", "1", "1"]],
                   "b": ["0", "0", "0", "2", "1", "1"]},
    # plethysms of degree 12, above the default cap of 10
    "cap12.json": {"plethysm_degree_cap": 12},
}


def readme_calls() -> list[list[str]]:
    """The README's "Command line" block, without the leading ``weylbox``."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    calls = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "weylbox", argv
            calls.append(argv[1:])
    return calls


def calls() -> list[list[str]]:
    out = readme_calls()
    for raw in STRETCH_QUERIES:
        labels = [",".join(map(str, p)) for p in raw]
        out += [["lr", "coeff", *labels], ["lr", "positive", *labels],
                ["lr", "stretch", *labels, "--k", "7"]]
    for name in ("pairs.json", "offset.json", "constant.json", "unbounded.json"):
        series = ["ehrhart", "--polytope", name, "--series", "6"]
        out += [series, [*series, "--fit"]]
    weyl = [["weyl", "invariants", "--gamma", gamma.serialize(), "--n", str(n)]
            for n in (2, 3, 4) for gamma in partitions_of(2 * n, max_length=n)]
    weyl += [["weyl", "dim", lam, "3", "--basis"] for lam in ("2,1", "3,2")]
    weyl += [["weyl", "symcheck", kind, "--size", size]
             for kind in ("det", "perm") for size in ("2", "3")]
    first = [",".join(map(str, p)) for p in STRETCH_QUERIES[0]]
    long = [["ehrhart", "--polytope", "rotated.json", "--series", "20", "--fit"],
            ["ehrhart", "--polytope", "axis3.json", "--series", "10"],
            ["lr", "stretch", *first, "--k", "10"]]
    long += [["--config", "cap12.json", "symfunc", "plethysm", pi, "3"]
             for pi in ("2,2", "4")]
    long += [["kron", "coeff", "5,4,3,2", "5,4,3,2", "7,7"],
             ["kron", "coeff", "8,6", "8,6", "10,4"]]
    return out + [argv for argv in weyl if argv not in out] + long


def masked(data):
    """data without its ``wall_time_s`` and ``seconds`` fields, at any depth."""
    if isinstance(data, dict):
        return {key: masked(value) for key, value in data.items()
                if key not in ("wall_time_s", "seconds")}
    if isinstance(data, list):
        return [masked(value) for value in data]
    return data


def payload_lines():
    """One JSON line per call of ``calls()``, as ``main`` prints them."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in FILES.items():
                Path(name).write_text(json.dumps(data))
            for argv in calls():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run(argv)
                line = masked(json.loads(out.getvalue()))
                line["exit"] = code
                yield json.dumps(line, sort_keys=True)
        finally:
            os.chdir(home)


def main():
    for line in payload_lines():
        print(line)


if __name__ == "__main__":
    main()
