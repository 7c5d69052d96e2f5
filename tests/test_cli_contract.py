"""The command-line contract over argv drawn from a small grammar.

Every call of ``cli.run`` exits 0, 1 or 2 within its alarm; exits 0 and 1
print exactly one JSON object, and nothing prints a traceback. The grammar
holds one strategy per entry of ``cli.COMMANDS`` and covers every flag,
with negative, zero, huge and malformed values, so a loop-sizing argument
whose budget is gone runs past its alarm.

Shapes stay small: partitions of at most 4, and in-budget integers of at
most 7. The one exception is ``weyl dim``, which also draws a huge one-row
shape at a small n: its dimension formula costs a step per row, not per
cell. Only argument budgets exist so far, no work budgets (ROADMAP item
6), and a call inside every argument budget can still run for a long time:
``magic 4 8`` takes 47 s, and ``weyl dim 1000000 1000000`` 35 s, since its
answer has 2 million bits. Widen the grammar once work budgets refuse such
calls.
"""

import contextlib
import io
import json
import signal
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from weylbox import cli
from weylbox.cli import run

ALARM_S = 2.0
REFIRE_S = 0.25
HUGE = st.sampled_from(["100000000", "1" + "0" * 30])
INT = st.one_of(st.sampled_from(["-1", "0", "1", "2", "3", "5", "7"]), HUGE)
# the four loop-sizing arguments (stretch K, series K, family size, Kempf n)
# are huge most of the time, so a missing loop budget overruns the alarm
LOOP = st.one_of(INT, HUGE, HUGE)
SHAPES = {0: [""], 1: ["1"], 2: ["2", "1,1"], 3: ["3", "2,1", "1,1,1"],
          4: ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]}
PART = st.one_of(st.just(""), st.sampled_from(sum(SHAPES.values(), [])))
# one token of a drawn argv is replaced by one of these a quarter of the time
MALFORMED = st.sampled_from(["x", "1.5", "", "--", "--nope", "2,3", "1,,1",
                             "1,-1", "0,1", "3,"])


def shapes(*sizes):
    """One partition of each size, as a list of labels."""
    return st.tuples(*(st.sampled_from(SHAPES[n]) for n in sizes)).map(list)


# three labels, of sizes that pass the size checks half the time
LR_TRIPLE = st.one_of(
    st.tuples(PART, PART, PART).map(list),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
        lambda ab: shapes(ab[0], ab[1], sum(ab))))
KRON_TRIPLE = st.one_of(st.tuples(PART, PART, PART).map(list),
                        st.integers(0, 4).flatmap(lambda n: shapes(n, n, n)))

FILES = {
    "segment.json": {"A": [["1"], ["-1"]], "b": ["1", "0"]},
    "square.json": {"A": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
                    "b": ["1", "0", "1", "0"]},
    "unbounded.json": {"A": [["-1"]], "b": ["0"]},
    # x, y >= 0 and x + y <= 1: at k the count loops k + 1 times
    "triangle.json": {"A": [["-1", "0"], ["0", "-1"], ["1", "1"]],
                      "b": ["0", "0", "1"]},
    "certificates.json": [{"n": 2, "gamma": "2,2"}, {"n": 3, "gamma": "4,2"}],
    # budgets lowered below the defaults, and ones that are refused
    "lowered.json": {"stretch_k_cap": 5, "series_k_cap": 5, "emit_n_cap": 5,
                     "kempf_n_cap": 5, "magic_weight_cap": 3,
                     "plethysm_degree_cap": 6},
    "zero.json": {"holdout": 0},
    "unknown.json": {"nope": 1},
    "list.json": [1, 2],
}


def call(*parts):
    """argv drawn part by part: a str is fixed, and a strategy draws a str
    or a list of them."""
    drawn = st.tuples(*(st.just(p) if isinstance(p, str) else p
                        for p in parts))
    return drawn.map(lambda args: [a for arg in args
                                   for a in ([arg] if isinstance(arg, str)
                                             else arg)])


def flag(name, values=None):
    """An optional flag, with a value drawn from ``values`` if given."""
    if values is None:
        return st.sampled_from([[], [name]])
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def grammar(home):
    """One strategy per leaf subcommand; files are read from ``home``."""
    def files(*names):
        return st.sampled_from([str(home / name) for name in names])

    poly = st.one_of(files("segment.json", "square.json", "triangle.json"),
                     files("segment.json", "unbounded.json", "list.json",
                           "malformed.json", "absent.json"))
    certs = files("certificates.json", "segment.json", "malformed.json",
                  "absent.json")
    series = call("--series", LOOP, flag("--k", INT))
    fit = [flag(f"--{name}", INT)
           for name in ("max-period", "max-degree", "holdout")]
    return {
        "accept": call("accept", "--only",
                       st.sampled_from(["", "nope", "lr"])),
        "ehrhart": call("ehrhart", "--polytope", poly, st.one_of(
            series, series, call("--k", INT), st.just([])),
            flag("--fit"), *fit, flag("--skip-prefix", INT)),
        "kron coeff": call("kron", flag("coeff"), KRON_TRIPLE),
        "kron det-invariant": call("kron", "det-invariant", PART, "--m", INT),
        "kron g-stretch": call("kron", "g-stretch", PART, "--m", INT,
                               "--k", INT),
        "lr coeff": call("lr", "coeff", LR_TRIPLE),
        "lr positive": call("lr", "positive", LR_TRIPLE),
        "lr stretch": call("lr", "stretch", LR_TRIPLE, "--k", LOOP, fit[0],
                           fit[2]),
        "magic": call("magic", INT, INT, flag("--polys")),
        "obstruct emit": call("obstruct", "emit", "--max", LOOP,
                              flag("--full")),
        "obstruct verify": call("obstruct", "verify", certs, flag("--full")),
        "symfunc plethysm": call("symfunc", "plethysm", PART, PART),
        "symfunc product": call("symfunc", "product", PART, PART),
        "weyl dim": st.one_of(
            call("weyl", "dim", PART, INT, flag("--basis")),
            call("weyl", "dim", HUGE, st.sampled_from(["0", "1", "2", "7"]),
                 flag("--basis"))),
        "weyl invariants": st.one_of(
            call("weyl", "invariants", "--gamma", PART, "--n", INT),
            st.integers(1, 2).flatmap(lambda n: call(
                "weyl", "invariants", "--gamma", shapes(2 * n), "--n",
                str(n)))),
        "weyl kempf": call("weyl", "kempf", "--n", LOOP),
        "weyl symcheck": call("weyl", "symcheck",
                              st.sampled_from(["det", "perm", "tr"]),
                              "--size", INT),
    }


def config(home):
    """A global ``--config`` in either form, naming the lowered budgets half
    the time and any file in ``home`` else."""
    paths = st.one_of(
        st.just(str(home / "lowered.json")),
        st.sampled_from([str(home / name) for name in
                         (*FILES, "malformed.json", "absent.json")]))
    return st.one_of(paths.map(lambda path: ["--config", path]),
                     paths.map(lambda path: [f"--config={path}"]))


class Overran(BaseException):
    """Raised by the alarm; a BaseException, so no handler of the program
    under test can swallow it."""


def invoke(argv):
    """(exit code, stdout, stderr) of ``run(argv)`` under the alarm; the
    code is None if the call overran it. The alarm fires again every
    ``REFIRE_S`` until the call stops: a raise that lands in a garbage
    collector's callback is dropped, and the call would run on."""
    def overran(signum, frame):
        raise Overran

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S, REFIRE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse: usage errors exit 2
                code = exc.code
    except Overran:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def home(tmp_path_factory):
    home = tmp_path_factory.mktemp("cli_contract")
    for name, data in FILES.items():
        (home / name).write_text(json.dumps(data))
    (home / "malformed.json").write_text('{"A": [["1"]], "b": ')
    return home


COMMANDS = sorted(cli.COMMANDS)


def test_grammar_covers_every_command():
    assert sorted(grammar(Path())) == COMMANDS


def check(data, argv):
    """Run argv, with one token replaced by a malformed one a quarter of the
    time, and hold it to the contract."""
    if data.draw(st.sampled_from([False, False, False, True]),
                 label="malformed"):
        at = data.draw(st.integers(0, len(argv) - 1), label="at")
        argv[at] = data.draw(MALFORMED, label="token")
    code, out, err = invoke(argv)
    assert code is not None, f"{argv} still running after {ALARM_S} s"
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code in (0, 1):
        assert isinstance(json.loads(out), dict), (argv, out)


# no shrinking: a failing call that overran would cost an alarm per attempt
contract = settings(max_examples=40, derandomize=True, database=None,
                    deadline=None, phases=[Phase.generate])


@pytest.mark.parametrize("command", COMMANDS)
@contract
@given(data=st.data())
def test_exit_code_and_one_json_object(home, command, data):
    check(data, data.draw(grammar(home)[command], label="argv"))


@contract
@given(data=st.data())
def test_under_a_global_config(home, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    check(data, data.draw(config(home), label="config")
          + data.draw(grammar(home)[command], label="argv"))
