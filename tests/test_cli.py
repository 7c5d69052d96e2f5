import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylbox.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


@contextlib.contextmanager
def within_a_second(argv):
    """Fail with an AssertionError if the body runs for over a second."""
    def timeout(signum, frame):
        raise AssertionError(f"{argv} still running after 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def config(tmp_path, **budgets):
    """A ``--config`` file with the given budget fields."""
    path = tmp_path / "budgets.json"
    path.write_text(json.dumps(budgets))
    return str(path)


class TestLR:
    def test_coeff(self, capsys):
        code, out = invoke(capsys, "lr", "coeff", "2,1", "2,1", "3,2,1")
        assert code == 0
        assert out["payload"] == {"agree": True, "hive": 2, "tableau": 2}

    def test_coeff_size_mismatch(self, capsys):
        code, out = invoke(capsys, "lr", "coeff", "1", "1", "3")
        assert code == 0
        assert out["payload"] == {"agree": True, "hive": 0, "tableau": 0}

    def test_positive(self, capsys):
        code, out = invoke(capsys, "lr", "positive", "2", "2", "2,1,1")
        assert code == 0 and out["payload"] == {"positive": False}

    def test_coeff_mismatch_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("weylbox.lr._skew_lr_count", lambda *args: 99)
        code, out = invoke(capsys, "lr", "coeff", "2,1", "2,1", "3,2,1")
        assert code == 1
        assert out["payload"]["error"]["type"] == "OracleMismatchError"

    def test_stretch_mismatch_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("weylbox.cli._skew_lr_count", lambda *args: 99)
        code, out = invoke(capsys, "lr", "stretch", "2,1", "2,1", "3,2,1",
                           "--k", "4")
        assert code == 1
        assert out["payload"]["error"]["type"] == "OracleMismatchError"

    def test_stretch(self, capsys):
        code, out = invoke(capsys, "lr", "stretch", "2,1", "2,1", "3,2,1",
                           "--k", "5")
        assert code == 0
        assert out["payload"]["hive_values"] == [2, 3, 4, 5, 6]
        assert out["payload"]["tableau_values"] == [2, 3, 4, 5, 6]
        assert out["payload"]["agree"] is True
        assert out["payload"]["fit"]["period"] == 1

    @pytest.mark.parametrize("flag", ["--max-period", "--holdout"])
    def test_stretch_explicit_zero_fit_bound_refused(self, capsys, flag):
        code, out = invoke(capsys, "lr", "stretch", "2,1", "2,1", "3,2,1",
                           "--k", "5", flag, "0")
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"

    def test_stretch_config_fit_bound(self, capsys, tmp_path):
        # the series 4, 10, 20, 35, 56, 84 has degree 3 and no degree-1 fit
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"max_degree": 1}))
        code, out = invoke(capsys, "--config", str(path), "lr", "stretch",
                           "3,2,1", "3,2,1", "5,4,2,1", "--k", "6")
        assert code == 1
        assert out["payload"]["error"]["type"] == "FitError"


class TestSymfunc:
    def test_product(self, capsys):
        code, out = invoke(capsys, "symfunc", "product", "1", "1")
        assert code == 0
        assert out["payload"]["coefficients"] == {"2": 1, "1,1": 1}

    def test_plethysm(self, capsys):
        code, out = invoke(capsys, "symfunc", "plethysm", "2", "2")
        assert code == 0
        assert out["payload"]["coefficients"] == {"4": 1, "2,2": 1}


class TestEhrhart:
    def test_cube_count(self, capsys, tmp_path):
        path = tmp_path / "cube2.json"
        path.write_text(json.dumps(
            {"A": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
             "b": ["1", "0", "1", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--k", "3")
        assert code == 0 and out["payload"]["count"] == 16

    def test_series_with_fit(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"A": [["1"], ["-1"]], "b": ["1/2", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "6", "--fit")
        assert code == 0
        assert out["payload"]["values"] == [1, 2, 2, 3, 3, 4]
        assert out["payload"]["fit"]["period"] == 2

    def test_failed_fit_keeps_the_values(self, capsys, tmp_path):
        # x = k, x = 2 and 0 <= y <= k: three points at k = 2, none elsewhere
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(
            {"A": [["1", "0"], ["-1", "0"], ["1", "0"], ["-1", "0"],
                   ["0", "1"], ["0", "-1"]],
             "b": ["1", "-1", "0", "0", "1", "0"],
             "c": ["0", "0", "2", "-2", "0", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "6", "--fit")
        assert code == 1
        assert out["payload"] == {
            "error": {"type": "FitError",
                      "message": "not quasi-polynomial within bounds"},
            "values": [0, 3, 0, 0, 0, 0]}

    def test_negative_skip_prefix_refused(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"A": [["1"], ["-1"]], "b": ["1/2", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "8", "--fit", "--skip-prefix", "-1")
        assert code == 1
        assert out["payload"]["error"] == {
            "type": "ValueError", "message": "skip_prefix must be nonnegative"}

    def test_max_degree_flag_zero_taken_as_given(self, capsys, tmp_path):
        # the flag bypasses the config file's >= 1 check: degree 0 fits the
        # constant series of the point {x = 0}
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"A": [["1"], ["-1"]], "b": ["0", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "5", "--fit", "--max-degree", "0")
        assert code == 0
        assert out["payload"]["fit"] == {"period": 1, "components": [["1"]]}

    @pytest.mark.parametrize("flag", ["--max-period", "--holdout"])
    def test_explicit_zero_fit_bound_refused(self, capsys, tmp_path, flag):
        # an explicit 0 is refused, not replaced by the budget default
        path = tmp_path / "seg.json"
        path.write_text(json.dumps({"A": [["1"], ["-1"]], "b": ["1", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "6", "--fit", flag, "0")
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"

    def test_ragged_series_refused(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"A": [["1", "0"], ["-1"]], "b": ["1", "0"]}))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path),
                           "--series", "3")
        assert code == 1
        assert out["payload"]["error"] == {"type": "ValueError",
                                           "message": "ragged constraint matrix"}

    @pytest.mark.parametrize("data", [
        [{"A": [["1"]], "b": ["1"]}],
        {"b": ["1"]},
        {"A": [["1"]], "c": ["0"]},
        {"A": [["1"], -1], "b": ["1", "0"]},
        {"A": [["1"]], "b": "1"},
        {"A": [["1"], ["-1"]], "b": ["1", "0"], "c": "00"},
        {"A": [["1"], ["-1"]], "b": ["1"]},
        {"A": [["1"], ["-1"]], "b": ["1", "0"], "c": ["0"]}])
    @pytest.mark.parametrize("query", [("--k", "1"), ("--series", "2")])
    def test_malformed_file_refused(self, capsys, tmp_path, data, query):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = invoke(capsys, "ehrhart", "--polytope", str(path), *query)
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"


class TestKron:
    def test_plain_form(self, capsys):
        code, out = invoke(capsys, "kron", "2,1", "2,1", "2,1")
        assert code == 0 and out["payload"]["kronecker"] == 1

    @pytest.mark.parametrize("joined", [False, True])
    def test_plain_form_after_config(self, capsys, tmp_path, joined):
        path = config(tmp_path)
        opts = [f"--config={path}"] if joined else ["--config", path]
        code, out = invoke(capsys, *opts, "kron", "2,1", "2,1", "2,1")
        assert code == 0 and out["payload"] == {"kronecker": 1}

    def test_det_invariant(self, capsys):
        code, out = invoke(capsys, "kron", "det-invariant", "2", "--m", "2")
        assert code == 0 and out["payload"]["multiplicity"] == 1

    def test_g_stretch(self, capsys):
        code, out = invoke(capsys, "kron", "g-stretch", "2", "--m", "2",
                           "--k", "4")
        assert code == 0 and out["payload"]["values"] == [1, 1, 1, 1]

    def test_g_stretch_config_fit_bound(self, capsys, tmp_path):
        # 0, 0, 1, 0, 0, 1, 0 has period 3: no fit within period 2
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"max_period": 2}))
        code, out = invoke(capsys, "--config", str(path), "kron",
                           "g-stretch", "2", "--m", "3", "--k", "7")
        assert code == 0
        assert out["payload"] == {"values": [0, 0, 1, 0, 0, 1, 0],
                                  "fit": None}

    def test_domain_error_exit_1(self, capsys):
        code, out = invoke(capsys, "kron", "2,1", "2", "2")
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [("coeff", "15", "14,1", "13,2"),
                                      ("det-invariant", "15,15", "--m", "2")])
    def test_character_table_cap_refused(self, capsys, argv):
        # n = 15 and 30 exceed the default char_table_max_n = 14
        code, out = invoke(capsys, "kron", *argv)
        assert code == 1
        assert out["payload"]["error"]["type"] == "BudgetError"


class TestWeyl:
    def test_dim(self, capsys):
        code, out = invoke(capsys, "weyl", "dim", "2,1", "3")
        assert code == 0 and out["payload"]["dimension"] == 8

    def test_dim_large(self, capsys):
        # Weyl's formula: prod over i < j of (l_i - l_j + j - i) / (j - i)
        lam = (8, 6, 4, 2) + (0,) * 6
        expected = Fraction(1)
        for i in range(10):
            for j in range(i + 1, 10):
                expected *= Fraction(lam[i] - lam[j] + j - i, j - i)
        code, out = invoke(capsys, "weyl", "dim", "8,6,4,2", "10")
        assert code == 0 and out["payload"]["dimension"] == expected

    def test_dim_one_huge_row(self, capsys):
        # Sym^N of C^2 has dimension N + 1, by rows and not by cells
        with within_a_second("weyl dim 10000000 2"):
            code, out = invoke(capsys, "weyl", "dim", "10000000", "2")
        assert code == 0 and out["payload"]["dimension"] == 10000001

    @pytest.mark.parametrize("argv", [("100000000", "1"), ("300,300", "2")])
    def test_basis_of_huge_degree_refused(self, capsys, argv):
        # dimension 1 at any degree: z11^N, and a power of the determinant
        with within_a_second(argv):
            code, out = invoke(capsys, "weyl", "dim", *argv, "--basis")
        assert code == 1
        assert out["payload"]["error"]["type"] == "BudgetError"

    @pytest.mark.parametrize("argv", [("2,1", "-3", "--basis"), ("", "-1")])
    def test_dim_negative_n_refused(self, capsys, argv):
        code, out = invoke(capsys, "weyl", "dim", *argv)
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"

    def test_dim_with_basis(self, capsys):
        code, out = invoke(capsys, "weyl", "dim", "1,1", "2", "--basis")
        assert code == 0
        assert out["payload"]["basis"][0]["polynomial"] == "z11*z22 - z12*z21"

    def test_invariants(self, capsys):
        code, out = invoke(capsys, "weyl", "invariants", "--gamma", "4",
                           "--n", "2")
        assert code == 0 and out["payload"]["invariant_dim"] == 1

    def test_kempf(self, capsys):
        code, out = invoke(capsys, "weyl", "kempf", "--n", "3")
        assert code == 0 and out["payload"]["stable"] is True

    def test_symcheck_nested(self, capsys):
        code, out = invoke(capsys, "weyl", "symcheck", "perm", "--size", "2")
        assert code == 0 and out["payload"]["dimension"] == 1

    @pytest.mark.parametrize("kind,size,line", [
        ("det", 2, "-y11*y22 + y12*y21"),
        ("det", 3, "-y11*y22*y33 + y11*y23*y32 + y12*y21*y33 - y12*y23*y31"
                   " - y13*y21*y32 + y13*y22*y31"),
        ("perm", 2, "x11*x22 + x12*x21"),
        ("perm", 3, "x11*x22*x33 + x11*x23*x32 + x12*x21*x33 + x12*x23*x31"
                    " + x13*x21*x32 + x13*x22*x31"),
    ])
    def test_symcheck_payload(self, capsys, kind, size, line):
        code, out = invoke(capsys, "weyl", "symcheck", kind, "--size", str(size))
        assert code == 0
        assert out["payload"] == {"dimension": 1, "fixed_line": [line]}


class TestTopLevel:
    def test_symcheck(self, capsys):
        # the top-level copy of `weyl symcheck` is gone
        with pytest.raises(SystemExit) as exc:
            run(["symcheck", "det", "--size", "2"])
        assert exc.value.code == 2

    def test_magic(self, capsys):
        code, out = invoke(capsys, "magic", "3", "1", "--polys")
        assert code == 0
        assert out["payload"]["count"] == 6 and out["payload"]["orbits"] == 1
        assert len(out["payload"]["basic_invariants"]) == 1

    def test_obstruct_emit(self, capsys):
        code, out = invoke(capsys, "obstruct", "emit", "--max", "4")
        assert code == 0
        gammas = [c["gamma"] for c in out["payload"]["certificates"]]
        assert gammas == ["4", "6", "8"]

    def test_obstruct_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, out = invoke(capsys, "obstruct", "emit", "--max", "3",
                           "--out", str(path))
        assert code == 0
        code, out = invoke(capsys, "obstruct", "verify", str(path), "--full")
        assert code == 0
        assert out["payload"]["verified"] == 2
        assert all(c["checks"]["invariant_dim"] >= 1
                   for c in out["payload"]["certificates"])

    @pytest.mark.parametrize("cert", [
        {"n": 10, "gamma": "20", "invariant_dim": 999},
        {"n": 10, "gamma": "20", "checks": {"invariant_dim": 999}}])
    @pytest.mark.parametrize("flags", [(), ("--full",)])
    def test_obstruct_verify_ignores_claimed_invariant_dim(self, capsys, tmp_path,
                                                          cert, flags):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps([cert]))
        code, out = invoke(capsys, "obstruct", "verify", str(path), *flags)
        assert code == 0
        assert out["payload"]["certificates"][0]["checks"]["invariant_dim"] is None

    @pytest.mark.parametrize("data", [
        {"n": 2, "gamma": "4"},
        ["4"],
        [{"gamma": "4"}],
        [{"n": 2}],
        [{"n": 2, "gamma": 4}]])
    def test_obstruct_verify_malformed_file_refused(self, capsys, tmp_path, data):
        path = tmp_path / "certs.json"
        path.write_text(json.dumps(data))
        code, out = invoke(capsys, "obstruct", "verify", str(path))
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"

    def test_accept_unknown_criterion_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["accept", "--only", "no-such-criterion"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_closed_pipe_exits_1_without_traceback(self):
        # the read end is closed before the command starts, so its first
        # write meets a closed pipe whatever the timing
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weylbox.cli", "magic", "4", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""

    def test_determinism(self, capsys):
        _, first = invoke(capsys, "symfunc", "product", "2,1", "2,1")
        _, second = invoke(capsys, "symfunc", "product", "2,1", "2,1")
        assert json.dumps(first["payload"], sort_keys=True) == \
            json.dumps(second["payload"], sort_keys=True)

    def test_config_override(self, capsys, tmp_path):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"plethysm_degree_cap": 2}))
        code, out = invoke(capsys, "--config", str(path),
                           "symfunc", "plethysm", "2", "2")
        assert code == 1
        assert "cap" in out["payload"]["error"]["message"]

    @pytest.mark.parametrize("value", ["12", 0, -3, True, 2.5])
    def test_config_bad_value_refused(self, capsys, tmp_path, value):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({"hive_side_cap": value}))
        code, out = invoke(capsys, "--config", str(path),
                           "lr", "positive", "1", "1", "2")
        assert code == 1
        assert out["payload"]["error"]["type"] == "ValueError"
        assert "hive_side_cap" in out["payload"]["error"]["message"]

    @pytest.mark.parametrize("cap,value,argv", [
        ("plethysm_degree_cap", 2, ("symfunc", "plethysm", "2", "2")),
        ("weyl_dim_cap", 1, ("weyl", "invariants", "--gamma", "4", "--n", "2")),
        ("char_table_max_n", 2, ("kron", "coeff", "2,1", "2,1", "2,1")),
        ("hive_side_cap", 2, ("lr", "coeff", "2,1", "2,1", "3,2,1")),
        ("magic_size_cap", 2, ("magic", "3", "1")),
        ("magic_weight_cap", 1, ("magic", "3", "2")),
        ("product_degree_cap", 3, ("symfunc", "product", "2", "2")),
    ])
    def test_config_cap_refuses(self, capsys, tmp_path, cap, value, argv):
        path = config(tmp_path, **{cap: value})
        code, out = invoke(capsys, "--config", path, *argv)
        assert code == 1
        assert out["payload"]["error"]["type"] == "BudgetError"

    def test_config_raised_hive_cap_reaches_the_memo(self, capsys, tmp_path):
        # side 13 passes a cap of 13 and is not refused again when the
        # reduced hive is built
        path = config(tmp_path, hive_side_cap=13)
        code, out = invoke(capsys, "--config", path, "lr", "positive",
                           ",".join(["1"] * 13), "1", "2" + ",1" * 12)
        assert code == 0 and out["payload"] == {"positive": True}

    @pytest.mark.parametrize("argv", [("emit", "--max", "2", "--full"),
                                      ("verify", "CERTS", "--full")])
    def test_config_reaches_full_obstruction(self, capsys, tmp_path, argv):
        certs = tmp_path / "certs.json"
        certs.write_text(json.dumps([{"n": 2, "gamma": "4"}]))
        argv = [str(certs) if a == "CERTS" else a for a in argv]
        path = config(tmp_path, weyl_dim_cap=1)
        code, out = invoke(capsys, "--config", path, "obstruct", *argv)
        assert code == 1
        assert out["payload"]["error"]["type"] == "BudgetError"

    @pytest.mark.parametrize("key,cap,value", [
        ("lr-oracle-triangle", "hive_side_cap", 2),
        ("lr-oracle-triangle", "product_degree_cap", 2),
        ("lr-saturation", "hive_side_cap", 2),
        ("lr-stretch-quasipolynomial", "hive_side_cap", 2),
        ("plethysm-oracle", "plethysm_degree_cap", 2),
        ("kronecker-consistency", "char_table_max_n", 2),
        ("even-partition-criterion", "weyl_dim_cap", 1),
        ("magic-square-basis", "magic_weight_cap", 1),
        ("strongly-explicit-family", "weyl_dim_cap", 1),
    ])
    def test_config_reaches_acceptance(self, capsys, tmp_path, key, cap,
                                       value):
        path = config(tmp_path, **{cap: value})
        code, out = invoke(capsys, "--config", path, "accept", "--only", key)
        assert code == 1
        [result] = out["payload"]["results"]
        assert not result["passed"]
        assert result["detail"].startswith("BudgetError")

    @pytest.mark.parametrize("key,bound,value", [
        ("plethysm-oracle", "max_period", 1),
        ("ehrhart-kernel", "max_period", 1),
    ])
    def test_config_fit_bound_reaches_acceptance(self, capsys, tmp_path, key,
                                                 bound, value):
        # both criteria fit a period-2 series, which period 1 cannot hold
        path = config(tmp_path, **{bound: value})
        code, out = invoke(capsys, "--config", path, "accept", "--only", key)
        assert code == 1
        [result] = out["payload"]["results"]
        assert not result["passed"]
        assert result["detail"].startswith("FitError")

    @pytest.mark.parametrize("data,argv,error", [
        ([1], ("--config", "FILE", "lr", "positive", "1", "1", "2"),
         {"type": "ValueError", "message": "budget config must be a JSON object"}),
        ([{"n": 0, "gamma": ""}], ("obstruct", "verify", "FILE"),
         {"type": "ObstructionError",
          "message": "not an obstruction: empty gamma"}),
    ], ids=["config-not-an-object", "empty-gamma"])
    def test_file_refused_with_its_error(self, capsys, tmp_path, data, argv,
                                         error):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = run([str(path) if a == "FILE" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["payload"]["error"] == error

    def test_config_missing_file_refused(self, capsys, tmp_path):
        code, out = invoke(capsys, "--config", str(tmp_path / "absent.json"),
                           "lr", "positive", "1", "1", "2")
        assert code == 1
        assert out["payload"]["error"]["type"] == "FileNotFoundError"


SEGMENT = {"A": [["1"], ["-1"]], "b": ["1", "0"]}  # 0 <= x <= 1
# x, y >= 0 and x + y <= 1: its count at k loops k + 1 times
TRIANGLE = {"A": [["-1", "0"], ["0", "-1"], ["1", "1"]], "b": ["0", "0", "1"]}


class TestLoopBudgets:
    """The arguments that size a loop (stretch length, series length, the k
    of `ehrhart --k`, family size, Kempf n) are refused above their budget
    before any work, as a JSON BudgetError with exit code 1, each under a
    one-second alarm."""

    HUGE = [("lr", "stretch", "1", "1", "2", "--k", "100000000"),
            ("ehrhart", "--polytope", "SEG", "--series", "100000000"),
            ("obstruct", "emit", "--max", "100000000"),
            ("weyl", "kempf", "--n", "3000"),
            ("ehrhart", "--polytope", "TRI", "--k", "100000000")]

    @staticmethod
    def argv(tmp_path, argv):
        """argv with SEG and TRI replaced by the paths of files holding
        SEGMENT and TRIANGLE."""
        files = {"SEG": SEGMENT, "TRI": TRIANGLE}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        return [str(tmp_path / f"{a}.json") if a in files else a
                for a in argv]

    def refused(self, capsys, tmp_path, *argv):
        argv = self.argv(tmp_path, argv)
        with within_a_second(argv):
            code, out = invoke(capsys, *argv)
        assert code == 1
        assert out["payload"]["error"]["type"] == "BudgetError"
        return out["payload"]["error"]["message"]

    @pytest.mark.parametrize("argv", HUGE)
    def test_huge_argument_refused(self, capsys, tmp_path, argv):
        assert "exceeds cap" in self.refused(capsys, tmp_path, *argv)

    @pytest.mark.parametrize("cap,value,argv", [
        ("stretch_k_cap", 4, ("lr", "stretch", "1", "1", "2", "--k", "5")),
        ("series_k_cap", 5, ("ehrhart", "--polytope", "SEG", "--series", "6")),
        ("emit_n_cap", 3, ("obstruct", "emit", "--max", "4")),
        ("kempf_n_cap", 2, ("weyl", "kempf", "--n", "3")),
        ("series_k_cap", 5, ("ehrhart", "--polytope", "TRI", "--k", "6")),
    ])
    def test_config_cap_refuses(self, capsys, tmp_path, cap, value, argv):
        path = config(tmp_path, **{cap: value})
        message = self.refused(capsys, tmp_path, "--config", path, *argv)
        assert message.endswith(f"exceeds cap {value}")

    @pytest.mark.parametrize("argv", [
        ("lr", "stretch", "1", "1", "2", "--k", "4"),
        ("ehrhart", "--polytope", "SEG", "--series", "5"),
        ("obstruct", "emit", "--max", "3"),
        ("weyl", "kempf", "--n", "2"),
        ("ehrhart", "--polytope", "TRI", "--k", "5")])
    def test_at_the_cap_runs(self, capsys, tmp_path, argv):
        caps = {"stretch_k_cap": 4, "series_k_cap": 5, "emit_n_cap": 3,
                "kempf_n_cap": 2}
        code, _ = invoke(capsys, "--config", config(tmp_path, **caps),
                         *self.argv(tmp_path, argv))
        assert code == 0


# A family with explicit +/- equality pairs: x + y = k in the rows, z = k
# only once x is substituted away (a second elimination round), and
# 2x - 2w <= 0 with w - x <= 0, a pair once both are made primitive.
EQUALITY_PAIRS = {
    "A": [["1", "1", "0", "0"], ["-1", "-1", "0", "0"],
          ["1", "1", "1", "0"], ["0", "0", "-1", "0"],
          ["2", "0", "0", "-2"], ["-1", "0", "0", "1"],
          ["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
          ["0", "0", "0", "-1"], ["0", "1", "0", "0"]],
    "b": ["1", "-1", "2", "-1", "0", "0", "0", "0", "0", "1"]}


class TestPinnedPayloads:
    """sha256 of json.dumps(payload, sort_keys=True) for the commands whose
    answers come from the exact echelon (``_monomial_kernel`` and the
    equality elimination of ``ehrhart``), recorded before the elimination
    went sparse. ``wall_time_s`` sits outside the payload."""

    @pytest.mark.parametrize("argv,digest", [
        (["weyl", "invariants", "--gamma", "2,2,2", "--n", "3"],
         "1b4773bb7b38bc23448b5827ca72f1fca6b64ff1079168bdce452d76ea718e73"),
        (["weyl", "invariants", "--gamma", "4,2", "--n", "3"],
         "1b4773bb7b38bc23448b5827ca72f1fca6b64ff1079168bdce452d76ea718e73"),
        (["weyl", "symcheck", "det", "--size", "2"],
         "0f7bbe26b2c030ef01f35e8650dcd5136aa81f4b3e4e9e563f04193bd793576d"),
        (["weyl", "symcheck", "det", "--size", "3"],
         "d6bd021e24f36565c183c4ac01f09c4dc196aeee20358d75b60ead9660d85047"),
        (["weyl", "symcheck", "perm", "--size", "2"],
         "894426ac98971cb0a98753ca14ae3a298040dea42f88ea75587eddf7ee860703"),
        (["weyl", "symcheck", "perm", "--size", "3"],
         "018b2d6dbe16486f79431e21c02edf2873e137450c2bf71a7d2927af05367e7f"),
        (["weyl", "dim", "3,2,1", "3", "--basis"],
         "daab1b64079294ecbed2acf44fa589147f9e7d3e9d32fcf3b8cad19ebdb6203b"),
        (["magic", "3", "2", "--polys"],
         "15f790205f4e5f135df097d962b9886357435ec5b103afd2e7fa23e53b3dabb7"),
        (["ehrhart", "--polytope", "EQUALITY_PAIRS", "--series", "6"],
         "bddf811bac93376416760eb614f83e118c67600f0396bd32953dcf0a2444099f"),
    ])
    def test_payload_digest(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(EQUALITY_PAIRS))
        argv = [str(path) if a == "EQUALITY_PAIRS" else a for a in argv]
        code, out = invoke(capsys, *argv)
        assert code == 0
        text = json.dumps(out["payload"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text
