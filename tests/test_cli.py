import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeld import reduction
from drinfeld.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPhi:
    def test_phi_T2_formula(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--q", "5", "--r", "3", "--a", "T^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi_a"] == (
            "T^2 + (T^25+T)*t^2 + (T^129+T^5)*t^3 + t^4 + (T^100+T^4)*t^5 + T^504*t^6"
        )

    def test_ascending_input_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--q", "5", "--r", "3", "--a", "1+2*T")
        assert code == 0
        assert json.loads(out)["a"] == "2*T+1"

    def test_custom_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--q", "5", "--coeffs", "T;1", "--a", "T")
        assert code == 0
        assert json.loads(out)["phi_a"] == "T + t"


class TestCharpoly:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--q", "5", "--r", "3", "--p", "T+4")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "0", "4*T+1"]
        assert doc["epsilon"] == "4"

    def test_mod_l(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--q", "5", "--r", "3",
                               "--p", "T+4", "--mod-l", "T+3")
        doc = json.loads(out)
        assert doc["mod_l"]["charpoly"] == ["4", "0", "1"]

    def test_bad_reduction_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "5", "--r", "3", "--p", "T")
        assert code == 2
        assert "bad reduction" in err

    def test_malformed_polynomial_names_token(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "5", "--r", "3", "--p", "T^2+&y")
        assert code == 2
        assert "&y" in err

    def test_prime_too_large_for_int64_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "4294967311", "--r", "3", "--p", "T+1")
        assert code == 2
        assert "too large for exact int64" in err

    def test_q_not_a_prime_power(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "12", "--r", "3", "--p", "T+1")
        assert code == 2
        assert "--q 12 is not a prime power" in err

    def test_threads_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "5", "--r", "3", "--p", "T+4",
                               "--threads", "2")
        assert code == 2
        assert "unrecognized arguments: --threads" in err

    def test_reducible_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--q", "5", "--r", "3", "--p", "T^2+1")
        assert code == 2
        assert "not irreducible" in err


class TestTorsion:
    def test_frobenius_matrix_json(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "--q", "5", "--r", "3",
                               "--p", "T+4", "--l", "T+3")
        assert code == 0
        doc = json.loads(out)
        assert doc["splitting_degree"] == 24
        assert doc["kernel_dimension"] == 3
        assert doc["charpoly"] == ["4", "0", "1"]
        assert len(doc["frobenius_matrix"]) == 3

    def test_degree_two_prime_over_f9_matches_charpoly(self, capsys):
        # the torsion matrix must not be twisted by an automorphism of F_9
        args = ("--q", "9", "--r", "3", "--p", "T^2+4")
        code, out, _ = run_cli(capsys, "torsion", *args, "--l", "T+3")
        assert code == 0
        torsion = json.loads(out)
        code, out, _ = run_cli(capsys, "charpoly", *args, "--mod-l", "T+3")
        assert code == 0
        assert torsion["charpoly"] == json.loads(out)["mod_l"]["charpoly"]

    def test_exhausted_search_budget_is_usage_error(self, capsys, monkeypatch):
        # over F_25 (p of degree 2) a bound of 2 allows m = 1 only
        monkeypatch.setattr(reduction, "MAX_SPLITTING_FIELD_DEGREE", 2)
        code, _, err = run_cli(capsys, "torsion", "--q", "5", "--r", "3",
                               "--p", "T^2+2", "--l", "T+1")
        assert code == 2
        assert err == ("error: no splitting degree m <= 1; at m = 2 the F_p-degree 4 "
                       "exceeds MAX_SPLITTING_FIELD_DEGREE = 2\n")

    def test_oversized_splitting_field_exits_within_seconds(self):
        # the search stops at m = 1024 = 2048 // 2; m = 4095 would split it,
        # and building F_(4^4095) would never finish
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        done = subprocess.run(
            [sys.executable, "-m", "drinfeld", "torsion", "--q", "4", "--r", "3",
             "--p", "T+3", "--l", "T^2+2*T+1"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert ("at m = 1025 the F_p-degree 2050 exceeds MAX_SPLITTING_FIELD_DEGREE = 2048"
                in done.stderr)


class TestNewtonInertia:
    def test_newton_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "newton", "--q", "5", "--r", "3",
                               "--a", "T+4", "--place", "T")
        assert code == 0
        doc = json.loads(out)
        assert doc["segments"] == [
            {"slope": [0, 1], "length": 24},
            {"slope": [1, 25], "length": 100},
        ]

    def test_newton_at_infinity(self, capsys):
        code, out, _ = run_cli(capsys, "newton", "--q", "5", "--r", "3",
                               "--a", "T", "--place", "inf")
        doc = json.loads(out)
        assert doc["segments"] == [{"slope": [-3, 124], "length": 124}]

    def test_inertia(self, capsys):
        code, out, _ = run_cli(capsys, "inertia", "--q", "5", "--r", "3", "--l", "T^2+2")
        assert json.loads(out)["inertia_order"] == 625


class TestSample:
    def test_schema_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "sample", "--q", "7", "--r", "3",
                             "--l", "T+6", "--max-deg", "1", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"params", "samples", "tv_distance", "flags", "verdict", "reasons"}
        assert doc["params"] == {"p": 7, "e": 1, "q": 7, "r": 3, "l": "T+6", "max_deg": 1}
        assert len(doc["samples"]) == 5
        rec = doc["samples"][0]
        assert set(rec) == {"prime", "deg", "charpoly", "det_ok"}
        assert rec["det_ok"] is True
        assert doc["verdict"] in ("consistent", "flagged")

    def test_verdict_field_matches_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--q", "7", "--r", "3",
                               "--l", "T+6", "--max-deg", "2")
        doc = json.loads(out)
        assert doc["verdict"] == "flagged"  # not enough mass at max_deg 2
        assert any("tv_distance" in r for r in doc["reasons"])

    def test_rank_five(self, tmp_path, capsys):
        out_path = tmp_path / "r5.json"
        code, _, _ = run_cli(capsys, "sample", "--q", "11", "--r", "5", "--l", "T+10",
                             "--max-deg", "2", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["samples"]) == 64
        assert all(rec["det_ok"] for rec in doc["samples"])

    @pytest.mark.parametrize("ell", ["T+1", "T+2"])
    def test_q9_sweep_bytes_match_the_benchmark_reference(self, ell, tmp_path, capsys):
        # tv_distance sums floats in the order of a set built from the oracle's
        # keys, so the report's bytes depend on that dict's insertion order
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sample", "--q", "9", "--r", "3", "--l", ell,
                             "--max-deg", "3", "--out", str(out_path))
        assert code == 0
        want = json.loads(REFERENCE.read_text())["sweep-q9"][ell]["sha256"]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want


class TestOracleGL:
    def test_rank1(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-gl", "--q", "5", "--r", "1", "--l", "T+4")
        doc = json.loads(out)
        assert doc["group_order"] == 4
        assert doc["cells"] == 4

    def test_f3_counts(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-gl", "--q", "3", "--r", "3",
                               "--l", "T+1", "--backend", "A")
        doc = json.loads(out)
        assert doc["group_order"] == 11232

    def test_rank5(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-gl", "--q", "3", "--r", "5", "--l", "T+1")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["backend"] == "B"
        assert doc["group_order"] == (3**5 - 1) * (3**5 - 3) * (3**5 - 9) * (3**5 - 27) * (3**5 - 81)
        assert doc["cells"] == 2 * 3**4


class TestVerify:
    def test_single_suite_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "charpoly",
                                 "--q", "5", "--r", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["outcomes"][0]["suite"] == "charpoly"
        assert "[pass] charpoly" in err

    @pytest.mark.parametrize("suite,checks", [("charpoly", 16), ("reduction", 34)])
    def test_linear_prime_suites_at_q9(self, suite, checks, capsys):
        # the linear primes T - a run over every a in F_9^*, never the bad prime T
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--q", "9", "--max-deg", "2")
        assert code == 0
        assert json.loads(out)["outcomes"][0]["checks"] == checks

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_byte_identical_repeated_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "verify", "--suite", "phi", "--q", "5",
                                 "--r", "3", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failure_payload_reproduces(self, capsys, monkeypatch):
        # force a deterministic failure and check the counterexample payload
        # is identical across two runs
        import drinfeld.verify as verify_mod

        def broken(cfg):
            ch = verify_mod._Checker()
            ch.equal(1 + 1, 3, "forced failure", {"a": 1})
            return ch

        monkeypatch.setitem(verify_mod.SUITES, "charpoly", broken)
        code1, out1, _ = run_cli(capsys, "verify", "--suite", "charpoly")
        code2, out2, _ = run_cli(capsys, "verify", "--suite", "charpoly")
        assert code1 == code2 == 1
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1 == doc2
        ce = doc1["outcomes"][0]["counterexample"]
        assert ce["check"] == "forced failure"
        assert ce["expected"] == "3"
        assert ce["got"] == "2"


# valid arguments of each subcommand, for appending one flag it does not read
BASE_ARGS = {
    "phi": ["--a", "T"],
    "charpoly": ["--p", "T+4"],
    "torsion": ["--p", "T+4", "--l", "T+3"],
    "newton": ["--a", "T+4", "--place", "T"],
    "inertia": ["--l", "T^2+2"],
    "sample": ["--l", "T+4", "--max-deg", "1"],
    "oracle-gl": ["--l", "T+1"],
    "verify": ["--suite", "phi"],
}
UNREAD_FLAGS = [(cmd, "--e", "3") for cmd in BASE_ARGS] + [
    ("verify", "--coeffs", "T;1;2"), ("oracle-gl", "--coeffs", "garbage"),
] + [(cmd, "--seed", "1") for cmd in BASE_ARGS if cmd != "verify"] + [
    ("phi", "--budget", "5"), ("charpoly", "--budget", "5"), ("torsion", "--budget", "1"),
    ("newton", "--budget", "5"), ("inertia", "--budget", "5"),
]


class TestFlags:
    @pytest.mark.parametrize("cmd,flag,value", UNREAD_FLAGS)
    def test_flag_the_handler_does_not_read_is_usage_error(self, cmd, flag, value, capsys):
        code, out, err = run_cli(capsys, cmd, *BASE_ARGS[cmd], flag, value)
        assert code == 2
        assert out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in err

    def test_rank_disagreeing_with_coeffs_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "phi", "--q", "5", "--r", "7",
                                 "--coeffs", "T;1;2", "--a", "T")
        assert code == 2
        assert out == ""
        assert err == "error: --r 7 disagrees with the rank 2 of --coeffs\n"

    def test_rank_agreeing_with_coeffs_changes_nothing(self, capsys):
        argv = ["phi", "--q", "5", "--coeffs", "T;1;2", "--a", "T^2"]
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(plain)["params"]["r"] == 2
        code, with_r, _ = run_cli(capsys, *argv, "--r", "2")
        assert code == 0
        assert with_r == plain

    def test_zero_budget_means_zero(self, capsys):
        code, _, err = run_cli(capsys, "oracle-gl", "--q", "3", "--r", "3", "--l", "T+1",
                               "--budget", "0")
        assert code == 2
        assert err == "error: listing 3^3 characteristic polynomials exceeds the budget 0\n"

    def test_zero_max_deg_means_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "charpoly-bounds", "--max-deg", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["max_deg"] == 0
        assert doc["outcomes"][0]["checks"] == 0


class TestErrorHandling:
    def test_plain_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # an internal ValueError (say, a numpy broadcasting bug) must surface
        # with its traceback instead of exiting 2 as bad input
        import drinfeld.cli as cli_mod

        def broken(args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli_mod, "cmd_phi", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["phi", "--q", "5", "--a", "T"])

    def test_zero_polynomial_newton_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "newton", "--q", "5", "--a", "0", "--place", "T")
        assert code == 2
        assert "zero polynomial has no Newton polygon" in err

    def test_rank_zero_oracle_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle-gl", "--q", "5", "--r", "0", "--l", "T+1")
        assert code == 2
        assert "rank must be >= 1" in err
