import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import drinfeld
from drinfeld import cli, reduction, sampling
from drinfeld.cli import main
from drinfeld.fields import make_field
from drinfeld.polynomials import (
    format_field_element,
    format_poly,
    from_coordinates,
    prime_coordinates,
)
from drinfeld.sampling import gl_order
from drinfeld.skew import split_prime_power

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def src_env():
    """The environment of a fresh interpreter that imports the library from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


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

    def test_prime_power_past_the_primality_bound(self, capsys):
        # q = (2^61 - 1)^3 is past the bound of `is_prime`, its p is not
        code, out, _ = run_cli(capsys, "phi", "--q", str((2**61 - 1) ** 3), "--r", "3", "--a", "T")
        assert code == 0
        assert json.loads(out)["params"]["p"] == 2**61 - 1

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

    def test_modulus_search_on_python_ints_past_its_bound_is_usage_error(self, capsys, monkeypatch):
        # m = 33 stands in for a pair whose splitting field has F_p-degree
        # 33: at p = 10^9 + 7 its modulus search would run on Python ints
        monkeypatch.setattr(reduction, "splitting_degree", lambda phil: 33)
        code, out, err = run_cli(capsys, "torsion", "--q", "1000000007", "--r", "3",
                                 "--p", "T+1", "--l", "T+2")
        assert code == 2
        assert out == ""
        assert err == ("error: the degree-33 modulus search over F_1000000007 would run on "
                       "Python ints; degree 33 exceeds MAX_EXACT_SEARCH_DEGREE = 32\n")

    def test_oversized_splitting_field_exits_within_seconds(self):
        # the search stops at m = 1024 = 2048 // 2; m = 4095 would split it,
        # and building F_(4^4095) would never finish
        done = subprocess.run(
            [sys.executable, "-m", "drinfeld", "torsion", "--q", "4", "--r", "3",
             "--p", "T+3", "--l", "T^2+2*T+1"],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert ("at m = 1025 the F_p-degree 2050 exceeds MAX_SPLITTING_FIELD_DEGREE = 2048"
                in done.stderr)


LARGE_P_COMMANDS = [
    ["phi", "--a", "T^2"],
    ["charpoly", "--p", "T+1"],
    ["torsion", "--p", "T+1", "--l", "T+2"],
    ["newton", "--a", "T", "--place", "T"],
    ["newton", "--a", "T", "--place", "inf"],
    ["newton", "--a", "T", "--place", "T+1"],
    ["inertia", "--l", "T+1"],
    ["sample", "--l", "T+1", "--max-deg", "1"],
    ["oracle-gl", "--l", "T+1"],
]

# det-law and chebotarev fix q = 7
LARGE_P_SUITES = ["fields", "phi", "charpoly", "charpoly-bounds", "two-method", "reduction",
                  "newton", "isogeny"]


class TestLargePrimes:
    """At primes where int64 holds no product of residues every command
    ends within seconds: with exit 0 and a JSON document, or with exit 2 and
    one named error."""

    @pytest.mark.parametrize("q", [2**61 - 1, 2**64 - 59])
    @pytest.mark.parametrize("argv", LARGE_P_COMMANDS, ids=" ".join)
    def test_answers_or_refuses_by_name(self, capsys, argv, q):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--q", str(q))
        assert time.perf_counter() - start < 5
        if code == 0:
            assert json.loads(out)["params"]["q"] == q
            assert err == ""
        else:
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("q", [2**61 - 1, 2**64 - 59])
    @pytest.mark.parametrize("suite", LARGE_P_SUITES)
    def test_verify_suite_fails_with_a_named_error(self, capsys, suite, q):
        # a library error, never numpy's MemoryError or ValueError nor
        # an OverflowError from an int64 array
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--q", str(q))
        assert time.perf_counter() - start < 5
        assert code == 1
        got = json.loads(out[out.index("{"):])["outcomes"][0]["counterexample"]["got"]
        error = getattr(drinfeld, got.split(":")[0], None)
        assert isinstance(error, type) and issubclass(error, Exception), got


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

    def test_newton_at_a_64_bit_prime_exits_at_once(self):
        # phi_a(x)/x has degree q^3 - 1, and T^(q-1) is a unit at T+1: its
        # valuation must not long-divide q - 1 quotient terms
        q = 2**64 - 59
        done = subprocess.run(
            [sys.executable, "-m", "drinfeld", "newton", "--q", str(q), "--r", "3",
             "--a", "T+4", "--place", "T+1"],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 0
        assert json.loads(done.stdout)["segments"] == [{"slope": [0, 1], "length": q**3 - 1}]

    def test_newton_valuations_at_a_64_bit_prime_need_no_division(self):
        # T^(q-1) - 1 vanishes at T+1, and T^(q^3+q-1) + T^q in phi_(T^2)
        # at T^2+3: dividing by the place would take a step per quotient
        # term, about q and q^3 of them
        q = 2**64 - 59

        def newton(*args):
            return subprocess.run([sys.executable, "-m", "drinfeld", "newton", "--q", str(q), *args],
                                  env=src_env(), capture_output=True, text=True, timeout=10)

        done = newton("--coeffs", f"T;T^{q - 1}-1", "--a", "T", "--place", "T+1")
        assert done.returncode == 0
        assert json.loads(done.stdout)["segments"] == [{"slope": [1, q - 1], "length": q - 1}]
        assert newton("--r", "3", "--a", "T^2", "--place", "T^2+3").returncode == 0

    def test_newton_valuation_q_is_reached_in_two_steps(self):
        # T^q + 1 = (T + 1)^q: its Hasse derivatives 0 < j < q all vanish,
        # and the scan jumps from j = 0 to j = q
        q = 2**64 - 59
        done = subprocess.run(
            [sys.executable, "-m", "drinfeld", "newton", "--q", str(q), "--coeffs", f"T;T^{q}+1",
             "--a", "T", "--place", "T+1"],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 0
        assert json.loads(done.stdout)["segments"] == [{"slope": [q, q - 1], "length": q - 1}]

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

    def test_q7_sweep_bytes_match_the_benchmark_reference(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sample", "--q", "7", "--r", "3", "--l", "T+6",
                             "--max-deg", "5", "--out", str(out_path))
        assert code == 0
        want = json.loads(REFERENCE.read_text())["sweep-q7"]["T+6"]["sha256"]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want

    @pytest.mark.parametrize("q,ell,max_deg,digest", [
        ("5", "T+4", "4", "1f374de017a9e7fb3f27bf9ab9b9ccc4ba2e03f5e8b70a501007bb7c990abdd9"),
        ("3", "T+1", "5", "f6413d22b1880984958590afadd7c24c5d1cc3503212caca3726d060b255348c"),
        ("4", "T+1", "5", "855dbb5f2687f4b4dbe8c624ed81d49a5d5aba6d690ec7c043746cfd0e2d0c45"),
    ])
    def test_small_field_sweep_bytes(self, q, ell, max_deg, digest, tmp_path, capsys):
        # |F_l|^9 fits the default budget here, so these reports were once
        # compared against the enumerated oracle; the digests are from then
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sample", "--q", q, "--r", "3", "--l", ell,
                             "--max-deg", max_deg, "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("chunk", [8, 4096])
    @pytest.mark.parametrize("argv,digest", [
        (["--q", "5", "--l", "T+4", "--max-deg", "4"],
         "1f374de017a9e7fb3f27bf9ab9b9ccc4ba2e03f5e8b70a501007bb7c990abdd9"),
        (["--q", "9", "--l", "T+2", "--max-deg", "3"], None),
    ], ids=["q5", "q9"])
    def test_sweep_bytes_do_not_depend_on_the_chunk(self, chunk, argv, digest, tmp_path,
                                                     capsys, monkeypatch):
        # the digests above were recorded at the default chunk, by an earlier
        # report writer; kernel calls of 8 primes and of whole degrees give
        # the same report
        monkeypatch.setattr(sampling, "CHARPOLY_CHUNK", chunk)
        if digest is None:
            digest = json.loads(REFERENCE.read_text())["sweep-q9"]["T+2"]["sha256"]
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sample", *argv, "--r", "3", "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv,samples,width", [
        (["--q", "7", "--r", "3", "--l", "T+6", "--max-deg", "0"], 0, None),
        (["--q", "9", "--r", "3", "--l", "T+2", "--max-deg", "2"], 9 + 36 - 2, 3),
        (["--q", "5", "--coeffs", "T;1;2;1", "--l", "T^2+2", "--max-deg", "2"], 5 + 10 - 2, 3),
        (["--q", "11", "--r", "5", "--l", "T+10", "--max-deg", "1"], 11 - 2, 5),
    ])
    def test_records_are_written_as_json_dumps_writes_them(self, argv, samples, width,
                                                           tmp_path, capsys):
        # the samples array is written record by record, the rest by json.dumps
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "sample", *argv, "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert len(doc["samples"]) == samples
        assert all(len(rec["charpoly"]) == width for rec in doc["samples"])
        if not samples:
            assert '"samples": [],' in text

    def test_negative_max_deg_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--q", "5", "--l", "T+1", "--max-deg", "-3")
        assert code == 2 and not out
        assert "max degree -3 is negative" in err

    def test_records_on_stdout_match_the_file(self, tmp_path, capsys):
        argv = ["sample", "--q", "9", "--r", "3", "--l", "T+1", "--max-deg", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        run_cli(capsys, *argv, "--out", str(tmp_path / "report.json"))
        assert (tmp_path / "report.json").read_text() == out

    def test_sweep_does_not_import_numpy_ma(self):
        # numpy.ma costs about 15 ms and 0.45 MB per process; a bare np.unique
        # (or np.setdiff1d) imports it
        script = ("import sys\n"
                  "from drinfeld.cli import main\n"
                  "main(['sample', '--q', '9', '--r', '3', '--l', 'T+2', '--max-deg', '3',\n"
                  "      '--out', sys.argv[1]])\n"
                  "print('numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script, os.devnull], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("q,ell", [(7, "T+6"), (9, "T+2")])
    def test_prime_strings_come_from_the_coordinates(self, q, ell, tmp_path, capsys):
        # at q = 9 a coefficient is an F_9 index written from its e = 2 digits
        base = make_field(*split_prime_power(q), 1)
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sample", "--q", str(q), "--r", "3", "--l", ell,
                             "--max-deg", "3", "--out", str(out_path))
        assert code == 0
        excluded = {"T", ell}
        want = [format_poly(from_coordinates(base, row))
                for d in range(1, 4) for row in prime_coordinates(base, d).tolist()]
        want = [name for name in want if name not in excluded]
        assert len(want) == {7: 7 + 21 + 112, 9: 9 + 36 + 240}[q] - 2
        assert [rec["prime"] for rec in json.loads(out_path.read_text())["samples"]] == want


    @pytest.mark.parametrize("argv", [
        ["--q", "7", "--r", "3", "--l", "T+6", "--max-deg", "4"],
        ["--q", "9", "--r", "3", "--l", "T+2", "--max-deg", "2"],
        ["--q", "4", "--r", "3", "--l", "T+2", "--max-deg", "2"],
        ["--q", "5", "--coeffs", "T;1;2;1", "--l", "T^2+2", "--max-deg", "2"],
        ["--q", "7", "--r", "3", "--l", "T+6", "--max-deg", "0"],
    ], ids=["q7", "q9", "q4", "l-of-degree-2", "empty"])
    def test_streamed_text_is_json_dumps_of_the_records(self, argv, capsys):
        # the report dict rebuilt from the library's SampleRecord view, every
        # name from its SparsePoly, against the text streamed from the arrays
        code, out, _ = run_cli(capsys, "sample", *argv)
        assert code == 0
        args = cli.build_parser("sample").parse_args(["sample", *argv])
        module = cli._build_module(args)
        ell = cli._parse_prime(args.l, module.base)
        report = sampling.sample_frobenii(module, ell, args.max_deg)
        verdict, reasons = sampling.surjectivity_evidence(report)
        base = module.base
        want = {
            "params": {"p": base.p, "e": base.e, "q": module.q, "r": module.r,
                       "l": format_poly(ell), "max_deg": args.max_deg},
            "samples": [{"prime": format_poly(rec.prime), "deg": rec.degree,
                         "charpoly": [format_field_element(c) for c in rec.charpoly],
                         "det_ok": rec.det_ok} for rec in report.records],
            "tv_distance": report.tv_distance,
            "flags": {"irreducible_seen": report.irreducible_seen,
                      "det_covers": report.det_covers},
            "verdict": "consistent" if verdict == sampling.CONSISTENT else "flagged",
            "reasons": reasons,
        }
        assert out == json.dumps(want, indent=2) + "\n"


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["phi", "--q", "5", "--a", "T"],
        ["charpoly", "--q", "5", "--p", "T+4"],
        ["torsion", "--q", "5", "--p", "T+1", "--l", "T+4"],
        ["newton", "--q", "5", "--a", "T", "--place", "T"],
        ["inertia", "--q", "5", "--l", "T+4"],
        ["sample", "--q", "7", "--r", "3", "--l", "T+6", "--max-deg", "3"],
        ["oracle-gl", "--q", "5", "--l", "T+4"],
        ["verify", "--suite", "fields"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_refused_before_any_work(self, argv, where, tmp_path, capsys,
                                                       monkeypatch):
        def never(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), never)
        path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--q", "5", "--l", "T^2+4", "--max-deg", "2"],  # (T+1)(T+4): refused
        ["--q", "5", "--coeffs", "T;0;1;T^2+3*T+2", "--l", "T+4", "--max-deg", "2"],  # bad at T+1
    ], ids=["usage-error", "sweep-error"])
    @pytest.mark.parametrize("earlier", [None, "an earlier report\n"], ids=["new", "earlier"])
    def test_failed_sweep_leaves_the_path_as_it_was(self, argv, earlier, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        if earlier is not None:
            out_path.write_text(earlier)
        code, out, err = run_cli(capsys, "sample", *argv, "--out", str(out_path))
        assert code == 2 and not out and err.startswith("error: ")
        if earlier is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == earlier.encode()
        assert list(tmp_path.iterdir()) == ([] if earlier is None else [out_path])

    def test_failure_while_writing_leaves_the_path_as_it_was(self, tmp_path, monkeypatch):
        def broken(report):
            yield "    {"
            raise RuntimeError("the writer broke")

        monkeypatch.setattr(cli, "_sample_chunks", broken)
        out_path = tmp_path / "report.json"
        out_path.write_text("an earlier report\n")
        with pytest.raises(RuntimeError, match="the writer broke"):
            main(["sample", "--q", "5", "--l", "T+4", "--max-deg", "1", "--out", str(out_path)])
        assert out_path.read_text() == "an earlier report\n"
        assert list(tmp_path.iterdir()) == [out_path]

    def test_report_replaces_an_earlier_one_through_a_symlink(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        out_path.write_text("an earlier report\n")
        out_path.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(out_path)
        assert run_cli(capsys, "phi", "--q", "5", "--a", "T", "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert json.loads(out_path.read_text())["params"]["q"] == 5
        assert out_path.stat().st_mode & 0o777 == 0o640
        assert sorted(tmp_path.iterdir()) == [link, out_path]

    @pytest.mark.parametrize("argv", [
        ["--q", "5", "--l", "T+4", "--max-deg", "1"],
        ["--q", "5", "--l", "T^2+4", "--max-deg", "2"],  # refused after --out is opened
    ], ids=["ok", "usage-error"])
    def test_non_regular_out_is_written_in_place_and_kept(self, argv, capsys):
        before = os.stat(os.devnull)
        assert stat.S_ISCHR(before.st_mode)
        code, out, _ = run_cli(capsys, "sample", *argv, "--out", os.devnull)
        assert code == (0 if argv[3] == "T+4" else 2) and not out
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode) and after.st_rdev == before.st_rdev


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

    def test_default_is_counting_with_the_enumerated_counts(self, capsys):
        argv = ["oracle-gl", "--q", "5", "--r", "3", "--l", "T+1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        counted = json.loads(out)
        assert counted["params"]["backend"] == "B"
        code, out, _ = run_cli(capsys, *argv, "--backend", "A")
        assert code == 0
        enumerated = json.loads(out)
        assert enumerated["params"]["backend"] == "A"
        assert counted["counts"] == enumerated["counts"]
        assert counted["group_order"] == enumerated["group_order"] == gl_order(5, 3)


class TestVerify:
    def test_single_suite_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "charpoly",
                                 "--q", "5", "--r", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["outcomes"][0]["suite"] == "charpoly"
        assert "[pass] charpoly" in err

    @pytest.mark.parametrize("suite,checks", [("charpoly", 16), ("reduction", 34),
                                              ("isogeny", 8), ("newton", 8)])
    def test_linear_prime_suites_at_q9(self, suite, checks, capsys):
        # the linear primes T - a run over every a in F_9^*, never the bad prime T;
        # the eigenline lifts from F_l over F_9, and at q = 9 the single-slope
        # certificate is rightly inconclusive
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--q", "9", "--max-deg", "2")
        assert code == 0
        assert json.loads(out)["outcomes"][0]["checks"] == checks

    def test_isogeny_suite_at_q4(self, capsys):
        # torsion matrices and eigenline lifts over F_4, e = 2
        code, out, _ = run_cli(capsys, "verify", "--suite", "isogeny", "--q", "4")
        assert code == 0
        assert json.loads(out)["outcomes"][0]["checks"] == 8

    # the (q, r)-dependent suites that pass at three cells of tools/verify_grid.py,
    # with their check counts; det-law and chebotarev fix q = 7, r = 3
    GRID_PASSES = {(3, 3): {"phi": 7, "charpoly": 4, "charpoly-bounds": 124, "two-method": 13,
                            "reduction": 10, "newton": 8},
                   (3, 5): {"phi": 7, "charpoly": 4, "charpoly-bounds": 186, "two-method": 13,
                            "reduction": 10, "newton": 8},
                   (5, 5): {"phi": 7, "charpoly": 8, "charpoly-bounds": 1224, "reduction": 18,
                            "newton": 8, "isogeny": 8}}

    @pytest.mark.parametrize("q,r,suite,checks", [
        (q, r, suite, checks) for (q, r), cell in GRID_PASSES.items()
        for suite, checks in cell.items()])
    def test_passing_suites_of_the_grid(self, q, r, suite, checks, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--q", str(q), "--r", str(r))
        assert code == 0
        assert json.loads(out)["outcomes"][0]["checks"] == checks

    @pytest.mark.parametrize("suite", ["charpoly-bounds", "all"])
    def test_negative_max_deg_is_usage_error(self, suite, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-deg", "-1")
        assert code == 2 and not out
        assert "--max-deg -1 is negative" in err

    @pytest.mark.parametrize("argv", [("--r", "2"), ("--r", "4"), ("--q", "2"),
                                      ("--q", "3", "--r", "1")], ids=" ".join)
    def test_family_it_cannot_build_is_refused_before_any_suite(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-deg", "1", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: the default family ") and err.count("\n") == 1

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

        def broken(cfg, ch):
            ch.equal(1 + 1, 3, "forced failure", {"a": 1})

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

    def test_raising_suite_keeps_its_checks_and_names_the_input(self, capsys, monkeypatch):
        # the torsion route refuses one pair; the report keeps the checks
        # made before it and names that pair
        import drinfeld.verify as verify_mod
        from drinfeld.polynomials import format_poly
        from drinfeld.reduction import TorsionSearchError

        def charpoly_mod_l(D, prime, ell):
            if (format_poly(prime), format_poly(ell)) == ("T+2", "T+3"):
                raise TorsionSearchError("refused")
            return verify_mod.charpoly_linear_system(D, prime).reduce_mod(ell)

        monkeypatch.setattr(verify_mod, "charpoly_mod_l", charpoly_mod_l)
        code, out, _ = run_cli(capsys, "verify", "--suite", "two-method", "--max-deg", "1")
        assert code == 1
        outcome = json.loads(out)["outcomes"][0]
        # T+1 against T+4, T+3, T+2, then T+2 against T+4
        assert outcome["checks"] == 4
        assert outcome["counterexample"] == {
            "check": "suite raised", "inputs": "('T+2', 'T+3')",
            "expected": "no exception", "got": "TorsionSearchError: refused"}

    def test_suite_raising_before_any_input_names_the_suite(self, capsys, monkeypatch):
        import drinfeld.verify as verify_mod

        def broken(cfg, ch):
            raise RuntimeError("boom")

        monkeypatch.setitem(verify_mod.SUITES, "phi", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "phi")
        outcome = json.loads(out)["outcomes"][0]
        assert code == 1 and outcome["checks"] == 0
        assert outcome["counterexample"]["inputs"] == "phi"


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

    def test_auto_backend_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle-gl", "--q", "3", "--r", "3", "--l", "T+1",
                                 "--backend", "auto")
        assert code == 2
        assert out == ""
        assert "argument --backend: invalid choice: 'auto'" in err

    def test_zero_max_deg_means_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "charpoly-bounds", "--max-deg", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["max_deg"] == 0
        assert doc["outcomes"][0]["checks"] == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("sample", "--q", "7", "--r", "3", "--l", "T+6", "--max-deg", "2"),
        ("verify", "--suite", "chebotarev", "--max-deg", "1"),
    ])
    def test_threshold_that_is_not_finite_is_usage_error(self, argv, value, capsys,
                                                          monkeypatch):
        # refused before any sweep: sample once said "consistent" at
        # tv_distance 0.910, and verify failed its TV check instead
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking the threshold")

        monkeypatch.setattr(cli, "sample_frobenii", no_sweep)
        monkeypatch.setattr(cli, "run_suites", no_sweep)
        code, out, err = run_cli(capsys, *argv, "--tv-threshold", value)
        assert code == 2
        assert out == ""
        assert err == f"error: tv threshold {value} is not in (0, 1]\n"


class TestErrorHandling:
    def test_huge_prime_characteristic_answers_at_once(self):
        # q = 2^61 - 1 once hung in trial division before any arithmetic
        q = 2**61 - 1
        done = subprocess.run(
            [sys.executable, "-m", "drinfeld", "phi", "--q", str(q), "--r", "3", "--a", "T"],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 0
        doc = json.loads(done.stdout)
        assert doc["params"] == {"p": q, "e": 1, "q": q, "r": 3}
        assert doc["phi_a"] == f"T + t^2 + T^{q - 1}*t^3"

    def test_q_beyond_the_primality_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--q", str(2**89 - 1), "--a", "T")
        assert code == 2
        assert "bound of the deterministic primality test" in err

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


# the parser's own output (exit code, stdout, stderr) at a fixed width of 80
# columns, recorded when every call built every subcommand's arguments:
# building only the named subcommand's must not change a byte
PARSER_OUTPUT = {
    ('--help',): (0, (
        'usage: drinfeld [-h]\n'
        '                {phi,charpoly,torsion,newton,inertia,sample,oracle-gl,verify}\n'
        '                ...\n'
        '\n'
        'arithmetic reports for prime-rank Drinfeld modules over F_q(T)\n'
        '\n'
        'positional arguments:\n'
        '  {phi,charpoly,torsion,newton,inertia,sample,oracle-gl,verify}\n'
        '    phi                 print phi_a\n'
        '    charpoly            Frobenius characteristic polynomial at a prime\n'
        '    torsion             torsion Frobenius matrix at (p, l)\n'
        '    newton              Newton polygon of phi_a(x)/x at a place\n'
        '    inertia             ramification size prediction at (T)\n'
        '    sample              Chebotarev-style Frobenius sampling mod l\n'
        '    oracle-gl           exact GL_r char-poly distribution\n'
        '    verify              run verification suites\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ), ""),
    ('sample', '--help'): (0, (
        'usage: drinfeld sample [-h] [--q Q] [--r R] [--coeffs COEFFS] --l L\n'
        '                       [--out OUT] [--tv-threshold TV_THRESHOLD]\n'
        '                       [--budget BUDGET] --max-deg MAX_DEG\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --q Q                 field size q = p^e\n'
        '  --r R                 rank of the default family (odd prime, default 3);\n'
        '                        with --coeffs it must equal their rank\n'
        '  --coeffs COEFFS       custom phi_T coefficients, semicolon-separated (g_0=T\n'
        '                        first)\n'
        '  --l L                 monic prime of F_q[T]\n'
        '  --out OUT             write JSON here instead of stdout\n'
        '  --tv-threshold TV_THRESHOLD\n'
        '  --budget BUDGET       GL_r enumeration budget\n'
        '  --max-deg MAX_DEG\n'
    ), ""),
    ('frobnicate',): (2, "", (
        'usage: drinfeld [-h]\n'
        '                {phi,charpoly,torsion,newton,inertia,sample,oracle-gl,verify}\n'
        '                ...\n'
        "drinfeld: error: argument command: invalid choice: 'frobnicate' (choose from "
        "'phi', 'charpoly', 'torsion', 'newton', 'inertia', 'sample', 'oracle-gl', 'verify')\n"
    )),
    ('sample', '--q', '7', '--l', 'T+6'): (2, "", (
        'usage: drinfeld sample [-h] [--q Q] [--r R] [--coeffs COEFFS] --l L\n'
        '                       [--out OUT] [--tv-threshold TV_THRESHOLD]\n'
        '                       [--budget BUDGET] --max-deg MAX_DEG\n'
        'drinfeld sample: error: the following arguments are required: --max-deg\n'
    )),
}


class TestParserOutput:
    @pytest.mark.parametrize("argv", PARSER_OUTPUT)
    def test_bytes(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(capsys, *argv) == PARSER_OUTPUT[argv]
