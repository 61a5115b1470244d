"""Tests of the benchmark's output checkers and metric list.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _encode(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode()


def _sweep_report() -> dict:
    samples = [{"prime": f"T+{c}", "deg": 1, "charpoly": [str(c), "2", "3"], "det_ok": True}
               for c in range(1, 6)]
    return {"params": {"q": 7, "l": "T+6"}, "samples": samples,
            "tv_distance": 0.17, "verdict": "flagged"}


def _reference(report: dict) -> dict:
    data = _encode(report)
    return {"sha256": checks.sha256(data), "samples": len(report["samples"])}


def test_sweep_matching_reference_passes_with_flagged_verdict():
    report = _sweep_report()
    assert checks.check_sweep(0, _encode(report), _reference(report)) == (5, 0)


def test_sweep_one_perturbed_record_fails_the_run():
    report = _sweep_report()
    ref = _reference(report)
    perturbed = copy.deepcopy(report)
    perturbed["samples"][2]["charpoly"][1] = "4"
    assert checks.check_sweep(0, _encode(perturbed), ref) == (5, 5)


def test_sweep_failed_determinant_law_counts_even_in_the_reference():
    report = _sweep_report()
    report["samples"][3]["det_ok"] = False
    assert checks.check_sweep(0, _encode(report), _reference(report)) == (5, 1)


def test_sweep_error_exit_fails_the_run():
    report = _sweep_report()
    assert checks.check_sweep(2, _encode(report), _reference(report)) == (5, 5)
    assert checks.check_sweep(0, b"", _reference(report)) == (5, 5)


def _torsion_records() -> list[dict]:
    return [{"p": f"T+{c}", "l": "T+4", "m": c, "system": [c, 0, 2, 1],
             "torsion": [c, 0, 2, 1], "det_ok": True} for c in range(1, 4)]


def test_torsion_one_perturbed_record_fails_that_pair():
    records = _torsion_records()
    assert checks.check_torsion(records, 3) == (3, 0)
    records[1]["torsion"][2] = 3
    assert checks.check_torsion(records, 3) == (3, 1)


def test_torsion_determinant_law_errors_and_missing_pairs_fail():
    records = _torsion_records()
    records[0]["det_ok"] = False
    records[2] = {"p": "T+3", "l": "T+4", "error": "ReductionError: boom"}
    assert checks.check_torsion(records, 4) == (4, 3)


def test_benchmark_json_names_the_traced_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
