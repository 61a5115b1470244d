"""Output checks of the benchmark workloads.

Each checker takes what a workload produced and returns
`(attempted, failed)`: an operation fails when it raised or any check on
it failed, and a run whose output as a whole fails its check counts all of
its operations as failed.  The checkers import nothing from the library
under test.
"""

from __future__ import annotations

import hashlib
import json


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_sweep(rc: int, data: bytes, reference: dict) -> tuple[int, int]:
    """A `drinfeld sample` report: its bytes must equal the recorded
    reference (C13 makes them byte-stable) and every sample must carry
    `det_ok`.  An op is one prime."""
    attempted = reference["samples"]
    if rc != 0 or sha256(data) != reference["sha256"]:
        return attempted, attempted
    samples = json.loads(data)["samples"]
    failed = sum(1 for s in samples if s["det_ok"] is not True)
    return attempted, failed + max(0, attempted - len(samples))


def check_torsion(records: list[dict], expected: int) -> tuple[int, int]:
    """Torsion pairs: the linear-system charpoly reduced mod l must equal
    the charpoly of the torsion Frobenius matrix, and the determinant law
    must hold with that matrix.  An op is one (p, l) pair."""
    failed = sum(
        1 for rec in records
        if rec.get("error") or not rec["det_ok"] or rec["system"] != rec["torsion"]
    )
    return expected, failed + max(0, expected - len(records))
