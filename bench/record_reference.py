"""Record `reference.json`: the digest and sample count of every sweep
report the benchmark can ask for, one entry per (workload, l).

    python3 bench/record_reference.py

Run it from the root of a source checkout at a commit whose reports are
known good; it refuses to record a sweep with a failed determinant check.
`drinfeld sample` reports are byte-stable for fixed arguments, so the
references only change when a change to the library changes its answers.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import HERE, spawn  # noqa: E402
from workload import SWEEPS  # noqa: E402


def main() -> int:
    reference = {}
    for workload, cfg in SWEEPS.items():
        reference[workload] = {}
        for seed in range(cfg["p"] - 1):  # one seed per l
            entry = spawn(workload, seed, "record", time.monotonic() + 600)
            if "error" in entry:
                print(f"error: {workload} seed {seed}: {entry['error']}", file=sys.stderr)
                return 1
            reference[workload][entry.pop("ell")] = entry
            print(workload, seed, entry, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
