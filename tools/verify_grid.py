"""`verify --suite all` over a grid of (q, r), one subprocess per cell.

    python3 tools/verify_grid.py

Runs `python -m drinfeld verify --suite all --q Q --r R` from this
checkout's `src` for q in GRID_Q and r in GRID_R, one cell at a time, and
prints one table row per cell as it ends: the exit status, the wall time,
the peak RSS of that child (`os.wait4`) and the suites that failed, each
with the check it failed (or the exception it raised).  A cell still
running after CELL_TIMEOUT_S is killed and reported as a timeout.  The
grid stays outside Tier-1: a whole run takes minutes.  To run it at
another revision, run this file from a checkout of that revision (copied
in, where the revision predates it).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID_Q = (3, 4, 5, 7, 8, 9, 11)
GRID_R = (3, 5, 7)
CELL_TIMEOUT_S = 300
POLL_S = 0.05


def run_cell(q: int, r: int, out_path: str) -> dict:
    """Exit status (None on timeout), wall time, peak RSS and the parsed
    JSON report (None when the child wrote none) of one cell."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, "-m", "drinfeld", "verify", "--suite", "all",
            "--q", str(q), "--r", str(r), "--out", out_path]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    status = None
    while True:
        pid, wait_status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            status = os.waitstatus_to_exitcode(wait_status)
            break
        if time.perf_counter() - start > CELL_TIMEOUT_S:
            os.kill(child.pid, signal.SIGKILL)
            _, _, usage = os.wait4(child.pid, 0)
            break
        time.sleep(POLL_S)
    child.returncode = -signal.SIGKILL if status is None else status  # reaped above
    wall = time.perf_counter() - start
    report = None
    if status is not None and os.path.getsize(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    return {"exit": status, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "report": report}


def failures(report: dict | None) -> str:
    """The failing suites of a report, each with its failed check."""
    if report is None:
        return "no report"
    out = []
    for oc in report["outcomes"]:
        if not oc["pass"]:
            ce = oc["counterexample"]
            got = ce["got"].split(":")[0] if ce["check"] == "suite raised" else ce["check"]
            out.append(f"{oc['suite']} ({got})")
    return ", ".join(out) or "-"


def main() -> int:
    print("det-law and chebotarev fix q = 7, r = 3: a pass there says nothing "
          "about the cell's (q, r).")
    print(f"per-cell timeout {CELL_TIMEOUT_S} s; peak RSS of each child from os.wait4")
    print("| q | r | exit | wall | peak RSS | failing suites |")
    print("| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory(prefix="verify_grid_") as tmp:
        for q in GRID_Q:
            for r in GRID_R:
                out_path = os.path.join(tmp, f"q{q}-r{r}.json")
                open(out_path, "w").close()
                cell = run_cell(q, r, out_path)
                timed_out = cell["exit"] is None
                exit_text = "timeout" if timed_out else str(cell["exit"])
                failing = "(killed)" if timed_out else failures(cell["report"])
                print(f"| {q} | {r} | {exit_text} | {cell['wall_s']:.1f} s "
                      f"| {cell['peak_rss_mb']:.0f} MB | {failing} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
