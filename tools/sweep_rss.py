"""Wall time and peak RSS of long sweeps: a base revision against the working tree.

    python3 tools/sweep_rss.py --base <rev> --max-deg 7 --max-deg 8 --pairs 2 \
        --out sweep_rss.json

For each `--max-deg D`, runs `python -m drinfeld sample --q 7 --r 3 --l T+6
--max-deg D --out <tmp>` in a fresh interpreter, PAIRS times on each side,
one run at a time.  The side that runs first alternates from pair to pair:
the base in even pairs, the working tree in odd ones.  The two sides are
the same copies that `tools/bench_pairs.py` makes (a `git archive` export
of the revision, and the tracked and untracked, not ignored, files of the
working tree), in a temporary directory removed at the end.

Each run records its wall time, the child's peak RSS (`ru_maxrss` of the
rusage that `os.wait4` returns for that child: the figure `RUSAGE_CHILDREN`
gives a parent with no other child) and the sha256 of the output.  The
output JSON holds `what`, `machine`, `summary` (per max-deg and side: the
median wall time and peak RSS, the digests seen, and the change/parent
ratios of the medians) and `runs` (in run order); it is rewritten after
every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from bench_pairs import SIDES, copy_working_tree, export_revision

SWEEP = ["sample", "--q", "7", "--r", "3", "--l", "T+6"]


def run_once(checkout: str, max_deg: int, out: str) -> dict:
    """One sweep in a fresh interpreter importing the checkout's `src/`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, "-m", "drinfeld", *SWEEP, "--max-deg", str(max_deg), "--out", out]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        error = err.read().decode().strip()[-500:]
    run = {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
           "rc": child.returncode}
    if child.returncode == 0:
        with open(out, "rb") as fh:
            run["sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
        run["out_mb"] = round(os.path.getsize(out) / 2**20, 1)
        os.remove(out)
    else:
        run["error"] = error
    return run


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for max_deg in dict.fromkeys(run["max_deg"] for run in runs):
        entry = {}
        for side in SIDES:
            ran = [run for run in runs if run["max_deg"] == max_deg and run["side"] == side]
            ok = [run for run in ran if run["rc"] == 0]
            entry[side] = {"n": len(ran), "failed": len(ran) - len(ok),
                           "sha256": sorted({run["sha256"] for run in ok})}
            for m in ("wall_s", "peak_rss_mb"):
                if ok:
                    entry[side][m] = statistics.median(run[m] for run in ok)
        for m in ("wall_s", "peak_rss_mb"):
            if m in entry["parent"] and m in entry["change"]:
                entry[f"{m} change/parent (medians)"] = entry["change"][m] / entry["parent"][m]
        summary[f"max-deg {max_deg}"] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--max-deg", dest="max_deg", type=int, action="append", required=True,
                        help="degree bound of one sweep, repeatable")
    parser.add_argument("--pairs", type=int, default=1)
    args = parser.parse_args(argv)
    base_sha = subprocess.run(["git", "rev-parse", args.base], capture_output=True, text=True,
                              check=True, cwd=os.path.dirname(os.path.abspath(__file__))
                              ).stdout.strip()
    doc = {
        "what": (f"parent {base_sha[:7]} vs the working tree: python -m drinfeld "
                 f"{' '.join(SWEEP)} --max-deg D --out <tmp>, a fresh interpreter per run, "
                 "one run at a time; alternating pairs (parent first in even pairs, change "
                 "first in odd ones). peak_rss_mb is the child's ru_maxrss (os.wait4)."),
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="sweep_rss_") as tmp:
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_revision(args.base, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for max_deg in args.max_deg:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = {"max_deg": max_deg, "pair": pair, "side": side,
                           **run_once(checkouts[side], max_deg, os.path.join(tmp, "out.json"))}
                    doc["runs"].append(run)
                    doc["summary"] = summarize(doc["runs"])
                    with open(args.out, "w") as fh:
                        json.dump(doc, fh, indent=1)
                        fh.write("\n")
                    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
