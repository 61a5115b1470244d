"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base <rev> --out BENCH_<n>.json \
        --plan sweep-q7:0:10 --plan sweep-q7:3:5 --plan sweep-q9:0:5 \
        --plan torsion-q5:0:5 --seconds 30

Each `--plan WORKLOAD:SEED:PAIRS` runs `bench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0` PAIRS times on each side, one run at a
time.  The side that runs first alternates from pair to pair: the base in
even pairs, the working tree in odd ones.  The base side is a `git archive`
export of the revision; the working tree side is a copy of its tracked and
untracked, not ignored, files taken at the start, so edits made while the
pairs run do not reach them.  Both copies live in a temporary directory
that is removed at the end.

The output JSON holds `what`, `machine`, `src_sha256`, `summary` (per
workload and seed: median, q1, q3 and n of each end-to-end metric per side,
the ratio of the ops_per_s medians, the pairs the working tree won and the
median gap in base IQRs) and `runs` (one entry per run, in run order).  It
is rewritten after every run, so an interrupted series keeps what it
measured.  Sides are named "parent" (the base) and "change" (the working
tree).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def export_revision(rev: str, dest: str):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    path = dest + ".tar"
    with open(path, "wb") as fh:
        fh.write(archive)
    os.makedirs(dest)
    with tarfile.open(path) as tar:
        tar.extractall(dest, filter="data")
    os.remove(path)


def copy_working_tree(dest: str):
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, detail) of one `bench/run.py` run in a checkout: its last
    line, and the line before (provenance and per-interpreter figures)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}, {}
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for key in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == key]
        entry = {}
        for side in SIDES:
            ran = [run for run in mine if run["side"] == side]
            entry[side] = {m: quartiles([run[m] for run in ran if m in run])
                           for m in METRICS if any(m in run for run in ran)}
            entry[side]["all_correct"] = all(run["correct"] for run in ran)
        pairs = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = run.get("ops_per_s")
        done = [p for p in pairs.values() if None not in (p.get("parent"), p.get("change"))]
        base, new = entry["parent"].get("ops_per_s"), entry["change"].get("ops_per_s")
        if base and new:
            entry["ops_per_s change/parent (medians)"] = new["median"] / base["median"]
            entry["pairs won by the change"] = (
                f"{sum(p['change'] > p['parent'] for p in done)} of {len(done)}")
            iqr = base["q3"] - base["q1"]
            gap = new["median"] - base["median"]
            entry["median gap in parent IQRs"] = gap / iqr if iqr else None
        summary[key] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--plan", action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS, repeatable")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    plan = [(w, int(s), int(n)) for w, s, n in (item.split(":") for item in args.plan)]

    base_sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    doc = {
        "what": (f"parent {base_sha[:7]} vs the working tree: python3 bench/run.py --workload W "
                 f"--seed S --seconds {args.seconds:g} --trace 0, each side from its own copy of "
                 "the files, one run at a time; alternating pairs (parent first in even pairs, "
                 "change first in odd ones). q1/q3 are inclusive quartiles. Every run is listed "
                 "in `runs`."),
        "machine": {},
        "src_sha256": {"how": "bench/run.py's source_digest over src/**/*.py of each side"},
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_revision(args.base, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for workload, seed, pairs in plan:
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, detail = run_once(checkouts[side], workload, seed, args.seconds)
                    prov = detail.get("provenance", {})
                    if prov and not doc["machine"]:
                        doc["machine"] = {k: prov.get(k) for k in
                                          ("nproc", "cpus_usable", "cpu_model", "python",
                                           "numpy", "threads")}
                    if prov.get("src_sha256"):
                        doc["src_sha256"][side] = prov["src_sha256"]
                    run = {"workload": f"{workload} seed {seed}", "pair": pair, "side": side,
                           "first": order[0], "correct": bool(result.get("correct")),
                           "failed": result.get("failed"),
                           "digests": sorted({c["digest"] for c in detail.get("interpreters", [])
                                              if "digest" in c})}
                    for m in METRICS:
                        if m in result.get("metrics", {}):
                            run[m] = result["metrics"][m]["value"]
                    if "error" in result:
                        run["error"] = result["error"]
                    doc["runs"].append(run)
                    doc["summary"] = summarize(doc["runs"])
                    with open(args.out, "w") as fh:
                        json.dump(doc, fh, indent=1)
                        fh.write("\n")
                    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
