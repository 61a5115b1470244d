"""Benchmark of the drinfeld library: one run of one workload.

    python3 bench/run.py --workload sweep-q7 --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
`src/`.  Every measurement happens in a fresh interpreter (`workload.py`),
one at a time, with one BLAS/OpenMP thread, so every run starts with cold
caches as a CLI invocation does.

`--trace 0` first starts a few set-up-only interpreters, then repeats the
workload for about `--seconds` (whole repetitions, at least two, so a
20 s repetition makes a 40 s run), and reports the end-to-end metrics:
medians over the interpreters.
`--trace 1` runs the workload once untraced and once traced and reports
the per-layer metrics of the traced run plus the tracing overhead.

Throughput is per reference second: each interpreter times a fixed probe
alongside the workload and scales the measured seconds to a machine on
which the probe takes its reference time (`workload.PROBES`), so that the
speed swings of a shared machine cancel out.  Set-up time is measured
seconds.  Raw seconds are in the detail line.

Stdout ends with two lines: the provenance and per-interpreter figures,
then the result object `{"correct", "attempted", "failed", "metrics"}`.
Exits 2 without a result when the checkout has no library to measure.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_PY = os.path.join(HERE, "workload.py")

sys.path.insert(0, HERE)
from tracing import PER_LAYER  # noqa: E402
from workload import WORKLOADS, now_ns  # noqa: E402

SETUP_SAMPLES = 5      # set-up-only interpreters per untraced run
MIN_REPS = 2           # repetitions of the workload per untraced run
DEADLINE_S = 170.0     # a run never takes longer than this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one fresh interpreter to completion; its JSON line, or an
    `error` entry when it failed or overran the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "deadline reached before start"}
    cmd = [sys.executable, WORKLOAD_PY, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--spawn-ns", str(now_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run exceeded the {DEADLINE_S:.0f} s deadline"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def completed_ops_per_s(child: dict) -> float:
    return (child["attempted"] - child["failed"]) / child["body_ref_s"]


def tally(children: list[dict]) -> tuple[bool, int, int]:
    """Correct when every interpreter finished, no op failed and all of
    them produced the same output; a crashed one counts as failing as many
    ops as a finished one attempted."""
    finished = [c for c in children if "error" not in c]
    expected = max((c["attempted"] for c in finished), default=1)
    attempted = sum(c.get("attempted", expected) for c in children)
    failed = sum(c.get("failed", expected) for c in children)
    same_output = len({c["digest"] for c in finished}) <= 1
    correct = failed == 0 and len(finished) == len(children) and same_output
    return correct, attempted, failed


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(spawn(workload, seed, "run", deadline))
        if "error" in runs[-1]:
            break
        # at least MIN_REPS repetitions, then more while at least half of the
        # next one fits, so the measured time rounds `seconds` to whole
        # repetitions
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_REPS and elapsed + elapsed / len(runs) / 2 > seconds:
            break
    finished = [c for c in runs if "error" not in c]
    metrics = {}
    if finished:
        setup_samples = [c["setup_s"] for c in setups + finished if "setup_s" in c]
        metrics = {
            "ops_per_s": (statistics.median(completed_ops_per_s(c) for c in finished), "op/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in finished), "MB"),
        }
    return setups + runs, runs, metrics


def traced(workload: str, seed: int, deadline: float):
    plain = spawn(workload, seed, "run", deadline)
    trace = spawn(workload, seed, "trace", deadline)
    runs = [plain, trace]
    metrics = {}
    if "error" not in plain and "error" not in trace:
        units = dict(PER_LAYER)
        values = dict(trace["layers"])
        values["trace.overhead_frac"] = trace["body_ref_s"] / plain["body_ref_s"] - 1
        metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    return runs, runs, metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 over the library's source files, so a result names the code
    it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(children: list[dict]) -> dict:
    finished = [c for c in children if "python" in c]
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": finished[0]["python"] if finished else platform.python_version(),
        "numpy": finished[0]["numpy"] if finished else None,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drinfeld", "__init__.py")):
        print(f"error: no drinfeld sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        children, measured, metrics = traced(args.workload, args.seed, deadline)
    else:
        children, measured, metrics = untraced(args.workload, args.seed, args.seconds, deadline)
    correct, attempted, failed = tally(measured)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(children),
        "interpreters": [
            {k: c[k] for k in ("setup_s", "body_s", "body_ref_s", "speed",
                               "attempted", "failed", "peak_rss_mb", "digest", "error",
                               "errors") if k in c}
            for c in children
        ],
    }))
    print(json.dumps({
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
