"""One run of one benchmark workload, in the fresh interpreter it starts in.

    python3 bench/workload.py --workload sweep-q7 --seed 0 --mode run \
        --spawn-ns <CLOCK_MONOTONIC ns at spawn>

`bench/run.py` starts this script once per repetition.  Set-up is
everything from the spawn to the start of the timed body: interpreter
start, `import drinfeld` and building the inputs from the seed.  Body times
are also given in reference seconds (see `PROBES`).  Modes:

- `setup`: stop after set-up (more set-up samples for the same price);
- `run`: time the body, check its output, print the result;
- `trace`: the same, with `tracing.Tracer` wrapped around the library first;
- `record` (sweeps only): run the body and print the digest a reference is
  made from.

The library under test receives only the generated inputs: the CLI
arguments of a sweep, or the primes and l of a torsion pair.  Prints one
JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Chebotarev sweeps through the CLI.  The CLI syntax writes constants as
# integers of F_p, so l runs over T - c for c = 1 .. p-1: T+6, T+5, ... at
# q = 7 and T+2, T+1 at q = 9.
SWEEPS = {
    "sweep-q7": {"q": 7, "p": 7, "max_deg": 5},
    "sweep-q9": {"q": 9, "p": 3, "max_deg": 3},
}
TORSION_Q = 5
WORKLOADS = (*SWEEPS, "torsion-q5")


def sweep_ell(workload: str, seed: int) -> str:
    p = SWEEPS[workload]["p"]
    return f"T+{(-(1 + seed % (p - 1))) % p}"


def torsion_left_out(seed: int) -> int:
    """c of the linear prime T+c left out of the three l; seed 0 leaves out
    T+1, giving the `two-method` suite's set."""
    return 1 + seed % (TORSION_Q - 1)


# -- sweeps -------------------------------------------------------------------


def sweep_setup(workload: str, seed: int) -> dict:
    import drinfeld.cli  # noqa: F401 - importing the library is part of set-up

    cfg = SWEEPS[workload]
    ell = sweep_ell(workload, seed)
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{os.getpid()}.json")
    argv = ["sample", "--q", str(cfg["q"]), "--r", "3", "--l", ell,
            "--max-deg", str(cfg["max_deg"]), "--out", out]
    return {"ell": ell, "argv": argv, "out": out}


def sweep_body(inputs: dict) -> dict:
    import drinfeld.cli

    try:
        rc = drinfeld.cli.main(inputs["argv"])
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"rc": rc}


def sweep_output(inputs: dict) -> bytes:
    if not os.path.exists(inputs["out"]):
        return b""
    with open(inputs["out"], "rb") as fh:
        data = fh.read()
    os.remove(inputs["out"])
    return data


def sweep_check(workload: str, inputs: dict, result: dict) -> dict:
    data = sweep_output(inputs)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload][inputs["ell"]]
    rc = -1 if result["rc"] is None else result["rc"]
    attempted, failed = checks.check_sweep(rc, data, ref)
    return {"attempted": attempted, "failed": failed, "digest": checks.sha256(data)}


def sweep_record(inputs: dict, result: dict) -> dict:
    """The reference entry of one (workload, l), refused unless the run
    succeeded and every sample passed its determinant check."""
    data = sweep_output(inputs)
    samples = json.loads(data)["samples"] if result["rc"] == 0 else []
    if not samples or not all(s["det_ok"] is True for s in samples):
        raise SystemExit(f"refusing to record a failed sweep: {result}")
    return {"ell": inputs["ell"], "sha256": checks.sha256(data), "samples": len(samples)}


# -- torsion pairs ------------------------------------------------------------


def torsion_setup(seed: int) -> dict:
    from drinfeld import DrinfeldModule, SparsePoly, make_field, parse_poly, primes_of_degree

    base = make_field(TORSION_Q, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    t = SparsePoly.T(base)
    primes = [f for d in (1, 2) for f in primes_of_degree(base, d) if f != t]
    skip = torsion_left_out(seed)
    ells = [parse_poly(f"T+{c}", base) for c in range(1, TORSION_Q) if c != skip]
    pairs = [(f, ell) for f in primes for ell in ells if ell != f]
    return {"module": module, "pairs": pairs}


def torsion_pair(module, prime, ell) -> dict:
    from drinfeld import charpoly, reduction
    from drinfeld.polynomials import format_poly

    rec = {"p": format_poly(prime), "l": format_poly(ell)}
    try:
        cp = charpoly.charpoly_linear_system(module, prime)
        ts = reduction.torsion_space(reduction.reduce_mod(module, prime), ell)
        rec["det_ok"] = charpoly.det_check(module, prime, ell, cp, ts)
        rec["m"] = ts.m
        rec["system"] = [c.to_int() for c in cp.reduce_mod(ell)]
        rec["torsion"] = [c.to_int() for c in ts.frobenius_matrix.charpoly()]
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def torsion_body(inputs: dict) -> dict:
    module = inputs["module"]
    return {"records": [torsion_pair(module, f, ell) for f, ell in inputs["pairs"]]}


def torsion_check(inputs: dict, result: dict) -> dict:
    records = result["records"]
    attempted, failed = checks.check_torsion(records, len(inputs["pairs"]))
    data = json.dumps(records, sort_keys=True).encode()
    return {"attempted": attempted, "failed": failed, "digest": checks.sha256(data)}


# -- main ---------------------------------------------------------------------


# Body times are also reported in reference seconds: measured seconds times
# the machine's speed while they were measured, (reference time of the
# workload's probe) / (its measured time), averaged over probes taken
# alongside.  A probe is fixed work independent of the library, so a change
# to the library does not move it, while a swing in the speed of a shared
# machine moves probe and workload alike and cancels out.  Each workload's
# probe does the kind of work its time goes to: interpreter-bound object
# arithmetic on the sweeps, numpy int64 vector-matrix products over a 490 KB
# matrix (the shape of F_5[x]/(f) arithmetic at degree 248 in the modulus
# search) on torsion-q5, which follow cache contention differently.
PROBE_INTERVAL_S = 0.25


def interpreter_probe():
    """A probe timing fixed interpreter-bound work, about 1 ms."""

    def probe() -> float:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(4000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = (acc, i)
        return time.perf_counter() - t0

    return probe


def numpy_probe():
    """A probe timing four int64 vector-matrix products with a fixed
    247 x 248 matrix mod 5, about 0.4 ms."""
    import numpy as np

    mat = (np.arange(247 * 248, dtype=np.int64).reshape(247, 248) * 7919) % 5

    def probe() -> float:
        t0 = time.perf_counter()
        v = np.arange(247, dtype=np.int64) % 5
        for _ in range(4):
            v = (v @ mat)[:247] % 5
        return time.perf_counter() - t0

    return probe


# workload -> (probe factory, probe time in seconds on the reference machine)
PROBES = {
    "sweep-q7": (interpreter_probe, 1e-3),
    "sweep-q9": (interpreter_probe, 1e-3),
    "torsion-q5": (numpy_probe, 4e-4),
}


class SpeedProbe:
    """Runs a probe every PROBE_INTERVAL_S of wall time while active: on the
    CPU the measured code runs on, at the time it runs, between its
    bytecodes."""

    def __init__(self, workload: str):
        factory, self.ref_s = PROBES[workload]
        self.probe = factory()
        self.probe()  # warm-up

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(self.probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def speed(self) -> float:
        """Reference seconds per measured second: the time average of the
        speed, so a probe stretched by a context switch counts as ~0."""
        samples = self.samples or [self.probe() for _ in range(10)]
        return self.ref_s * sum(1 / t for t in samples) / len(samples)


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace", "record"], required=True)
    parser.add_argument("--spawn-ns", dest="spawn_ns", type=int, required=True)
    args = parser.parse_args(argv)
    sweep = args.workload in SWEEPS
    if args.mode == "record" and not sweep:
        parser.error("only the sweeps have recorded references")

    if sweep:
        os.makedirs(OUT_DIR, exist_ok=True)
        inputs = sweep_setup(args.workload, args.seed)
    else:
        inputs = torsion_setup(args.seed)
    out = {"setup_s": (now_ns() - args.spawn_ns) / 1e9}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedProbe(args.workload) as probe:
        t0 = time.perf_counter()
        result = sweep_body(inputs) if sweep else torsion_body(inputs)
        body_s = time.perf_counter() - t0 - sum(probe.samples)
    speed = probe.speed()

    if args.mode == "record":
        print(json.dumps(sweep_record(inputs, result)))
        return 0
    if sweep:
        out.update(sweep_check(args.workload, inputs, result))
    else:
        out.update(torsion_check(inputs, result))
    import numpy

    out.update({
        "body_s": body_s,
        "body_ref_s": body_s * speed,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    if result.get("error"):
        out["error"] = result["error"]
    if not sweep:
        out["errors"] = [r for r in result["records"] if r.get("error")][:3]
    if tracer is not None:
        out["layers"] = tracer.layer_values(out["attempted"], speed)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
