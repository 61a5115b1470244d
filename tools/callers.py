"""Which library functions nothing but the tests calls, and which nothing calls.

    python3 tools/callers.py

A temporary `sitecustomize.py` on PYTHONPATH records, in every Python
process started here and in their subprocesses, each function of
`src/drinfeld` that is entered.  Run (a) is Tier-1; run (b) is the commands
of `CLI`, the demos and `bench/run.py --seconds 2` on each workload.  A
command that exits with another status than expected stops the tool.
Prints two lists, one line per function (`file:line`, name, line count):
"never called", by neither run, and "called only under tests", by (a) only.
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDER = """import atexit, os, sys, threading
_seen = set()
def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_record)
threading.setprofile(_record)
@atexit.register
def _dump():
    sys.setprofile(None)
    with open(os.path.join(os.environ["CALLERS_OUT"], f"{os.getpid()}.txt"), "a") as fh:
        fh.writelines(f"{os.path.realpath(c.co_filename)}:{c.co_firstlineno}\\n" for c in _seen)
"""
CLI = """phi --q 5 --r 3 --a T^2+1|charpoly --q 5 --r 3 --p T^3+T+1|charpoly --q 9 --r 3 --p T^2+4 --mod-l T+1
torsion --q 5 --r 3 --p T^2+2 --l T+1|torsion --q 9 --r 3 --p T+1 --l T+2|newton --q 5 --r 3 --a T^2+2 --place T
newton --q 5 --r 3 --a T^2+2 --place inf|newton --q 5 --r 3 --a T^2+2 --place T^2+2|inertia --q 5 --r 3 --l T+1
sample --q 7 --r 3 --l T+6 --max-deg 5|sample --q 9 --r 3 --l T+2 --max-deg 3|sample --q 11 --r 5 --l T+10 --max-deg 4
oracle-gl --q 5 --r 3 --l T+1 --backend A|oracle-gl --q 5 --r 3 --l T+1 --backend B|verify --suite all --q 5
verify --suite all --q 9 --max-deg 1|verify --suite isogeny --q 4|phi --q 5 --coeffs T;1;2;1 --a T+1
newton --q 18446744073709551557 --r 3 --a T^2 --place T^2+3
newton --q 18446744073709551557 --coeffs T;T^18446744073709551557+1 --a T --place T+1"""
# `verify` exits 1 when a suite fails; at q = 9, max-deg 1 the chebotarev suite
# does, by design: its TV distance comes from 5 samples.
FAILS = {"verify --suite all --q 9 --max-deg 1"}


def functions() -> dict[str, tuple[str, int]]:
    """(name, line count) of every def in the package, keyed `path:line` as
    the recorder keys a code object (a decorated def at its first decorator)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "drinfeld", "*.py"))):
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[f"{os.path.realpath(path)}:{start}"] = (node.name, node.end_lineno - start + 1)
    return out


def record(commands: list[tuple[list[str], int]], tmp: str, name: str) -> set[str]:
    out = os.path.join(tmp, name)
    os.makedirs(out)
    env = dict(os.environ, CALLERS_OUT=out, PYTHONPATH=os.pathsep.join(
        [tmp, os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for cmd, code in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode != code:
            sys.exit(f"callers: {' '.join(cmd)} did not exit {code}")
    return {line.strip() for f in glob.glob(os.path.join(out, "*.txt")) for line in open(f)}


def main() -> int:
    py = sys.executable
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(RECORDER)
        tests = record([([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], 0)], tmp, "tests")
        runs = [([py, "-m", "drinfeld", *c.split()], int(c in FAILS))
                for c in CLI.replace("\n", "|").split("|")]
        runs += [([py, d], 0) for d in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))]
        runs += [([py, "bench/run.py", "--workload", w, "--seed", "0", "--seconds", "2"], 0)
                 for w in ("sweep-q7", "sweep-q9", "torsion-q5")]
        used = record(runs, tmp, "runs")
    lists = {"never called": [], "called only under tests": []}
    for key, (name, size) in functions().items():
        if key not in used:
            lists["called only under tests" if key in tests else "never called"].append(
                f"  {os.path.relpath(key, ROOT)} {name} ({size} lines)")
    for title, lines in lists.items():
        print(f"{title}: {len(lines)}", *lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
