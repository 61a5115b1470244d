"""Command-line front end: JSON reports over the library.

Subcommands: phi, charpoly, torsion, newton, inertia, sample, oracle-gl,
verify.  Each takes only the flags its handler reads.  Exit status 0 on
success (and on a passing verify), 1 when a verify suite fails, 2 on usage
errors (malformed polynomials, violated preconditions, unknown suites,
flags the subcommand does not take).

All field values in JSON are strings in the polynomial syntax
(`T^3+2*T+1`); counts and degrees stay integers.  Reports are byte-stable
across runs for a fixed argument list (timings never enter the JSON).

`--out` is opened before the command does any work: a path that cannot be
written exits 2 with one `error:` line.  A regular file is written to a
temporary file beside it that replaces it only when the command returns, so
a command that fails leaves whatever was at the path untouched; anything
else (`/dev/null`, a pipe) is written in place.  `sample` streams its
samples array to `--out` or stdout a chunk of records at a time, from the
report's arrays.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .charpoly import CharPolyError, frobenius_charpolys
from .fields import FieldError, make_field
from .newton import NewtonError, inertia_order_prediction, torsion_slopes
from .polynomials import (
    Place,
    PolySyntaxError,
    PrimeError,
    SparsePoly,
    format_field_element,
    format_poly,
    format_rows,
    is_irreducible,
    parse_poly,
    residue_field,
)
from .linalg import Int64RangeError
from .reduction import ReductionError, TorsionSearchError, reduce_mod, torsion_space
from .sampling import (
    CHARPOLY_CHUNK,
    CONSISTENT,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TV_THRESHOLD,
    SamplingError,
    check_tv_threshold,
    gl_charpoly_distribution,
    sample_frobenii,
    surjectivity_evidence,
)
from .skew import DrinfeldModule, SkewError, split_prime_power
from .verify import SUITES, VerifyConfig, run_suites

USAGE_ERROR = 2
DEFAULT_RANK = 3  # the default family's r when neither --r nor --coeffs sets it


class UsageError(Exception):
    pass


def _split_q(q: int) -> tuple[int, int]:
    try:
        return split_prime_power(q)
    except SkewError as exc:
        raise UsageError(f"--q {q} is not a prime power") from exc


def _build_module(args) -> DrinfeldModule:
    """The module --coeffs names, else the default family of rank --r."""
    p, e = _split_q(args.q)
    base = make_field(p, e, 1)
    if args.coeffs is None:
        return DrinfeldModule.default_family(base, DEFAULT_RANK if args.r is None else args.r)
    module = DrinfeldModule(base, [parse_poly(c, base) for c in args.coeffs.split(";")])
    if args.r is not None and args.r != module.r:
        raise UsageError(f"--r {args.r} disagrees with the rank {module.r} of --coeffs")
    return module


def _parse(text: str, base) -> SparsePoly:
    try:
        return parse_poly(text, base)
    except PolySyntaxError as exc:
        raise UsageError(str(exc)) from exc


def _parse_prime(text: str, base) -> SparsePoly:
    f = _parse(text, base)
    if not f.is_monic():
        f = f.monic()
    if not is_irreducible(f):
        raise UsageError(f"polynomial {format_poly(f)} is not irreducible")
    return f


def _emit(obj: dict, out):
    out.write(json.dumps(obj, indent=2) + "\n")


def _params(module: DrinfeldModule) -> dict:
    base = module.base
    return {"p": base.p, "e": base.e, "q": module.q, "r": module.r}


def cmd_phi(args) -> int:
    module = _build_module(args)
    a = _parse(args.a, module.base)
    image = module.phi(a)
    _emit({
        "params": _params(module),
        "a": format_poly(a),
        "phi_a": image.format(),
        "terms": [{"tau": e, "coeff": format_poly(c)} for e, c in image.terms],
    }, args.out)
    return 0


def cmd_charpoly(args) -> int:
    module = _build_module(args)
    prime = _parse_prime(args.p, module.base)
    reduced = reduce_mod(module, prime)
    if not reduced.is_good:
        raise UsageError(f"bad reduction at {format_poly(prime)}")
    cp = frobenius_charpolys(module, [prime])[0]
    report = {
        "params": _params(module),
        "prime": format_poly(prime),
        "epsilon": str(cp.epsilon.to_int()),
        "coefficients": [format_poly(a) for a in cp.a],
    }
    if args.mod_l:
        ell = _parse_prime(args.mod_l, module.base)
        coeffs = cp.reduce_mod(ell)
        report["mod_l"] = {
            "l": format_poly(ell),
            "charpoly": [format_field_element(c) for c in coeffs[: module.r]],
        }
    _emit(report, args.out)
    return 0


def cmd_torsion(args) -> int:
    module = _build_module(args)
    prime = _parse_prime(args.p, module.base)
    ell = _parse_prime(args.l, module.base)
    reduced = reduce_mod(module, prime)
    if not reduced.is_good:
        raise UsageError(f"bad reduction at {format_poly(prime)}")
    if prime == ell:
        raise UsageError("--l must differ from --p")
    ts = torsion_space(reduced, ell)
    M = ts.frobenius_matrix
    _emit({
        "params": _params(module),
        "prime": format_poly(prime),
        "l": format_poly(ell),
        "splitting_degree": ts.m,
        "kernel_dimension": ts.dimension,
        "frobenius_matrix": [
            [format_field_element(M[i, j]) for j in range(M.cols)] for i in range(M.rows)
        ],
        "charpoly": [format_field_element(c) for c in M.charpoly()[: module.r]],
        "det": format_field_element(M.det()),
    }, args.out)
    return 0


def _parse_place(text: str, base) -> Place:
    if text in ("inf", "infinity", "oo"):
        return Place.infinity()
    if text == "T":
        return Place.finite(SparsePoly.T(base))
    f = _parse(text, base)
    if not f.is_monic():
        f = f.monic()
    if not is_irreducible(f):
        raise UsageError(f"place generator {format_poly(f)} is not irreducible")
    return Place.finite(f)


def cmd_newton(args) -> int:
    module = _build_module(args)
    a = _parse(args.a, module.base)
    place = _parse_place(args.place, module.base)
    segments = torsion_slopes(module, a, place)
    _emit({
        "params": _params(module),
        "a": format_poly(a),
        "place": "inf" if place.is_infinite else format_poly(place.prime),
        "segments": [
            {"slope": [s.numerator, s.denominator], "length": L} for s, L in segments
        ],
    }, args.out)
    return 0


def cmd_inertia(args) -> int:
    module = _build_module(args)
    ell = _parse_prime(args.l, module.base)
    if ell == SparsePoly.T(module.base):
        raise UsageError("--l must differ from (T)")
    order = inertia_order_prediction(module, ell)
    _emit({
        "params": _params(module),
        "l": format_poly(ell),
        "inertia_order": order,
    }, args.out)
    return 0


def cmd_sample(args) -> int:
    check_tv_threshold(args.tv_threshold)
    module = _build_module(args)
    ell = _parse_prime(args.l, module.base)
    report = sample_frobenii(module, ell, args.max_deg, budget=args.budget)
    verdict, reasons = surjectivity_evidence(report, args.tv_threshold)
    base = module.base
    text = json.dumps({
        "params": {
            "p": base.p,
            "e": base.e,
            "q": module.q,
            "r": module.r,
            "l": format_poly(ell),
            "max_deg": args.max_deg,
        },
        "samples": [],  # written below, a chunk of records at a time
        "tv_distance": report.tv_distance,
        "flags": {
            "irreducible_seen": report.irreducible_seen,
            "det_covers": report.det_covers,
        },
        "verdict": "consistent" if verdict == CONSISTENT else "flagged",
        "reasons": reasons,
    }, indent=2)
    if not report.count:
        args.out.write(text + "\n")
        return 0
    head, tail = text.split('"samples": []', 1)
    args.out.write(head + '"samples": [\n')
    for chunk in _sample_chunks(report):
        args.out.write(chunk)
    args.out.write("\n  ]" + tail + "\n")
    return 0


# One record of the samples array as `json.dumps(indent=2)` writes it inside
# the report, cut where the prime's name, its charpoly lines and det_ok go.
# A name holds only digits, T, ^, * and +, so json.dumps would add only the
# quotes that the cuts keep.
_RECORD_HEAD = '    {\n      "prime": "'
_RECORD_DEG = '",\n      "deg": {},\n      "charpoly": [\n        '
_RECORD_DET = '\n      ],\n      "det_ok": '
_RECORD_TAIL = ("false\n    }", "true\n    }")


def _sample_chunks(report):
    """The records of the samples array, joined by ",\\n", in pieces of
    `sampling.CHARPOLY_CHUNK` records, each built from the arrays of
    `report.samples` by object-array gathers and concatenations around the
    names of `polynomials.format_rows`; the lines of each charpoly are
    written once per key."""
    known = np.array(sorted(report.charpolys), dtype=np.int64)
    charpolys = np.array([",\n        ".join(json.dumps(format_field_element(c))
                                          for c in report.charpolys[k]) + _RECORD_DET
                          for k in known.tolist()], dtype=object)
    tails = np.array(_RECORD_TAIL, dtype=object)
    q = report.module.base.q
    sep = ""
    for block in report.samples:
        deg = _RECORD_DEG.format(block.degree)
        for start in range(0, len(block.keys), CHARPOLY_CHUNK):
            part = slice(start, start + CHARPOLY_CHUNK)
            text = (_RECORD_HEAD + format_rows(block.coeffs[part], q) + deg
                    + charpolys[np.searchsorted(known, block.keys[part])]
                    + tails[block.det_ok[part].astype(np.intp)])
            yield sep + ",\n".join(text.tolist())
            sep = ",\n"


def cmd_oracle_gl(args) -> int:
    p, e = _split_q(args.q)
    base = make_field(p, e, 1)
    ell = _parse_prime(args.l, base)
    fld = residue_field(ell).field
    dist = gl_charpoly_distribution(args.r, fld, backend=args.backend, budget=args.budget)
    counts = [
        {"charpoly": [str(c) for c in key], "count": n}
        for key, n in sorted(dist.counts.items())
    ]
    _emit({
        "params": {"r": args.r, "l": format_poly(ell), "field_order": dist.size,
                   "backend": dist.backend},
        "group_order": dist.total,
        "cells": len(dist.counts),
        "counts": counts,
    }, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise UsageError(f"unknown suite {args.suite!r}; known: all, " + ", ".join(SUITES))
    check_tv_threshold(args.tv_threshold)
    if args.max_deg is not None and args.max_deg < 0:
        raise UsageError(f"--max-deg {args.max_deg} is negative")
    p, e = _split_q(args.q)
    DrinfeldModule.default_family(make_field(p, e, 1), args.r)  # refused before any suite runs
    cfg = VerifyConfig(p=p, e=e, r=args.r, seed=args.seed, max_deg=args.max_deg,
                       tv_threshold=args.tv_threshold, budget=args.budget)
    outcomes = run_suites(names, cfg)
    for oc in outcomes:
        status = "pass" if oc.passed else "FAIL"
        print(f"[{status}] {oc.suite}: {oc.checks} checks", file=sys.stderr)
    all_pass = all(oc.passed for oc in outcomes)
    _emit({
        "config": cfg.as_dict(),
        "suites": names,
        "outcomes": [oc.as_dict(with_timings=args.timings) for oc in outcomes],
        "pass": all_pass,
    }, args.out)
    return 0 if all_pass else 1


# Flags that several subcommands read, with their add_argument keywords.
FLAGS = {
    "--q": dict(type=int, default=5, help="field size q = p^e"),
    "--r": dict(type=int, default=None,
                help=f"rank of the default family (odd prime, default {DEFAULT_RANK}); "
                     "with --coeffs it must equal their rank"),
    "--coeffs": dict(default=None,
                     help="custom phi_T coefficients, semicolon-separated (g_0=T first)"),
    "--a": dict(required=True, help="element of F_q[T]"),
    "--p": dict(required=True, help="monic prime of F_q[T]"),
    "--l": dict(required=True, help="monic prime of F_q[T]"),
    "--out": dict(default=None, help="write JSON here instead of stdout"),
    "--tv-threshold": dict(type=float, default=DEFAULT_TV_THRESHOLD),
    "--budget": dict(type=int, default=DEFAULT_ENUM_BUDGET, help="GL_r enumeration budget"),
}


# Each subcommand: its help line and its arguments in order, a name from
# FLAGS or a (flag, add_argument keywords) pair.  Subcommand `name` is
# handled by `cmd_<name>`, looked up when it runs.
COMMANDS = {
    "phi": ("print phi_a", ["--q", "--r", "--coeffs", "--a", "--out"]),
    "charpoly": ("Frobenius characteristic polynomial at a prime", [
        "--q", "--r", "--coeffs", "--p", "--out",
        ("--mod-l", dict(dest="mod_l", default=None, help="also reduce mod this prime")),
    ]),
    "torsion": ("torsion Frobenius matrix at (p, l)",
                ["--q", "--r", "--coeffs", "--p", "--l", "--out"]),
    "newton": ("Newton polygon of phi_a(x)/x at a place", [
        "--q", "--r", "--coeffs", "--a", "--out",
        ("--place", dict(required=True, help="T, inf, or a monic prime")),
    ]),
    "inertia": ("ramification size prediction at (T)",
                ["--q", "--r", "--coeffs", "--l", "--out"]),
    "sample": ("Chebotarev-style Frobenius sampling mod l", [
        "--q", "--r", "--coeffs", "--l", "--out", "--tv-threshold", "--budget",
        ("--max-deg", dict(dest="max_deg", type=int, required=True)),
    ]),
    "oracle-gl": ("exact GL_r char-poly distribution", [
        "--q", "--l", "--out", "--budget",
        ("--r", dict(type=int, default=DEFAULT_RANK, help="rank")),
        ("--backend", dict(choices=["A", "B"], default="B")),
    ]),
    "verify": ("run verification suites", [
        "--q", "--out", "--tv-threshold", "--budget",
        ("--r", dict(type=int, default=DEFAULT_RANK, help="rank")),
        ("--seed", dict(type=int, default=0)),
        ("--suite", dict(default="all")),
        ("--max-deg", dict(dest="max_deg", type=int, default=None)),
        ("--timings", dict(action="store_true", help="include wall times (non-reproducible)")),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given a command, only its subparser
    gets its arguments: parsing never reaches the others."""
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="arithmetic reports for prime-rank Drinfeld modules over F_q(T)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, args) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if command in (None, name):
            for arg in args:
                flag, kwargs = (arg, FLAGS[arg]) if isinstance(arg, str) else arg
                sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    path = args.out
    try:
        args.out, staged = _open_out(path)
    except OSError as exc:
        print(f"error: cannot write --out {path}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        if staged:
            args.out.close()
            os.replace(staged, os.path.realpath(path))
            staged = None
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PolySyntaxError, PrimeError, FieldError, SkewError, ReductionError,
            TorsionSearchError, CharPolyError, SamplingError, NewtonError,
            Int64RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if path:
            args.out.close()
        if staged:
            os.remove(staged)


def _open_out(path: str | None):
    """The stream a command writes to, and the temporary file that replaces
    `path` once the command returns (None if it is written in place).  A
    path that cannot be written raises OSError here, before any work."""
    if not path:
        return sys.stdout, None
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return open(target, "w"), None  # a device, a pipe; a directory raises
    if os.path.exists(target) and not os.access(target, os.W_OK):
        raise PermissionError(13, "Permission denied", path)
    fd, staged = tempfile.mkstemp(dir=os.path.dirname(target),
                                  prefix="." + os.path.basename(target) + ".")
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, os.stat(target).st_mode & 0o7777 if os.path.exists(target)
              else 0o666 & ~umask)
    return os.fdopen(fd, "w"), staged


if __name__ == "__main__":
    sys.exit(main())
