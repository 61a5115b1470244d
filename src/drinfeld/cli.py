"""Command-line front end: JSON reports over the library.

Subcommands: phi, charpoly, torsion, newton, inertia, sample, oracle-gl,
verify.  Each takes only the flags its handler reads.  Exit status 0 on
success (and on a passing verify), 1 when a verify suite fails, 2 on usage
errors (malformed polynomials, violated preconditions, unknown suites,
flags the subcommand does not take).

All field values in JSON are strings in the polynomial syntax
(`T^3+2*T+1`); counts and degrees stay integers.  Reports are byte-stable
across runs for a fixed argument list (timings never enter the JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

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
    is_irreducible,
    parse_poly,
    residue_field,
)
from .linalg import Int64RangeError
from .reduction import ReductionError, TorsionSearchError, reduce_mod, torsion_space
from .sampling import (
    CONSISTENT,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TV_THRESHOLD,
    SamplingError,
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


def _emit(obj: dict, out_path: str | None):
    text = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    module = _build_module(args)
    ell = _parse_prime(args.l, module.base)
    report = sample_frobenii(module, ell, args.max_deg, budget=args.budget)
    verdict, reasons = surjectivity_evidence(report, args.tv_threshold)
    base = module.base
    _emit({
        "params": {
            "p": base.p,
            "e": base.e,
            "q": module.q,
            "r": module.r,
            "l": format_poly(ell),
            "max_deg": args.max_deg,
        },
        "samples": [
            {
                "prime": format_poly(rec.prime),
                "deg": rec.degree,
                "charpoly": [format_field_element(c) for c in rec.charpoly],
                "det_ok": rec.det_ok,
            }
            for rec in report.records
        ],
        "tv_distance": report.tv_distance,
        "flags": {
            "irreducible_seen": report.irreducible_seen,
            "det_covers": report.det_covers,
        },
        "verdict": "consistent" if verdict == CONSISTENT else "flagged",
        "reasons": reasons,
    }, args.out)
    return 0


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
    p, e = _split_q(args.q)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="arithmetic reports for prime-rank Drinfeld modules over F_q(T)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])

    sp = sub.add_parser("phi", help="print phi_a")
    add(sp, "--q", "--r", "--coeffs", "--a", "--out")
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("charpoly", help="Frobenius characteristic polynomial at a prime")
    add(sp, "--q", "--r", "--coeffs", "--p", "--out")
    sp.add_argument("--mod-l", dest="mod_l", default=None, help="also reduce mod this prime")
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("torsion", help="torsion Frobenius matrix at (p, l)")
    add(sp, "--q", "--r", "--coeffs", "--p", "--l", "--out")
    sp.set_defaults(func=cmd_torsion)

    sp = sub.add_parser("newton", help="Newton polygon of phi_a(x)/x at a place")
    add(sp, "--q", "--r", "--coeffs", "--a", "--out")
    sp.add_argument("--place", required=True, help="T, inf, or a monic prime")
    sp.set_defaults(func=cmd_newton)

    sp = sub.add_parser("inertia", help="ramification size prediction at (T)")
    add(sp, "--q", "--r", "--coeffs", "--l", "--out")
    sp.set_defaults(func=cmd_inertia)

    sp = sub.add_parser("sample", help="Chebotarev-style Frobenius sampling mod l")
    add(sp, "--q", "--r", "--coeffs", "--l", "--out", "--tv-threshold", "--budget")
    sp.add_argument("--max-deg", dest="max_deg", type=int, required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("oracle-gl", help="exact GL_r char-poly distribution")
    add(sp, "--q", "--l", "--out", "--budget")
    sp.add_argument("--r", type=int, default=DEFAULT_RANK, help="rank")
    sp.add_argument("--backend", choices=["auto", "A", "B"], default="auto")
    sp.set_defaults(func=cmd_oracle_gl)

    sp = sub.add_parser("verify", help="run verification suites")
    add(sp, "--q", "--out", "--tv-threshold", "--budget")
    sp.add_argument("--r", type=int, default=DEFAULT_RANK, help="rank")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite", default="all")
    sp.add_argument("--max-deg", dest="max_deg", type=int, default=None)
    sp.add_argument("--timings", action="store_true", help="include wall times (non-reproducible)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PolySyntaxError, PrimeError, FieldError, SkewError, ReductionError,
            TorsionSearchError, CharPolyError, SamplingError, NewtonError,
            Int64RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
