"""Named verification suites behind the `verify` CLI command.

Each suite re-runs a block of the identity and property checks at its
canonical parameters and reports pass/fail with a reproducible
counterexample payload on failure.  Suites run in registry order and the
report is fully deterministic for a fixed configuration (seed included),
so repeated runs emit byte-identical JSON.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .charpoly import (
    charpoly_linear_system,
    charpoly_mod_l,
    det_check,
    epsilon_of,
    frobenius_charpolys,
)
from .fields import make_field
from .newton import (
    inertia_order_prediction,
    newton_polygon,
    np_irreducibility,
    slope_integrality,
    torsion_slopes,
)
from .polynomials import (
    Place,
    SparsePoly,
    format_poly,
    necklace_count,
    primes_of_degree,
)
from .reduction import (
    fl_line,
    height,
    quotient_by_kernel,
    reduce_mod,
    torsion_at_char,
    torsion_space,
)
from .sampling import (
    CONSISTENT,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TV_THRESHOLD,
    gl_charpoly_distribution,
    sample_frobenii,
    surjectivity_evidence,
)
from .skew import DrinfeldModule, SkewPoly


@dataclass
class VerifyConfig:
    p: int = 5
    e: int = 1
    r: int = 3
    seed: int = 0
    max_deg: int | None = None
    tv_threshold: float = DEFAULT_TV_THRESHOLD
    budget: int = DEFAULT_ENUM_BUDGET

    @property
    def q(self) -> int:
        return self.p**self.e

    def degree_bound(self, default: int) -> int:
        """`max_deg` when it is set (0 included), else the suite's default."""
        return default if self.max_deg is None else self.max_deg

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "r": self.r,
            "seed": self.seed,
            "max_deg": self.max_deg,
            "tv_threshold": self.tv_threshold,
            "budget": self.budget,
        }


@dataclass
class VerifyOutcome:
    suite: str
    passed: bool
    checks: int
    counterexample: dict | None
    wall_time: float

    def as_dict(self, with_timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "pass": self.passed,
            "checks": self.checks,
            "counterexample": self.counterexample,
        }
        if with_timings:
            out["wall_time"] = round(self.wall_time, 3)
        return out


class _Checker:
    def __init__(self):
        self.count = 0
        self.failure: dict | None = None

    def check(self, ok: bool, name: str, inputs, expected, got) -> bool:
        self.count += 1
        if not ok and self.failure is None:
            self.failure = {
                "check": name,
                "inputs": str(inputs),
                "expected": str(expected),
                "got": str(got),
            }
        return ok

    def equal(self, got, expected, name: str, inputs="") -> bool:
        return self.check(got == expected, name, inputs, expected, got)


def _module(cfg: VerifyConfig) -> DrinfeldModule:
    base = make_field(cfg.p, cfg.e, 1)
    return DrinfeldModule.default_family(base, cfg.r)


def _linear_prime(base, c: int) -> SparsePoly:
    """T - a for the element a of index c when e > 1 and c < q, so that c
    over 1 .. q-1 runs through F_q^*; otherwise T - c with c read mod p."""
    a = base.from_int(c) if base.e > 1 and c < base.q else base.scalar(c)
    return SparsePoly(base, [(0, -a), (1, base.one)])


def suite_fields(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    rng = random.Random(cfg.seed)
    fld = make_field(cfg.p, cfg.e, 2)
    for _ in range(40):
        a = fld.from_int(rng.randrange(fld.order))
        b = fld.from_int(rng.randrange(fld.order))
        c = fld.from_int(rng.randrange(fld.order))
        ch.equal((a + b) * c, a * c + b * c, "distributivity", (a.coords, b.coords, c.coords))
        ch.equal((a * b) * c, a * (b * c), "associativity", (a.coords, b.coords, c.coords))
        if a:
            ch.equal(a * fld.inv(a), fld.one, "inverse", a.coords)
        ch.equal(fld.frobenius(a + b), fld.frobenius(a) + fld.frobenius(b),
                 "frobenius additive", (a.coords, b.coords))
        ch.equal(fld.frobenius(a * b), fld.frobenius(a) * fld.frobenius(b),
                 "frobenius multiplicative", (a.coords, b.coords))
    base = make_field(cfg.p, cfg.e, 1)
    for d in (1, 2, 3):
        pr = primes_of_degree(base, d)
        ch.equal(len(pr), necklace_count(cfg.q, d), f"prime count deg {d}", d)
    return ch


def suite_phi(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    q, r = cfg.q, cfg.r
    D = _module(cfg)
    base = D.base
    T = SparsePoly.T(base)
    got = D.phi(T * T)
    expected = _phi_t2_expected(D)
    ch.equal(got, expected, "phi_(T^2) six-term identity", {"q": q, "r": r})
    for d in (1, 2, 3):
        ell = primes_of_degree(base, d)[0]
        lead = D.phi(ell).terms[-1]
        exp_exp = (q - 1) * sum(q ** (r * (i - 1)) for i in range(1, d + 1))
        ch.equal(lead[0], r * d, f"phi_l tau-degree (deg {d})", format_poly(ell))
        ch.equal(lead[1], SparsePoly.monomial(base, exp_exp),
                 f"leading coefficient law (deg {d})", format_poly(ell))
    return ch


def _phi_t2_expected(D: DrinfeldModule) -> SkewPoly:
    base = D.base
    q, r = D.q, D.r
    mono = lambda e: SparsePoly.monomial(base, e)
    pairs = {
        0: mono(2),
        r - 1: mono(q ** (r - 1)) + mono(1),
        r: mono(q**r + q - 1) + mono(q),
        2 * r - 2: SparsePoly.one(base),
        2 * r - 1: mono((q - 1) * q ** (r - 1)) + mono(q - 1),
        2 * r: mono((q - 1) * (q**r + 1)),
    }
    return SkewPoly(D.ring, pairs.items())


def suite_charpoly(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    r = cfg.r
    for c in range(1, cfg.q):
        prime = _linear_prime(base, c)
        cp = charpoly_linear_system(D, prime)
        want = [SparsePoly.one(base)] + [SparsePoly.zero(base)] * (r - 2) + [-prime]
        ch.equal(list(cp.a), want, "closed form x^r + x^(r-1) - p", format_poly(prime))
        ch.equal(cp.epsilon, base.scalar(-1), "epsilon = -1", format_poly(prime))
    return ch


def suite_charpoly_bounds(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    r = cfg.r
    max_d = cfg.degree_bound(4)
    for d in range(1, max_d + 1):
        # (T) has bad reduction; every answer is checked by its residual identity
        primes = [f for f in primes_of_degree(base, d) if f.coeff(0)]
        for prime, cp in zip(primes, frobenius_charpolys(D, primes)):
            for i in range(1, r + 1):
                ch.check(cp.a[i - 1].degree <= i * d // r, "degree bound",
                         (format_poly(prime), i), f"<= {i * d // r}", cp.a[i - 1].degree)
            ch.equal(cp.a[-1], prime * epsilon_of(D, prime), "a_r = epsilon*p",
                     format_poly(prime))
    return ch


def suite_two_method(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    ells = [_linear_prime(base, c) for c in (1, 2, 3)]
    max_d = cfg.degree_bound(2)
    for d in range(1, max_d + 1):
        for prime in primes_of_degree(base, d):
            if not prime.coeff(0):
                continue
            cp = charpoly_linear_system(D, prime)
            for ell in ells:
                if ell == prime:
                    continue
                via_torsion = charpoly_mod_l(D, prime, ell)
                via_system = cp.reduce_mod(ell)
                ch.equal([c.to_int() for c in via_system],
                         [c.to_int() for c in via_torsion],
                         "two-method agreement",
                         (format_poly(prime), format_poly(ell)))
    return ch


def suite_det_law(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    cfg7 = VerifyConfig(p=7, e=1, r=3)
    D = _module(cfg7)
    base = D.base
    ell = _linear_prime(base, 1)
    max_d = cfg.degree_bound(5)
    for d in range(1, max_d + 1):
        for prime in primes_of_degree(base, d):
            if not prime.coeff(0) or prime == ell:
                continue
            ch.check(det_check(D, prime, ell), "determinant law",
                     (format_poly(prime), format_poly(ell)), True, False)
    return ch


def suite_reduction(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    r = cfg.r
    T = SparsePoly.T(base)
    R_T = reduce_mod(D, T)
    ch.equal(R_T.describe(), f"StableBad({r - 1})", "type at (T)", "T")
    ch.equal(R_T.phi_T, SkewPoly(R_T.ring, [(r - 1, R_T.field.one)]),
             "reduced phi_T = tau^(r-1)", "T")
    for c in range(1, cfg.q):
        prime = _linear_prime(base, c)
        R = reduce_mod(D, prime)
        ch.equal(R.describe(), "Good", "good at linear primes", format_poly(prime))
        ch.equal(height(R), r - 1, "height r-1", format_poly(prime))
        h = height(R)
        for e_prime in (1, 2):
            ch.equal(torsion_at_char(R, e_prime), (r - h) * e_prime * prime.degree,
                     "torsion dim at characteristic", (format_poly(prime), e_prime))
    return ch


def suite_newton(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    q, r = cfg.q, cfg.r
    T = SparsePoly.T(base)
    inf = Place.infinity()
    at_T = Place.finite(T)
    poly_inf = newton_polygon(D.phi_as_x_poly(T), inf)
    ch.equal(list(poly_inf.segments), [(Fraction(2 - q, q**r - 1), q**r - 1)],
             "phi_T at infinity", "T")
    p1 = _linear_prime(base, 1)
    segs = list(torsion_slopes(D, p1, at_T))
    ch.equal(segs, [(Fraction(0), q ** (r - 1) - 1),
                    (Fraction(1, q ** (r - 1)), q**r - q ** (r - 1))],
             "torsion polygon at (T)", format_poly(p1))
    segs2 = [s for s, _ in torsion_slopes(D, T * T, at_T)]
    ch.check(Fraction(1, q ** (2 * r - 2)) in segs2 and Fraction(1, q ** (r - 1)) in segs2,
             "phi_(T^2) slope pair", "T^2", "both slopes present", segs2)
    psi = DrinfeldModule(base, [T, -T])
    psi_segs = list(torsion_slopes(psi, p1, at_T))
    ch.equal(psi_segs, [(Fraction(1, q - 1), q - 1)], "counterexample slope", "T - T*tau")
    ch.equal(slope_integrality([(e - 1, c) for e, c in psi.phi_as_x_poly(p1)], at_T),
             False, "counterexample non-integral", "T - T*tau")
    for d in (1, 2):
        ell = next(f for f in primes_of_degree(base, d) if f.coeff(0))
        ch.equal(inertia_order_prediction(D, ell), q ** ((r - 1) * d),
                 f"inertia order (deg {d})", format_poly(ell))
    cert = np_irreducibility([(e - 1, c) for e, c in D.phi_as_x_poly(p1)], inf)
    ch.equal(cert, "Irreducible", "single-slope certificate", format_poly(p1))
    return ch


def suite_isogeny(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    D = _module(cfg)
    base = D.base
    prime = _linear_prime(base, 1)
    R = reduce_mod(D, prime)
    ell = _linear_prime(base, 2)
    ts = torsion_space(R, ell)
    iso0 = quotient_by_kernel(ts, [])
    ch.equal(iso0.target_T, R.phi_T, "trivial quotient", "X = 0")
    ch.equal(iso0.u, SkewPoly.one(R.ring), "trivial kernel poly", "X = 0")
    iso_full = quotient_by_kernel(ts, list(ts.basis))
    ch.equal(iso_full.u.degree, ts.dimension, "full torsion degree", "X = phi[l]")
    ch.check(iso_full.verify(), "isogeny identity (full)", "X = phi[l]", True, False)
    phil = R.phi(ell)
    Q, rem = phil.divmod_right(iso_full.u)
    ch.check((not rem) and Q.degree == 0, "u right-divides phi_l with unit cofactor",
             "X = phi[l]", True, (Q.degree, bool(rem)))
    # proper Frobenius-stable line: search eigenvalues of the Frobenius matrix
    found = False
    for c in range(2, cfg.q):
        ell_c = _linear_prime(base, c)
        if ell_c == prime:
            continue
        ts_c = torsion_space(R, ell_c)
        M = ts_c.frobenius_matrix
        Fl = M.field
        for lam in Fl.elements():
            if not lam:
                continue
            shifted = linalg.Matrix(Fl, M.rows, M.cols,
                                    [M[i, j] - (lam if i == j else Fl.zero)
                                     for i in range(M.rows) for j in range(M.cols)])
            kb = shifted.kernel_basis()
            if kb:
                X = fl_line(ts_c, kb[0])
                iso = quotient_by_kernel(ts_c, X)
                ch.check(iso.verify(), "isogeny identity (line)", format_poly(ell_c), True, False)
                ch.equal(iso.u.degree, len(X), "line quotient degree", format_poly(ell_c))
                found = True
                break
        if found:
            break
    ch.check(found, "eigenline found", "search over linear l", True, False)
    return ch


def suite_chebotarev(cfg: VerifyConfig) -> _Checker:
    ch = _Checker()
    cfg7 = VerifyConfig(p=7, e=1, r=3, seed=cfg.seed,
                        max_deg=cfg.max_deg, tv_threshold=cfg.tv_threshold,
                        budget=cfg.budget)
    D = _module(cfg7)
    base = D.base
    ell = _linear_prime(base, 1)
    f3 = make_field(3, 1, 1)
    a3 = gl_charpoly_distribution(3, f3, backend="A")
    b3 = gl_charpoly_distribution(3, f3, backend="B")
    ch.equal(a3.counts, b3.counts, "oracle backends agree at F_3", "F_3")
    max_deg = cfg.degree_bound(6)
    report = sample_frobenii(D, ell, max_deg, budget=cfg.budget)
    verdict, reasons = surjectivity_evidence(report, cfg.tv_threshold)
    ch.check(report.tv_distance < cfg.tv_threshold, "TV distance",
             {"max_deg": max_deg, "samples": len(report.records)},
             f"< {cfg.tv_threshold}", report.tv_distance)
    ch.check(all(r.det_ok for r in report.records), "determinant law over sample",
             {"max_deg": max_deg}, True, False)
    ch.equal(verdict, CONSISTENT, "verdict", {"max_deg": max_deg, "reasons": reasons})
    return ch


SUITES = {
    "fields": suite_fields,
    "phi": suite_phi,
    "charpoly": suite_charpoly,
    "charpoly-bounds": suite_charpoly_bounds,
    "two-method": suite_two_method,
    "det-law": suite_det_law,
    "reduction": suite_reduction,
    "newton": suite_newton,
    "isogeny": suite_isogeny,
    "chebotarev": suite_chebotarev,
}


def run_suites(names: list[str], cfg: VerifyConfig) -> list[VerifyOutcome]:
    outcomes = []
    for name in SUITES:
        if name not in names:
            continue
        t0 = time.perf_counter()
        try:
            checker = SUITES[name](cfg)
            passed, checks, failure = checker.failure is None, checker.count, checker.failure
        except Exception as exc:  # noqa: BLE001 - a crashed suite is a failed suite
            passed, checks = False, 0
            failure = {"check": "suite raised", "inputs": name,
                       "expected": "no exception", "got": f"{type(exc).__name__}: {exc}"}
        outcomes.append(VerifyOutcome(
            suite=name,
            passed=passed,
            checks=checks,
            counterexample=failure,
            wall_time=time.perf_counter() - t0,
        ))
    return outcomes
