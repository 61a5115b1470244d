"""Statistical evidence for mod-l image size.

Frobenius characteristic polynomials are sampled over all good primes up
to a degree bound, reduced mod l, and their empirical distribution is
compared (total-variation distance) with the exact distribution of
characteristic polynomials over the full matrix group GL_r(F_l).  The sweep
is array-native from the prime list to the records: each chunk of primes
of one degree goes through the array route of the motive charpolys
(`charpolys_of_degree`, each answer checked there), then the a_i and the
determinant law, det = (-1)^r epsilon p mod l (the array form of
`det_law`), are reduced mod l for the whole chunk at once.  Key counts,
determinant coverage and the irreducibility flag come from the distinct
keys.  Records are built last; they, and the `progress` callback, follow
the prime enumeration order.

Two oracle backends compute the exact distribution:

* backend A enumerates every matrix as F_p digit arrays and takes each
  characteristic polynomial with the batched Berkowitz of `linalg`,
  feasible for |F_l|^(r^2) within the budget;
* backend B counts matrices per factorization shape of the characteristic
  polynomial through centralizer orders (r <= 3), cross-validated against
  backend A at |F_l| = 3.

A verdict of ConsistentWithFullImage is evidence, not proof: the
surjectivity statement it probes assumes p large (an inexplicit constant),
so a Flagged verdict at small p is inconclusive about that statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charpoly import CharPolyError, charpolys_of_degree
from .fields import Field, FieldElement, _digits, _int_digits
from .linalg import _berkowitz
from .polynomials import (
    ResidueBatch,
    SparsePoly,
    coordinates,
    is_irreducible,
    prime_coordinates,
    primes_of_degree,
    residue_field,
)
from .skew import DrinfeldModule

CONSISTENT = "ConsistentWithFullImage"
FLAGGED = "Flagged"

INCONCLUSIVE_NOTE = (
    "a Flagged verdict is inconclusive about the surjectivity statement it "
    "probes: the constant c(r) is not explicit, so whether p > c(r) holds "
    "is unknown"
)

DEFAULT_TV_THRESHOLD = 0.1
DEFAULT_ENUM_BUDGET = 2_000_000
# Primes per batched charpoly call.  It bounds the working arrays: on the
# q = 7, degree-5 sweep 128 primes ran the kernel about 20% faster than 64
# at the same peak RSS, 256 no faster, and at q = 9 256 raised the peak by 2 MB.
CHARPOLY_CHUNK = 128
# Matrices per batched Berkowitz call of backend A (p of them when p is larger).
_ENUM_BLOCK = 1 << 14


class SamplingError(ValueError):
    pass


def gl_order(s: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= s**r - s**i
    return out


@dataclass
class GLDistribution:
    """Exact counts of matrices in GL_r(F_l) per characteristic polynomial.

    Keys are ascending non-leading coefficient tuples (c_0, ..., c_(r-1))
    of the monic polynomial, encoded as integers via FieldElement.to_int.
    """

    r: int
    size: int  # |F_l|
    counts: dict[tuple[int, ...], int]
    backend: str

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def gl_charpoly_distribution(r: int, ell_field: Field, backend: str = "auto",
                             budget: int = DEFAULT_ENUM_BUDGET) -> GLDistribution:
    """Exact char-poly distribution of GL_r over a finite field."""
    if r < 1:
        raise SamplingError("rank must be >= 1")
    s = ell_field.order
    if backend == "auto":
        backend = "A" if (r <= 3 and s**(r * r) <= budget) else "B"
    if backend == "A":
        if s ** (r * r) > budget:
            raise SamplingError(
                f"enumeration of {s}^{r * r} matrices exceeds the budget {budget}"
            )
        counts = _backend_a(r, ell_field)
    elif backend == "B":
        counts = _backend_b(r, ell_field)
    else:
        raise SamplingError(f"unknown backend {backend!r}")
    dist = GLDistribution(r, s, counts, backend)
    if dist.total != gl_order(s, r):
        raise SamplingError("distribution total does not match |GL_r|")
    return dist


def _backend_a(r: int, fld: Field) -> dict[tuple[int, ...], int]:
    """Full enumeration of the s^(r^2) matrices through the batched
    Berkowitz, as F_p digit arrays in blocks that share every digit above
    the low ones.  A matrix is invertible iff c_r = det(-M) != 0."""
    p, n, s = fld.p, fld.n, fld.order
    size = r * r * n
    low = 1  # digits varied within a block: p^low <= _ENUM_BLOCK, or one
    while low < size and p ** (low + 1) <= _ENUM_BLOCK:
        low += 1
    block = np.empty((p**low, size), dtype=np.int64)
    block[:, :low] = _digits(np.arange(p**low), p, low)
    index = p ** np.arange(r * n)  # the key (c_r, ..., c_1) as one index
    counts = np.zeros(s**r, dtype=np.int64)
    for high in range(p ** (size - low)):
        block[:, low:] = _int_digits(high, p, size - low)
        vec = _berkowitz(fld.batch(), block.reshape(-1, r, r, 1, n))
        # det(xI - M) = sum c_i x^(r-i), ascending: c_r first
        keys = np.concatenate([c[:, 0] for c in vec[:0:-1]], axis=1)
        counts += np.bincount(keys[vec[-1][:, 0].any(axis=1)] @ index, minlength=s**r)
    seen = np.flatnonzero(counts)
    return dict(zip(map(tuple, _digits(seen, s, r).tolist()), counts[seen].tolist()))


def _backend_b(r: int, fld: Field) -> dict[tuple[int, ...], int]:
    """Counts per factorization shape; centralizer orders for r <= 3."""
    if r > 3:
        raise SamplingError("backend B implements r <= 3")
    s = fld.order
    elems = list(fld.elements())
    counts: dict[tuple[int, ...], int] = {}

    def key_of(poly: list[FieldElement]) -> tuple[int, ...]:
        return tuple(c.to_int() for c in poly[:r])

    def poly_mul(a: list[FieldElement], b: list[FieldElement]) -> list[FieldElement]:
        out = [fld.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return out

    def linear(a: FieldElement) -> list[FieldElement]:
        return [-a, fld.one]

    G = gl_order(s, r)
    if r == 1:
        for a in elems:
            if a:
                counts[key_of(linear(a))] = 1
        return counts

    nonzero = [a for a in elems if a]
    monic_irred: dict[int, list[list[FieldElement]]] = {}

    def irreducibles(deg: int) -> list[list[FieldElement]]:
        if deg not in monic_irred:
            out = []
            if deg == 2:
                for c1 in elems:
                    for c0 in elems:
                        if not _has_root2(fld, c0, c1):
                            out.append([c0, c1, fld.one])
            elif deg == 3:
                for c2 in elems:
                    for c1 in elems:
                        for c0 in nonzero:
                            if not _has_root3(fld, c0, c1, c2):
                                out.append([c0, c1, c2, fld.one])
            monic_irred[deg] = out
        return monic_irred[deg]

    if r == 2:
        for g in irreducibles(2):
            if g[0]:
                counts[key_of(g)] = G // (s**2 - 1)
        for i, a in enumerate(nonzero):
            for b in nonzero[i + 1 :]:
                counts[key_of(poly_mul(linear(a), linear(b)))] = G // (s - 1) ** 2
        for a in nonzero:
            counts[key_of(poly_mul(linear(a), linear(a)))] = s**2
        return counts

    # r = 3
    n_irred3 = G // (s**3 - 1)
    n_quad_lin = G // ((s**2 - 1) * (s - 1))
    n_distinct3 = G // (s - 1) ** 3
    n_double = G // ((s**2 - 1) * (s**2 - s) * (s - 1)) + G // (s * (s - 1) ** 2)
    n_triple = s**6
    for g in irreducibles(3):
        counts[key_of(g)] = n_irred3
    for g in irreducibles(2):
        for a in nonzero:
            counts[key_of(poly_mul(g, linear(a)))] = n_quad_lin
    for i, a in enumerate(nonzero):
        for j, b in enumerate(nonzero[i + 1 :], start=i + 1):
            for c in nonzero[j + 1 :]:
                counts[key_of(poly_mul(poly_mul(linear(a), linear(b)), linear(c)))] = n_distinct3
    for a in nonzero:
        for b in nonzero:
            if a == b:
                continue
            counts[key_of(poly_mul(poly_mul(linear(a), linear(a)), linear(b)))] = n_double
    for a in nonzero:
        counts[key_of(poly_mul(poly_mul(linear(a), linear(a)), linear(a)))] = n_triple
    return counts


def _has_root2(fld: Field, c0: FieldElement, c1: FieldElement) -> bool:
    for x in fld.elements():
        if x * x + c1 * x + c0 == fld.zero:
            return True
    return False


def _has_root3(fld: Field, c0, c1, c2) -> bool:
    for x in fld.elements():
        if ((x + c2) * x + c1) * x + c0 == fld.zero:
            return True
    return False


# ---------------------------------------------------------------------------
# Frobenius sampling
# ---------------------------------------------------------------------------


@dataclass
class SampleRecord:
    prime: SparsePoly
    degree: int
    charpoly: tuple[FieldElement, ...]  # ascending non-leading coefficients (c_0..c_(r-1))
    det_ok: bool

    def key(self) -> tuple[int, ...]:
        return tuple(c.to_int() for c in self.charpoly)


@dataclass
class SampleReport:
    module: DrinfeldModule
    ell: SparsePoly
    max_degree: int
    records: list[SampleRecord]
    oracle: GLDistribution
    tv_distance: float
    irreducible_seen: bool
    det_covers: bool
    warnings: list[str] = field(default_factory=list)

    @property
    def empirical(self) -> dict[tuple[int, ...], float]:
        n = len(self.records)
        out: dict[tuple[int, ...], int] = {}
        for rec in self.records:
            out[rec.key()] = out.get(rec.key(), 0) + 1
        return {k: v / n for k, v in out.items()}


def tv_distance(emp_counts: dict[tuple[int, ...], int], n: int,
                oracle: GLDistribution) -> float:
    """Total variation: half the l1 gap over the union of cells."""
    if n == 0:
        return 1.0
    cells = set(emp_counts) | set(oracle.counts)
    total = oracle.total
    acc = 0.0
    for k in cells:
        acc += abs(emp_counts.get(k, 0) / n - oracle.counts.get(k, 0) / total)
    return acc / 2.0


def sample_frobenii(module: DrinfeldModule, ell: SparsePoly, max_degree: int,
                    backend: str = "auto", budget: int = DEFAULT_ENUM_BUDGET,
                    progress=None) -> SampleReport:
    """Characteristic polynomials mod l over every usable prime of degree up
    to the bound; usable excludes (T) (bad reduction) and l itself.  A
    prime of bad reduction or a failed check aborts with a SamplingError
    naming the first such prime in enumeration order.

    Each chunk of primes of one degree goes through the array route
    `charpolys_of_degree`; the a_i and epsilon*p are then reduced mod l, and
    the determinant law compared, as arrays for the whole chunk.  Records
    are built last, with one FieldElement per element of F_l."""
    base, r = module.base, module.r
    if not is_irreducible(ell) or not ell.is_monic():
        raise SamplingError("l must be a monic prime of A")
    rf = residue_field(ell)
    oracle = gl_charpoly_distribution(r, rf.field, backend, budget)
    at_ell = ResidueBatch(base, coordinates(base, [ell], ell.degree))
    elems: dict[int, FieldElement] = {}

    def elem(k: int) -> FieldElement:
        x = elems.get(k)
        if x is None:
            x = elems[k] = rf.field.from_int(k)
        return x

    records: list[SampleRecord] = []
    keys, dets = [], [np.zeros(0, dtype=np.int64)]
    for d in range(1, max_degree + 1):
        primes, rows = primes_of_degree(base, d), prime_coordinates(base, d)
        usable = np.ones(len(rows), dtype=bool)
        for f in (SparsePoly.T(base), ell):
            if f.degree == d:
                usable &= (rows != coordinates(base, [f], d)).any(axis=(1, 2))
        usable = np.flatnonzero(usable)
        for start in range(0, len(usable), CHARPOLY_CHUNK):
            chunk = usable[start : start + CHARPOLY_CHUNK]
            try:
                a, eps = charpolys_of_degree(module, rows[chunk])
            except CharPolyError as exc:
                raise SamplingError(f"charpoly failed: {exc}") from exc
            key, det, det_ok = _charpolys_mod_l(at_ell, rows[chunk], a, eps)
            keys.append(key)
            dets.append(det)
            for b, row, ok in zip(chunk.tolist(), key.tolist(), det_ok.tolist()):
                rec = SampleRecord(primes[b], d, tuple(elem(k) for k in row), ok)
                records.append(rec)
                if progress is not None:
                    progress(rec)

    emp: dict[tuple[int, ...], int] = {}
    if records:
        cells, first, counts = np.unique(np.concatenate(keys), axis=0,
                                         return_index=True, return_counts=True)
        order = np.argsort(first)  # first-seen order: tv_distance sums in it, the JSON keeps it
        emp = dict(zip(map(tuple, cells[order].tolist()), counts[order].tolist()))
    tv = tv_distance(emp, len(records), oracle)
    irreducible_seen = any(_charpoly_irreducible(rf.field, tuple(map(elem, k))) for k in emp)
    det_values = np.unique(np.concatenate(dets))
    det_covers = bool(np.isin(np.arange(1, rf.field.order), det_values).all())
    warnings = []
    if module.q % r != 1:
        warnings.append(f"q = {module.q} is not 1 mod r = {r}; "
                        "adelic hypotheses not met (evidence only)")
    return SampleReport(module, ell, max_degree, records, oracle, tv,
                        irreducible_seen, det_covers, warnings)


def _charpolys_mod_l(at_ell: ResidueBatch, primes: np.ndarray, a: list[np.ndarray],
                     eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`CharPoly.reduce_mod` and `det_law` on the arrays that
    `charpolys_of_degree` returns at these primes, l given by its batch of
    one: the (B, r) F_l indices of (a_r, ..., a_1) mod l, the F_l indices of
    det = (-1)^r a_r mod l, and whether det = (-1)^r epsilon p mod l."""
    fl, sign = at_ell.fb, (-1) ** len(a)
    index = fl.p ** np.arange(fl.n)
    mod_l = [at_ell.evaluate(ai) for ai in reversed(a)]
    det = sign * mod_l[0] % fl.p
    law = sign * fl.mul(at_ell.evaluate(eps[:, None]), at_ell.evaluate(primes)) % fl.p
    return np.stack([c @ index for c in mod_l], axis=1), det @ index, (det == law).all(axis=1)


def _charpoly_irreducible(fld: Field, coeffs: tuple[FieldElement, ...]) -> bool:
    """Irreducibility over F_l of the monic polynomial with these non-leading
    coefficients; degree <= 3 reduces to root-freeness."""
    r = len(coeffs)
    if not coeffs[0]:
        return False
    if r == 1:
        return True
    if r <= 3:
        for x in fld.elements():
            acc = fld.one
            for c in reversed(coeffs):
                acc = acc * x + c
            if not acc:
                return False
        return True
    # general degree: no irreducible factor of degree <= r/2
    from .polynomials import SparsePoly as SP

    if fld.e != 1 and fld.m != 1:
        raise SamplingError("irreducibility flag for r > 3 needs a plain residue field")
    poly = SP(fld, [(i, c) for i, c in enumerate(coeffs) if c] + [(r, fld.one)])
    return is_irreducible(poly)


def surjectivity_evidence(report: SampleReport,
                          tv_threshold: float = DEFAULT_TV_THRESHOLD) -> tuple[str, list[str]]:
    """ConsistentWithFullImage iff the TV distance is below threshold, some
    sampled polynomial is irreducible mod l, and determinants cover F_l^*."""
    reasons: list[str] = []
    if not report.records:
        reasons.append("no samples")
    else:
        if report.tv_distance >= tv_threshold:
            reasons.append(
                f"tv_distance {report.tv_distance:.4f} >= threshold {tv_threshold}"
            )
        if not report.irreducible_seen:
            reasons.append("no irreducible characteristic polynomial sampled")
        if not report.det_covers:
            reasons.append("determinant values do not cover all of F_l^*")
    if not all(r.det_ok for r in report.records):
        reasons.append("determinant law failed at some prime")
    if reasons:
        reasons = reasons + [INCONCLUSIVE_NOTE] + report.warnings
        return FLAGGED, reasons
    return CONSISTENT, report.warnings


def noise_bound(oracle: GLDistribution, n: int) -> float:
    """2 sqrt(cells / N): the soft multinomial noise scale used in logs."""
    return 2.0 * math.sqrt(len(oracle.counts) / max(n, 1))
