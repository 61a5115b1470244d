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
determinant coverage and the irreducibility flag (a lookup among the
degree-r irreducibles of the prime sieve over F_l) come from the distinct
keys.  Records are built last; they, and the `progress` callback, follow
the prime enumeration order.

Two oracle backends compute the exact distribution:

* backend A enumerates every matrix as F_p digit arrays and takes each
  characteristic polynomial with the batched Berkowitz of `linalg`,
  feasible for |F_l|^(r^2) within the budget;
* backend B, for every r, counts the matrices of each characteristic
  polynomial from the centralizer formula: |GL_r| times a weight per
  factorization type, over products of the irreducibles that the prime
  sieve lists over F_l (feasible for |F_l|^r within the budget).  It is
  cross-validated against backend A at |F_l| = 3 and on small fields for
  r <= 4.

A verdict of ConsistentWithFullImage is evidence, not proof: the
surjectivity statement it probes assumes p large (an inexplicit constant),
so a Flagged verdict at small p is inconclusive about that statement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charpoly import CharPolyError, charpolys_of_degree
from .fields import Field, FieldBatch, FieldElement, _digits, _int_digits, field_with_modulus
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
        if s**r > budget:
            raise SamplingError(f"listing {s}^{r} characteristic polynomials exceeds the budget {budget}")
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
    """Counts from the centralizer formula (Macdonald, *Symmetric Functions
    and Hall Polynomials*, ch. IV): the matrices with characteristic
    polynomial prod_i phi_i^(m_i), the phi_i distinct monic irreducibles
    other than x, number |GL_r(F_s)| prod_i w(deg phi_i, m_i) with

        w(delta, m) = sum over partitions lambda of m of 1 / c_lambda(s^delta),

    c_lambda(Q) = Q^(sum_j lambda'_j^2) prod_k prod_(j <= m_k(lambda)) (1 - Q^-j)
    the centralizer order of a primary block of type lambda.  Polynomials
    are enumerated per factorization type, one partition of multiplicities
    per degree, as products of the sieve's irreducibles on coefficient
    arrays; all polynomials of one type share its count.  Keys come out in
    ascending order."""
    s, fb = fld.order, fld.batch()
    powers = {}  # powers[d][m]: the m-th powers of the irreducibles of degree d
    for d in range(1, r + 1):
        powers[d] = [None, _irreducibles(fld, d)]
        for _ in range(r // d - 1):
            powers[d].append(_poly_mul(fb, powers[d][-1], powers[d][1]))
    keys, counts = [], []
    for ty in _factorization_types(r):
        polys, weight = fb.one((1,)), Fraction(1)
        for d, mult in ty:
            block = _distinct_products(fb, powers[d], mult)
            polys = _poly_mul(fb, polys[:, None], block[None])
            polys = polys.reshape(-1, *polys.shape[2:])
            for m in mult:
                weight *= sum(1 / _centralizer_order(lam, s**d) for lam in _partitions(m))
        count = gl_order(s, r) * weight
        if count.denominator != 1:
            raise SamplingError(f"type {ty} gets the non-integral count {count}")
        keys.append(polys[:, :r] @ fld.p ** np.arange(fld.n))
        counts += [int(count)] * len(polys)
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1]).tolist()
    return dict(zip(map(tuple, keys[order].tolist()), (counts[k] for k in order)))


@functools.lru_cache(maxsize=None)
def _plain_copy(p: int, n: int, modulus: tuple[int, ...]) -> Field:
    """F_l with m = 1 on the same modulus, so element indices agree: the
    coefficient field the prime sieve takes.  Cached, so the sieve's cache
    holds one entry per field."""
    return field_with_modulus(p, n, 1, modulus, validate=False)


def _irreducibles(fld: Field, d: int) -> np.ndarray:
    """(N, d+1, n) coefficient arrays of the monic irreducibles of degree d
    over F_l other than x, in index order, from the prime sieve."""
    rows = prime_coordinates(_plain_copy(fld.p, fld.n, fld.modulus), d)
    return rows[rows[:, 0].any(axis=1)]


def _irreducible_keys(fld: Field, r: int) -> np.ndarray:
    """The keys of the monic irreducibles of degree r over F_l other than x,
    each encoded as one F_l-digit index c_0 + c_1 s + ... + c_(r-1) s^(r-1)."""
    irred = _irreducibles(fld, r)
    return irred[:, :r].reshape(len(irred), -1) @ fld.p ** np.arange(r * fld.n)


def _poly_mul(fb: FieldBatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials given as (..., D, n) coefficient arrays,
    the constant first, broadcast over the leading axes."""
    da, db = a.shape[-2], b.shape[-2]
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (da + db - 1, fb.n)
    out = np.zeros(shape, dtype=fb.dtype)
    for i in range(da):
        out[..., i : i + db, :] += fb.mul(a[..., i : i + 1, :], b)
    return out % fb.p


def _distinct_products(fb: FieldBatch, powers: list[np.ndarray],
                       mult: tuple[int, ...]) -> np.ndarray:
    """prod_j f_(i_j)^(a_j) over every set i_1 < ... < i_k of k = len(mult)
    distinct irreducibles f_i of one degree and every distinct arrangement
    a of the multiplicities mult: each product of that shape exactly once."""
    picks = np.array(list(itertools.combinations(range(len(powers[1])), len(mult))),
                     dtype=np.int64).reshape(-1, len(mult))
    out = []
    for arrangement in sorted(set(itertools.permutations(mult))):
        prod = powers[arrangement[0]][picks[:, 0]]
        for j, m in enumerate(arrangement[1:], start=1):
            prod = _poly_mul(fb, prod, powers[m][picks[:, j]])
        out.append(prod)
    return np.concatenate(out)


def _factorization_types(r: int, d: int = 1):
    """The factorization types of degree r with irreducible factors of
    degree >= d: lists of (degree, multiplicities), the multiplicities of
    the distinct factors of one degree a partition in descending order."""
    if r == 0:
        yield []
    elif d <= r:
        yield from _factorization_types(r, d + 1)
        for t in range(1, r // d + 1):
            for mult in _partitions(t):
                for rest in _factorization_types(r - d * t, d + 1):
                    yield [(d, mult)] + rest


def _partitions(m: int, most: int | None = None):
    """The partitions of m with parts <= most, as descending tuples."""
    if m == 0:
        yield ()
    for first in range(min(m, most or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _centralizer_order(lam: tuple[int, ...], Q: int) -> Fraction:
    """c_lambda(Q): the order of the centralizer in GL of a primary block of
    type lambda for an irreducible phi with Q = s^(deg phi)."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    out = Fraction(Q) ** sum(c * c for c in conj)
    for k in set(lam):
        for j in range(1, lam.count(k) + 1):
            out *= 1 - Fraction(1, Q**j)
    return out


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
                    budget: int = DEFAULT_ENUM_BUDGET, progress=None) -> SampleReport:
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
    oracle = gl_charpoly_distribution(r, rf.field, budget=budget)
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
    irreducible_seen = False
    if records:
        cells, first, counts = np.unique(np.concatenate(keys), axis=0,
                                         return_index=True, return_counts=True)
        order = np.argsort(first)  # first-seen order: tv_distance sums in it, the JSON keeps it
        emp = dict(zip(map(tuple, cells[order].tolist()), counts[order].tolist()))
        encoded = cells @ rf.field.order ** np.arange(r)
        irreducible_seen = bool(np.isin(encoded, _irreducible_keys(rf.field, r)).any())
    tv = tv_distance(emp, len(records), oracle)
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
