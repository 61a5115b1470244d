"""The polynomial ring A = F_q[T], its primes, residue fields and valuations.

Polynomials are sparse: a sorted tuple of (exponent, coefficient) pairs with
nonzero field coefficients.  Exponents routinely reach 10^5 and beyond, so
nothing here ever materializes a dense coefficient array.

Places of F_q(T) are either a finite place, carried by a monic irreducible
generator, or the place at infinity with v(f) = -deg f on A.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable

import numpy as np

from .fields import (
    _ROOT_BLOCK,
    Field,
    FieldBatch,
    FieldElement,
    _digits,
    _prime_divisors,
    _rabin,
    field_with_modulus,
    make_field,
)
from .linalg import PackedMatrix, matmul_mod_p, power, pullback, sum_products


class PrimeError(ValueError):
    """A place, residue field or prime enumeration was given something other
    than a monic irreducible of positive degree."""


class SparsePoly:
    """Element of F_q[T] as a sorted sparse term list."""

    __slots__ = ("base", "terms")

    def __init__(self, base: Field, terms: Iterable[tuple[int, FieldElement]]):
        clean = [(e, c) for e, c in terms if c]
        clean.sort(key=lambda t: t[0])
        for (e1, _), (e2, _) in zip(clean, clean[1:]):
            if e1 == e2:
                raise ValueError("duplicate exponents; use from_pairs to merge")
        for _, c in clean:
            if c.field is not base:
                raise ValueError("coefficient field mismatch")
        self.base = base
        self.terms = tuple(clean)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, base: Field, pairs: Iterable[tuple[int, FieldElement]]) -> "SparsePoly":
        acc: dict[int, FieldElement] = {}
        for e, c in pairs:
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
        return cls(base, acc.items())

    @classmethod
    def zero(cls, base: Field) -> "SparsePoly":
        return cls(base, [])

    @classmethod
    def one(cls, base: Field) -> "SparsePoly":
        return cls(base, [(0, base.one)])

    @classmethod
    def T(cls, base: Field) -> "SparsePoly":
        return cls(base, [(1, base.one)])

    @classmethod
    def monomial(cls, base: Field, exp: int, coeff: FieldElement | int = 1) -> "SparsePoly":
        if isinstance(coeff, int):
            coeff = base.scalar(coeff)
        return cls(base, [(exp, coeff)])

    # -- basic structure --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.base is other.base
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.base), self.terms))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def lead(self) -> FieldElement:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    def coeff(self, e: int) -> FieldElement:
        for exp, c in self.terms:
            if exp == e:
                return c
            if exp > e:
                break
        return self.base.zero

    def is_monic(self) -> bool:
        return bool(self.terms) and self.lead == self.base.one

    def monic(self) -> "SparsePoly":
        if not self.terms:
            return self
        inv = self.base.inv(self.lead)
        return SparsePoly(self.base, [(e, c * inv) for e, c in self.terms])

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SparsePoly) or other.base is not self.base:
            raise ValueError("operands from different polynomial rings")

    def __add__(self, other):
        self._check(other)
        return SparsePoly.from_pairs(self.base, itertools.chain(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return SparsePoly.from_pairs(
            self.base, itertools.chain(self.terms, ((e, -c) for e, c in other.terms))
        )

    def __neg__(self):
        return SparsePoly(self.base, [(e, -c) for e, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.base:
                raise ValueError("scalar from a different field")
            return SparsePoly(self.base, [(e, c * other) for e, c in self.terms])
        if isinstance(other, int):
            return SparsePoly(self.base, [(e, c * other) for e, c in self.terms])
        self._check(other)
        acc: dict[int, FieldElement] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                prod = c1 * c2
                if e in acc:
                    acc[e] = acc[e] + prod
                else:
                    acc[e] = prod
        return SparsePoly(self.base, [(e, c) for e, c in acc.items() if c])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, SparsePoly.__mul__, SparsePoly.one(self.base))

    def shift(self, k: int) -> "SparsePoly":
        return SparsePoly(self.base, [(e + k, c) for e, c in self.terms])

    def divmod(self, other: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = self.base.inv(other.lead)
        rem = self
        q_terms: list[tuple[int, FieldElement]] = []
        dg = other.degree
        while rem and rem.degree >= dg:
            shift = rem.degree - dg
            c = rem.lead * inv_lead
            q_terms.append((shift, c))
            rem = rem - other.shift(shift) * c
        return SparsePoly(self.base, q_terms), rem

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "SparsePoly") -> "SparsePoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def eval_in(self, target: Field, t_image: FieldElement, embed) -> FieldElement:
        """Evaluate at T = t_image inside `target`; `embed` maps base-field
        coefficients into `target`."""
        acc = target.zero
        prev_e = None
        # Horner over the sparse terms, highest first
        for e, c in reversed(self.terms):
            if prev_e is None:
                acc = embed(c)
            else:
                acc = acc * t_image ** (prev_e - e) + embed(c)
            prev_e = e
        if prev_e is None:
            return target.zero
        return acc * t_image**prev_e if prev_e else acc

    def __repr__(self):
        return f"SparsePoly({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------


class Place:
    """A place of F_q(T): Finite(monic irreducible) or Infinity."""

    __slots__ = ("prime",)

    def __init__(self, prime: SparsePoly | None):
        if prime is not None:
            if not prime.is_monic():
                raise PrimeError("finite places carry a monic generator")
            if not is_irreducible(prime):
                raise PrimeError("finite places carry an irreducible generator")
        self.prime = prime

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, prime: SparsePoly) -> "Place":
        return cls(prime)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    def __repr__(self):
        return "Place(inf)" if self.is_infinite else f"Place({format_poly(self.prime)})"


INF = float("inf")


def poly_valuation(f: SparsePoly, v: Place):
    """Valuation of a polynomial at a place; +inf for f = 0.  At a finite
    place g, with no division: g is irreducible over a finite field, so
    separable, and f(T + a) = sum_j D^(j) f(a) T^j at a root a of g (Taylor
    by the Hasse derivatives D^(j), `_hasse`), so v_g(f) is the least j
    with g not dividing D^(j) f, each tested by `_sparse_mod`.  A j with
    D^(j) f = 0, which g divides, is skipped (`_next_binomial`)."""
    if not f:
        return INF
    if v.is_infinite:
        return -f.degree
    g = v.prime
    if g.degree == 1 and g.terms[0][0] == 1 and len(g.terms) == 1:
        # fast path at (T): smallest exponent
        return f.terms[0][0]
    j, p = 0, f.base.p
    while not _sparse_mod(_hasse(f, j), g):  # g | D^(j) f
        j = min(i for i in (_next_binomial(e, j + 1, p) for e, _ in f.terms) if i is not None)
    return j


def _next_binomial(e: int, j: int, p: int) -> int | None:
    """The least i >= j with C(e, i) != 0 mod p, or None (every such i is
    at most e).  By Lucas' theorem these i are those whose base-p digits are
    each at most e's.  If j's digit exceeds e's at some place, i agrees with
    j above the least place s above all such places where j's digit is below
    e's, has that digit plus one at s, and 0 below s."""
    if j > e:
        return None
    i, place, pending = j, 1, False  # pending: a digit of j above e's, with no s above it yet
    while place <= e:
        ei, ji = e // place % p, j // place % p
        if ji > ei:
            pending = True
        elif ji < ei and pending:
            i, pending = j - j % place + place, False
        place *= p
    return None if pending else i


def _hasse(f: SparsePoly, j: int) -> SparsePoly:
    """The j-th Hasse derivative, sum_e C(e, j) c_e T^(e-j), each binomial
    mod p by Lucas' theorem: the product of C(e_i, j_i) over the base-p
    digits e_i of e and j_i of j."""
    p = f.base.p
    terms = []
    for e, c in f.terms:
        binom, x, y = 1, e, j
        while y and binom:
            x, xi = divmod(x, p)
            y, yi = divmod(y, p)
            binom = binom * math.comb(xi, yi) % p
        terms.append((e - j, c * binom))
    return SparsePoly(f.base, terms)


# ---------------------------------------------------------------------------
# irreducibility and prime enumeration over F_q
# ---------------------------------------------------------------------------


_IRRED_CACHE: dict[SparsePoly, bool] = {}


def is_irreducible(f: SparsePoly) -> bool:
    """Rabin's test (`fields._rabin`) over F_p; over F_q, q = p^e with e > 1,
    the distinct-degree criterion via gcd(T^(q^k) - T, f) for k <= deg/2.
    Results are memoized; the prime sieve pre-fills the cache."""
    cached = _IRRED_CACHE.get(f)
    if cached is None:
        cached = _IRRED_CACHE[f] = _is_irreducible(f)
    return cached


def _is_irreducible(f: SparsePoly) -> bool:
    d = f.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    if not f.coeff(0) and d > 1:
        return False
    if f.base.n == 1:
        return _rabin(coordinates(f.base, [f.monic()], d)[0, :, 0].tolist(), f.base.p)
    q, t = f.base.q, SparsePoly.T(f.base)
    cur = t
    for _ in range(d // 2):  # cur = T^(q^k) mod f, one q-th power per step
        cur = _powmod(cur, q, f)
        if f.gcd(cur - t).degree > 0:
            return False
    return True


def _powmod(a: SparsePoly, e: int, f: SparsePoly) -> SparsePoly:
    return power(a % f, e, lambda x, y: x * y % f, SparsePoly.one(a.base))


def _sparse_mod(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """f mod g by Horner over the terms of f, highest first, each gap
    between exponents a power of T from `_powmod`: a number of products
    mod g logarithmic in the degree of f, where long division takes one
    step per quotient term (q - 1 of them for T^(q-1) at T + 1)."""
    t = SparsePoly.T(f.base)
    acc, prev = SparsePoly.zero(f.base), None
    for e, c in reversed(f.terms):
        if prev is not None:
            acc = acc * _powmod(t, prev - e, g)
        acc = (acc + SparsePoly(f.base, [(0, c)])) % g
        prev = e
    return acc * _powmod(t, prev, g) % g if prev else acc


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q: the Moebius sum
    over the squarefree divisors of d, the products of subsets of its primes."""
    primes = _prime_divisors(d)
    total = 0
    for k in range(len(primes) + 1):
        for subset in itertools.combinations(primes, k):
            total += (-1) ** k * q ** (d // math.prod(subset))
    return total // d


@functools.cache
def primes_of_degree(base: Field, d: int) -> list[SparsePoly]:
    """All monic irreducibles of degree d over F_q, ordered by ascending
    coefficient index (constant coefficient varies fastest).

    Results are cached per field; treat the returned list as read-only.
    The first call also records each prime as irreducible for
    `is_irreducible`.
    """
    out = [from_coordinates(base, row) for row in prime_coordinates(base, d).tolist()]
    for f in out:
        _IRRED_CACHE[f] = True
    return out


@functools.cache
def prime_coordinates(base: Field, d: int) -> np.ndarray:
    """The primes of `primes_of_degree`, in the same order, as one read-only
    (N, d+1, e) array: row k holds the F_q coordinates of the coefficients
    of prime k, the constant first.  Builds no `SparsePoly`."""
    coords = _primes_of_degree_np(base, d)
    coords.flags.writeable = False
    return coords


def _primes_of_degree_np(base: Field, d: int) -> np.ndarray:
    """Sieve of products: a monic polynomial of degree d is reducible iff it
    is g h with g a monic irreducible of degree j <= d/2 and h monic of
    degree d - j.  For each j, every such product is formed at once on
    coefficient arrays and its index crossed out; the survivors are the
    primes, in index order.  There are at most q^j / j irreducibles of
    degree j, so no product array is larger than the q^d candidates'.

    Index k is the monic polynomial whose F_p coordinates, e per F_q
    coefficient and the constant first, are the base-p digits of k.
    """
    if d < 1:
        raise PrimeError("degree must be >= 1")
    p, e, fb = base.p, base.n, base.batch()
    try:
        alive = np.ones(base.q**d, dtype=bool)
    except (MemoryError, ValueError) as exc:  # numpy's refusals of a q**d-entry array
        raise PrimeError(f"the {base.q}^{d} monics of degree {d} exceed one array") from exc
    for j in range(1, d // 2 + 1):
        # coefficient-major, (degree, N, M, e), so that numpy's inner loops
        # run over the N x M pairs rather than the e coordinates; in the
        # batch's dtype, as the coordinates are int64
        g = prime_coordinates(base, j).astype(fb.dtype).transpose(1, 0, 2)[:, :, None]
        h = _monics(base, np.arange(base.q ** (d - j)), d - j).astype(fb.dtype)
        h = h.transpose(1, 0, 2)[:, None]
        index = 0
        for m in range(d):  # the leading coefficient is 1
            c = sum(fb.mul(g[i], h[m - i]) for i in range(max(0, m - d + j), min(j, m) + 1))
            index = index + (c % p) @ p ** np.arange(m * e, m * e + e)
        alive[index.ravel()] = False
    return _monics(base, np.flatnonzero(alive), d)


def _monics(base: Field, ks: np.ndarray, d: int) -> np.ndarray:
    """(len(ks), d+1, e) coefficient arrays of the monic polynomials of
    degree d with these indices."""
    out = np.zeros((len(ks), d + 1, base.n), dtype=np.int64)
    out[:, :d] = _digits(ks, base.p, d * base.n).reshape(len(ks), d, base.n)
    out[:, d, 0] = 1  # the leading coefficient is 1 of F_q
    return out


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


class ResidueField:
    """F_l = A/(l) with the reduction map A -> F_l, T |-> T bar: the
    `ResidueBatch` of one prime, `batch`, read through `Field` and
    `FieldElement`.  `reduce` is Horner on field elements (`eval_in`), which
    at the r+1 coefficients of phi_T takes a quarter to a tenth of the time
    of the numpy reduction of a batch of one.  `lift` is its inverse on the
    polynomials of degree < deg l."""

    def __init__(self, prime: SparsePoly, batch: "ResidueBatch"):
        self.prime = prime
        self.batch = batch
        self.field = fld = batch.field
        self.t_image = FieldElement(fld, tuple(batch.t_bar[0].tolist()))
        rows, p = tuple(map(tuple, batch.embed.tolist())), fld.p
        self.embed_base = lambda c: FieldElement(
            fld, tuple(sum(a * x for a, x in zip(row, c.coords)) % p for row in rows))

    def reduce(self, f: SparsePoly) -> FieldElement:
        return f.eval_in(self.field, self.t_image, self.embed_base)

    def lift(self, c: FieldElement) -> SparsePoly:
        """The polynomial of degree < deg l that `reduce` sends to c: its
        F_q coefficients are the pull-back of c along the F_l coordinates
        T bar^a alpha^k of `ResidueBatch.weights`, an invertible square map.
        Needs p within int64, as `linalg.pullback` does."""
        d, p = self.prime.degree, self.field.p
        rows, inv = pullback(self.batch.weights(d)[0].T, p)
        y = matmul_mod_p(self.field.array(c)[rows], inv.T, p)
        return from_coordinates(self.prime.base, y.reshape(d, -1).tolist())


@functools.cache
def residue_field(prime: SparsePoly) -> ResidueField:
    """Residue field at a monic irreducible prime of A: the `ResidueBatch`
    of this prime alone.  Instances are cached per prime."""
    if not prime.is_monic() or not is_irreducible(prime):
        raise PrimeError("residue fields require a monic irreducible generator")
    batch = ResidueBatch(prime.base, coordinates(prime.base, [prime], prime.degree))
    return ResidueField(prime, batch)


class ResidueBatch:
    """The residue fields A/(p) at primes p of one degree d, operated on
    together: the one definition of a residue field, its modulus, the image
    T bar of T, the embedding `embed` of F_q (n x e, column k the image
    of the k-th power of the F_q generator) and the F_l basis
    T bar^j alpha^k that they span (`weights`).  `primes` is a (B, d+1, e)
    array as `prime_coordinates` gives.

    For e = 1 the moduli are the primes themselves, T bar is the generator
    x and F_q = F_p embeds as e_0; at d = 1 the field is F_p and T bar the
    residue -c of T + c.  For e > 1 every prime shares the canonical F_(q^d)
    (`make_field`), F_q embeds by `Field.base_embedding`, and T bar is the
    first root of the prime in index order: for a batch of one the scan of
    `Field.first_root`, for more primes the table `_first_roots` that one
    pass over the field fills for the whole degree.

    A batch of one (`residue_field`) also has its `field`, and its `fb` is
    `field.batch()`, exact for every p; a batch of more primes refuses a p
    past int64 (`linalg.Int64RangeError`) and builds no `Field` per prime."""

    def __init__(self, base: Field, primes: np.ndarray):
        p, e = base.p, base.n
        B, d = primes.shape[0], primes.shape[1] - 1
        self.base, self.primes, self.degree = base, primes, d
        self.field = None  # a `Field` only for a batch of one or a shared modulus
        if e > 1:
            self.field = make_field(p, e, d)
            moduli = np.broadcast_to(self.field.modulus, (B, d * e + 1))
        else:
            moduli = primes[:, :, 0]
            if B == 1:
                self.field = make_field(p, 1, 1) if d == 1 else field_with_modulus(
                    p, 1, d, moduli[0].tolist(), validate=False)
        self.fb = self.field.batch() if B == 1 else FieldBatch(p, moduli)
        if e == 1:
            self.embed = np.eye(d, 1, dtype=self.fb.dtype)
            self.t_bar = np.zeros((B, d), dtype=self.fb.dtype)
            if d == 1:
                self.t_bar[:, 0] = -primes[:, 0, 0] % p
            else:
                self.t_bar[:, 1] = 1
        else:
            self.embed = self.field.base_embedding()
            if B == 1:
                coeffs = matmul_mod_p(primes[0], self.embed.T, p)
                root = self.field.first_root(coeffs, np.eye(self.field.n, dtype=np.int64))
                roots = np.array([-1 if root is None else root.to_int()])
            else:
                roots = _first_roots(base, d)[primes[:, :d].reshape(B, d * e) @ p ** np.arange(d * e)]
            if (roots < 0).any():
                raise PrimeError("prime has no root in its residue field")  # unreachable
            self.t_bar = _digits(roots, p, d * e).astype(self.fb.dtype)
        self._weights = np.zeros((B, 0, self.fb.n), dtype=self.fb.dtype)

    def reduce(self, f: SparsePoly) -> np.ndarray:
        """(B, n) coordinates of f mod p: Horner over the sparse terms, each
        gap between exponents bridged by a power of T bar."""
        fb = self.fb
        acc = np.zeros_like(self.t_bar)
        prev = None
        for exp, c in reversed(f.terms):
            if prev is not None:
                acc = fb.mul(acc, fb.pow(self.t_bar, prev - exp))
            acc = (acc + sum_products(self.base.array(c), self.embed.T, fb.p, spare=1)) % fb.p
            prev = exp
        return fb.mul(acc, fb.pow(self.t_bar, prev)) if prev else acc

    def weights(self, D: int) -> np.ndarray:
        """(B, D*e, n) F_p-matrices, one per prime, whose row (j, k) holds
        the coordinates of T bar^j alpha^k, alpha^k the embedded F_q basis:
        the map from the F_q coefficients of a polynomial of degree < D to
        its residue.  Kept for the largest D asked so far; read-only."""
        fb, e = self.fb, self.base.n
        if self._weights.shape[1] < D * e:
            tpow = [fb.one()]
            for _ in range(1, D):
                tpow.append(fb.mul(tpow[-1], self.t_bar))
            w = fb.mul(np.stack(tpow, axis=1)[:, :, None], self.embed.T)
            self._weights = w.reshape(w.shape[0], D * e, fb.n)
        return self._weights[:, : D * e]

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., n) coordinates mod p of the polynomials with (..., D, e)
        F_q coefficient arrays, the constant first: one product with
        `weights(D)`.  A batch of one prime serves any number of
        polynomials."""
        D, e = coeffs.shape[-2], self.base.n
        flat = coeffs.reshape(coeffs.shape[:-2] + (1, D * e))
        return matmul_mod_p(flat, self.weights(D), self.fb.p)[..., 0, :]


@functools.cache
def _first_roots(base: Field, d: int) -> np.ndarray:
    """For e > 1, entry k is the first element of F_(q^d), in index order,
    whose characteristic polynomial over F_q, the product of X - x^(q^i) for
    i < d, has index k, or -1.  A prime of degree d is the characteristic
    polynomial of its roots and of nothing else, so its entry is the first
    root that the scan of `Field.first_root` finds.  One pass over the field in blocks of
    `_ROOT_BLOCK`, conjugates by the matrix of the q-power map."""
    fld = make_field(base.p, base.e, d)
    p, n, e = fld.p, fld.n, base.n
    fb = fld.batch()
    frob = PackedMatrix(fld.frobenius_matrix().T, p)
    rows, inv = pullback(fld.base_embedding(), p)
    index = p ** np.arange(d * e)
    table = np.full(base.q**d, -1, dtype=np.int64)
    for start in range(0, fld.order, _ROOT_BLOCK):
        ks = np.arange(start, min(start + _ROOT_BLOCK, fld.order), dtype=np.int64)
        x = _digits(ks, p, n).astype(fb.dtype)
        poly = fb.one((len(ks), 1))[0]
        for _ in range(d):
            prod = fb.mul(poly, x[:, None])
            poly = np.concatenate([-prod[:, :1], poly[:, :-1] - prod[:, 1:], poly[:, -1:]],
                                  axis=1) % p
            x = frob.rmul(x)
        keys = matmul_mod_p(poly[:, :d, rows], inv.T, p).reshape(len(ks), d * e) @ index
        uniq, first = np.unique(keys, return_index=True)
        fresh = table[uniq] < 0
        table[uniq[fresh]] = ks[first[fresh]]
    return table


def from_coordinates(base: Field, coords) -> SparsePoly:
    """The polynomial with these F_q coefficient coordinates (D rows of e,
    the constant first), given as a nested list."""
    terms = [(j, FieldElement(base, tuple(c))) for j, c in enumerate(coords) if any(c)]
    return SparsePoly(base, terms)


def coordinates(base: Field, polys: Iterable[SparsePoly], d: int) -> np.ndarray:
    """(B, d+1, e) F_q coefficient arrays of polynomials of degree <= d."""
    polys = list(polys)
    dtype = np.int64 if base.p < 1 << 63 else object  # Python ints past int64
    out = np.zeros((len(polys), d + 1, base.n), dtype=dtype)
    for b, f in enumerate(polys):
        for j, c in f.terms:
            out[b, j] = c.coords
    return out


# ---------------------------------------------------------------------------
# textual syntax: `T^3+2*T+1`, ascending or descending, canonical descending
# ---------------------------------------------------------------------------


class PolySyntaxError(ValueError):
    def __init__(self, token: str):
        super().__init__(f"malformed polynomial near {token!r}")
        self.token = token


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<var>T)(?:\s*\^\s*(?P<exp>\d+))?$|^(?P<const>\d+)$"
)


def parse_poly(text: str, base: Field) -> SparsePoly:
    """Read the syntax `format_poly` writes.  An integer coefficient is a
    residue mod p when q = p; when q > p it is the index of an F_q element
    (as `format_poly` writes it), and one >= q is refused."""
    s = text.strip()
    if not s:
        raise PolySyntaxError(text)
    s = s.replace("-", "+-")
    if s.startswith("+-"):
        s = s[1:]
    pairs = []
    for raw in s.split("+"):
        tok = raw.strip()
        if not tok:
            raise PolySyntaxError(raw)
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:].strip()
        m = _TERM_RE.match(tok)
        if not m:
            raise PolySyntaxError(tok)
        if m.group("const") is not None:
            exp, coeff = 0, int(m.group("const"))
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
            coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if base.n == 1:
            c = base.scalar(coeff)
        elif coeff < base.order:
            c = base.from_int(coeff)
        else:
            raise PolySyntaxError(tok)
        pairs.append((exp, -c if sign < 0 else c))
    return SparsePoly.from_pairs(base, pairs)


def format_poly(f: SparsePoly) -> str:
    """Canonical rendering: descending exponents, integer coefficients."""
    return format_terms(((e, c.to_int()) for e, c in reversed(f.terms)))


def format_field_element(x: FieldElement) -> str:
    """Residue-field elements rendered as polynomials in the field generator."""
    return format_terms(zip(range(len(x.coords) - 1, -1, -1), reversed(x.coords)))


def format_terms(terms: Iterable[tuple[int, int]]) -> str:
    """The rendering of `format_poly` from (exponent, coefficient index)
    pairs in descending exponent order; zero coefficients are skipped."""
    return "+".join([_term(e, ci) for e, ci in terms if ci]) or "0"


def format_rows(coeffs: np.ndarray, q: int) -> np.ndarray:
    """`format_terms` of each row of `coeffs`, an (N, d + 1) array of
    coefficient indices in ascending exponent order whose last column is
    nonzero (monic primes, say), as an object array of N strings: one
    gather per exponent from a table of its q `_term` strings."""
    d = coeffs.shape[1] - 1
    tables = _term_tables(d, q)
    names = tables[d][coeffs[:, d]]
    for e in range(d - 1, -1, -1):
        names = names + tables[e][coeffs[:, e]]
    return names


@functools.cache
def _term_tables(d: int, q: int) -> list[np.ndarray]:
    """Per exponent e <= d, the strings `format_rows` adds for coefficient
    index 0, ..., q - 1: "" for 0, else the `_term`, after a "+" below d."""
    return [np.array([""] + [("+" if e < d else "") + _term(e, c) for c in range(1, q)],
                     dtype=object) for e in range(d + 1)]


@functools.lru_cache(maxsize=1 << 12)
def _term(e: int, ci: int) -> str:
    """One nonzero term of `format_terms`, cached: a sweep writes the same
    few (exponent, coefficient) pairs for thousands of primes."""
    if e == 0:
        return str(ci)
    power = "T" if e == 1 else f"T^{e}"
    return power if ci == 1 else f"{ci}*{power}"
