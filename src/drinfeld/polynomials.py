"""The polynomial ring A = F_q[T], its primes, residue fields and valuations.

Polynomials are sparse: a sorted tuple of (exponent, coefficient) pairs with
nonzero field coefficients.  Exponents routinely reach 10^5 and beyond, so
nothing here ever materializes a dense coefficient array.

Places of F_q(T) are either a finite place, carried by a monic irreducible
generator, or the place at infinity with v(f) = deg(den) - deg(num).
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

import numpy as np

from .fields import _ROOT_BLOCK, Field, FieldBatch, FieldElement, _digits, field_with_modulus, make_field
from .linalg import check_int64_range, pullback


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

    def constant(self) -> FieldElement:
        return self.coeff(0)

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
        result = SparsePoly.one(self.base)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "SparsePoly") -> "SparsePoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def eval_in(self, target: Field, t_image: FieldElement, embed=None) -> FieldElement:
        """Evaluate at T = t_image inside `target`.

        `embed` maps base-field coefficients into `target`; defaults to the
        scalar embedding, valid when e = 1 or base is the prime field.
        """
        if embed is None:
            if self.base.n != 1:
                raise ValueError("need an explicit embedding for non-prime coefficient fields")
            embed = lambda c: target.scalar(c.coords[0])
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

    def qpower_root(self, k: int = 1) -> "SparsePoly":
        """Exact q^k-th root: defined when every exponent is divisible by q^k
        (coefficients are q-power fixed).  Raises ValueError otherwise."""
        step = self.base.q**k
        out = []
        for e, c in self.terms:
            if e % step:
                raise ValueError("polynomial is not a q-power")
            out.append((e // step, c))
        return SparsePoly(self.base, out)

    def dense_coeffs(self) -> list[int]:
        """Ascending coefficient indices; only for small degrees."""
        if self.degree > 10**4:
            raise ValueError("refusing to densify a large sparse polynomial")
        out = [0] * (self.degree + 1)
        for e, c in self.terms:
            out[e] = c.to_int()
        return out

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

    @property
    def degree(self) -> int:
        return 1 if self.prime is None else self.prime.degree

    def __eq__(self, other):
        return isinstance(other, Place) and (
            (self.prime is None and other.prime is None) or self.prime == other.prime
        )

    def __hash__(self):
        return hash(None if self.prime is None else self.prime)

    def __repr__(self):
        return "Place(inf)" if self.is_infinite else f"Place({format_poly(self.prime)})"


class RationalFn:
    """Element of F_q(T) as a reduced numerator / monic denominator pair."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
        else:
            den = SparsePoly.one(num.base)
        lead_inv = den.base.inv(den.lead)
        self.num = num * lead_inv
        self.den = den * lead_inv

    @classmethod
    def of(cls, poly: SparsePoly) -> "RationalFn":
        return cls(poly, SparsePoly.one(poly.base))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return isinstance(other, RationalFn) and self.num == other.num and self.den == other.den

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __repr__(self):
        if self.den == SparsePoly.one(self.den.base):
            return f"RationalFn({format_poly(self.num)})"
        return f"RationalFn(({format_poly(self.num)})/({format_poly(self.den)}))"


INF = float("inf")


def poly_valuation(f: SparsePoly, v: Place):
    """Valuation of a polynomial at a place; +inf for f = 0."""
    if not f:
        return INF
    if v.is_infinite:
        return -f.degree
    g = v.prime
    if g.degree == 1 and g.terms[0][0] == 1 and len(g.terms) == 1:
        # fast path at (T): smallest exponent
        return f.terms[0][0]
    count = 0
    while True:
        q, r = f.divmod(g)
        if r:
            return count
        count += 1
        f = q


def valuation(f: SparsePoly | RationalFn, v: Place):
    """Valuation on F_q(T): multiplicative, v_inf = deg(den) - deg(num)."""
    if isinstance(f, SparsePoly):
        return poly_valuation(f, v)
    if not f.num:
        return INF
    return poly_valuation(f.num, v) - poly_valuation(f.den, v)


# ---------------------------------------------------------------------------
# irreducibility and prime enumeration over F_q
# ---------------------------------------------------------------------------


_IRRED_CACHE: dict[SparsePoly, bool] = {}


def is_irreducible(f: SparsePoly) -> bool:
    """Distinct-degree criterion via gcd(T^(q^k) - T, f) for k <= deg/2.
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
    q = f.base.q
    # T^(q^k) mod f, iterated k = 1..d
    t = SparsePoly.T(f.base)
    u = _powmod(t, q, f)
    cur = u
    for k in range(1, d // 2 + 1):
        if k > 1:
            cur = _compose_mod(cur, u, f)
        g = f.gcd(cur - t)
        if g.degree > 0:
            return False
    return True


def _powmod(a: SparsePoly, e: int, f: SparsePoly) -> SparsePoly:
    result = SparsePoly.one(a.base)
    base = a % f
    while e:
        if e & 1:
            result = (result * base) % f
        e >>= 1
        if e:
            base = (base * base) % f
    return result


def _compose_mod(g: SparsePoly, h: SparsePoly, f: SparsePoly) -> SparsePoly:
    """g(h) mod f by Horner over g's dense coefficients (small degrees)."""
    base = g.base
    acc = SparsePoly.zero(base)
    for i in range(g.degree, -1, -1):
        acc = (acc * h) % f
        c = g.coeff(i)
        if c:
            acc = acc + SparsePoly(base, [(0, c)])
    return acc


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q (Moebius sum)."""
    total = 0
    for k in _divisors(d):
        total += _moebius(k) * q ** (d // k)
    return total // d


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def _moebius(n):
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


_PRIME_CACHE: dict[tuple[int, int], list[SparsePoly]] = {}
_PRIME_COORDS: dict[tuple[int, int], np.ndarray] = {}


def primes_of_degree(base: Field, d: int) -> list[SparsePoly]:
    """All monic irreducibles of degree d over F_q, ordered by ascending
    coefficient index (constant coefficient varies fastest).

    Results are cached per field; treat the returned list as read-only.
    The first call also records each prime as irreducible for
    `is_irreducible`.
    """
    key = (id(base), d)
    if key not in _PRIME_CACHE:
        out = [from_coordinates(base, row) for row in prime_coordinates(base, d).tolist()]
        for f in out:
            _IRRED_CACHE[f] = True
        _PRIME_CACHE[key] = out
    return _PRIME_CACHE[key]


def prime_coordinates(base: Field, d: int) -> np.ndarray:
    """The primes of `primes_of_degree`, in the same order, as one read-only
    (N, d+1, e) array: row k holds the F_q coordinates of the coefficients
    of prime k, the constant first.  Builds no `SparsePoly`."""
    key = (id(base), d)
    if key not in _PRIME_COORDS:
        coords = _primes_of_degree_np(base, d)
        coords.flags.writeable = False
        _PRIME_COORDS[key] = coords
    return _PRIME_COORDS[key]


def _primes_of_degree_np(base: Field, d: int) -> np.ndarray:
    """Vectorized sieve over F_p: a monic degree-d poly is irreducible iff no
    monic irreducible of degree <= d/2 divides it.  Remainders under a fixed
    divisor are F_q-linear, hence F_p-linear, in the coefficient vector, so
    each divisor knocks out its multiples with one matrix product over all
    candidates.

    A candidate is a row of F_p digits: coefficient i of T^i is the F_q
    element whose e coordinates are digits i*e .. i*e+e-1.  Row k holds the
    base-p digits of k, so candidate k is the polynomial of index k and the
    primes come out in index order.
    """
    if d < 1:
        raise PrimeError("degree must be >= 1")
    p, e = base.p, base.n
    count = base.q**d
    coeffs = np.zeros((count, (d + 1) * e), dtype=np.int64)
    coeffs[:, : d * e] = _digits(np.arange(count, dtype=np.int64), p, d * e)
    coeffs[:, d * e] = 1  # monic: the leading coefficient is 1 of F_q
    alive = np.ones(count, dtype=bool)
    for deg_g in range(1, d // 2 + 1):
        for g in primes_of_degree(base, deg_g):
            rem = coeffs @ _reduction_matrix(g, d + 1).T % p
            alive &= rem.any(axis=1)
    return coeffs[alive].reshape(-1, d + 1, e)


def _reduction_matrix(g: SparsePoly, ncols: int) -> np.ndarray:
    """F_p matrix R with coords(f mod g) = R @ coords(f) for deg f < ncols,
    coordinates taken e per F_q coefficient.  Column block i is T^i mod g,
    each F_q entry expanded to the e x e matrix of multiplication by it
    (for e = 1, the entry itself)."""
    base, dg = g.base, g.degree
    low = [g.coeff(i) for i in range(dg)]
    cols = []
    for i in range(ncols):
        if i < dg:
            cur = [base.one if j == i else base.zero for j in range(dg)]
        else:
            top = cur[-1]
            cur = [a - top * c for a, c in zip([base.zero] + cur[:-1], low)]
        cols.append([c.coords for c in cur])
    entries = np.array(cols, dtype=np.int64).transpose(1, 0, 2)  # (dg, ncols, e)
    blocks = base.batch().mul_matrix(entries[None])[0]  # (dg, ncols, e, e)
    return blocks.transpose(0, 2, 1, 3).reshape(dg * base.n, ncols * base.n)


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


class ResidueField:
    """F_l = A/(l) with the reduction map A -> F_l, T |-> fixed root of l."""

    def __init__(self, field: Field, t_image: FieldElement, prime: SparsePoly, embed):
        self.field = field
        self.t_image = t_image
        self.prime = prime
        self._embed = embed

    def reduce(self, f: SparsePoly) -> FieldElement:
        return f.eval_in(self.field, self.t_image, self._embed)

    def embed_base(self, c: FieldElement) -> FieldElement:
        return self._embed(c)


_RESIDUE_CACHE: dict[SparsePoly, ResidueField] = {}


def residue_field(prime: SparsePoly) -> ResidueField:
    """Residue field at a monic irreducible prime of A.

    For prime q (e = 1) the field simply uses the prime itself as modulus, so
    T bar is the power-basis generator.  For e > 1 the field is the canonical
    F_{p^(e*d)} (`make_field`), F_q sits in it by `Field.base_embedding`, and
    T bar is the first root of the prime in index order, found by the numpy
    Horner scan of `Field.first_root`.  Instances are cached per prime.
    """
    if prime in _RESIDUE_CACHE:
        return _RESIDUE_CACHE[prime]
    rf = _residue_field(prime)
    _RESIDUE_CACHE[prime] = rf
    return rf


def _residue_field(prime: SparsePoly) -> ResidueField:
    base = prime.base
    if not prime.is_monic() or not is_irreducible(prime):
        raise PrimeError("residue fields require a monic irreducible generator")
    d = prime.degree
    if base.n == 1:
        if d == 1:
            fld = make_field(base.p, 1, 1)
            c = prime.coeff(0)
            t_img = fld.scalar(-c.to_int())
        else:
            fld = field_with_modulus(base.p, 1, d, prime.dense_coeffs(), validate=False)
            t_img = fld.gen
        pad = (0,) * (fld.n - 1)
        embed = lambda c: FieldElement(fld, c.coords + pad)  # F_p: coords are residues
        return ResidueField(fld, t_img, prime, embed)
    # e > 1: canonical field, F_q embedded by its n x e matrix
    fld = make_field(base.p, base.e, d)
    emb = fld.base_embedding()
    rows = tuple(tuple(int(v) for v in row) for row in emb)
    p = fld.p

    def embed(c: FieldElement) -> FieldElement:
        cs = c.coords
        return FieldElement(fld, tuple(sum(a * x for a, x in zip(row, cs)) % p for row in rows))

    return ResidueField(fld, _first_root(fld, prime, emb), prime, embed)


def _first_root(fld: Field, prime: SparsePoly, emb: np.ndarray) -> FieldElement:
    """The first root of `prime` among the elements of `fld` in index order."""
    coeffs = np.array([prime.coeff(i).coords for i in range(prime.degree + 1)]) @ emb.T % fld.p
    root = fld.first_root(coeffs, np.eye(fld.n, dtype=np.int64))
    if root is None:
        raise PrimeError("prime has no root in its residue field")  # unreachable
    return root


class ResidueBatch:
    """The residue fields A/(p) at primes p of one degree d, operated on
    together, with the reduction maps of `residue_field`: the same power
    bases and the same image T bar of T, so coordinates agree with the
    scalar route.  `primes` is a (B, d+1, e) array as `prime_coordinates`
    gives; no `Field` is built per prime.

    For e = 1 the moduli are the primes themselves and T bar is the
    generator x (for d = 1, the residue -c of T + c).  For e > 1 every prime
    shares the canonical F_(q^d), and T bar is its first root in index order,
    read off the table `_first_roots` that one pass over the field fills for
    the whole degree."""

    def __init__(self, base: Field, primes: np.ndarray):
        p, e = base.p, base.n
        B, d = primes.shape[0], primes.shape[1] - 1
        self.base, self.primes, self.degree = base, primes, d
        if e == 1:
            self.fb = FieldBatch(p, primes[:, :, 0])
            self.embed = np.eye(d, 1, dtype=np.int64)
            self.t_bar = np.zeros((B, d), dtype=np.int64)
            if d == 1:
                self.t_bar[:, 0] = -primes[:, 0, 0] % p
            else:
                self.t_bar[:, 1] = 1
        else:
            fld = make_field(p, e, d)
            self.fb = FieldBatch(p, np.broadcast_to(fld.modulus, (B, d * e + 1)))
            self.embed = fld.base_embedding()
            roots = _first_roots(base, d)[primes[:, :d].reshape(B, d * e) @ p ** np.arange(d * e)]
            if (roots < 0).any():
                raise PrimeError("prime has no root in its residue field")  # unreachable
            self.t_bar = _digits(roots, p, d * e)
        self._weights = np.zeros((B, 0, self.fb.n), dtype=np.int64)

    def reduce(self, f: SparsePoly) -> np.ndarray:
        """(B, n) coordinates of f mod p: Horner over the sparse terms, each
        gap between exponents bridged by a power of T bar."""
        fb = self.fb
        acc = np.zeros_like(self.t_bar)
        prev = None
        for exp, c in reversed(f.terms):
            if prev is not None:
                acc = fb.mul(acc, fb.pow(self.t_bar, prev - exp))
            acc = (acc + self.embed @ np.array(c.coords, dtype=np.int64)) % fb.p
            prev = exp
        return fb.mul(acc, fb.pow(self.t_bar, prev)) if prev else acc

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., n) coordinates mod p of the polynomials with (..., D, e)
        F_q coefficient arrays, the constant first: one product with the
        F_p-matrix whose row (j, k) holds T bar^j alpha^k, alpha^k the
        embedded F_q basis.  A batch of one prime serves any number of
        polynomials."""
        fb, e = self.fb, self.base.n
        D = coeffs.shape[-2]
        if self._weights.shape[1] < D * e:
            tpow = [fb.one()]
            for _ in range(1, D):
                tpow.append(fb.mul(tpow[-1], self.t_bar))
            w = fb.mul(np.stack(tpow, axis=1)[:, :, None], self.embed.T)
            self._weights = w.reshape(w.shape[0], D * e, fb.n)
        check_int64_range(fb.p, D * e)
        flat = coeffs.reshape(coeffs.shape[:-2] + (1, D * e))
        return (flat @ self._weights[:, : D * e])[..., 0, :] % fb.p


_ROOTS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _first_roots(base: Field, d: int) -> np.ndarray:
    """For e > 1, entry k is the first element of F_(q^d), in index order,
    whose characteristic polynomial over F_q, the product of X - x^(q^i) for
    i < d, has index k, or -1.  A prime of degree d is the characteristic
    polynomial of its roots and of nothing else, so its entry is the first
    root that `_first_root` finds.  One pass over the field in blocks of
    `_ROOT_BLOCK`, conjugates by the matrix of the q-power map."""
    key = (id(base), d)
    if key not in _ROOTS_CACHE:
        fld = make_field(base.p, base.e, d)
        p, n, e = fld.p, fld.n, base.n
        fb = fld.batch()
        frob = fld.frobenius_matrix().T
        rows, inv = pullback(fld.base_embedding(), p)
        index = p ** np.arange(d * e)
        table = np.full(base.q**d, -1, dtype=np.int64)
        for start in range(0, fld.order, _ROOT_BLOCK):
            ks = np.arange(start, min(start + _ROOT_BLOCK, fld.order), dtype=np.int64)
            x = _digits(ks, p, n)
            poly = fb.one((len(ks), 1))[0]
            for _ in range(d):
                prod = fb.mul(poly, x[:, None])
                poly = np.concatenate([-prod[:, :1], poly[:, :-1] - prod[:, 1:], poly[:, -1:]],
                                      axis=1) % p
                x = x @ frob % p
            keys = (poly[:, :d, rows] @ inv.T % p).reshape(len(ks), d * e) @ index
            uniq, first = np.unique(keys, return_index=True)
            fresh = table[uniq] < 0
            table[uniq[fresh]] = ks[first[fresh]]
        _ROOTS_CACHE[key] = table
    return _ROOTS_CACHE[key]


def from_coordinates(base: Field, coords) -> SparsePoly:
    """The polynomial with these F_q coefficient coordinates (D rows of e,
    the constant first), given as a nested list."""
    terms = [(j, FieldElement(base, tuple(c))) for j, c in enumerate(coords) if any(c)]
    return SparsePoly(base, terms)


def coordinates(base: Field, polys: Iterable[SparsePoly], d: int) -> np.ndarray:
    """(B, d+1, e) F_q coefficient arrays of polynomials of degree <= d."""
    polys = list(polys)
    out = np.zeros((len(polys), d + 1, base.n), dtype=np.int64)
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


def format_poly(f: SparsePoly, var: str = "T") -> str:
    """Canonical rendering: descending exponents, integer coefficients."""
    if not f:
        return "0"
    parts = []
    for e, c in reversed(f.terms):
        ci = c.to_int()
        if e == 0:
            parts.append(str(ci))
        elif e == 1:
            parts.append(var if ci == 1 else f"{ci}*{var}")
        else:
            parts.append(f"{var}^{e}" if ci == 1 else f"{ci}*{var}^{e}")
    return "+".join(parts)


def format_field_element(x: FieldElement, var: str = "T") -> str:
    """Residue-field elements rendered as polynomials in the field generator."""
    if not x:
        return "0"
    parts = []
    for i in range(len(x.coords) - 1, -1, -1):
        ci = x.coords[i]
        if not ci:
            continue
        if i == 0:
            parts.append(str(ci))
        elif i == 1:
            parts.append(var if ci == 1 else f"{ci}*{var}")
        else:
            parts.append(f"{var}^{i}" if ci == 1 else f"{ci}*{var}^{i}")
    return "+".join(parts)
