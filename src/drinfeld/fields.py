"""Exact arithmetic in finite fields F_{p^(e*m)} with a power basis over F_p.

A field is described by its characteristic p, the degree e of the base
field F_q = F_{p^e}, the degree m of the extension over F_q, and a monic
irreducible modulus of degree e*m over F_p.  Elements are coordinate
tuples in the power basis of the modulus root.  All values are immutable
after construction; fields are cached so equal descriptions share one
object and its precomputed tables.

`make_field` picks the canonical modulus: the first monic irreducible in
the ascending coefficient-index order (constant coefficient varies
fastest), so every field of a given degree is reproducible without
external polynomial tables.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

_NUMPY_MUL_CUTOFF = 32  # coordinate length above which products go through numpy


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldError(ValueError):
    pass


class FieldElement:
    """Element of a `Field`, stored as a coordinate tuple over F_p."""

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field: "Field", coords: tuple[int, ...]):
        self.field = field
        self.coords = coords
        self._hash = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.coords))
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coords == other.coords
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        f = self.field
        f._check_owner(other)
        p = f.p
        return FieldElement(f, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        f = self.field
        f._check_owner(other)
        p = f.p
        return FieldElement(f, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            c = other % p
            return FieldElement(self.field, tuple((a * c) % p for a in self.coords))
        f = self.field
        f._check_owner(other)
        return f._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        f = self.field
        if k < 0:
            return f.inv(self) ** (-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return f.one if result is None else result

    def __repr__(self):
        return f"FieldElement({self.field!r}, {self.coords})"

    def to_int(self) -> int:
        """Index encoding: sum coords[i] * p^i."""
        n = 0
        for c in reversed(self.coords):
            n = n * self.field.p + c
        return n


class Field:
    """F_{p^(e*m)}: power-basis arithmetic over F_p plus Frobenius machinery."""

    def __init__(self, p: int, e: int, m: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if e < 1 or m < 1:
            raise FieldError("extension degrees must be >= 1")
        n = e * m
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree e*m")
        self.p = p
        self.e = e
        self.m = m
        self.n = n
        self.q = p**e
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self.order = p**n
        # rows[k] = coords of x^(n+k) mod modulus, k = 0 .. n-2
        self._red_rows = self._build_reduction_rows()
        self.zero = FieldElement(self, (0,) * n)
        one = (1,) + (0,) * (n - 1) if n > 1 else (1,)
        self.one = FieldElement(self, one)
        self.gen = FieldElement(self, tuple(1 if i == 1 else 0 for i in range(n))) if n > 1 else self.one
        self._batch = None          # this field as a FieldBatch
        self._frob_q = None          # numpy matrix of x -> x^q
        self._frob_q_pow: dict[int, np.ndarray] = {}
        self._frob_rows_py: dict[int, tuple] = {}
        self._base_gen = None        # embedded generator of F_q (e > 1)

    # -- construction helpers -------------------------------------------------

    def _build_reduction_rows(self):
        p, n = self.p, self.n
        rows = []
        # x^n = -(low part of modulus)
        cur = [(-c) % p for c in self.modulus[:n]]
        rows.append(tuple(cur))
        for _ in range(n - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(a + top * rows[0][i]) % p for i, a in enumerate(cur)]
            rows.append(tuple(cur))
        return tuple(rows)

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e}, m={self.m})"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def describe(self) -> dict:
        return {"p": self.p, "e": self.e, "m": self.m, "modulus": list(self.modulus)}

    def _check_owner(self, x):
        if not isinstance(x, FieldElement) or x.field is not self:
            raise FieldError("operands belong to different fields")

    # -- element constructors --------------------------------------------------

    def elem(self, coords: Iterable[int]) -> FieldElement:
        coords = tuple(c % self.p for c in coords)
        if len(coords) > self.n:
            coords = self._reduce(list(coords))
        elif len(coords) < self.n:
            coords = coords + (0,) * (self.n - len(coords))
        return FieldElement(self, coords)

    def from_int(self, k: int) -> FieldElement:
        """Inverse of FieldElement.to_int."""
        if not 0 <= k < self.order:
            raise FieldError("element index out of range")
        coords = []
        for _ in range(self.n):
            coords.append(k % self.p)
            k //= self.p
        return FieldElement(self, tuple(coords))

    def scalar(self, c: int) -> FieldElement:
        return self.elem((c,))

    def elements(self):
        """All field elements in index order.  Only for small fields."""
        for k in range(self.order):
            yield self.from_int(k)

    # -- core arithmetic -------------------------------------------------------

    def _reduce(self, prod: list[int]) -> tuple[int, ...]:
        p, n = self.p, self.n
        out = prod[:n] + [0] * (n - len(prod[:n]))
        for k, c in enumerate(prod[n:]):
            if c:
                row = self._red_rows[k]
                for i in range(n):
                    if row[i]:
                        out[i] = (out[i] + c * row[i]) % p
        return tuple(a % p for a in out)

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        n = self.n
        if n == 1:
            return FieldElement(self, ((a.coords[0] * b.coords[0]) % self.p,))
        if n > _NUMPY_MUL_CUTOFF:
            return self._mul_np(a, b)
        prod = [0] * (2 * n - 1)
        ac, bc = a.coords, b.coords
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    if bj:
                        prod[i + j] += ai * bj
        return FieldElement(self, self._reduce(prod))

    def _mul_np(self, a: FieldElement, b: FieldElement) -> FieldElement:
        batch = self.batch()
        prod = np.convolve(np.array(a.coords, dtype=batch.dtype), np.array(b.coords, dtype=batch.dtype))
        return FieldElement(self, tuple(int(c) for c in batch.reduce(prod[None] % self.p)[0]))

    def batch(self) -> "FieldBatch":
        """This field as a `FieldBatch` of one, exact for every p."""
        if self._batch is None:
            self._batch = FieldBatch(self.p, self.modulus, exact=True)
        return self._batch

    def inv(self, a: FieldElement) -> FieldElement:
        """Inverse by extended Euclid on coordinate polynomials."""
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        r0 = list(self.modulus)
        r1 = list(a.coords)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [0], [1]
        while True:
            deg1 = len(r1) - 1
            if deg1 == 0:
                c = pow(r1[0], p - 2, p)
                inv_coords = [(x * c) % p for x in s1]
                return self.elem(inv_coords)
            deg0 = len(r0) - 1
            if deg0 < deg1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            lead = (r0[-1] * pow(r1[-1], p - 2, p)) % p
            shift = deg0 - deg1
            for i, c in enumerate(r1):
                r0[i + shift] = (r0[i + shift] - lead * c) % p
            while len(r0) > 1 and not r0[-1]:
                r0.pop()
            s1_shifted = [0] * shift + s1
            ln = max(len(s0), len(s1_shifted))
            s0 = [
                ((s0[i] if i < len(s0) else 0) - lead * (s1_shifted[i] if i < len(s1_shifted) else 0)) % p
                for i in range(ln)
            ]
            r0, r1, s0, s1 = r1, r0, s1, s0

    # -- Frobenius -------------------------------------------------------------

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix of x -> x^q on the power basis (columns are images); for
        e = 1 the Berlekamp Q-matrix of the modulus."""
        if self._frob_q is None:
            self._frob_q = self.batch().frobenius_matrix(self.q)[0].astype(np.int64, copy=False)
        return self._frob_q

    def frobenius_power_matrix(self, k: int) -> np.ndarray:
        """Matrix of x -> x^(q^k), the k-th power of `frobenius_matrix`."""
        k %= self.m
        if k not in self._frob_q_pow:
            if k == 0:
                mat = np.eye(self.n, dtype=np.int64)
            else:
                from .linalg import matmul_mod_p

                mat = matmul_mod_p(self.frobenius_power_matrix(k - 1), self.frobenius_matrix(), self.p)
            self._frob_q_pow[k] = mat
        return self._frob_q_pow[k]

    def frobenius(self, x: FieldElement, k: int = 1) -> FieldElement:
        """x^(q^k).  The q-power map generates Gal(F_{q^m}/F_q), period m."""
        self._check_owner(x)
        k %= self.m
        if k == 0:
            return x
        if self.n <= 24:
            # python matvec beats numpy dispatch at these sizes
            rows = self._frob_rows_py.get(k)
            if rows is None:
                mat = self.frobenius_power_matrix(k)
                rows = tuple(tuple(int(v) for v in row) for row in mat)
                self._frob_rows_py[k] = rows
            p = self.p
            xc = x.coords
            return FieldElement(
                self, tuple(sum(r * c for r, c in zip(row, xc)) % p for row in rows)
            )
        mat = self.frobenius_power_matrix(k)
        coords = (mat @ np.array(x.coords, dtype=np.int64)) % self.p
        return FieldElement(self, tuple(int(c) for c in coords))

    def norm_to_base(self, x: FieldElement) -> FieldElement:
        """Norm from F_{q^m} down to F_q: product of the m Frobenius conjugates."""
        acc = self.one
        for k in range(self.m):
            acc = acc * self.frobenius(x, k)
        return acc

    # -- F_q subfield structure (e > 1) ----------------------------------------

    def base_generator(self) -> FieldElement:
        """Embedded generator of F_q: for e = 1 this is 1; otherwise the first
        root (in index order) of the canonical degree-e modulus inside the
        fixed field of the q-power Frobenius."""
        if self._base_gen is None:
            if self.e == 1:
                self._base_gen = self.one
            else:
                self._base_gen = self.first_root(
                    self.scalars(lex_smallest_irreducible(self.p, self.e)), self.subfield_basis(1)
                )
                if self._base_gen is None:
                    raise FieldError("no embedded F_q generator found")  # unreachable
        return self._base_gen

    def base_embedding(self) -> np.ndarray:
        """n x e matrix taking F_q coordinates (powers of the base generator)
        to power-basis coordinates: the embedding of F_q."""
        alpha = self.base_generator()
        cols = [self.one]
        for _ in range(self.e - 1):
            cols.append(cols[-1] * alpha)
        return np.array([c.coords for c in cols], dtype=np.int64).T

    def scalars(self, coeffs: Sequence[int]) -> np.ndarray:
        """Coordinate vectors of these F_p scalars, one row each."""
        out = np.zeros((len(coeffs), self.n), dtype=np.int64)
        out[:, 0] = [c % self.p for c in coeffs]
        return out

    def subfield_basis(self, d: int) -> np.ndarray:
        """Canonical F_p-basis, one row each, of the subfield fixed by the
        q^d-power map."""
        from . import linalg

        mat = (self.frobenius_power_matrix(d % self.m) - np.eye(self.n, dtype=np.int64)) % self.p
        return linalg.kernel_mod_p(mat, self.p)

    def first_root(self, coeffs: np.ndarray, basis: np.ndarray) -> FieldElement | None:
        """First root of a monic polynomial among the elements digits(k) @
        basis, k = 0, 1, ... (the identity basis gives every element in index
        order), or None.  `coeffs` holds the coefficients as coordinate
        vectors, the constant first.  Horner on numpy blocks of _ROOT_BLOCK
        consecutive k, stopping at the first block that holds a root."""
        p, count = self.p, self.p ** basis.shape[0]
        batch = self.batch()
        for start in range(0, count, _ROOT_BLOCK):
            ks = np.arange(start, min(start + _ROOT_BLOCK, count), dtype=np.int64)
            xs = (_digits(ks, p, basis.shape[0]) @ basis % p)[None]
            acc = (xs + coeffs[-2]) % p
            for c in coeffs[-3::-1]:
                acc = (batch.mul(acc, xs) + c) % p
            roots = np.flatnonzero(~acc[0].any(axis=-1))
            if roots.size:
                return FieldElement(self, tuple(int(c) for c in xs[0, roots[0]]))
        return None


_ROOT_BLOCK = 1 << 12  # elements per Horner pass of `Field.first_root`; bounds memory


class FieldBatch:
    """B fields F_p[x]/(f_b) of one degree n, operated on together.

    An element array has shape (B, ..., n): power-basis coordinates, row b
    living in field b.  A single modulus (B = 1) broadcasts over any batch.
    Every sum of products is reduced mod p after at most n terms, which the
    int64 guard of `linalg` is asked to allow.  With `exact`, a p that int64
    cannot hold is served on Python ints (object arrays) instead of refused.
    """

    def __init__(self, p: int, moduli, exact: bool = False):
        from .linalg import check_int64_range, int64_products

        n = np.shape(moduli)[-1] - 1
        if exact and int64_products(p) < n:
            self.dtype = object
        else:
            check_int64_range(p, n)
            self.dtype = np.int64
        moduli = np.atleast_2d(np.array(moduli, dtype=self.dtype)) % p
        self.p = p
        self.n = n
        self._red = (-moduli[:, None, :n]) % p  # x^n mod f; more rows on demand

    def red(self, k: int) -> np.ndarray:
        """(B, k, n) reduction rows, k <= n - 1: row j holds x^(n+j) mod f.
        Rows are built on first need: the Q-matrix of a large field needs
        only p of them."""
        have = self._red.shape[1]
        if k > have:
            red = np.zeros((self._red.shape[0], k, self.n), dtype=self.dtype)
            red[:, :have] = self._red
            for j in range(have, k):
                prev = red[:, j - 1]
                red[:, j, 1:] = prev[:, :-1]
                red[:, j] = (red[:, j] + prev[:, -1:] * red[:, 0]) % self.p
            self._red = red
        return self._red[:, :k]

    def one(self, shape=()) -> np.ndarray:
        out = np.zeros((self._red.shape[0], *shape, self.n), dtype=self.dtype)
        out[..., 0] = 1
        return out

    def reduce(self, prod: np.ndarray) -> np.ndarray:
        """Coefficient arrays of length <= 2n-1 with entries < p, mod f."""
        n = self.n
        low = prod[..., :n]
        high = prod[..., n:]
        if high.shape[-1]:
            flat = high.reshape(high.shape[0], -1, high.shape[-1])
            folded = flat @ self.red(high.shape[-1])
            low = low + folded.reshape(high.shape[:-1] + (n,))
        return low % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable element arrays."""
        n = self.n
        if n == 1:
            return a * b % self.p
        shape = np.broadcast_shapes(a.shape, b.shape)
        prod = np.zeros(shape[:-1] + (2 * n - 1,), dtype=self.dtype)
        for i in range(n):
            prod[..., i : i + n] += a[..., i : i + 1] * b
        prod %= self.p
        return self.reduce(prod)

    def pow(self, a: np.ndarray, k: int) -> np.ndarray:
        result = np.zeros_like(a)
        result[..., 0] = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Inverse by Fermat, a^(p^n - 2); zero maps to zero."""
        return self.pow(a, self.p**self.n - 2)

    def mul_matrix(self, a: np.ndarray) -> np.ndarray:
        """(B, ..., n, n) matrices of multiplication by a: column j holds
        a x^j."""
        if self.n == 1:
            return a[..., None]
        red0 = self.red(1)[:, 0].reshape((-1,) + (1,) * (a.ndim - 2) + (self.n,))
        out = np.empty(a.shape + (self.n,), dtype=np.result_type(a, red0))
        out[..., 0] = a
        for j in range(1, self.n):
            prev = out[..., j - 1]
            cur = prev[..., -1:] * red0
            cur[..., 1:] += prev[..., :-1]
            out[..., j] = cur % self.p
        return out

    def frobenius_matrix(self, q: int) -> np.ndarray:
        """(B, n, n) matrices of x -> x^q: column j holds x^(q j).  For q < n
        (Berlekamp's Q-matrix when q = p) each column is the one before
        shifted by q and folded through q reduction rows; otherwise it is
        the one before times x^q, found by repeated squaring."""
        n, p = self.n, self.p
        cols = np.zeros((self._red.shape[0], n, n), dtype=self.dtype)  # [:, j]: x^(q j)
        cols[:, 0, 0] = 1
        if q < n:
            fold = self.red(q)
            for j in range(1, n):
                prev, col = cols[:, j - 1], cols[:, j]
                np.matmul(prev[:, None, n - q :], fold, out=col[:, None])
                col[:, q:] += prev[:, : n - q]
                col %= p
        elif n > 1:
            x = np.zeros_like(cols[:, 0])
            x[:, 1] = 1
            xq = self.pow(x, q)
            for j in range(1, n):
                cols[:, j] = self.mul(cols[:, j - 1], xq)
        return cols.swapaxes(1, 2)

    def apply(self, mats: np.ndarray, a: np.ndarray) -> np.ndarray:
        """F_p-linear maps (B, n, n) applied to every element of a."""
        flat = a.reshape(a.shape[0], -1, self.n)
        return (flat @ mats.transpose(0, 2, 1) % self.p).reshape(a.shape)


@functools.lru_cache(maxsize=None)
def lex_smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p in ascending index order
    (index = sum c_i p^i over the non-leading coefficients).

    The first p candidates are the binomials x^n + c, decided in closed form
    (`_binomial_irreducible`): either one of them is the answer, or none is
    and the scan starts at index p.  Candidates come in blocks of p^s that
    share every digit above the low s.  `_sieve` drops each candidate with a
    monic divisor of degree <= depth; when that covers every degree up to
    n/2 the first survivor is the answer, otherwise the survivors take
    Rabin's test in index order.
    """
    if n == 1:
        return (0, 1)
    if all((p - 1) % t == 0 for t in _prime_divisors(n)) and (n % 4 or p % 4 == 1):
        # a generator of F_p^* is -c for an irreducible x^n + c, so this ends
        c = next(c for c in range(1, p) if _binomial_irreducible(p, n, c))
        return (c,) + (0,) * (n - 1) + (1,)
    s = min(n, _sieve_digits(p))
    depth = min(n // 2, s)
    for start in range(p if s <= 1 else 0, p**n, p**s):
        alive = _sieve(p, n, start, s, depth)
        if start == 0:
            alive[:p] = False  # the binomials, all reducible
        for k in np.flatnonzero(alive):
            f = _int_digits(start + int(k), p, n) + (1,)
            if depth == n // 2 or _rabin(f, p, depth):
                return f
    raise FieldError("no irreducible polynomial found")  # unreachable


def _binomial_irreducible(p: int, n: int, c: int) -> bool:
    """Whether x^n + c is irreducible over F_p, n >= 2, in closed form
    (Lidl-Niederreiter, *Finite Fields*, Thm 3.75): with a = -c != 0, iff for
    each prime t | n, t | p - 1 and a is not a t-th power, a^((p-1)/t) != 1,
    and p = 1 mod 4 if 4 | n.  A prime t that does not divide p - 1 makes
    every a a t-th power, and every binomial reducible."""
    a = -c % p
    if a == 0 or (n % 4 == 0 and p % 4 != 1):
        return False
    return all((p - 1) % t == 0 and pow(a, (p - 1) // t, p) != 1 for t in _prime_divisors(n))


_SIEVE_SIZE = 1 << 14  # candidates per sieve block; also bounds p^d for divisor degrees d


def _sieve_digits(p: int) -> int:
    """The largest s with p^s <= _SIEVE_SIZE: the low digits a sieve block
    varies, and the largest divisor degree the sieve lists."""
    s = 0
    while p ** (s + 1) <= _SIEVE_SIZE:
        s += 1
    return s


@functools.lru_cache(maxsize=None)
def _irreducibles(p: int, d: int) -> np.ndarray:
    """Low coefficients of every monic irreducible of degree d over F_p, one
    row each, in index order (p^d <= _SIEVE_SIZE): the survivors of one
    sieve block over all p^d candidates with divisors of degree <= d/2."""
    out = _digits(np.flatnonzero(_sieve(p, d, 0, d, d // 2)), p, d)
    out.flags.writeable = False
    return out


def _sieve(p: int, n: int, start: int, s: int, depth: int) -> np.ndarray:
    """Mask of the p^s monic candidates of degree n from index `start` (a
    multiple of p^s) that no monic polynomial of degree <= depth divides
    (depth <= s).

    f mod g is F_p-linear in the coefficients of f.  For every irreducible g
    of degree d, Horner over x^n and the block's fixed high digits gives
    r = (x^n + high part) mod g, for all g of degree d at once as an
    (N_d, d) array; the zero digits above the top nonzero one are a single
    power of x, by square and multiply in F_p[x]/(g).  Each choice of the digits d .. s-1 adds a combination
    of x^i mod g; the candidate divisible by g is then the one whose low d
    digits are -r, so each (g, digits d .. s-1) crosses out exactly one
    candidate and no candidate is ever tested against a divisor.
    """
    alive = np.ones(p**s, dtype=bool)
    high = _int_digits(start // p**s, p, n - s)
    top = max((i + 1 for i, c in enumerate(high) if c), default=0)  # high[top:] are 0
    for d in range(1, depth + 1):
        gs = _irreducibles(p, d)
        neg = (-gs) % p  # x^d = neg mod g, one row per g
        ring = FieldBatch(p, np.hstack([gs, np.ones((gs.shape[0], 1), dtype=np.int64)]))

        def times_x(r):
            out = r[..., -1:] * neg
            out[..., 1:] += r[..., :-1]
            return out % p

        r = ring.one()  # x^(n-s-top), then Horner over high[:top]
        for bit in format(n - s - top, "b"):
            r = ring.mul(r, r)
            if bit == "1":
                r = times_x(r)
        for c in reversed(high[:top]):
            r = times_x(r)
            if c:
                r[:, 0] = (r[:, 0] + c) % p
        for _ in range(s):
            r = times_x(r)
        r = r[None]
        xi = neg  # x^i mod g for i = d .. s-1
        for _ in range(d, s):
            r = (np.arange(p)[:, None, None, None] * xi + r) % p
            r = r.reshape(-1, *neg.shape)  # digits d .. i, the highest first
            xi = times_x(xi)
        low = (-r) % p @ p ** np.arange(d)
        alive[low + p**d * np.arange(low.shape[0])[:, None]] = False
    return alive


def _rabin(f: Sequence[int], p: int, depth: int = 0) -> bool:
    """Rabin's test (Rabin 1980) on the Berlekamp matrix Q of f, whose
    column j is x^(pj) mod f, so that x^(p^k) = Q^k x: f is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1 for each prime t | n.
    The gcd is skipped where n/t <= depth: the caller vouches that f has no
    factor of degree <= depth.

    The n steps u <- Q u are the row products u Q^T % p on Q^T packed once
    (`linalg.PackedMatrix`): at p = 5, n = 248, five columns share an int64.
    Exact for every p: a p too large for two lanes, or for int64 at all
    (`FieldBatch` exact, Python ints), takes the plain product."""
    from .linalg import PackedMatrix

    n = len(f) - 1
    if n == 1:
        return True
    Q = FieldBatch(p, f, exact=True).frobenius_matrix(p)[0]
    step = PackedMatrix(Q.T, p)
    x = np.zeros(n, dtype=Q.dtype)
    x[1] = 1
    checkpoints = {n // t for t in _prime_divisors(n) if n // t > depth}
    u, seen = x, []
    for k in range(1, n + 1):
        u = step.rmul(u)
        if k in checkpoints:
            seen.append((u - x) % p)
    # most reducible f fail here, before any gcd is paid for
    return not ((u - x) % p).any() and all(_gcd_is_unit(f, h, p) for h in seen)


def _gcd_is_unit(f: Sequence[int], h: np.ndarray, p: int) -> bool:
    """True iff gcd(f, h) = 1, with the Euclid inner loop on numpy vectors."""
    a = np.array(f, dtype=h.dtype) % p
    b = h
    while True:
        while b.size and b[-1] == 0:
            b = b[:-1]
        if b.size == 0:
            return a.size == 1  # gcd = trimmed a, unit iff constant
        if b.size == 1:
            return True
        while a.size and a[-1] == 0:
            a = a[:-1]
        if a.size < b.size:
            a, b = b, a
            continue
        lead = (a[-1] * pow(int(b[-1]), p - 2, p)) % p
        shift = a.size - b.size
        a = a.copy()
        a[shift:] = (a[shift:] - lead * b) % p
        a, b = b, a


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _int_digits(k: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of the Python int k, least significant first."""
    out = []
    for _ in range(n):
        k, c = divmod(k, p)
        out.append(c)
    return tuple(out)


def _digits(ks: np.ndarray, p: int, n: int) -> np.ndarray:
    """The n base-p digits of each index in ks, least significant first:
    the F_p coordinates of the elements (or polynomials) with these indices.
    Digit by digit, so no power of p beyond the indices is ever formed."""
    out = np.empty((ks.size, n), dtype=np.int64)
    for j in range(n):
        out[:, j] = ks % p
        ks = ks // p
    return out


@functools.lru_cache(maxsize=None)
def make_field(p: int, e: int, m: int) -> Field:
    """The canonical F_{q^m}, q = p^e: modulus is the first monic irreducible
    of degree e*m over F_p in ascending index order."""
    if not is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if e < 1 or m < 1:
        raise FieldError("extension degrees must be >= 1")
    modulus = lex_smallest_irreducible(p, e * m)
    return Field(p, e, m, modulus)


def field_with_modulus(p: int, e: int, m: int, modulus: Sequence[int], validate: bool = True) -> Field:
    """Field on an explicitly chosen monic irreducible modulus (used by
    residue fields, whose generator must be a root of the defining prime)."""
    fld = Field(p, e, m, tuple(c % p for c in modulus))
    if validate and not _rabin(fld.modulus, p):
        raise FieldError("modulus is not irreducible")
    return fld
