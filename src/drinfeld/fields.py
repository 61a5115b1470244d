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
        self._np_red = None
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
        p, n = self.p, self.n
        prod = np.convolve(np.array(a.coords, dtype=np.int64), np.array(b.coords, dtype=np.int64))
        prod %= p
        if self._np_red is None:
            self._np_red = np.array(self._red_rows, dtype=np.int64)
        low = prod[:n].copy()
        high = prod[n:]
        if high.size:
            low += high @ self._np_red[: high.size]
            low %= p
        return FieldElement(self, tuple(int(c) for c in low))

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

    def div(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return a * self.inv(b)

    # -- Frobenius -------------------------------------------------------------

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix of x -> x^q on the power basis (columns are images)."""
        if self._frob_q is None:
            xq = self.gen**self.q
            cols = [self.one.coords]
            cur = self.one
            for _ in range(self.n - 1):
                cur = cur * xq
                cols.append(cur.coords)
            self._frob_q = np.array(cols, dtype=np.int64).T % self.p
        return self._frob_q

    def frobenius_power_matrix(self, k: int) -> np.ndarray:
        k %= self.m
        if k not in self._frob_q_pow:
            if k == 0:
                mat = np.eye(self.n, dtype=np.int64)
            else:
                mat = (self.frobenius_power_matrix(k - 1) @ self.frobenius_matrix()) % self.p
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

    def qth_root(self, x: FieldElement) -> FieldElement:
        """Inverse of the q-power map: x^(q^(m-1))."""
        return self.frobenius(x, self.m - 1)

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
        if self._base_gen is not None:
            return self._base_gen
        if self.e == 1:
            self._base_gen = self.one
            return self._base_gen
        base_mod = lex_smallest_irreducible(self.p, self.e)
        for x in self._subfield_elements(1):
            acc = self.zero
            for c in reversed(base_mod):
                acc = acc * x + self.scalar(c)
            if not acc:
                self._base_gen = x
                return x
        raise FieldError("no embedded F_q generator found")  # unreachable

    def base_embedding(self) -> np.ndarray:
        """n x e matrix taking F_q coordinates (powers of the base generator)
        to power-basis coordinates: the embedding of F_q."""
        alpha = self.base_generator()
        cols = [self.one]
        for _ in range(self.e - 1):
            cols.append(cols[-1] * alpha)
        return np.array([c.coords for c in cols], dtype=np.int64).T

    def _subfield_elements(self, d: int):
        """Elements of the subfield fixed by the q^d-power map, index order."""
        from . import linalg

        mat = (self.frobenius_power_matrix(d % self.m) - np.eye(self.n, dtype=np.int64)) % self.p
        basis = linalg.kernel_mod_p(mat, self.p)
        k = basis.shape[0]
        for idx in range(self.p**k):
            digits = []
            t = idx
            for _ in range(k):
                digits.append(t % self.p)
                t //= self.p
            coords = (np.array(digits, dtype=np.int64) @ basis) % self.p
            yield FieldElement(self, tuple(int(c) for c in coords))


class FieldBatch:
    """B fields F_p[x]/(f_b) of one degree n, operated on together.

    An element array has shape (B, ..., n): power-basis coordinates, row b
    living in field b.  A single modulus (B = 1) broadcasts over any batch.
    Every sum of products is reduced mod p after at most n terms, which the
    int64 guard of `linalg` is asked to allow.
    """

    def __init__(self, p: int, moduli: np.ndarray):
        from .linalg import check_int64_range

        moduli = np.atleast_2d(np.asarray(moduli, dtype=np.int64)) % p
        n = moduli.shape[1] - 1
        check_int64_range(p, n)
        self.p = p
        self.n = n
        # red[:, k] = x^(n+k) mod f, k = 0 .. n-2
        red = np.zeros((moduli.shape[0], max(n - 1, 0), n), dtype=np.int64)
        if n > 1:
            red[:, 0] = (-moduli[:, :n]) % p
            for k in range(1, n - 1):
                prev = red[:, k - 1]
                red[:, k, 1:] = prev[:, :-1]
                red[:, k] = (red[:, k] + prev[:, -1:] * red[:, 0]) % p
        self.red = red

    @classmethod
    def of(cls, fields: Sequence[Field]) -> "FieldBatch":
        """The batch of these fields' power bases (one degree, one p)."""
        return cls(fields[0].p, np.array([f.modulus for f in fields], dtype=np.int64))

    def one(self, shape=()) -> np.ndarray:
        out = np.zeros((self.red.shape[0], *shape, self.n), dtype=np.int64)
        out[..., 0] = 1
        return out

    def reduce(self, prod: np.ndarray) -> np.ndarray:
        """Coefficient arrays of length <= 2n-1 with entries < p, mod f."""
        n = self.n
        low = prod[..., :n]
        high = prod[..., n:]
        if high.shape[-1]:
            flat = high.reshape(high.shape[0], -1, high.shape[-1])
            folded = flat @ self.red[:, : high.shape[-1]]
            low = low + folded.reshape(high.shape[:-1] + (n,))
        return low % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable element arrays."""
        n = self.n
        shape = np.broadcast_shapes(a.shape, b.shape)
        prod = np.zeros(shape[:-1] + (2 * n - 1,), dtype=np.int64)
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
        red0 = self.red[:, 0].reshape((-1,) + (1,) * (a.ndim - 2) + (self.n,))
        cols = [a]
        for _ in range(self.n - 1):
            prev = cols[-1]
            cur = prev[..., -1:] * red0
            cur[..., 1:] += prev[..., :-1]
            cols.append(cur % self.p)
        return np.stack(cols, axis=-1)

    def frobenius_matrix(self, q: int) -> np.ndarray:
        """(B, n, n) matrices of x -> x^q: column j holds x^(q j)."""
        cols = [self.one()]
        if self.n > 1:
            x = np.zeros((self.red.shape[0], self.n), dtype=np.int64)
            x[:, 1] = 1
            xq = self.pow(x, q)
            for _ in range(self.n - 1):
                cols.append(self.mul(cols[-1], xq))
        return np.stack(cols, axis=-1)

    def apply(self, mats: np.ndarray, a: np.ndarray) -> np.ndarray:
        """F_p-linear maps (B, n, n) applied to every element of a."""
        flat = a.reshape(a.shape[0], -1, self.n)
        return (flat @ mats.transpose(0, 2, 1) % self.p).reshape(a.shape)


@functools.lru_cache(maxsize=None)
def lex_smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p in ascending index order
    (index = sum c_i p^i over the non-leading coefficients)."""
    if n == 1:
        return (0, 1)
    idx = 0
    limit = p**n
    while idx < limit:
        coeffs = []
        t = idx
        for _ in range(n):
            coeffs.append(t % p)
            t //= p
        idx += 1
        if coeffs[0] == 0:
            continue  # divisible by x
        f = tuple(coeffs) + (1,)
        if _is_irreducible_mod_p(f, p):
            return f
    raise FieldError("no irreducible polynomial found")  # unreachable


def _poly_mod(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        c = (f[-1] * inv_lead) % p
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[i + shift] = (f[i + shift] - c * gc) % p
        while f and f[-1] == 0:
            f.pop()
    return f


def _poly_mulmod(a, b, g, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, g, p)


def _poly_powmod_xp(f: Sequence[int], p: int, k: int) -> list[int]:
    """x^(p^k) mod f by square-and-multiply on the exponent."""
    e = p**k
    result = [1]
    base = _poly_mod([0, 1], f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, f, p)
    return result


class _NpModArith:
    """Arithmetic in F_p[x]/(f) on numpy coefficient vectors of length deg f."""

    def __init__(self, f: Sequence[int], p: int):
        self.p = p
        self.n = len(f) - 1
        n = self.n
        rows = np.zeros((max(n - 1, 1), n), dtype=np.int64)
        cur = np.array([(-c) % p for c in f[:n]], dtype=np.int64)
        rows[0] = cur
        for k in range(1, n - 1):
            top = cur[-1]
            cur = np.concatenate(([0], cur[:-1]))
            if top:
                cur = (cur + top * rows[0]) % p
            rows[k] = cur
        self.red = rows

    def vec(self, coeffs: Sequence[int]) -> np.ndarray:
        v = np.zeros(self.n, dtype=np.int64)
        c = np.array([x % self.p for x in coeffs[: self.n]], dtype=np.int64)
        v[: c.size] = c
        return v

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = np.convolve(a, b) % self.p
        low = prod[: self.n].copy()
        if low.size < self.n:
            low = np.concatenate([low, np.zeros(self.n - low.size, dtype=np.int64)])
        high = prod[self.n :]
        if high.size:
            low = (low + high @ self.red[: high.size]) % self.p
        return low

    def pow_p(self, a: np.ndarray) -> np.ndarray:
        """a^p mod f."""
        e = self.p
        result = self.vec([1])
        base = a
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result


def _np_poly_gcd_is_unit(f: Sequence[int], h: np.ndarray, p: int) -> bool:
    """True iff gcd(f, h) = 1, with the Euclid inner loop on numpy vectors."""
    a = np.array(f, dtype=np.int64) % p
    b = h % p
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


def _is_irreducible_mod_p(f: Sequence[int], p: int) -> bool:
    """Rabin test: x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1 for
    prime divisors t of n."""
    n = len(f) - 1
    if n == 1:
        return True
    if f[0] == 0:
        return False
    if n <= 24:
        x = _poly_mod([0, 1], f, p)
        xpn = _poly_powmod_xp(f, p, n)
        if _poly_trim(_poly_sub(xpn, x, p)):
            return False
        for t in _prime_divisors(n):
            h = _poly_sub(_poly_powmod_xp(f, p, n // t), x, p)
            if len(_poly_gcd(list(f), h, p)) - 1 > 0:
                return False
        return True
    # roots in F_p kill most candidates before any modular setup
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in f[::-1]:
        acc = (acc * xs + c) % p
    if (acc == 0).any():
        return False
    ctx = _NpModArith(f, p)
    x = ctx.vec([0, 1])
    checkpoints = {n // t for t in _prime_divisors(n)}
    small = min(6, n - 1)
    u = x
    for k in range(1, n + 1):
        u = ctx.pow_p(u)  # u = x^(p^k) mod f
        if k <= small or k in checkpoints:
            diff = (u - x) % p
            if not diff.any():
                return False  # all roots in F_{p^k}, k < n
            if not _np_poly_gcd_is_unit(f, diff, p):
                return False
    return not ((u - x) % p).any()


def _poly_sub(a, b, p):
    ln = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(ln)]


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a = _poly_mod(a, b, p)
        a, b = b, _poly_trim(a)
    return a if a else [0]


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
    f = tuple(c % p for c in modulus)
    if validate and not _is_irreducible_mod_p(f, p):
        raise FieldError("modulus is not irreducible")
    return Field(p, e, m, f)
