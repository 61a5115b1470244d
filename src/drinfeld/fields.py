"""Exact arithmetic in finite fields F_{p^(e*m)} with a power basis over F_p.

A field is described by its characteristic p, the degree e of the base
field F_q = F_{p^e}, the degree m of the extension over F_q, and a monic
irreducible modulus of degree e*m over F_p.  Elements are coordinate
tuples in the power basis of the modulus root.  All values are immutable
after construction.  `make_field` is cached, so each canonical field is
one object with its precomputed tables; `field_with_modulus` builds a new
field on every call.

`make_field` picks the canonical modulus: the first monic irreducible in
the ascending coefficient-index order (constant coefficient varies
fastest), so every field of a given degree is reproducible without
external polynomial tables.  Candidates past the closed-form binomials and
a small-divisor sieve take Rabin's test, whose n steps u -> u^p mod f take
one of two exact routes by the shape of f = x^n + g: a sparse closed form
when p < n, p deg g < n and products(p, int64) >= 2 n^2 (which bounds every
unreduced sum of a step, see `_sparse_frobenius`), the packed Berlekamp
matrix otherwise.  A search that would run on Python ints, where
(p-1)^2 n leaves int64, is refused above MAX_EXACT_SEARCH_DEGREE.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .linalg import (PackedMatrix, check_int64_range, kernel_mod_p, matmul_mod_p, mod_p,
                     power, products, sum_products)

_NUMPY_MUL_CUTOFF = 32  # coordinate length above which products go through numpy


# Miller-Rabin with the prime bases 2 .. 41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a PrimalityError for an n >= _MR_LIMIT
    that no base divides."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise PrimalityError(
            f"{n} is not below {_MR_LIMIT}, the bound of the deterministic primality test"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * t, t odd
    t = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldError(ValueError):
    pass


class PrimalityError(FieldError):
    """An integer too large for the deterministic primality test."""


class ModulusSearchError(FieldError):
    """A canonical-modulus search on Python ints of degree above
    MAX_EXACT_SEARCH_DEGREE."""


# Largest degree n whose canonical-modulus search may run on Python ints,
# which it does where (p-1)^2 n leaves int64: every Rabin test there costs
# n^3 big-int products.  At p = 2^61 - 1 the search takes 0.3 s at n = 32,
# 1.5 s at n = 40 and 6.8 s at n = 64, and grows without bound after.
MAX_EXACT_SEARCH_DEGREE = 32


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
        return power(self, k, f._mul, f.one)

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
        self.zero = FieldElement(self, (0,) * n)
        one = (1,) + (0,) * (n - 1) if n > 1 else (1,)
        self.one = FieldElement(self, one)
        self.gen = FieldElement(self, tuple(1 if i == 1 else 0 for i in range(n))) if n > 1 else self.one
        self._batch = None          # this field as a FieldBatch
        self._frob_q = None          # numpy matrix of x -> x^q
        self._frob_q_pow: dict[int, np.ndarray] = {}
        self._subfield: dict[int, np.ndarray] = {}  # read-only bases by d mod m
        self._embeddings: dict[tuple, np.ndarray] = {}  # read-only, by (modulus, d mod m)

    # -- construction helpers -------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e}, m={self.m})"

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
        return FieldElement(self, _int_digits(k, self.p, self.n))

    def scalar(self, c: int) -> FieldElement:
        return self.elem((c,))

    def elements(self):
        """All field elements in index order.  Only for small fields."""
        for k in range(self.order):
            yield self.from_int(k)

    # -- core arithmetic -------------------------------------------------------

    @functools.cached_property
    def _red_rows(self) -> tuple[tuple[int, ...], ...]:
        """rows[k] = coords of x^(n+k) mod modulus, k = 0 .. n-2 (one row at
        n = 1): the rows of `batch().red` as Python ints."""
        return tuple(map(tuple, self.batch().red(max(self.n - 1, 1))[0].tolist()))

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
            prod = self.batch().mul(self.array([a]), self.array([b]))
            return FieldElement(self, tuple(prod[0].tolist()))
        return FieldElement(self, self._reduce(_poly_mul(a.coords, b.coords)))

    def batch(self) -> "FieldBatch":
        """This field as a `FieldBatch` of one, exact for every p."""
        if self._batch is None:
            self._batch = FieldBatch(self.p, self.modulus, exact=True)
        return self._batch

    def array(self, x: FieldElement | Sequence[FieldElement]) -> np.ndarray:
        """The coordinates of one element, shape (n,), or of a sequence of
        them, shape (k, n), in `batch().dtype` (object past int64): the one
        conversion of elements to arrays, as numpy would infer float64 for
        coordinates on both sides of 2^63."""
        if isinstance(x, FieldElement):
            return np.array(x.coords, dtype=self.batch().dtype)
        return np.array([c.coords for c in x], dtype=self.batch().dtype).reshape(-1, self.n)

    def inv(self, a: FieldElement) -> FieldElement:
        """Inverse by extended Euclid on coordinate polynomials, the
        quotients from `_divmod`.  With r_0 = modulus, r_1 = a, s_0 = 0,
        s_1 = 1, each s_k a = (-1)^(k+1) r_k mod the modulus, as
        s_(k+1) = s_(k-1) + q_k s_k: additions only, the sign kept apart."""
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        r0, r1 = list(self.modulus), _trim(list(a.coords))
        s0, s1, sign = [0], [1], 1
        while len(r1) > 1:
            q, r = _divmod(r0, r1, p)
            s = _poly_mul(q, s1)
            for i, c in enumerate(s0):
                s[i] += c
            r0, r1, s0, s1, sign = r1, r, s1, [c % p for c in s], -sign
        c = sign * pow(r1[0], p - 2, p)
        return self.elem([x * c for x in s1])

    # -- Frobenius -------------------------------------------------------------

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix of x -> x^q on the power basis (columns are images), in
        `batch().dtype`; for e = 1 the Berlekamp Q-matrix of the modulus."""
        if self._frob_q is None:
            self._frob_q = self.batch().frobenius_matrix(self.q)[0]
        return self._frob_q

    def frobenius_power_matrix(self, k: int) -> np.ndarray:
        """Matrix of x -> x^(q^k), the k-th power of `frobenius_matrix`.
        Powers 2 .. m-1 are cached; power 1 is `frobenius_matrix` itself and
        power 0 a fresh identity."""
        k %= self.m
        if k <= 1:
            return self.frobenius_matrix() if k else np.eye(self.n, dtype=self.batch().dtype)
        if k not in self._frob_q_pow:
            self._frob_q_pow[k] = matmul_mod_p(self.frobenius_power_matrix(k - 1),
                                               self.frobenius_matrix(), self.p)
        return self._frob_q_pow[k]

    def frobenius(self, x: FieldElement, k: int = 1) -> FieldElement:
        """x^(q^k).  The q-power map generates Gal(F_{q^m}/F_q), period m."""
        self._check_owner(x)
        k %= self.m
        if k == 0:
            return x
        coords = matmul_mod_p(self.array(x), self.frobenius_power_matrix(k).T, self.p)
        return FieldElement(self, tuple(coords.tolist()))

    def norm_to_base(self, x: FieldElement) -> FieldElement:
        """Norm from F_{q^m} down to F_q: product of the m Frobenius conjugates."""
        acc = self.one
        for k in range(self.m):
            acc = acc * self.frobenius(x, k)
        return acc

    # -- subfields ------------------------------------------------------------

    def base_embedding(self) -> np.ndarray:
        """The embedding of F_q: `subfield_embedding` of the canonical modulus
        of F_q, so column k holds alpha^k, alpha the embedded generator."""
        return self.subfield_embedding(lex_smallest_irreducible(self.p, self.e), 1)

    def subfield_embedding(self, modulus: Sequence[int], d: int) -> np.ndarray:
        """n x k matrix in `batch().dtype` embedding F_p[x]/(modulus), k its
        degree, into this field: column j holds beta^j, beta the first root
        (in index order) of the modulus in the subfield fixed by the q^d-power
        map.  A modulus of degree 1 gives e_0, with no subfield basis or root
        computed.  Computed once per modulus and d mod m, returned read-only."""
        key = (tuple(modulus), d % self.m)
        if key not in self._embeddings:
            rows = np.zeros((len(modulus) - 1, self.n), dtype=self.batch().dtype)  # beta^j
            rows[0, 0] = 1
            if len(rows) > 1:
                coeffs = np.zeros((len(modulus), self.n), dtype=np.int64)
                coeffs[:, 0] = [c % self.p for c in modulus]
                beta = self.first_root(coeffs, self.subfield_basis(d))
                if beta is None:
                    raise FieldError("the modulus has no root in the subfield")  # unreachable
                power = beta
                for j in range(1, len(rows)):
                    rows[j] = power.coords
                    power = power * beta
            rows.flags.writeable = False
            self._embeddings[key] = rows.T
        return self._embeddings[key]

    def subfield_basis(self, d: int) -> np.ndarray:
        """Canonical F_p-basis, one row each, of the subfield fixed by the
        q^d-power map; computed once per d mod m and returned read-only."""
        d %= self.m
        if d not in self._subfield:
            mat = (self.frobenius_power_matrix(d) - np.eye(self.n, dtype=np.int64)) % self.p
            basis = kernel_mod_p(mat, self.p)
            basis.flags.writeable = False
            self._subfield[d] = basis
        return self._subfield[d]

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
            xs = matmul_mod_p(_digits(ks, p, basis.shape[0]), basis, p)[None]
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
    Every sum of products is reduced mod p after at most n terms:
    coefficient k of a product collects the a_i b_j with i + j = k, at most
    n of them, both where `mul` adds the n shifted products a_i b over the
    whole batch and where, for fewer element pairs than n, it takes one
    `np.convolve` per pair (exact on object arrays too).  The fold of the
    high coefficients adds n - 1 products of residues to a residue.  A
    single modulus folds them through its reduction rows packed once, where
    `linalg.PackedMatrix` packs them (64 columns or more, two lanes or more).

    The shift loops (the n shifted products of `mul`, the fold, the n
    columns of `mul_matrix`) run coefficient-major, over the batch axis: in
    scratch arrays (n, ..., B), the element array with its first and last
    axes swapped, every step is one numpy call over contiguous rows of one
    coefficient across the whole batch, with the batch axis innermost also
    for broadcast pairs such as (B, 1, n) by (B, 2, n).  Over the
    element-major (B, ..., n) layout numpy's inner loop would run over the
    n <= 6 strided coefficients of a sweep field, and the sweep kernel
    (24-27 us per prime at 512 primes per call on that layout) is bound by
    such per-element work, not by numpy dispatch.  Results come back as
    transposed views, in the element-major shape; the reduction rows are
    kept coefficient-major.

    `dtype`, the dtype of every array built here, is the narrowest that
    holds the sums: int16 where an int16 sum holds n^2 products of residues
    (`linalg.products`; p = 7 up to n = 30, p = 5 up to n = 45), which
    leaves room for the unreduced sums of the callers' guarded products;
    int64 otherwise, where the work of a large field is n x n products that
    a narrow dtype does not speed up.  A p whose n products int64 cannot
    hold is refused (`linalg.Int64RangeError`), or with `exact` served on
    Python ints (object arrays).
    """

    def __init__(self, p: int, moduli, exact: bool = False):
        n = np.shape(moduli)[-1] - 1
        if exact and products(p, np.int64) < n:
            self.dtype = np.dtype(object)
        else:
            check_int64_range(p, n)
            self.dtype = np.dtype(np.int16 if products(p, np.int16) >= n * n else np.int64)
        moduli = np.atleast_2d(np.array(moduli, dtype=self.dtype)) % p
        self.p = p
        self.n = n
        # rows[j, i, b]: coordinate i of x^(n+j) mod f_b; more rows on demand
        self._rows = np.ascontiguousarray(((-moduli[:, :n]) % p).T)[None]

    def _red_rows(self, k: int) -> np.ndarray:
        """The first k reduction rows, coefficient-major (k, n, B).  Rows
        are built on first need, each the one before times x: the Q-matrix
        of a large field needs only p of them."""
        have = len(self._rows)
        if k > have:
            rows = np.empty((k,) + self._rows.shape[1:], dtype=self.dtype)
            rows[:have] = self._rows
            for j in range(have, k):
                rows[j] = _times_x(rows[j - 1], rows[0], self.p)
            self._rows = rows
        return self._rows[:k]

    def red(self, k: int) -> np.ndarray:
        """(B, k, n) reduction rows, k <= n - 1: row j holds x^(n+j) mod f."""
        return self._red_rows(k).transpose(2, 0, 1)

    def one(self, shape=()) -> np.ndarray:
        out = np.zeros((self._rows.shape[-1], *shape, self.n), dtype=self.dtype)
        out[..., 0] = 1
        return out

    @functools.cached_property
    def _packed_red(self) -> PackedMatrix | None:
        """The n - 1 reduction rows of a single modulus, packed once; None
        for many moduli and where `PackedMatrix` does not pack."""
        if self._rows.shape[-1] > 1:
            return None
        fold = PackedMatrix(self.red(self.n - 1)[0], self.p)
        return fold if fold.packed is not None else None

    def reduce(self, prod: np.ndarray) -> np.ndarray:
        """Coefficient arrays of length <= 2n-1 with entries < p, mod f."""
        dtype = np.result_type(prod, self._rows)
        return self._fold(np.array(prod.swapaxes(0, -1), dtype=dtype, order="C"))

    def _fold(self, prod: np.ndarray) -> np.ndarray:
        """A coefficient-major (m, ..., B) array, m <= 2n - 1, entries in
        [0, p), mod f: element-major (B, ..., n).  Adds row j of the
        reduction rows times coefficient n + j to the low n coefficients,
        in place; each low coefficient sums n - 1 products of residues and
        one residue, which every dtype of the batch holds."""
        n = self.n
        low, high = prod[:n], prod[n:]
        if len(high) == n - 1 and self._packed_red is not None:
            low = low.swapaxes(0, -1)
            return mod_p(low + self._packed_red.rmul(high.swapaxes(0, -1)), self.p)
        rows = _against(self._red_rows(len(high)), prod.ndim)
        for c, row in zip(high, rows):
            low += c * row
        return mod_p(low, self.p).swapaxes(0, -1)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable element arrays: one
        convolution per element pair where there are fewer pairs than n,
        otherwise n shifted products over the whole batch, coefficient-major."""
        n = self.n
        if n == 1:
            return mod_p(a * b, self.p)
        shape = np.broadcast_shapes(a.shape, b.shape)
        pairs = math.prod(shape[:-1])
        if pairs < n:
            prod = np.empty((pairs, 2 * n - 1), dtype=self.dtype)
            for k, (x, y) in enumerate(zip(np.broadcast_to(a, shape).reshape(pairs, n),
                                           np.broadcast_to(b, shape).reshape(pairs, n))):
                prod[k] = np.convolve(x, y)
            return self.reduce(mod_p(prod.reshape(shape[:-1] + (2 * n - 1,)), self.p))
        a, b = (np.ascontiguousarray(x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
                                     .swapaxes(0, -1)) for x in (a, b))
        prod = np.zeros((2 * n - 1,) + shape[1:-1] + shape[:1], dtype=self.dtype)
        for i in range(n):
            prod[i : i + n] += a[i] * b
        return self._fold(mod_p(prod, self.p))

    def pow(self, a: np.ndarray, k: int) -> np.ndarray:
        one = np.zeros_like(a)
        one[..., 0] = 1
        return power(a, k, self.mul, one)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Inverse by Fermat, a^(p^n - 2); zero maps to zero."""
        return self.pow(a, self.p**self.n - 2)

    def mul_matrix(self, a: np.ndarray) -> np.ndarray:
        """(B, ..., n, n) matrices of multiplication by a: column j holds
        a x^j, each column the one before times x, coefficient-major."""
        n = self.n
        if n == 1:
            return a[..., None]
        x_n = _against(self._rows[0], a.ndim)
        cols = np.empty((n, n) + a.shape[1:-1] + a.shape[:1], dtype=np.result_type(a, x_n))
        cols[0] = a.swapaxes(0, -1)
        for j in range(1, n):
            cols[j] = _times_x(cols[j - 1], x_n, self.p)
        return cols.transpose(_element_major(a.ndim))

    def frobenius_matrix(self, q: int) -> np.ndarray:
        """(B, n, n) matrices of x -> x^q: column j holds x^(q j).  For q < n
        (Berlekamp's Q-matrix when q = p) each column is the one before
        shifted by q and folded through q reduction rows; otherwise it is
        the one before times x^q, found by repeated squaring."""
        n, p = self.n, self.p
        cols = np.zeros((self._rows.shape[-1], n, n), dtype=self.dtype)  # [:, j]: x^(q j)
        cols[:, 0, 0] = 1
        if q < n:
            fold = self.red(q)
            for j in range(1, n):
                prev, col = cols[:, j - 1], cols[:, j]
                col[:] = sum_products(prev[:, None, n - q :], fold, p, spare=1)[:, 0]
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
        return matmul_mod_p(flat, mats.transpose(0, 2, 1), self.p).reshape(a.shape)


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
    Rabin's test in index order, except those that Stickelberger's parity
    (`_disc_character`, odd p) already shows reducible.
    """
    if n == 1:
        return (0, 1)
    if all((p - 1) % t == 0 for t in _prime_divisors(n)) and (n % 4 or p % 4 == 1):
        # a generator of F_p^* is -c for an irreducible x^n + c, so this ends
        c = next(c for c in range(1, p) if _binomial_irreducible(p, n, c))
        return (c,) + (0,) * (n - 1) + (1,)
    if n > MAX_EXACT_SEARCH_DEGREE and products(p, np.int64) < n:
        raise ModulusSearchError(
            f"the degree-{n} modulus search over F_{p} would run on Python ints; "
            f"degree {n} exceeds MAX_EXACT_SEARCH_DEGREE = {MAX_EXACT_SEARCH_DEGREE}"
        )
    s = min(n, _sieve_digits(p))
    depth = min(n // 2, s)
    parity = (-1) ** (n - 1)  # the discriminant character of an irreducible
    for start in range(p if s <= 1 else 0, p**n, p**s):
        alive = _sieve(p, n, start, s, depth)
        if start == 0:
            alive[:p] = False  # the binomials, all reducible
        high = _int_digits(start // p**s, p, n - s) + (1,)
        for low in _digits(np.flatnonzero(alive), p, s).tolist():
            f = tuple(low) + high
            if depth == n // 2:
                return f
            if (p == 2 or _disc_character(f, p) == parity) and _rabin(f, p, depth):
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


@functools.lru_cache(maxsize=None)
def _irreducible_ring(p: int, d: int) -> FieldBatch:
    """F_p[x]/(g) for every monic irreducible g of degree d, in the order of
    `_irreducibles`, as one `FieldBatch`: the rings `_sieve` reduces in."""
    gs = _irreducibles(p, d)
    return FieldBatch(p, np.hstack([gs, np.ones((gs.shape[0], 1), dtype=np.int64)]))


@functools.lru_cache(maxsize=None)
def _xpow_irreducibles(p: int, d: int, e: int) -> np.ndarray:
    """x^e mod g in `_irreducible_ring(p, d)`, one row per g, read-only.

    x^e = (x^(e >> 1))^2 x^(e & 1), each step cached, so the cache holds
    every prefix e >> k: a search reuses each power an earlier one squared
    (the searches of one p share the prefixes of their exponents), and a
    cold e costs e.bit_length() squarings, as square and multiply does."""
    ring = _irreducible_ring(p, d)
    if e == 0:
        r = ring.one()
    else:
        r = _xpow_irreducibles(p, d, e >> 1)
        r = ring.mul(r, r)
        if e & 1:
            r = _times_x(r.T, ring._rows[0], p).T
    r.flags.writeable = False
    return r


def _times_x(r: np.ndarray, x_n: np.ndarray, p: int) -> np.ndarray:
    """r x mod f for coefficient-major r (n, ...) over F_p[x]/(f), given
    x_n = x^n mod f broadcastable against it: a shift, and the top
    coefficient folded in through x_n."""
    out = r[-1] * x_n
    out[1:] += r[:-1]
    return mod_p(out, p)


def _against(rows: np.ndarray, ndim: int) -> np.ndarray:
    """Coefficient-major rows (..., B) shaped to broadcast against a
    coefficient-major array of `ndim` axes (n, ..., B)."""
    return rows.reshape(rows.shape[:-1] + (1,) * (ndim - 2) + rows.shape[-1:])


@functools.lru_cache(maxsize=None)
def _element_major(ndim: int) -> tuple[int, ...]:
    """Axes that take `mul_matrix`'s coefficient-major columns (j, i, ...,
    B) of an `ndim`-axis element array to (B, ..., i, j)."""
    return (ndim,) + tuple(range(2, ndim)) + (1, 0)


def _sieve(p: int, n: int, start: int, s: int, depth: int) -> np.ndarray:
    """Mask of the p^s monic candidates of degree n from index `start` (a
    multiple of p^s) that no monic polynomial of degree <= depth divides
    (depth <= s).

    f mod g is F_p-linear in the coefficients of f.  For every irreducible g
    of degree d, Horner over x^n and the block's fixed high digits gives
    r = (x^n + high part) mod g, for all g of degree d at once as an
    (N_d, d) array; the zero digits above the top nonzero one are a single
    power of x, x^(n-s-top) mod g, which `_xpow_irreducibles` keeps for
    every search of the same p.  Each choice of the digits d .. s-1 adds a
    combination of x^i mod g; the candidate divisible by g is then the one
    whose low d digits are -r, so each (g, digits d .. s-1) crosses out
    exactly one candidate and no candidate is ever tested against a
    divisor.
    """
    alive = np.ones(p**s, dtype=bool)
    high = _int_digits(start // p**s, p, n - s)
    top = max((i + 1 for i, c in enumerate(high) if c), default=0)  # high[top:] are 0
    for d in range(1, depth + 1):
        # coefficient-major, row i holding coefficient i for every g
        x_d = _irreducible_ring(p, d)._rows[0]  # x^d mod g
        r = _xpow_irreducibles(p, d, n - s - top).T  # then Horner over high[:top]
        for c in reversed(high[:top]):
            r = _times_x(r, x_d, p)
            if c:
                r[0] = (r[0] + c) % p
        for _ in range(s):
            r = _times_x(r, x_d, p)
        r = r[:, None]
        xi = x_d  # x^i mod g for i = d .. s-1
        for _ in range(d, s):
            r = (np.arange(p)[:, None, None] * xi[:, None, None] + r[:, None]) % p
            r = r.reshape(d, -1, x_d.shape[1])  # digits d .. i, the highest first
            xi = _times_x(xi, x_d, p)
        low = ((-r) % p).transpose(1, 2, 0) @ p ** np.arange(d)
        alive[low + p**d * np.arange(low.shape[0])[:, None]] = False
    return alive


def _disc_character(f: Sequence[int], p: int) -> int:
    """The quadratic character of disc(f) in F_p, p odd, for monic f with
    coefficients in [0, p): 1 or -1, and 0 when f is not squarefree.

    Stickelberger's theorem (Swan, Pacific J. Math. 12, 1962): a squarefree
    f of degree n with k irreducible factors has character (-1)^(n-k).

    disc(f) = (-1)^(n(n-1)/2) Res(f, f'), Res(f, h) the product of h over
    the roots of f.  Write f = x^n + g with g(0) != 0.  Every root a has
    a f'(a) = -h(a), h = n g - x g', so Res(f, f') = Res(f, h) / g(0).
    Euclid's first step, f mod h, is x^n mod h (square and multiply) plus
    g mod h; every later step is on polynomials of degree <= deg g.  A
    factor x splits off: disc(x f1) = disc(f1) f1(0)^2.
    """
    n = len(f) - 1
    if n == 1:
        return 1
    if not f[0]:
        return 0 if not f[1] else _disc_character(f[1:], p)
    h = _trim([(n - i) * c % p for i, c in enumerate(f[:n])])
    if len(h) <= 1:
        res = pow(h[0], n, p) if h else 0  # h = 0: f' = 0
    else:
        low = list(f[:n])
        for i, c in enumerate(_xpow_mod(n, h, p)):
            low[i] += c
        r = _divmod(low, h, p)[1]
        # Res(f, h) = (-1)^(n deg h) lc(h)^(n - deg r) Res(h, r)
        sign = (-1) ** (n * (len(h) - 1))
        res = sign * pow(h[-1], n + 1 - len(r), p) * _resultant(h, r, p) if r else 0
    disc = (-1) ** (n * (n - 1) // 2) * res * pow(f[0], p - 2, p) % p
    return 1 if pow(disc, (p - 1) // 2, p) == 1 else -1 if disc else 0


def _resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) = lc(a)^deg(b) * (product of b over the roots of a), mod p,
    for nonzero a and b (coefficients constant first, no leading zeros), by
    Euclid: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
    with r = a mod b."""
    acc = 1
    while len(b) > 1:
        r = _divmod(a, b, p)[1]
        if not r:
            return 0
        acc = (-1) ** ((len(a) - 1) * (len(b) - 1)) * acc * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return acc * pow(b[0], len(a) - 1, p) % p


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mul(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """u v on coefficient lists (constant first), unreduced; zero
    coefficients of u and v are skipped."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    prod[i + j] += a * b
    return prod


def _divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r and deg r < deg b over F_p, on coefficient
    lists (constant first), b with no leading zero; r is trimmed.  Entries
    of a are reduced mod p only as they are read."""
    a, db = list(a), len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = q[i - db] = a[i] * inv % p  # a[i] is not read again
        if c:
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return q, _trim([c % p for c in a[:db]])


def _xpow_mod(e: int, b: list[int], p: int) -> list[int]:
    """x^e mod b over F_p, b of positive degree, by square and multiply."""
    return power(_divmod([0, 1], b, p)[1], e,
                 lambda u, v: _divmod(_poly_mul(u, v), b, p)[1], [1])


def _rabin(f: Sequence[int], p: int, depth: int = 0) -> bool:
    """Rabin's test (Rabin 1980): f of degree n is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1 for each prime t | n.
    The gcd is skipped where n/t <= depth: the caller vouches that f has no
    factor of degree <= depth.

    x^(p^k) comes from k steps of the F_p-linear map u -> u^p mod f.  The
    route of the step is chosen by the shape of f = x^n + g alone:
    `_sparse_frobenius` when p < n, p deg g < n and int64 holds its sums
    (every candidate of the search's first sieve block at (5, 248)), the
    packed Berlekamp matrix of `_dense_frobenius` for every other f (later
    sieve blocks, p >= n, small n, p past int64).  Both are exact, so the
    answer does not depend on the route."""
    n = len(f) - 1
    if n == 1:
        return True
    step = _sparse_frobenius(f, p) or _dense_frobenius(f, p)
    x = np.zeros(n, dtype=np.int64)
    x[1] = 1
    checkpoints = {n // t for t in _prime_divisors(n) if n // t > depth}
    u, seen = x, []
    for k in range(1, n + 1):
        u = step(u)
        if k in checkpoints:
            seen.append((u - x) % p)
    # most reducible f fail here, before any gcd is paid for
    return not ((u - x) % p).any() and all(_gcd_is_unit(f, h, p) for h in seen)


def _dense_frobenius(f: Sequence[int], p: int):
    """u -> u^p mod f as the row product u Q^T % p, Q the Berlekamp matrix
    of f (column j is x^(pj) mod f), exact for every p, with Q^T packed once
    (`linalg.PackedMatrix`; at p = 5, n = 248 five columns share an int64)."""
    Q = FieldBatch(p, f, exact=True).frobenius_matrix(p)[0]
    return PackedMatrix(Q.T, p).rmul


def _sparse_frobenius(f: Sequence[int], p: int):
    """u -> u^p mod f in closed form for f = x^n + g with p < n,
    p deg g < n and products(p, int64) >= 2 n^2; None for any other f.

    u^p = sum_i u_i x^(pi), as u_i^p = u_i in F_p.  With pi = an + b,
    0 <= b < n, a <= p - 1, and x^n = -g, x^(pi) = x^b h_a, h_a = (-g)^a of
    degree a deg g.  So coefficient j < W = n + (p-1) deg g of the unfolded
    sum collects u_i h_a[j - b] over the i whose window b .. b + a deg g
    holds j: at most K <= n of them (K <= 9 in the (5, 248) search),
    gathered into (K, W) arrays of source indices and values, zero values
    padding.  The part above n, x^n H with deg H < (p-1) deg g, folds in as
    -g H, of degree < p deg g < n, so one convolution leaves the result
    reduced.

    Each step is reduced mod p once, at the end: a gathered sum is at most
    K (p-1)^2 and a folded one adds deg g + 1 products of (p-1) by such a
    sum, so every entry stays below K (p-1)^2 (1 + (p-1)(deg g + 1)) <
    2 n^2 (p-1)^2, since (p-1)(deg g + 1) < p deg g + p < 2n."""
    n = len(f) - 1
    g = _trim([c % p for c in f[:n]])
    G = max(len(g) - 1, 0)  # deg g, and 0 for g = 0
    if not (p < n and p * G < n and products(p, np.int64) >= 2 * n * n):
        return None
    neg = np.array([-c % p for c in g] or [0], dtype=np.int64)  # h_1 = -g
    h = np.ones(1, dtype=np.int64)  # h_a, from a = 0
    src, pos, val = [], [], []
    for a in range(p):
        rows = np.arange(-(-a * n // p), -(-(a + 1) * n // p))  # the i with pi // n = a
        t = np.flatnonzero(h)
        src.append(np.repeat(rows, t.size))
        pos.append((p * rows[:, None] - a * n + t).ravel())  # b + t
        val.append(np.tile(h[t], rows.size))
        h = np.convolve(h, neg) % p
    src, pos, val = (np.concatenate(v) for v in (src, pos, val))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    counts = np.bincount(pos, minlength=n + (p - 1) * G)
    rank = np.arange(pos.size) - (np.cumsum(counts) - counts)[pos]  # slot within position
    idx = np.zeros((int(counts.max()), counts.size), dtype=np.int64)
    vals = np.zeros_like(idx)
    idx[rank, pos] = src[order]
    vals[rank, pos] = val[order]

    def step(u: np.ndarray) -> np.ndarray:
        w = (u[idx] * vals).sum(axis=0)
        out = w[:n]
        if G:
            out[: p * G] += np.convolve(w[n:], neg)
        return out % p

    return step


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
