"""Exact linear algebra over finite fields, on numpy integer arrays.

Every echelon form is one `rref_mod_p` over F_p: an F_(p^n)-linear
problem is posed over F_p with n digits per unknown.  Every determinant
and characteristic polynomial is one division-free Berkowitz (`_berkowitz`),
batched, over the polynomial ring L[T] of a residue field L; a matrix over a
field is the case of T-degree 0.  `Matrix` holds the small matrices over
F_l (the torsion Frobenius and T-action matrices) on these two routines.

All echelon forms pick pivots by ascending column index, so bases are
canonical and reproducible.

Every product of residues mod p is formed here, and its exactness is
argued once: a sum of k products of residues is at most k(p-1)^2, so a
dtype holds `products(p, dtype)` of them (any number on object arrays).
`matmul_mod_p(a, b, p)`, or `PackedMatrix(b, p).rmul(a)` for a right factor
that meets many left ones, is a @ b reduced mod p, in the inputs' dtype:

- plain a @ b where that dtype holds the k products of a sum;
- sums of as many products as it holds, each reduced, where it holds fewer;
- Python ints where it holds none ((p-1)^2 past int64);
- int64 lanes where b has _PACK_MIN_WIDTH columns or more and two lanes or
  more fit (one-shot, _PACK_MIN_ROWS left rows per right factor too): a
  lane of bits = (k(p-1)^2).bit_length() bits holds any sum of k products
  and an int64 holds 63 // bits lanes, so no lane carries into the next.

`sum_products` leaves a @ b unreduced for a caller that adds to it before
one reduction, given how many products it adds.  `rref_mod_p` eliminates in
the narrowest dtype whose update budget covers the elimination; it,
`matpow_mod_p` and `Matrix` refuse a p past int64 (`Int64RangeError`).
`power` is the one square and multiply, for any ring given its product and
its one.  No float touches a result.
"""

from __future__ import annotations

import functools
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fields import Field, FieldBatch, FieldElement

_MOD_P_MIN_SIZE = 1024  # elements from which `mod_p` beats `%` (at 35k: 2x in int64, 6x in int16)
_WIDTHS = (np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64))  # narrowest first

# Lanes pay from these shapes on (p = 3, 5, 7, k = n, best of 20): packed
# once, 64 columns tie the plain product at one row and win 2.2x at 16 (2.8x
# at one row at n = 248); packing per call costs about 8 rows at n = 64-96.
_PACK_MIN_WIDTH = 64  # columns of b
_PACK_MIN_ROWS = 8    # left rows per right factor, one-shot


class Int64RangeError(ValueError):
    """The prime is too large for exact int64 arithmetic."""


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p, in [0, p), for an integer or object array, in its own dtype.
    From _MOD_P_MIN_SIZE elements on it is a - (a // p) * p: numpy divides
    an integer array by a scalar with a multiply and a shift, several times
    faster than `%` on batch-sized arrays (most of all in int16), and exact
    for every sign and width, the wrap-around of (a // p) * p cancelling in
    the difference.  Below that size the one ufunc call of `%` costs less
    than three."""
    if a.dtype == object or a.size < _MOD_P_MIN_SIZE:
        return a % p
    out = a // p
    out *= p
    return np.subtract(a, out, out=out)


@functools.lru_cache(maxsize=None)
def products(p: int, dtype) -> int:
    """How many products of two residues mod p a sum in `dtype` can hold:
    any number for object arrays (Python ints).  Cached, as every product
    reads it and `np.iinfo` costs more than a small product."""
    dtype = np.dtype(dtype)
    if dtype == object:
        return sys.maxsize
    return int(np.iinfo(dtype).max) // max((p - 1) ** 2, 1)


def sum_products(a: np.ndarray, b: np.ndarray, p: int, spare: int = 0) -> np.ndarray:
    """a @ b for entries in [0, p), left unreduced when its dtype holds the
    a.shape[-1] products of a sum and `spare` more that the caller adds to
    it; otherwise the sums are taken in chunks that the dtype holds (Python
    ints where it holds none), each reduced mod p as it is added."""
    k, step = a.shape[-1], products(p, np.promote_types(a.dtype, b.dtype))
    if not step:
        a, b, step = a.astype(object), b.astype(object), sys.maxsize
    if k + spare <= step:
        return a @ b
    out = mod_p(a[..., :step] @ b[..., :step, :], p)
    for s in range(step, k, step):
        out += mod_p(a[..., s : s + step] @ b[..., s : s + step, :], p)
    return out


def check_int64_range(p: int, n: int):
    """Refuse p when a sum of n products of residues, (p-1)^2 * n, could
    exceed the int64 range: numpy would wrap around without a word."""
    if products(p, np.int64) < max(n, 1):
        raise Int64RangeError(
            f"p = {p} is too large for exact int64 arithmetic ({n} products per sum)"
        )


class PackedMatrix:
    """The right factor b (..., k, n) of products a @ b % p, decided once for
    many left factors: packed where lanes >= 2 and n >= _PACK_MIN_WIDTH, lane
    j of packed column i holding column j*w + i of b (w = ceil(n / lanes))
    shifted up by j*bits bits; otherwise `packed` is None."""

    def __init__(self, b: np.ndarray, p: int):
        k, n = b.shape[-2:]
        self.b, self.p, self.n = b, p, n
        self.bits = max((k * (p - 1) ** 2).bit_length(), 1)
        self.lanes = min(63 // self.bits, n) if b.dtype != object else 1
        self.packed = None
        if self.lanes < 2 or n < _PACK_MIN_WIDTH:
            return
        w = -(-n // self.lanes)
        self.packed = np.zeros(b.shape[:-1] + (w,), dtype=np.int64)
        for j in range(self.lanes):
            block = b[..., j * w : (j + 1) * w].astype(np.int64, copy=False)
            self.packed[..., : block.shape[-1]] |= block << (j * self.bits)
        self.shifts = self.bits * np.arange(self.lanes, dtype=np.int64)[:, None]
        self.mask = (1 << self.bits) - 1

    def rmul(self, a: np.ndarray) -> np.ndarray:
        """a @ b % p for a (..., m, k) or (k,) with entries in [0, p), in
        the dtype of a @ b (object where that cannot hold a product)."""
        if self.packed is None or a.dtype == object:
            return mod_p(sum_products(a, self.b, self.p), self.p)
        prod = a @ self.packed
        lanes = prod[..., None, :] >> self.shifts
        lanes &= self.mask
        lanes %= self.p
        out = lanes.reshape(prod.shape[:-1] + (-1,))[..., : self.n]
        return out.astype(np.promote_types(a.dtype, self.b.dtype), copy=False)


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p, exact, for a (..., m, k) or (k,) and b (..., k, n) with
    entries in [0, p) (see the module docstring for the route)."""
    if a.size * b.shape[-1] < _PACK_MIN_ROWS * b.size:
        return mod_p(sum_products(a, b, p), p)
    return PackedMatrix(b, p).rmul(a)


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (int64) and pivot column list, pivots by
    column order.

    The elimination runs on a column-major copy, `at` = a.T, so that the
    columns from the scanned one on are one contiguous block: each pivot
    subtracts one rank-1 update from all of it, the pivot row times the
    scanned column with the pivot's own entry zeroed (rows where the column
    is 0 lose 0).  Nothing is reduced mod p there: only the column being
    scanned and the pivot row are, so each update moves an entry by at most
    (p-1)^2, and after k updates since the last full reduction an entry lies
    in [-k(p-1)^2, p).  The budget k <= products(p, dtype) keeps it inside
    the dtype; the whole array is reduced when the budget is spent.  The
    copy takes the narrowest dtype whose budget covers the elimination, one
    update per pivot and at most min(rows, cols) pivots, so a narrow
    elimination is never reduced midway (int16 up to 2,047 pivots at p = 5),
    and int64 takes whatever no narrower dtype covers.

    The pivot is the scanned column's entry in row r where that is nonzero,
    and otherwise its largest residue below (one `argmax`), not its first
    nonzero entry.  Any nonzero pivot gives the same output: the reduced
    row echelon form of a matrix is unique (its nonzero rows are the one
    basis of the row space with a 1 at each pivot column and 0 at the other
    pivot columns), and the pivot columns are those where the rank grows."""
    check_int64_range(p, 1)
    mat = np.asarray(mat)
    need = max(min(mat.shape), 1)
    dtype = next(t for t in _WIDTHS if products(p, t) >= need or t == np.int64)
    at = np.array(mat.T % p, dtype=dtype, order="C")  # reduced before it is narrowed
    cols, rows = at.shape
    pivots: list[int] = []
    budget = products(p, dtype)
    updates = 0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = at[c]
        col %= p
        # rows r and below are zero left of c already, so only the columns
        # from c on change
        if not col[r]:
            i = r + int(col[r:].argmax())
            if not col[i]:
                continue
            swap = at[c:, i].copy()
            at[c:, i] = at[c:, r]
            at[c:, r] = swap
        piv = at[c:, r]
        inv = pow(int(col[r]), p - 2, p)
        piv %= p
        piv *= inv
        piv %= p
        col = col.copy()
        col[r] = 0
        if updates == budget:
            at %= p
            updates = 0
        at[c:] -= np.multiply.outer(piv, col)
        updates += 1
        pivots.append(c)
        r += 1
    at %= p
    return at.T.astype(np.int64, copy=False), pivots


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical right-kernel basis, one row per basis vector.

    Row k has a 1 in its free column and the solved pivot entries; rows are
    ordered by free column index.
    """
    a, pivots = rref_mod_p(mat, p)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-a[: len(pivots), free].T) % p
    return basis


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    return len(rref_mod_p(mat, p)[1])


def solve_mod_p(mat: np.ndarray, rhs: np.ndarray, p: int):
    """One solution of mat @ x = rhs, or None if inconsistent.

    Returns (x, nullity) so callers can detect non-unique solutions.
    """
    a = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64) % p
    if b.ndim == 1:
        b = b[:, None]
    aug = np.concatenate([a, b], axis=1)
    red, pivots = rref_mod_p(aug, p)
    ncols = a.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, ncols:]
    nullity = ncols - len(pivots)
    return (x[:, 0] if rhs.ndim == 1 else x), nullity


def pullback(embed: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Rows where an n x e embedding of full column rank is invertible, and
    the inverse of those rows in the dtype of `embed`: y = inv @ v[rows]
    for v = embed @ y.  One elimination of [embed.T | I]: its pivots are the
    rows, and the left factor E that it applies, E embed[rows].T = I, is the
    transpose of the inverse."""
    n, e = embed.shape
    red, rows = rref_mod_p(np.hstack([embed.T, np.eye(e, dtype=embed.dtype)]), p)
    return rows, red[:, n:].T.astype(embed.dtype)


def preimage(v: np.ndarray, embed: np.ndarray, pulled, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates y (..., e) with embed @ y = v for vectors v (..., n)
    in the image of the embedding, by its `pullback` `pulled`, and where v
    lies outside the image (a boolean per vector), in which case its y is
    meaningless."""
    rows, inv = pulled
    y = matmul_mod_p(v[..., rows], inv.T, p)
    return y, (matmul_mod_p(y, embed.T, p) != v).any(axis=-1)


def power(x, k: int, mul, one):
    """x^k for k >= 0 by square and multiply, in the ring whose product is
    `mul` and whose one is `one` (field elements and batches, polynomials,
    matrices).  The result starts from `one`, so it is never x itself."""
    result = one
    while k:
        if k & 1:
            result = mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return result


def matpow_mod_p(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    check_int64_range(p, mat.shape[0])
    return power(np.array(mat, dtype=np.int64) % p, k,
                 lambda a, b: matmul_mod_p(a, b, p), np.eye(mat.shape[0], dtype=np.int64))


# ---------------------------------------------------------------------------
# characteristic polynomials over L[T], L = F_p[x]/(f)
# ---------------------------------------------------------------------------


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two L[T] arrays of possibly different T-lengths (not reduced)."""
    if a.shape[-2] < b.shape[-2]:
        a, b = b, a
    out = a.copy()
    out[..., : b.shape[-2], :] += b
    return out


def _lt_mul(fb: FieldBatch, a: np.ndarray, b: np.ndarray, width: int,
            mats: np.ndarray | None = None) -> np.ndarray:
    """Products mod T^width in L[T] of broadcastable (B, ..., D, n) arrays:
    the shorter factor's coefficients act through their transposed
    multiplication matrices, or b's through `mats` when the caller built
    them once for several products (`_lt_matrices`; b need not be the
    shorter then).  Each shift adds a sum of n products of residues, by
    `sum_products` with the other shifts' sums as its spare: reduced only
    when the dtype of the sums cannot hold all of them."""
    a, b = a[..., :width, :], b[..., :width, :]
    if mats is None and a.shape[-2] < b.shape[-2]:
        a, b = b, a
    da, db = a.shape[-2], b.shape[-2]
    if da == db == 1:  # T-degree 0: products in L
        return fb.mul(a, b)
    if mats is None:
        mats = _lt_matrices(fb, b)
    p, n = fb.p, fb.n
    D = min(da + db - 1, width)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    acc = np.zeros(lead + (D, n), dtype=np.result_type(a, mats))
    for t in range(min(db, D)):
        k = min(da, D - t)
        acc[..., t : t + k, :] += sum_products(a[..., :k, :], mats[..., t, :, :], p,
                                               spare=n * (db - 1))
    return mod_p(acc, p)


def _lt_matrices(fb: FieldBatch, b: np.ndarray) -> np.ndarray:
    """The transposed multiplication matrices (..., D, n, n) of the
    coefficients of b, as `_lt_mul` takes them: rows of coordinates times
    them are products by b_t."""
    return fb.mul_matrix(b).swapaxes(-1, -2)


def _berkowitz(fb: FieldBatch, M: np.ndarray, width: int) -> list[np.ndarray]:
    """det(X - M) = sum_i c_i X^(r-i) for (B, r, r, D, n) matrices over
    L[T], division-free (Berkowitz, IPL 1984), every c_i taken mod T^width:
    returns [1, c_1, ..., c_r].  Reduction mod T^width is a ring map, so it
    commutes with a formula without division.

    Every product is only as long as its operands make it (`_lt_mul`), so
    the work follows the T-length D of M, not the width: c_i, a sum of
    products of i entries, comes out with T-length min(i(D-1) + 1, width),
    its higher coefficients being zero.  Callers that want width
    coefficients pad.  Sums stay in `fb.dtype`.

    Going up from the trailing 1 x 1 block, the block [[a, R], [C, S]] of
    size m has the characteristic vector of S multiplied by the lower
    triangular Toeplitz matrix with first column 1, -a, -RC, -RSC, ...,
    -RS^(m-2)C.  R and S, no longer than any RS^jC, act through their
    multiplication matrices, built once per block."""
    p, dtype = fb.p, fb.dtype
    r = M.shape[1]
    M = M[..., :width, :]
    one = fb.one((1,))
    vec = [one]
    for k in range(r - 1, -1, -1):
        m = r - k
        row, col, S = M[:, k, k + 1 :], M[:, k + 1 :, k], M[:, k + 1 :, k + 1 :]
        by_row = _lt_matrices(fb, row) if M.shape[-2] > 1 else None
        by_S = _lt_matrices(fb, S) if M.shape[-2] > 1 and m > 2 else None
        t = [one, mod_p(-M[:, k, k], p)]
        for j in range(m - 1):
            t.append(mod_p(-_lt_mul(fb, col, row, width, by_row).sum(axis=1, dtype=dtype), p))
            if j < m - 2:
                col = mod_p(_lt_mul(fb, col[:, None], S, width, by_S).sum(axis=2, dtype=dtype), p)
        new = [one]
        for i in range(1, m + 1):
            acc = t[i] if i == m else _padd(t[i], vec[i])
            for j in range(1, i):
                acc = _padd(acc, _lt_mul(fb, t[j], vec[i - j], width))
            new.append(mod_p(acc, p))
        vec = new
    return vec


# ---------------------------------------------------------------------------
# matrices over a finite field
# ---------------------------------------------------------------------------


class Matrix:
    """Matrix over a finite field F_(p^n), held as int64 power-basis
    coordinates `coords` of shape (rows, cols, n).  Echelon forms and
    kernels come from `rref_mod_p`, determinants and characteristic
    polynomials from `_berkowitz` at T-degree 0."""

    def __init__(self, field: Field, rows: int, cols: int,
                 entries: Sequence[FieldElement] | np.ndarray):
        """`entries` holds rows * cols elements of `field` in row-major
        order, or their coordinates as an array of shape (rows, cols, n)."""
        check_int64_range(field.p, field.n)
        if not isinstance(entries, np.ndarray):
            if len(entries) != rows * cols:
                raise ValueError("entry count does not match dimensions")
            if any(x.field is not field for x in entries):
                raise ValueError("all entries must share one owner field")
            entries = field.array(entries).astype(np.int64)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.coords = entries.reshape(rows, cols, field.n) % field.p

    def __getitem__(self, ij) -> FieldElement:
        return self.field.elem(self.coords[ij].tolist())

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and np.array_equal(self.coords, other.coords)
        )

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form, nonzero rows first, and its pivot columns.

        The rows x^k u (k < n) of each row u span its F_p-span.  In
        coordinates along e_j x^k, index j*n + k, the rows of the F_p echelon
        form that pivot at k = 0 are exactly the reduced echelon rows over
        the field; the others are their multiples by x^k."""
        p, n = self.field.p, self.field.n
        expanded = self.field.batch().mul_matrix(self.coords)  # [i, j, :, k]: x^k M[i, j]
        expanded = expanded.transpose(0, 3, 1, 2).reshape(self.rows * n, self.cols * n)
        ech, pivots = rref_mod_p(expanded, p)
        keep = [t for t, c in enumerate(pivots) if c % n == 0]
        out = np.zeros_like(self.coords)
        out[: len(keep)] = ech[keep].reshape(len(keep), self.cols, n)
        return Matrix(self.field, self.rows, self.cols, out), [pivots[t] // n for t in keep]

    def kernel_basis(self) -> list[list[FieldElement]]:
        """Canonical right-kernel basis, read off the echelon form as
        `kernel_mod_p` reads it: one vector per free column, in column
        order, with a 1 there and the negated echelon entries at the pivots."""
        ech, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((len(free), self.cols, self.field.n), dtype=np.int64)
        for k, fc in enumerate(free):
            basis[k, fc, 0] = 1
            basis[k, pivots] = -ech.coords[: len(pivots), fc]
        return [[self.field.elem(c) for c in v] for v in basis.tolist()]

    def _char_vector(self) -> list[list[int]]:
        """Coordinates of [1, c_1, ..., c_n] with det(xI - M) = sum c_i x^(n-i)."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        vec = _berkowitz(self.field.batch(), self.coords[None, :, :, None], 1)
        return [c[0, 0].tolist() for c in vec]

    def det(self) -> FieldElement:
        c_n = self.field.elem(self._char_vector()[-1])  # det(-M)
        return -c_n if self.rows % 2 else c_n

    def charpoly(self) -> list[FieldElement]:
        """Characteristic polynomial det(xI - M), ascending coefficients,
        monic of degree n."""
        return [self.field.elem(c) for c in reversed(self._char_vector())]
