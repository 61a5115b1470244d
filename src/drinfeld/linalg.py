"""Exact linear algebra over finite fields, on int64 numpy arrays.

Every echelon form is one `rref_mod_p` over F_p: an F_(p^n)-linear
problem is posed over F_p with n digits per unknown.  Every determinant
and characteristic polynomial is one division-free Berkowitz (`_berkowitz`),
batched, over the polynomial ring L[T] of a residue field L; a matrix over a
field is the case of T-degree 0.  `Matrix` holds the small matrices over
F_l (the torsion Frobenius and T-action matrices) on these two routines.

All echelon forms pick pivots by ascending column index, so bases are
canonical and reproducible.  Everything works in int64 and refuses
(`Int64RangeError`) any prime whose products could overflow it.

Large products mod p go through `matmul_mod_p`, which packs several columns
of the right factor into one int64 (SWAR lanes).  A sum of k products of
residues is at most k(p-1)^2, so each lane gets bits = (k(p-1)^2).bit_length()
bits and an int64 holds lanes = 63 // bits of them: no lane sum carries into
the next lane or into the sign bit, and one integer product does the work of
`lanes`.  Inputs must be reduced mod p.  With fewer than two lanes, or on
object arrays (Python ints for a large p), it is the plain `a @ b % p`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import Field, FieldBatch, FieldElement

_INT64_MAX = int(np.iinfo(np.int64).max)


class Int64RangeError(ValueError):
    """The prime is too large for exact int64 arithmetic."""


def int64_products(p: int) -> int:
    """How many products of two residues mod p an int64 sum can hold."""
    return _INT64_MAX // max((p - 1) ** 2, 1)


def check_int64_range(p: int, n: int):
    """Refuse p when a sum of n products of residues, (p-1)^2 * n, could
    exceed the int64 range: numpy would wrap around without a word."""
    if int64_products(p) < max(n, 1):
        raise Int64RangeError(
            f"p = {p} is too large for exact int64 arithmetic ({n} products per sum)"
        )


class PackedMatrix:
    """The right factor b (..., k, n) of products a @ b % p, packed once for
    many left factors: lane j of packed column i holds column j*w + i of b
    (w = ceil(n / lanes)), shifted up by j*bits bits."""

    def __init__(self, b: np.ndarray, p: int):
        k, n = b.shape[-2:]
        self.b, self.p, self.n = b, p, n
        self.bits = max((k * (p - 1) ** 2).bit_length(), 1)
        self.lanes = min(63 // self.bits, n) if b.dtype == np.int64 else 1
        if self.lanes < 2:
            return
        w = -(-n // self.lanes)
        self.packed = np.zeros(b.shape[:-1] + (w,), dtype=np.int64)
        for j in range(self.lanes):
            block = b[..., j * w : (j + 1) * w]
            self.packed[..., : block.shape[-1]] |= block << (j * self.bits)
        self.shifts = self.bits * np.arange(self.lanes, dtype=np.int64)[:, None]
        self.mask = (1 << self.bits) - 1

    def rmul(self, a: np.ndarray) -> np.ndarray:
        """a @ b % p for a (..., m, k) or (k,) with entries in [0, p)."""
        if self.lanes < 2 or a.dtype != np.int64:
            return a @ self.b % self.p
        prod = a @ self.packed
        lanes = prod[..., None, :] >> self.shifts
        lanes &= self.mask
        lanes %= self.p
        return lanes.reshape(prod.shape[:-1] + (-1,))[..., : self.n]


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p, exact, for arrays with entries in [0, p) (see the module
    docstring for the lane packing and its bound)."""
    return PackedMatrix(b, p).rmul(a)


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list, pivots by column order."""
    check_int64_range(p, 1)
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # a[r, :c] is zero already, so only the columns from c on change
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask, c:] = (a[mask, c:] - np.outer(col[mask], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical right-kernel basis, one row per basis vector.

    Row k has a 1 in its free column and the solved pivot entries; rows are
    ordered by free column index.
    """
    a, pivots = rref_mod_p(mat, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-a[r, fc]) % p
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
    the inverse of those rows: y = inv @ v[rows] for v = embed @ y."""
    _, rows = rref_mod_p(embed.T, p)
    inv, _ = solve_mod_p(embed[rows], np.eye(len(rows), dtype=np.int64), p)
    return rows, inv


def matpow_mod_p(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    check_int64_range(p, mat.shape[0])
    result = np.eye(mat.shape[0], dtype=np.int64)
    base = np.array(mat, dtype=np.int64) % p
    while k:
        if k & 1:
            result = (result @ base) % p
        k >>= 1
        if k:
            base = (base @ base) % p
    return result


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


def _lt_mul(fb: FieldBatch, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products in L[T] of broadcastable (B, ..., D, n) arrays: the shorter
    factor's coefficients act through their multiplication matrices."""
    if a.shape[-2] < b.shape[-2]:
        a, b = b, a
    da, db = a.shape[-2], b.shape[-2]
    if da == 1:  # T-degree 0: products in L
        return fb.mul(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    mats = fb.mul_matrix(b).swapaxes(-1, -2)
    acc = np.zeros(lead + (da + db - 1, fb.n), dtype=np.int64)
    for t in range(db):
        acc[..., t : t + da, :] += a @ mats[..., t, :, :] % fb.p
    return acc % fb.p


def _berkowitz(fb: FieldBatch, M: np.ndarray) -> list[np.ndarray]:
    """det(X - M) = sum_i c_i X^(r-i) for (B, r, r, D, n) matrices over
    L[T], division-free (Berkowitz, IPL 1984): returns [1, c_1, ..., c_r].

    Going up from the trailing 1 x 1 block, the block [[a, R], [C, S]] of
    size m has the characteristic vector of S multiplied by the lower
    triangular Toeplitz matrix with first column 1, -a, -RC, -RSC, ...,
    -RS^(m-2)C."""
    p = fb.p
    r = M.shape[1]
    one = fb.one((1,))
    vec = [one]
    for k in range(r - 1, -1, -1):
        m = r - k
        row, col, S = M[:, k, k + 1 :], M[:, k + 1 :, k], M[:, k + 1 :, k + 1 :]
        t = [one, (-M[:, k, k]) % p]
        for j in range(m - 1):
            t.append((-_lt_mul(fb, row, col).sum(axis=1)) % p)
            if j < m - 2:
                col = _lt_mul(fb, S, col[:, None]).sum(axis=2) % p
        new = [one]
        for i in range(1, m + 1):
            acc = t[i] if i == m else _padd(t[i], vec[i])
            for j in range(1, i):
                acc = _padd(acc, _lt_mul(fb, t[j], vec[i - j]))
            new.append(acc % p)
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
            entries = np.array([x.coords for x in entries], dtype=np.int64)
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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        terms = self.field.batch().mul(self.coords[:, :, None], other.coords[None])
        return Matrix(self.field, self.rows, other.cols, terms.sum(axis=1))

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
        vec = _berkowitz(self.field.batch(), self.coords[None, :, :, None])
        return [c[0, 0].tolist() for c in vec]

    def det(self) -> FieldElement:
        c_n = self.field.elem(self._char_vector()[-1])  # det(-M)
        return -c_n if self.rows % 2 else c_n

    def charpoly(self) -> list[FieldElement]:
        """Characteristic polynomial det(xI - M), ascending coefficients,
        monic of degree n."""
        return [self.field.elem(c) for c in reversed(self._char_vector())]
