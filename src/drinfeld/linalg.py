"""Exact linear algebra over finite fields.

Two layers:

* numpy routines over prime fields F_p (`*_mod_p`), the one core for all
  linear algebra over F_q = F_(p^e) (torsion kernels, Frobenius matrices,
  linear systems): an F_q-linear problem is posed over F_p with e digits
  per F_q unknown;
* a generic `Matrix` over any `Field`, with deterministic echelon forms,
  kernel bases and characteristic polynomials, used only for matrices over
  F_l (the torsion Frobenius and T-action matrices) and the GL_r oracle.

All echelon forms pick pivots by ascending column index, so bases are
canonical and reproducible.  The numpy layer works in int64 and refuses
(`Int64RangeError`) any prime whose products could overflow it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import Field, FieldElement


# ---------------------------------------------------------------------------
# numpy layer: matrices over F_p as int64 arrays
# ---------------------------------------------------------------------------

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
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
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
# generic layer: matrices with FieldElement entries
# ---------------------------------------------------------------------------


class Matrix:
    """Dense matrix over a single `Field`; entries row-major, immutable use."""

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[FieldElement]):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for x in entries:
            if x.field is not field:
                raise ValueError("all entries must share one owner field")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[FieldElement]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = [x for row in rows for x in row]
        return cls(field, r, c, flat)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        f = self.field
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = f.zero
                for k in range(self.cols):
                    acc = acc + ri[k] * other[k, j]
                out.append(acc)
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec: Sequence[FieldElement]) -> list[FieldElement]:
        f = self.field
        out = []
        for i in range(self.rows):
            acc = f.zero
            ri = self.row(i)
            for k in range(self.cols):
                acc = acc + ri[k] * vec[k]
            out.append(acc)
        return out

    def _rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def rref(self) -> tuple[list[list[FieldElement]], list[int]]:
        f = self.field
        a = self._rows_list()
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pivot = None
            for i in range(r, self.rows):
                if a[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            inv = f.inv(a[r][c])
            a[r] = [x * inv for x in a[r]]
            for i in range(self.rows):
                if i != r and a[i][c]:
                    c_i = a[i][c]
                    a[i] = [x - c_i * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[FieldElement]]:
        """Canonical echelonized right-kernel basis (see kernel_mod_p)."""
        f = self.field
        a, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [f.zero] * self.cols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = -a[r][fc]
            basis.append(v)
        return basis

    def det(self) -> FieldElement:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        f = self.field
        a = self._rows_list()
        n = self.rows
        det = f.one
        for c in range(n):
            pivot = None
            for i in range(c, n):
                if a[i][c]:
                    pivot = i
                    break
            if pivot is None:
                return f.zero
            if pivot != c:
                a[c], a[pivot] = a[pivot], a[c]
                det = -det
            det = det * a[c][c]
            inv = f.inv(a[c][c])
            for i in range(c + 1, n):
                if a[i][c]:
                    s = a[i][c] * inv
                    a[i] = [x - s * y for x, y in zip(a[i], a[c])]
        return det

    def charpoly(self) -> list[FieldElement]:
        """Characteristic polynomial det(xI - M), ascending coefficients,
        monic of degree n.  Hessenberg reduction then the standard
        leading-minor recurrence; works over any field."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        f = self.field
        n = self.rows
        if n == 0:
            return [f.one]
        h = self._rows_list()
        # similarity reduction to upper Hessenberg form
        for c in range(n - 2):
            pivot = None
            for i in range(c + 1, n):
                if h[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            if pivot != c + 1:
                h[c + 1], h[pivot] = h[pivot], h[c + 1]
                for i in range(n):
                    h[i][c + 1], h[i][pivot] = h[i][pivot], h[i][c + 1]
            inv = f.inv(h[c + 1][c])
            for i in range(c + 2, n):
                if h[i][c]:
                    s = h[i][c] * inv
                    h[i] = [x - s * y for x, y in zip(h[i], h[c + 1])]
                    for k in range(n):
                        h[k][c + 1] = h[k][c + 1] + s * h[k][i]
        # p_k = charpoly of leading k x k block
        polys = [[f.one]]
        for k in range(1, n + 1):
            # p_k(x) = (x - h[k-1][k-1]) p_{k-1}(x) - sum_i h[i][k-1] (prod subdiag) p_i(x)
            prev = polys[k - 1]
            term = [f.zero] + prev
            d = h[k - 1][k - 1]
            term = [a - d * b for a, b in zip(term, prev + [f.zero])]
            prod = f.one
            for i in range(k - 2, -1, -1):
                prod = prod * h[i + 1][i]
                coeff = h[i][k - 1] * prod
                if coeff:
                    pi = polys[i]
                    term = [a - coeff * (pi[j] if j < len(pi) else f.zero) for j, a in enumerate(term)]
            polys.append(term)
        return polys[n]

    def to_numpy(self) -> np.ndarray:
        """Coordinate stack for prime fields (n = 1) only."""
        if self.field.n != 1:
            raise ValueError("to_numpy requires a prime field")
        return np.array(
            [[self[i, j].coords[0] for j in range(self.cols)] for i in range(self.rows)],
            dtype=np.int64,
        )


def charpoly_eval(coeffs: Sequence[FieldElement], mat: Matrix) -> Matrix:
    """Evaluate an ascending-coefficient polynomial at a square matrix."""
    f = mat.field
    n = mat.rows
    acc = Matrix(f, n, n, [f.zero] * (n * n))
    for c in reversed(coeffs):
        acc = acc @ mat
        acc = Matrix(
            f, n, n, [acc[i, j] + (c if i == j else f.zero) for i in range(n) for j in range(n)]
        )
    return acc
