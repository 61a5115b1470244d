import random

import numpy as np
import pytest

from drinfeld import linalg
from drinfeld.fields import FieldBatch, make_field


class TestModP:
    def test_kernel_of_identity_is_empty(self):
        assert linalg.kernel_mod_p(np.eye(4, dtype=np.int64), 5).shape[0] == 0

    def test_kernel_of_zero_is_standard_basis(self):
        k = linalg.kernel_mod_p(np.zeros((3, 3), dtype=np.int64), 5)
        assert np.array_equal(k, np.eye(3, dtype=np.int64))

    def test_random_rank4_kernel_multiplies_back(self):
        rng = np.random.default_rng(42)
        # rank-4 6x6 over F_5 by construction
        a = rng.integers(0, 5, size=(4, 6))
        mix = rng.integers(0, 5, size=(6, 4))
        m = (mix @ a) % 5
        while linalg.rank_mod_p(m, 5) != 4:
            a = rng.integers(0, 5, size=(4, 6))
            mix = rng.integers(0, 5, size=(6, 4))
            m = (mix @ a) % 5
        k = linalg.kernel_mod_p(m, 5)
        assert k.shape[0] == 2
        assert not ((m @ k.T) % 5).any()

    def test_rank_nullity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(0, 7, size=(5, 8))
            rank = linalg.rank_mod_p(m, 7)
            null = linalg.kernel_mod_p(m, 7).shape[0]
            assert rank + null == 8

    def test_solve_detects_inconsistency(self):
        m = np.array([[1, 0], [1, 0]], dtype=np.int64)
        assert linalg.solve_mod_p(m, np.array([1, 2]), 5) is None
        sol = linalg.solve_mod_p(m, np.array([2, 2]), 5)
        assert sol is not None and sol[1] == 1  # one free column

    def test_solve_unique(self):
        rng = np.random.default_rng(3)
        m = rng.integers(0, 5, size=(4, 4))
        while linalg.rank_mod_p(m, 5) != 4:
            m = rng.integers(0, 5, size=(4, 4))
        x = rng.integers(0, 5, size=4)
        b = (m @ x) % 5
        got, nullity = linalg.solve_mod_p(m, b, 5)
        assert nullity == 0
        assert np.array_equal(got % 5, x % 5)


class TestInt64Guard:
    # (p-1)^2 fits int64 at the first prime, not at the second
    INSIDE, OUTSIDE = 3037000493, 4294967311

    def system(self, p):
        mat = np.array([[p - 1, 2, 3], [p - 2, p - 3, 5], [7, p - 5, p - 7]], dtype=np.int64)
        rhs = np.array([p - 11, 13, p - 17], dtype=np.int64)
        return mat, rhs

    def test_solve_exact_inside_the_range(self):
        p = self.INSIDE
        mat, rhs = self.system(p)
        x, nullity = linalg.solve_mod_p(mat, rhs, p)
        assert nullity == 0
        # residual in Python integers, which cannot overflow
        rows = mat.tolist()
        got = [sum(a * int(v) for a, v in zip(row, x)) % p for row in rows]
        assert got == [int(v) % p for v in rhs]

    def test_every_mod_p_routine_refuses_outside_the_range(self):
        p = self.OUTSIDE
        mat, rhs = self.system(p)
        with pytest.raises(linalg.Int64RangeError):
            linalg.solve_mod_p(mat, rhs, p)
        with pytest.raises(linalg.Int64RangeError):
            linalg.kernel_mod_p(mat, p)
        with pytest.raises(linalg.Int64RangeError):
            linalg.rref_mod_p(mat, p)
        with pytest.raises(linalg.Int64RangeError):
            linalg.matpow_mod_p(mat, 2, p)

    def test_matpow_counts_its_dimension(self):
        p = self.INSIDE
        one = np.array([[p - 2]], dtype=np.int64)
        assert linalg.matpow_mod_p(one, 3, p)[0, 0] == pow(p - 2, 3, p)
        with pytest.raises(linalg.Int64RangeError):
            linalg.matpow_mod_p(np.eye(2, dtype=np.int64), 3, p)

    def test_batched_field_arithmetic_is_guarded(self):
        with pytest.raises(linalg.Int64RangeError):
            FieldBatch(self.OUTSIDE, np.array([[0, 1]]))
        with pytest.raises(linalg.Int64RangeError):
            FieldBatch(self.INSIDE, np.array([[1, 0, 1]]))  # sums of 2 products
        fb = FieldBatch(self.INSIDE, np.array([[0, 1]]))
        a = np.array([[self.INSIDE - 2]], dtype=np.int64)
        assert fb.mul(a, a)[0, 0] == pow(self.INSIDE - 2, 2, self.INSIDE)
        assert fb.mul(fb.inv(a), a)[0, 0] == 1


class TestMatrixGeneric:
    def setup_method(self):
        self.fld = make_field(5, 1, 2)
        self.rng = random.Random(99)

    def rand_matrix(self, n):
        f = self.fld
        return linalg.Matrix(f, n, n,
                             [f.from_int(self.rng.randrange(f.order)) for _ in range(n * n)])

    def test_charpoly_cayley_hamilton(self):
        for n in (2, 3, 4):
            for _ in range(5):
                m = self.rand_matrix(n)
                cp = m.charpoly()
                assert len(cp) == n + 1 and cp[-1] == self.fld.one
                value = linalg.charpoly_eval(cp, m)
                assert all(not v for v in value.entries)

    def test_charpoly_constant_term_is_signed_det(self):
        for _ in range(10):
            m = self.rand_matrix(3)
            cp = m.charpoly()
            # det(xI - M) at x = 0 is (-1)^n det(M)
            assert cp[0] == -m.det()

    def test_charpoly_matches_numpy_over_prime_field(self):
        f5 = make_field(5, 1, 1)
        rng = random.Random(5)
        for _ in range(10):
            n = 3
            entries = [f5.scalar(rng.randrange(5)) for _ in range(n * n)]
            m = linalg.Matrix(f5, n, n, entries)
            cp = m.charpoly()
            a = m.to_numpy()
            # numpy oracle: integer characteristic polynomial mod 5
            coeffs = np.poly(a.astype(float))  # descending, leading 1
            ints = [int(round(c)) % 5 for c in coeffs[::-1]]
            assert [c.to_int() for c in cp] == ints

    def test_kernel_basis_deterministic_and_correct(self):
        f = self.fld
        m = self.rand_matrix(4)
        # force rank drop: replace the last row by a combination of the others
        rows = [list(m.row(i)) for i in range(4)]
        rows[3] = [rows[0][j] + rows[1][j] for j in range(4)]
        m2 = linalg.Matrix.from_rows(f, rows)
        kb = m2.kernel_basis()
        assert len(kb) == 4 - m2.rank()
        for v in kb:
            image = m2.apply(v)
            assert all(not x for x in image)
        assert kb == linalg.Matrix.from_rows(f, rows).kernel_basis()
