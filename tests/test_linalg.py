import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import linalg
from drinfeld.fields import FieldBatch, FieldElement, _divmod, _xpow_mod, make_field
from drinfeld.linalg import _berkowitz
from drinfeld.polynomials import SparsePoly, _powmod, parse_poly, residue_field


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


class TestPower:
    """`power` is every ring's square and multiply: each caller's x^k is
    k-fold multiplication in its own ring, and x^0 that ring's one."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_every_caller_equals_repeated_multiplication(self, k, seed):
        rng = random.Random(seed)

        def repeated(x, mul, one):
            for _ in range(k):
                one = mul(one, x)
            return one

        F = make_field(3, 2, 2)
        x = F.from_int(rng.randrange(1, F.order))
        assert x**k == repeated(x, FieldElement.__mul__, F.one)
        assert x**-k * x**k == F.one

        fb = FieldBatch(5, [[2, 0, 1, 1], [1, 1, 0, 1], [3, 4, 2, 1]])
        a = np.array([[rng.randrange(5) for _ in range(3)] for _ in range(3)], dtype=fb.dtype)
        one = np.zeros_like(a)
        one[:, 0] = 1
        assert np.array_equal(fb.pow(a, k), repeated(a, fb.mul, one))

        F5 = make_field(5, 1, 1)
        f = SparsePoly(F5, [(e, F5.scalar(rng.randrange(1, 5))) for e in rng.sample(range(6), 3)])
        assert f**k == repeated(f, SparsePoly.__mul__, SparsePoly.one(F5))
        g = parse_poly("T^3+2*T+4", F5)
        assert _powmod(f, k, g) == (f**k) % g

        m = np.array([[rng.randrange(7) for _ in range(4)] for _ in range(4)], dtype=np.int64)
        assert np.array_equal(linalg.matpow_mod_p(m, k, 7),
                              repeated(m, lambda u, v: u @ v % 7, np.eye(4, dtype=np.int64)))

        b = [rng.randrange(7) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, 7)]
        assert _xpow_mod(k, b, 7) == _divmod([0] * k + [1], b, 7)[1]


PRIMES_TO_1009 = [p for p in range(2, 1010) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _exact_matmul(a, b, p):
    """a @ b % p on Python ints, which cannot overflow."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


class TestLanePacked:
    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(PRIMES_TO_1009), k=st.integers(0, 300), m=st.integers(1, 6),
           n=st.integers(1, 80), lead=st.sampled_from([(), (3,), (2, 1)]),
           b_lead=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_plain_product(self, p, k, m, n, lead, b_lead, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=lead + (m, k))
        b = rng.integers(0, p, size=(lead if b_lead else ()) + (k, n))
        packed = linalg.PackedMatrix(b, p)
        assert packed.lanes * packed.bits <= 63 and k * (p - 1) ** 2 < 2**packed.bits
        assert np.array_equal(linalg.matmul_mod_p(a, b, p), _exact_matmul(a, b, p))
        v = a[(0,) * len(lead)][0]  # a vector on the left
        assert np.array_equal(packed.rmul(v), _exact_matmul(v, b, p))

    @pytest.mark.parametrize("k,bits,lanes", [(63, 6, 10), (127, 7, 9), (255, 8, 7), (256, 9, 7)])
    def test_full_lanes_at_the_boundary(self, k, bits, lanes):
        # at p = 2 the all-ones product fills each lane with k(p-1)^2 = k,
        # which is 2^bits - 1 for the first three k: the largest sum a lane holds
        a = np.ones((3, k), dtype=np.int64)
        b = np.ones((k, 70), dtype=np.int64)
        packed = linalg.PackedMatrix(b, 2)
        assert (packed.bits, packed.lanes) == (bits, lanes) and packed.packed is not None
        assert np.array_equal(packed.rmul(a), np.full((3, 70), k % 2))

    @pytest.mark.parametrize("p,k", [(1009, 300), (46337, 1), (46349, 1), (3037000493, 1)])
    def test_worst_case_entries(self, p, k):
        # every entry p - 1, so each lane sum is exactly k(p-1)^2
        a = np.full((2, k), p - 1, dtype=np.int64)
        b = np.full((k, 64), p - 1, dtype=np.int64)
        packed = linalg.PackedMatrix(b, p)
        assert packed.lanes == (2 if k * (p - 1) ** 2 < 2**31 else 1)
        assert (packed.packed is not None) == (packed.lanes == 2)
        assert np.array_equal(packed.rmul(a), _exact_matmul(a, b, p))

    def test_object_arrays_take_the_plain_product(self):
        p = 2**61 - 1  # products leave int64: Python ints
        rng = np.random.default_rng(5)
        a = np.array(rng.integers(0, p, size=(3, 4)).tolist(), dtype=object)
        b = np.array(rng.integers(0, p, size=(4, 5)).tolist(), dtype=object)
        assert linalg.PackedMatrix(b, p).lanes == 1
        want = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in a.tolist()]
        assert linalg.matmul_mod_p(a, b, p).tolist() == want
        # an object left factor on an int64 right factor that was packed
        small = np.arange(256, dtype=np.int64).reshape(4, 64) % 7
        assert linalg.PackedMatrix(small, 7).packed is not None
        got = linalg.PackedMatrix(small, 7).rmul(np.array([[1, 2, 3, 4]], dtype=object))
        assert got.tolist() == (np.array([[1, 2, 3, 4]]) @ small % 7).tolist()


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101]), rows=st.integers(1, 9), cols=st.integers(1, 9),
       rank=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_rref_is_the_reduced_echelon_form(p, rows, cols, rank, seed):
    """The reduced row echelon form is unique: pivots with unit columns,
    zeros left of each pivot and below the rank, and the same row space."""
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    mat = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
    ech, pivots = linalg.rref_mod_p(mat, p)
    r = len(pivots)
    assert pivots == sorted(set(pivots)) and not ech[r:].any()
    assert np.array_equal(ech[:r][:, pivots], np.eye(r, dtype=np.int64))
    assert all(not ech[i, :c].any() for i, c in enumerate(pivots))
    assert linalg.rank_mod_p(np.vstack([ech, mat]), p) == r


def python_rref(mat, p):
    """Gaussian elimination on Python ints, every entry reduced at once."""
    a = [[x % p for x in row] for row in mat]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [(x - f * y) % p for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return a, pivots


@pytest.mark.parametrize("p", [2, 5, 7])
@pytest.mark.parametrize("rows,cols,rank,seed", [(120, 120, 100, 0), (60, 140, 45, 1),
                                                 (140, 60, 52, 2)])
def test_rref_matches_python_ints_at_size(p, rows, cols, rank, seed):
    """Rank-deficient matrices of the sizes of the torsion kernels."""
    rng = np.random.default_rng(seed)
    mat = (rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p).tolist()
    ech, pivots = linalg.rref_mod_p(np.array(mat, dtype=np.int64), p)
    want, want_pivots = python_rref(mat, p)
    assert pivots == want_pivots and len(pivots) < min(rows, cols)
    assert ech.tolist() == want


@pytest.mark.parametrize("p,products", [(2147483647, 2), (3037000493, 1)])
@pytest.mark.parametrize("rows,cols,rank,seed", [(20, 24, 20, 0), (24, 20, 13, 1), (30, 30, 22, 2),
                                                 (56, 60, 50, 3)])
def test_rref_matches_python_ints_at_large_p(p, products, rows, cols, rank, seed):
    """Near the int64 limit the whole array is reduced after every one or
    two row updates; the echelon form is still the exact one."""
    assert linalg.products(p, np.int64) == products
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    mat = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
    ech, pivots = linalg.rref_mod_p(np.array(mat, dtype=np.int64), p)
    want, want_pivots = python_rref(mat, p)
    assert pivots == want_pivots and len(pivots) == rank
    assert ech.tolist() == want


# (p, min(rows, cols), dtype) on each side of the dtype switches of
# `rref_mod_p`: the narrowest dtype whose budget, products(p, dtype) updates,
# covers one update per pivot; at 2^31 - 1 int64 is reduced every 2 updates
RREF_SWITCHES = [(181, 1, np.int16), (181, 2, np.int32), (127, 2, np.int16), (127, 3, np.int32),
                 (26737, 3, np.int32), (26737, 4, np.int64), (2147483647, 5, np.int64)]


@pytest.mark.parametrize("p,need,dtype", RREF_SWITCHES)
@settings(max_examples=20, deadline=None)
@given(extra=st.integers(0, 5), tall=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_rref_matches_python_ints_across_dtypes(p, need, dtype, extra, tall, seed):
    narrower = [t for t in (np.int16, np.int32, np.int64) if np.dtype(t).itemsize < np.dtype(dtype).itemsize]
    assert dtype == np.int64 or linalg.products(p, dtype) >= need  # int64 takes the rest
    assert need > max((linalg.products(p, t) for t in narrower), default=0)
    rng = random.Random(seed)
    shape = (need + extra, need) if tall else (need, need + extra)
    mat = [[rng.randrange(p) for _ in range(shape[1])] for _ in range(shape[0])]
    ech, pivots = linalg.rref_mod_p(np.array(mat, dtype=np.int64), p)
    want, want_pivots = python_rref(mat, p)
    assert ech.dtype == np.int64 and pivots == want_pivots
    assert ech.tolist() == want


def _coords_matmul(fld, a, b):
    """Product of coordinate arrays (rows, k, n) @ (k, cols, n) over fld."""
    return fld.batch().mul(a[:, :, None], b[None]).sum(axis=1) % fld.p


class TestMatrixGeneric:
    def setup_method(self):
        self.fld = make_field(5, 1, 2)
        self.rng = random.Random(99)

    def rand_matrix(self, n):
        f = self.fld
        return linalg.Matrix(f, n, n,
                             [f.from_int(self.rng.randrange(f.order)) for _ in range(n * n)])

    def test_charpoly_cayley_hamilton(self):
        # Horner on coordinate arrays: sum_i c_i M^i = 0
        f = self.fld
        for n in (2, 3, 4):
            for _ in range(5):
                m = self.rand_matrix(n)
                cp = m.charpoly()
                assert len(cp) == n + 1 and cp[-1] == f.one
                value = np.zeros((n, n, f.n), dtype=np.int64)
                for c in reversed(cp):
                    value = _coords_matmul(f, value, m.coords)
                    value[range(n), range(n)] = (value[range(n), range(n)] + c.coords) % f.p
                assert not value.any()

    def test_charpoly_constant_term_is_signed_det(self):
        for n in (1, 2, 3, 4):
            for _ in range(5):
                m = self.rand_matrix(n)
                # det(xI - M) at x = 0 is (-1)^n det(M)
                det = m.det()
                assert m.charpoly()[0] == (-det if n % 2 else det)

    def test_charpoly_matches_numpy_over_prime_field(self):
        f5 = make_field(5, 1, 1)
        rng = random.Random(5)
        for _ in range(10):
            n = 3
            entries = [f5.scalar(rng.randrange(5)) for _ in range(n * n)]
            m = linalg.Matrix(f5, n, n, entries)
            cp = m.charpoly()
            # numpy oracle: integer characteristic polynomial mod 5
            coeffs = np.poly(m.coords[:, :, 0].astype(float))  # descending, leading 1
            ints = [int(round(c)) % 5 for c in coeffs[::-1]]
            assert [c.to_int() for c in cp] == ints

    def test_kernel_basis_deterministic_and_correct(self):
        f = self.fld
        m = self.rand_matrix(4)
        # force rank drop: replace the last row by the sum of the first two
        entries = [m[i, j] for i in range(3) for j in range(4)]
        entries += [m[0, j] + m[1, j] for j in range(4)]
        m2 = linalg.Matrix(f, 4, 4, entries)
        kb = m2.kernel_basis()
        assert len(kb) == 4 - len(m2.rref()[1]) >= 1
        vecs = np.array([[x.coords for x in v] for v in kb], dtype=np.int64)
        assert not _coords_matmul(f, m2.coords, vecs.transpose(1, 0, 2)).any()
        assert kb == linalg.Matrix(f, 4, 4, entries).kernel_basis()

    def test_matmul_and_equality(self):
        a, b = self.rand_matrix(3), self.rand_matrix(3)
        prod = linalg.Matrix(self.fld, 3, 3, _coords_matmul(self.fld, a.coords, b.coords))
        for i in range(3):
            for j in range(3):
                want = self.fld.zero
                for k in range(3):
                    want = want + a[i, k] * b[k, j]
                assert prod[i, j] == want
        assert prod == linalg.Matrix(self.fld, 3, 3, prod.coords.copy())
        assert prod != a


def _golden_fields():
    f2, f3 = make_field(2, 1, 1), make_field(3, 1, 1)
    return {
        "F_5": make_field(5, 1, 1),
        "F_25": make_field(5, 2, 1),
        "F_9": make_field(3, 2, 1),
        "F_9 = F_3[T]/(T^2+1)": residue_field(parse_poly("T^2+1", f3)).field,
        "F_4": make_field(2, 2, 1),
        "F_8": make_field(2, 3, 1),
        "F_8 = F_2[T]/(T^3+T+1)": residue_field(parse_poly("T^3+T+1", f2)).field,
    }


# Recorded from the pure-Python Gaussian and Hessenberg `Matrix` that the
# numpy one replaced: (field, 3 x 3 entries as element indices row-major,
# ascending charpoly, det, {lambda: kernel basis of M - lambda} for every
# lambda with a nonzero kernel).  The last matrix of each field is lambda I
# plus a rank-one matrix, so M - lambda has a two-dimensional kernel.
MATRIX_GOLDEN = [
    ('F_5', [3, 1, 4, 2, 1, 3, 2, 4, 1], [0, 0, 0, 1], 0, {0: [[4, 4, 1]]}),
    ('F_5', [3, 2, 3, 4, 4, 1, 2, 4, 2], [1, 3, 1, 1], 4, {}),
    ('F_5', [4, 0, 1, 3, 1, 4, 1, 3, 0], [0, 1, 0, 1], 0, {0: [[1, 3, 1]], 2: [[2, 0, 1]], 3: [[4, 3, 1]]}),
    ('F_5', [1, 1, 4, 3, 4, 4, 0, 0, 3], [2, 1, 2, 1], 3, {2: [[1, 1, 0]], 3: [[3, 1, 0], [2, 0, 1]]}),
    ('F_25', [10, 11, 6, 10, 13, 13, 10, 18, 6], [24, 22, 1, 1], 6, {13: [[14, 14, 1]]}),
    ('F_25', [13, 7, 6, 1, 23, 7, 24, 0, 8], [14, 16, 16, 1], 16, {23: [[23, 11, 1]]}),
    ('F_25', [16, 10, 24, 18, 22, 13, 19, 3, 10], [3, 6, 7, 1], 2, {22: [[22, 1, 1]]}),
    ('F_25', [23, 4, 7, 10, 16, 13, 22, 19, 24], [4, 13, 22, 1], 1, {16: [[14, 21, 1]], 21: [[3, 1, 0], [14, 0, 1]]}),
    ('F_9', [2, 3, 5, 7, 2, 4, 6, 5, 5], [7, 6, 6, 1], 5, {}),
    ('F_9', [7, 2, 2, 5, 3, 1, 1, 2, 0], [7, 8, 2, 1], 5, {2: [[4, 5, 1]], 3: [[8, 5, 1]], 8: [[5, 6, 1]]}),
    ('F_9', [2, 7, 3, 5, 3, 1, 3, 4, 3], [7, 5, 4, 1], 5, {}),
    ('F_9', [3, 7, 5, 8, 4, 4, 5, 5, 3], [1, 4, 2, 1], 2, {6: [[2, 3, 1]], 8: [[2, 1, 0], [1, 0, 1]]}),
    ('F_9 = F_3[T]/(T^2+1)', [1, 4, 4, 4, 2, 4, 8, 1, 7], [5, 7, 5, 1], 7, {8: [[8, 4, 1]]}),
    ('F_9 = F_3[T]/(T^2+1)', [3, 3, 6, 2, 8, 3, 5, 5, 0], [7, 1, 1, 1], 5, {7: [[7, 4, 1]]}),
    ('F_9 = F_3[T]/(T^2+1)', [8, 6, 1, 1, 3, 0, 8, 2, 3], [5, 2, 7, 1], 7, {1: [[7, 1, 0]], 2: [[8, 1, 1]], 5: [[6, 3, 1]]}),
    ('F_9 = F_3[T]/(T^2+1)', [0, 4, 4, 5, 0, 1, 4, 6, 8], [5, 8, 4, 1], 7, {2: [[8, 1, 0], [8, 0, 1]], 7: [[5, 3, 1]]}),
    ('F_4', [0, 1, 0, 0, 0, 1, 2, 0, 0], [2, 0, 0, 1], 2, {}),
    ('F_4', [2, 0, 1, 0, 0, 1, 1, 1, 3], [2, 1, 1, 1], 2, {}),
    ('F_4', [1, 3, 2, 2, 3, 3, 1, 3, 3], [2, 3, 1, 1], 2, {}),
    ('F_4', [0, 3, 1, 2, 1, 1, 2, 3, 3], [1, 3, 2, 1], 1, {2: [[2, 1, 0], [3, 0, 1]]}),
    ('F_8', [2, 5, 7, 0, 1, 5, 0, 3, 6], [4, 7, 5, 1], 4, {2: [[1, 0, 0]]}),
    ('F_8', [0, 3, 7, 7, 0, 6, 5, 0, 5], [4, 4, 5, 1], 4, {3: [[7, 3, 1]]}),
    ('F_8', [4, 2, 3, 1, 6, 1, 2, 2, 0], [3, 3, 2, 1], 3, {}),
    ('F_8', [1, 1, 7, 1, 4, 2, 1, 3, 5], [0, 3, 0, 1], 0, {0: [[6, 1, 1]], 7: [[3, 1, 0], [2, 0, 1]]}),
    ('F_8 = F_2[T]/(T^3+T+1)', [7, 6, 7, 5, 2, 0, 1, 1, 5], [0, 6, 0, 1], 0, {0: [[4, 1, 1]], 4: [[2, 3, 1]]}),
    ('F_8 = F_2[T]/(T^3+T+1)', [6, 2, 1, 0, 6, 0, 4, 3, 1], [7, 6, 1, 1], 7, {6: [[2, 5, 1]]}),
    ('F_8 = F_2[T]/(T^3+T+1)', [5, 2, 3, 1, 6, 1, 4, 6, 2], [7, 6, 1, 1], 7, {6: [[1, 0, 1]]}),
    ('F_8 = F_2[T]/(T^3+T+1)', [2, 1, 1, 0, 7, 0, 3, 6, 1], [7, 3, 4, 1], 7, {4: [[3, 0, 1]], 7: [[2, 1, 0], [2, 0, 1]]}),
]


@pytest.mark.parametrize("name,entries,charpoly,det,kernels", MATRIX_GOLDEN)
def test_matrix_golden_table(name, entries, charpoly, det, kernels):
    f = _golden_fields()[name]
    m = linalg.Matrix(f, 3, 3, [f.from_int(x) for x in entries])
    assert [c.to_int() for c in m.charpoly()] == charpoly
    assert m.det().to_int() == det
    for lam in f.elements():
        shifted = linalg.Matrix(f, 3, 3, [m[i, j] - (lam if i == j else f.zero)
                                          for i in range(3) for j in range(3)])
        got = [[x.to_int() for x in v] for v in shifted.kernel_basis()]
        assert got == kernels.get(lam.to_int(), [])


def _cut(c, width):
    """c padded with zero T-coefficients or cut to T-length width."""
    out = np.zeros(c.shape[:1] + (width,) + c.shape[2:], dtype=c.dtype)
    out[:, : min(width, c.shape[1])] = c[:, :width]
    return out


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_000_007, 2147483647])
@settings(max_examples=15, deadline=None)
@given(e=st.integers(1, 2), r=st.integers(1, 4), D=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_truncated_berkowitz_is_the_full_one_cut(p, e, r, D, seed, data):
    # at p = 2^31 - 1 an int64 holds 2 products, so _lt_mul reduces every shift
    fb = make_field(p, e, 1).batch()
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(3, r, r, D, e), dtype=np.int64)
    full = _berkowitz(fb, M, r * D)
    width = data.draw(st.integers(1, r * D))
    cut = _berkowitz(fb, M, width)
    assert len(cut) == len(full) == r + 1
    for got, want in zip(cut, full):
        assert got.shape[1] <= width
        assert np.array_equal(_cut(got, width), _cut(want, width))


@pytest.mark.parametrize("p,e", [(2**61 - 1, 1), (3037000493, 2)])
@pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (2, 4)])
def test_lt_mul_stays_exact_on_object_fields(p, e, da, db):
    # int64 cannot hold n products at these p, so the batch works on Python ints
    fld = make_field(p, e, 1)
    fb = fld.batch()
    assert fb.dtype == object
    rng = random.Random(p + 10 * da + db)
    a = np.array([[[rng.randrange(p) for _ in range(e)] for _ in range(da)] for _ in range(2)],
                 dtype=object)
    b = np.array([[[rng.randrange(p) for _ in range(e)] for _ in range(db)] for _ in range(2)],
                 dtype=object)
    got = linalg._lt_mul(fb, a, b, da + db - 1)
    for row_a, row_b, row_got in zip(a.tolist(), b.tolist(), got.tolist()):
        want = [fld.zero] * (da + db - 1)
        for i, x in enumerate(row_a):
            for j, y in enumerate(row_b):
                want[i + j] = want[i + j] + fld.elem(x) * fld.elem(y)
        assert row_got == [list(w.coords) for w in want]
