"""Narrow integer dtypes: the arithmetic in the dtype that `FieldBatch`
picks equals the same arithmetic on Python ints, every guarded sum holds at
its worst case, every route of the exact product (`linalg.matmul_mod_p`)
equals Python ints on each side of its switch, and the sweep kernel keeps
its arrays narrow and unpacked."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drinfeld.charpoly as charpoly_mod
from drinfeld import fields, linalg, polynomials
from drinfeld.charpoly import _phi_of, charpolys_of_degree
from drinfeld.fields import FieldBatch, make_field
from drinfeld.linalg import PackedMatrix
from drinfeld.polynomials import prime_coordinates
from drinfeld.reduction import phi_T_powers
from drinfeld.skew import DrinfeldModule

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def on_python_ints(fb: FieldBatch) -> FieldBatch:
    """The same batch with object arrays: the same algorithm on Python ints,
    which cannot overflow."""
    ref = FieldBatch.__new__(FieldBatch)
    ref.__dict__.update(fb.__dict__, dtype=np.dtype(object), _rows=fb._rows.astype(object))
    return ref


def residues(data, p, shape, dtype):
    """Entries in [0, p): random, or all p - 1 (the worst case of every sum)."""
    if data.draw(st.booleans(), label="worst case"):
        return np.full(shape, p - 1, dtype=dtype)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return np.random.default_rng(seed).integers(0, p, size=shape).astype(dtype)


# (p, n, dtype): each side of the int16 switch, products(p, int16) >= n^2,
# and of the object switch of an exact batch, products(p, int64) >= n
SWITCHES = [
    (181, 1, np.int16), (191, 1, np.int64),
    (89, 2, np.int16), (97, 2, np.int64),
    (61, 3, np.int16), (67, 3, np.int64),
    (31, 6, np.int16), (37, 6, np.int64),
    (7, 30, np.int16), (7, 31, np.int64),
    (2147483647, 2, np.int64), (2147483659, 2, object),
]


@pytest.mark.parametrize("p,n,dtype", SWITCHES)
def test_dtype_switches_where_the_sums_leave_it(p, n, dtype):
    modulus = [1] + [0] * (n - 1) + [1]
    assert FieldBatch(p, modulus, exact=True).dtype == dtype


@pytest.mark.parametrize("p,n,dtype", SWITCHES)
@SETTINGS
@given(data=st.data())
def test_field_batch_matches_python_ints(p, n, dtype, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="modulus seed")
    B = 3
    moduli = np.hstack([np.random.default_rng(seed).integers(0, p, size=(B, n)),
                        np.ones((B, 1), dtype=np.int64)])
    fb = FieldBatch(p, moduli, exact=True)
    ref = on_python_ints(fb)
    a = residues(data, p, (B, 2, n), fb.dtype)
    b = residues(data, p, (B, 1, n), fb.dtype)
    prod = residues(data, p, (B, 2, 2 * n - 1), fb.dtype)
    mats = residues(data, p, (B, n, n), fb.dtype)
    obj = lambda x: x.astype(object)
    for got, want in [(fb.mul(a, b), ref.mul(obj(a), obj(b))),
                      (fb.reduce(prod), ref.reduce(obj(prod))),
                      (fb.mul_matrix(a), ref.mul_matrix(obj(a))),
                      (fb.apply(mats, a), ref.apply(obj(mats), obj(a)))]:
        assert got.dtype == fb.dtype
        assert got.tolist() == want.tolist()


def python_reduce(prod, f, p):
    """prod mod f over F_p on a list of Python ints, f monic, constant first:
    x^k = -x^(k-n) (f - x^n), from the top coefficient down."""
    n, prod = len(f) - 1, list(prod)
    for k in range(len(prod) - 1, n - 1, -1):
        c, prod[k] = prod[k], 0
        for j in range(n):
            prod[k - n + j] -= c * f[j]
    return [c % p for c in prod[:n]] + [0] * (n - len(prod))


def python_mul(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return python_reduce(prod, f, p)


def check_products(fb, moduli, p, a, b, prod):
    """`fb.mul(a, b)` and `fb.reduce(prod)` against Python ints, row by row
    (a row of a batch of one broadcasts over every element)."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    f = lambda idx: moduli[idx[0] % len(moduli)]
    got = fb.mul(a, b)
    assert got.shape == shape and got.dtype == fb.dtype
    for idx in np.ndindex(shape[:-1]):
        assert got[idx].tolist() == python_mul(a[idx].tolist(), b[idx].tolist(), f(idx), p)
    got = fb.reduce(prod)
    assert got.shape == prod.shape[:-1] + (fb.n,) and got.dtype == fb.dtype
    for idx in np.ndindex(prod.shape[:-1]):
        assert got[idx].tolist() == python_reduce(prod[idx].tolist(), f(idx), p)


def random_moduli(p, n, B, seed):
    low = np.random.default_rng([seed, n]).integers(0, p, size=(B, n)).tolist()
    return [row + [1] for row in low]


# (p, n, dtype) of the product routes' switches: int16, int64, Python ints
PAIR_SWITCH = [(7, 6, np.int16), (37, 6, np.int64), (2**61 - 1, 6, object)]
FOLD_SWITCH = [(3, np.int16), (5, np.int64), (2**61 - 1, object)]


@pytest.mark.parametrize("p,n,dtype", PAIR_SWITCH)
@pytest.mark.parametrize("lead", [(1, 5), (1, 6), (2, 2), (2, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_mul_by_convolution_below_n_pairs_and_by_shifts_from_n(p, n, dtype, lead, seed):
    # (1, 5) and (2, 2) hold fewer element pairs than n = 6: one np.convolve
    # per pair; (1, 6) and (2, 3) take the n shifted products
    moduli = random_moduli(p, n, lead[0], seed)
    fb = FieldBatch(p, moduli, exact=True)
    assert fb.dtype == dtype
    a = worst_or_random(p, lead + (n,), fb.dtype, seed)
    b = worst_or_random(p, (lead[0], 1, n), fb.dtype, seed)
    prod = worst_or_random(p, lead + (2 * n - 1,), fb.dtype, seed)
    check_products(fb, moduli, p, a, b, prod)


@pytest.mark.parametrize("p,dtype", FOLD_SWITCH)
@pytest.mark.parametrize("n", [linalg._PACK_MIN_WIDTH - 1, linalg._PACK_MIN_WIDTH])
@pytest.mark.parametrize("seed", [0, 1])
def test_single_modulus_folds_through_packed_rows_from_the_pack_width(p, dtype, n, seed):
    moduli = random_moduli(p, n, 1, seed)
    fb = FieldBatch(p, moduli, exact=True)
    assert fb.dtype == dtype
    a = worst_or_random(p, (1, 2, n), fb.dtype, seed)
    b = worst_or_random(p, (1, 1, n), fb.dtype, seed)
    prod = worst_or_random(p, (1, 2, 2 * n - 1), fb.dtype, seed)
    check_products(fb, moduli, p, a, b, prod)
    # Python ints take no lanes
    assert (fb._packed_red is not None) == (n >= linalg._PACK_MIN_WIDTH and dtype != object)
    # many moduli never pack their rows
    assert FieldBatch(p, random_moduli(p, n, 2, seed), exact=True)._packed_red is None


class TestCoefficientMajorLoops:
    """`mul`, `reduce` and `mul_matrix` run their loops over coefficient-major
    scratch arrays and return element-major arrays: against Python ints at
    the sweep kernel's shapes, for every (p, n, dtype) of SWITCHES.  Every
    pair shape below holds at least 31 element pairs, so `mul` takes the
    shifted products rather than one convolution per pair."""

    @pytest.mark.parametrize("p,n,dtype", SWITCHES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mul_matrix_on_the_berkowitz_shape(self, p, n, dtype, seed):
        moduli = random_moduli(p, n, 2, seed)
        fb = FieldBatch(p, moduli, exact=True)
        assert fb.dtype == dtype
        a = worst_or_random(p, (2, 2, 3, n), fb.dtype, seed)  # (B, d, k, n)
        got = fb.mul_matrix(a)
        assert got.shape == a.shape + (n,) and got.dtype == fb.dtype
        for idx in np.ndindex(a.shape[:-1]):
            x_j = ([0] * j + [1] for j in range(n))
            want = [python_mul(a[idx].tolist(), x, moduli[idx[0]], p) for x in x_j]
            assert got[idx].T.tolist() == want  # column j holds a x^j

    @pytest.mark.parametrize("p,n,dtype", SWITCHES)
    @pytest.mark.parametrize("lead", [((16, 1), (16, 2)), ((16, 2), (16, 1)),
                                      ((1,), (32,)), ((32,), (1,))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_broadcast_pairs(self, p, n, dtype, lead, seed):
        moduli = random_moduli(p, n, 32 if len(lead[0]) == 1 else 16, seed)
        fb = FieldBatch(p, moduli, exact=True)
        assert fb.dtype == dtype
        a = worst_or_random(p, lead[0] + (n,), fb.dtype, seed)
        b = worst_or_random(p, lead[1] + (n,), fb.dtype, seed)
        shape = np.broadcast_shapes(lead[0], lead[1]) + (2 * n - 1,)
        check_products(fb, moduli, p, a, b, worst_or_random(p, shape, fb.dtype, seed))

    @pytest.mark.parametrize("p,n,dtype", SWITCHES)
    @pytest.mark.parametrize("lead", [((32,), (1,)), ((1, 32), (1, 32)), ((2, 16), (16,))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_modulus_over_many_elements(self, p, n, dtype, lead, seed):
        moduli = random_moduli(p, n, 1, seed)
        fb = FieldBatch(p, moduli, exact=True)
        assert fb.dtype == dtype
        a = worst_or_random(p, lead[0] + (n,), fb.dtype, seed)
        b = worst_or_random(p, lead[1] + (n,), fb.dtype, seed)
        shape = np.broadcast_shapes(lead[0], lead[1]) + (2 * n - 1,)
        check_products(fb, moduli, p, a, b, worst_or_random(p, shape, fb.dtype, seed))
        got = fb.mul_matrix(a[:3])
        assert got.shape == a[:3].shape + (n,) and got.dtype == fb.dtype
        for idx in np.ndindex(got.shape[:-2]):
            x_j = ([0] * j + [1] for j in range(n))
            assert got[idx].T.tolist() == [python_mul(a[idx].tolist(), x, moduli[0], p) for x in x_j]


# F_29[x]/(x^6 - 1), int16 (36 <= 41 products): multiplication by x is a
# cyclic shift, so the multiplication matrix of the all-(p-1) element is all
# p - 1 and every guarded sum below meets its worst case
P29, N6 = 29, 6
X6_MINUS_1 = [P29 - 1, 0, 0, 0, 0, 0, 1]


def test_sum_products_chunks_past_the_narrow_headroom():
    # an int16 sum holds 41 products at p = 29: 42 of p - 1 would wrap
    p = 29
    k = linalg.products(p, np.int16) + 1
    a = np.full((2, k), p - 1, dtype=np.int16)
    b = np.full((k, 3), p - 1, dtype=np.int16)
    got = linalg.sum_products(a, b, p) % p
    assert got.tolist() == [[k * (p - 1) ** 2 % p] * 3] * 2


@pytest.mark.parametrize("da,db", [(7, 7), (9, 7), (7, 12)])
def test_lt_mul_reduces_shifts_the_narrow_dtype_cannot_hold(da, db):
    # a product over db >= 7 shifts sums 6 db > 41 products, so each shift
    # must be reduced
    p, n = P29, N6
    fb = FieldBatch(p, X6_MINUS_1)
    assert fb.dtype == np.int16 and linalg.products(p, np.int16) < n * min(da, db)
    a = np.full((2, da, n), p - 1, dtype=np.int16)
    b = np.full((2, db, n), p - 1, dtype=np.int16)
    width = da + db - 1
    got = linalg._lt_mul(fb, a, b, width)
    want = linalg._lt_mul(on_python_ints(fb), a.astype(object), b.astype(object), width)
    assert got.dtype == np.int16 and got.tolist() == want.tolist()


def test_phi_of_reduces_what_the_narrow_dtype_cannot_hold():
    # d + 1 = 42 digits of p - 1 times coefficients of p - 1: 42 products,
    # one more than an int16 sum holds at p = 29
    p, n, r, d = P29, N6, 1, 41
    fb = FieldBatch(p, X6_MINUS_1)
    assert linalg.products(p, fb.dtype) < d + 1
    powers = [np.full((1, j * r + 1, n), p - 1, dtype=fb.dtype) for j in range(d + 1)]
    digits = np.full((1, r, d + 1, 1), p - 1, dtype=fb.dtype)
    embed = np.eye(n, 1, dtype=fb.dtype)
    got = _phi_of(fb, powers, digits, embed)
    want = _phi_of(on_python_ints(fb), [P.astype(object) for P in powers],
                   digits.astype(object), embed.astype(object))
    assert got.dtype == np.int16 and got.tolist() == want.tolist()


@SETTINGS
@given(data=st.data())
def test_phi_T_powers_match_python_ints(data):
    # r = 6 with every g_k nonzero: 7 matrix products of n = 6 terms per
    # entry, past the 41 an int16 sum holds; in the worst case (every g_k
    # all p - 1, sigma the identity) every product matrix is all p - 1, and
    # so is P_1
    p, n, r = P29, N6, 6
    fb = FieldBatch(p, X6_MINUS_1)
    g = residues(data, p, (2, r + 1, n), fb.dtype)
    g[:, :, 0] = np.maximum(g[:, :, 0], 1)  # every g_k nonzero
    frob = residues(data, p, (2, n, n), fb.dtype)
    if (g == p - 1).all():
        frob = np.broadcast_to(np.eye(n, dtype=fb.dtype), frob.shape)
    got = phi_T_powers(fb, g, frob, 3)
    want = phi_T_powers(on_python_ints(fb), g.astype(object), frob.astype(object), 3)
    assert [P.tolist() for P in got] == [P.tolist() for P in want]
    assert got[-1].dtype == np.int16


class TestSweepStaysNarrow:
    """A stray int64 allocation in the kernel costs speed without a wrong
    answer; these fail on it instead."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_small_fields_at_q_7_are_int16(self, n):
        assert FieldBatch(7, [1] + [0] * (n - 1) + [1]).dtype == np.int16

    def test_motive_matrix_and_berkowitz_keep_the_batch_dtype(self, monkeypatch):
        base = make_field(7, 1, 1)
        rows = prime_coordinates(base, 5)
        rows = rows[rows[:, 0].any(axis=1)][:64]
        seen = {}

        def record(name, f):
            def wrapped(fb, *args):
                out = f(fb, *args)
                seen[name] = (fb.dtype, [x.dtype for x in (out if isinstance(out, list) else [out])])
                return out
            monkeypatch.setattr(charpoly_mod, name, wrapped)

        record("_motive_matrix", charpoly_mod._motive_matrix)
        record("_berkowitz", charpoly_mod._berkowitz)
        a, _ = charpolys_of_degree(DrinfeldModule.default_family(base, 3), rows)
        assert set(seen) == {"_motive_matrix", "_berkowitz"}
        for dtype, outs in seen.values():
            assert dtype == np.int16 and all(o == dtype for o in outs)
        assert all(ai.dtype == np.int16 for ai in a)

    def test_sweep_kernel_packs_nothing(self, monkeypatch):
        # every product of the q = 7 kernel is int16 at n <= 6, plain
        packed = []

        class Recorded(linalg.PackedMatrix):
            def __init__(self, b, p):
                super().__init__(b, p)
                packed.append(self.packed is not None)

        for module in (linalg, polynomials):
            monkeypatch.setattr(module, "PackedMatrix", Recorded)
        base = make_field(7, 1, 1)
        rows = prime_coordinates(base, 5)
        rows = rows[rows[:, 0].any(axis=1)][:64]
        charpolys_of_degree(DrinfeldModule.default_family(base, 3), rows)
        assert not any(packed)

    @pytest.mark.parametrize("n", [64, 90])
    def test_narrow_berlekamp_matrix_still_packs_lanes(self, n):
        # p = 3: an int16 sum holds n^2 products up to n = 90, and from
        # _PACK_MIN_WIDTH columns on the int16 matrix is packed into int64
        p = 3
        Q = fields.FieldBatch(p, fields.lex_smallest_irreducible(p, n), exact=True).frobenius_matrix(p)[0]
        packed = linalg.PackedMatrix(Q.T, p)
        assert Q.dtype == np.int16 and packed.lanes > 1 and packed.packed.dtype == np.int64
        u = np.arange(n, dtype=np.int16) % p
        got = packed.rmul(u)
        assert got.dtype == np.int16
        assert got.tolist() == (u.astype(object) @ Q.T.astype(object) % p).tolist()


def python_matmul(a, b, p):
    """a @ b % p on Python ints, which cannot overflow."""
    return (a.astype(object) @ b.astype(object) % p).tolist()


def worst_or_random(p, shape, dtype, seed):
    """All p - 1 (seed 0: every sum at its worst case) or random residues,
    drawn from the seed and the shape."""
    if not seed:
        return np.full(shape, p - 1, dtype=dtype)
    return np.random.default_rng([seed, *shape]).integers(0, p, size=shape).astype(dtype)


class TestProductRoutes:
    """`matmul_mod_p` and `PackedMatrix.rmul` against Python ints on each
    side of every switch of the route: plain, chunks, Python ints, lanes."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_shapes_are_plain_int16(self, seed):
        p, n = 7, 6
        a = worst_or_random(p, (3, 8, n), np.int16, seed)
        b = worst_or_random(p, (3, n, n), np.int16, seed)
        assert linalg.PackedMatrix(b, p).packed is None
        for got in (linalg.matmul_mod_p(a, b, p), linalg.PackedMatrix(b, p).rmul(a)):
            assert got.dtype == np.int16 and got.tolist() == python_matmul(a, b, p)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rows", [linalg._PACK_MIN_ROWS - 1, linalg._PACK_MIN_ROWS])
    def test_int64_plain_and_packed_at_the_row_switch(self, monkeypatch, rows, seed):
        p, n = 5, 248
        a = worst_or_random(p, (rows, n), np.int64, seed)
        b = worst_or_random(p, (n, n), np.int64, seed)
        built = []
        monkeypatch.setattr(linalg, "PackedMatrix",
                            lambda b, p: built.append(b) or PackedMatrix(b, p))
        got = linalg.matmul_mod_p(a, b, p)
        assert got.dtype == np.int64 and got.tolist() == python_matmul(a, b, p)
        assert bool(built) == (rows >= linalg._PACK_MIN_ROWS)  # packed once per call
        packed = PackedMatrix(b, p)
        assert packed.packed is not None and packed.rmul(a).tolist() == python_matmul(a, b, p)

    @pytest.mark.parametrize("n", [linalg._PACK_MIN_WIDTH - 1, linalg._PACK_MIN_WIDTH])
    def test_int64_plain_and_packed_at_the_width_switch(self, n):
        p = 5
        a = worst_or_random(p, (16, n), np.int64, 0)
        b = worst_or_random(p, (n, n), np.int64, 0)
        packed = PackedMatrix(b, p)
        assert (packed.packed is not None) == (n >= linalg._PACK_MIN_WIDTH)
        for got in (linalg.matmul_mod_p(a, b, p), packed.rmul(a)):
            assert got.dtype == np.int64 and got.tolist() == python_matmul(a, b, p)

    @pytest.mark.parametrize("k", [2, 3])
    def test_int64_chunks_past_two_products(self, k):
        # at p = 2^31 - 1 an int64 sum holds 2 products: at k = 3 the plain
        # product of p - 1 entries wraps, and the sum is taken in chunks
        p = 2**31 - 1
        assert linalg.products(p, np.int64) == 2
        a = np.full((2, k), p - 1, dtype=np.int64)
        b = np.full((k, 3), p - 1, dtype=np.int64)
        want = python_matmul(a, b, p)
        assert ((a @ b % p).tolist() == want) == (k == 2)
        for got in (linalg.matmul_mod_p(a, b, p), PackedMatrix(b, p).rmul(a)):
            assert got.dtype == np.int64 and got.tolist() == want

    def test_python_ints_where_int64_holds_no_product(self):
        p = 2**61 - 1
        assert linalg.products(p, np.int64) == 0
        a = worst_or_random(p, (2, 4), np.int64, 0)
        b = np.random.default_rng(3).integers(0, p, size=(4, 5))
        want = python_matmul(a, b, p)
        for got in (linalg.matmul_mod_p(a, b, p), PackedMatrix(b, p).rmul(a),
                    linalg.sum_products(a, b, p) % p):
            assert got.dtype == object and got.tolist() == want
