import random
import time

import numpy as np
import pytest

import drinfeld.fields as fields
from drinfeld import linalg, reduction
from drinfeld.fields import (
    FieldError,
    _binomial_irreducible,
    _irreducibles,
    _rabin,
    _sieve,
    _sieve_digits,
    lex_smallest_irreducible,
    make_field,
)
from drinfeld.linalg import Int64RangeError


def brute_irreducible(coeffs, p):
    """Trial division by every lower-degree monic polynomial (test oracle)."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for idx in range(p**d):
            g = []
            t = idx
            for _ in range(d):
                g.append(t % p)
                t //= p
            g.append(1)
            if not any(poly_mod(coeffs, g, p)):
                return False
    return True


def poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg:
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        c = f[-1] * pow(g[-1], p - 2, p) % p
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[i + shift] = (f[i + shift] - c * gc) % p
    while f and f[-1] == 0:
        f.pop()
    return f


def brute_lex_smallest(p, n):
    """First monic irreducible in ascending coefficient-index order (oracle)."""
    for idx in range(p**n):
        coeffs = []
        t = idx
        for _ in range(n):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)
        if brute_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError


class TestMakeField:
    def test_prime_field_modulus(self):
        assert make_field(5, 1, 1).modulus == (0, 1)

    def test_f25_modulus_matches_scan_oracle(self):
        assert brute_lex_smallest(5, 2) == (2, 0, 1)
        assert make_field(5, 1, 2).modulus == (2, 0, 1)

    def test_f343_modulus_matches_scan_oracle(self):
        assert make_field(7, 1, 3).modulus == brute_lex_smallest(7, 3)

    @pytest.mark.parametrize("p,n", [(5, 4), (7, 2), (3, 5), (5, 6)])
    def test_scan_agrees_with_oracle(self, p, n):
        assert lex_smallest_irreducible(p, n) == brute_lex_smallest(p, n)

    def test_large_degree_modulus_has_no_small_factor(self):
        # the full oracle is infeasible at degree 40; check factors up to 3
        f = lex_smallest_irreducible(5, 40)
        for d in range(1, 4):
            for idx in range(5**d):
                g = []
                t = idx
                for _ in range(d):
                    g.append(t % 5)
                    t //= 5
                g.append(1)
                assert any(poly_mod(list(f), g, 5))

    def test_rejects_nonprime(self):
        with pytest.raises(FieldError):
            make_field(6, 1, 1)

    def test_rejects_zero_degree(self):
        with pytest.raises(FieldError):
            make_field(5, 1, 0)

    def test_caching_is_identity(self):
        assert make_field(5, 1, 2) is make_field(5, 1, 2)


class TestFieldAxioms:
    @pytest.mark.parametrize("p,e,m", [(5, 1, 1), (5, 1, 2), (7, 1, 3), (5, 2, 2)])
    def test_axioms_on_random_samples(self, p, e, m):
        fld = make_field(p, e, m)
        rng = random.Random(20260809)
        for _ in range(60):
            a = fld.from_int(rng.randrange(fld.order))
            b = fld.from_int(rng.randrange(fld.order))
            c = fld.from_int(rng.randrange(fld.order))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            if a:
                assert a * fld.inv(a) == fld.one

    def test_int_round_trip(self):
        fld = make_field(5, 1, 3)
        for k in range(0, 125, 7):
            assert fld.from_int(k).to_int() == k


class TestFrobenius:
    def test_fixed_on_prime_field(self):
        fld = make_field(7, 1, 3)
        for c in range(7):
            x = fld.scalar(c)
            assert fld.frobenius(x, 1) == x

    def test_full_orbit_is_identity(self):
        fld = make_field(5, 1, 4)
        rng = random.Random(3)
        for _ in range(10):
            x = fld.from_int(rng.randrange(fld.order))
            assert fld.frobenius(x, fld.m) == x

    def test_matches_repeated_multiplication_oracle(self):
        fld = make_field(5, 1, 2)
        rng = random.Random(11)
        for _ in range(20):
            x = fld.from_int(rng.randrange(25))
            want = x * x * x * x * x  # x^5 spelled out
            assert fld.frobenius(x, 1) == want

    def test_is_ring_homomorphism(self):
        fld = make_field(5, 1, 3)
        rng = random.Random(5)
        for _ in range(30):
            x = fld.from_int(rng.randrange(fld.order))
            y = fld.from_int(rng.randrange(fld.order))
            assert fld.frobenius(x + y) == fld.frobenius(x) + fld.frobenius(y)
            assert fld.frobenius(x * y) == fld.frobenius(x) * fld.frobenius(y)

    def test_qth_root_inverts(self):
        # k = -1 is the q-th root: x^(q^(m-1))
        fld = make_field(5, 1, 4)
        rng = random.Random(7)
        for _ in range(10):
            x = fld.from_int(rng.randrange(fld.order))
            assert fld.frobenius(fld.frobenius(x, -1), 1) == x

    def test_e2_frobenius_fixes_base_subfield(self):
        fld = make_field(5, 2, 2)  # F_625 over F_25
        alpha = fld.base_generator()
        assert fld.frobenius(alpha, 1) == alpha  # q = 25 power fixes F_25
        assert alpha * alpha != fld.zero

    @pytest.mark.parametrize("p,e,m", [(5, 1, 8), (2, 2, 5), (5, 1, 40), (3, 2, 3), (7, 1, 3)])
    def test_matrix_columns_are_powers_of_x_to_the_q(self, p, e, m):
        # q < n (shift and fold) for the first three, q >= n (squaring) after
        fld = make_field(p, e, m)
        mat = fld.frobenius_matrix()
        xq = fld.gen**fld.q
        cur = fld.one
        for j in range(fld.n):
            assert tuple(mat[:, j]) == cur.coords
            cur = cur * xq

    @pytest.mark.parametrize("p,m", [(5, 8), (5, 40)])
    def test_multiplication_matrix_columns(self, p, m):
        fld = make_field(p, 1, m)
        a = fld.from_int(random.Random(m).randrange(fld.order))
        mat = fld.batch().mul_matrix(np.array([a.coords], dtype=np.int64))[0]
        cur = a
        for j in range(fld.n):
            assert tuple(mat[:, j]) == cur.coords
            cur = cur * fld.gen

    def test_norm_lands_in_base(self):
        fld = make_field(5, 1, 3)
        rng = random.Random(13)
        for _ in range(10):
            x = fld.from_int(rng.randrange(1, fld.order))
            nr = fld.norm_to_base(x)
            assert all(c == 0 for c in nr.coords[1:])
            # norm is x^((q^3-1)/(q-1))
            assert nr == x ** ((5**3 - 1) // (5 - 1))


def index_of(f, p):
    return sum(c * p**i for i, c in enumerate(f[:-1]))


def monic(idx, p, n):
    coeffs = []
    for _ in range(n):
        idx, c = divmod(idx, p)
        coeffs.append(c)
    return tuple(coeffs) + (1,)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


# Index of the canonical modulus of F_{p^n}, as recorded from the linear
# scan that tested every candidate in turn (Rabin by square-and-multiply).
GOLDEN = {
    (5, 8): 2, (5, 16): 2, (5, 20): 31, (5, 24): 146, (5, 40): 142,
    (5, 48): 138, (5, 62): 77, (5, 124): 9, (5, 248): 1303,
    (2, 8): 27, (2, 16): 43, (2, 30): 3, (2, 32): 141, (2, 64): 27,
    (2, 100): 101, (2, 128): 135, (2, 256): 1061,
    (3, 5): 7, (3, 9): 64, (3, 24): 83, (3, 27): 287, (3, 36): 40, (3, 81): 1033,
    (7, 3): 2, (7, 5): 10, (7, 12): 58, (7, 21): 71, (7, 30): 61, (7, 49): 365,
}


class TestModulusSearch:
    @pytest.mark.parametrize("p,n", sorted(GOLDEN))
    def test_golden_canonical_modulus(self, p, n):
        f = lex_smallest_irreducible(p, n)
        assert len(f) == n + 1 and f[-1] == 1
        assert index_of(f, p) == GOLDEN[p, n]

    @pytest.mark.parametrize("p,e,m,idx", [(2, 2, 12, 27), (3, 2, 6, 11), (3, 3, 3, 64), (5, 2, 3, 7), (7, 2, 6, 58)])
    def test_golden_moduli_over_f_q(self, p, e, m, idx):
        assert index_of(make_field(p, e, m).modulus, p) == idx

    @pytest.mark.parametrize("p,nmax", [(2, 6), (3, 6), (5, 4), (7, 4)])
    def test_agrees_with_trial_division(self, p, nmax):
        for n in range(1, nmax + 1):
            want = [brute_irreducible(monic(k, p, n), p) for k in range(p**n)]
            # Rabin alone, as `field_with_modulus` validates
            assert [_rabin(monic(k, p, n), p) for k in range(p**n)] == want
            # the sieve to degree n // 2 decides by itself
            assert _sieve(p, n, 0, n, n // 2).tolist() == want
            assert [index_of(tuple(g) + (1,), p) for g in _irreducibles(p, n)] == [
                k for k in range(p**n) if want[k]
            ]
            # a shallower sieve, then Rabin with the gcds it vouches for skipped
            for depth in range(n // 2):
                alive = _sieve(p, n, 0, n, depth)
                got = [bool(alive[k]) and _rabin(monic(k, p, n), p, depth) for k in range(p**n)]
                assert got == want

    def test_blocks_after_the_first(self):
        # low digits s = 2, so index 31 of F_{5^20} sits in the fourth block
        p, n, s = 5, 20, 2
        for start in range(0, 4 * p**s, p**s):
            alive = _sieve(p, n, start, s, s)
            for k in range(p**s):
                f = monic(start + k, p, n)
                assert alive[k] == all(
                    any(poly_mod(list(f), monic(i, p, d), p))
                    for d in range(1, s + 1) for i in range(p**d)
                )

    def test_reducible_past_the_sieve_is_rejected(self):
        p = 5
        depth = _sieve_digits(p)  # the sieve lists divisors up to degree 6
        assert depth == 6
        g, h = _irreducible_rows(p, depth + 1, 2)
        (k,) = _irreducible_rows(p, depth + 2, 1)
        # 7 + 7: x^(p^14) = x mod f, so only the gcd at 14/2 = 7 rejects it;
        # 7 + 8: the final x^(p^15) = x already fails
        for f in (poly_mul(g, h, p), poly_mul(g, k, p)):
            n, idx = len(f) - 1, index_of(f, p)
            s = min(n, depth)
            assert _sieve(p, n, idx - idx % p**s, s, depth)[idx % p**s]
            assert not _rabin(f, p, depth)

    def test_large_p_is_exact(self):
        # (p-1)^2 leaves int64: the search and the Q-matrix run on Python ints
        p = 4294967311
        fld = make_field(p, 1, 3)
        assert fld.modulus == (2, 0, 0, 1)
        xq = fld.gen**p
        assert fld.frobenius_matrix()[:, 1].tolist() == list(xq.coords)
        assert fld.frobenius_matrix()[:, 2].tolist() == list((xq * xq).coords)
        with pytest.raises(Int64RangeError):
            fields.FieldBatch(p, fld.modulus)

    def test_degree_25_at_p_1000000007(self):
        # (p-1)^2 * 25 leaves int64, so Rabin runs on Python ints
        p = 1000000007
        rng = random.Random(25)
        a = tuple(rng.randrange(p) for _ in range(12)) + (1,)
        b = tuple(rng.randrange(p) for _ in range(13)) + (1,)
        reducible = poly_mul(a, b, p)
        assert not poly_mod(list(reducible), a, p)  # trial division by a
        cases = [(reducible, False)]
        for c in (54, 55):  # x^25 - x - c: 55 is the first c >= 1 that is irreducible
            f = (p - c, p - 1) + (0,) * 23 + (1,)
            cases.append((f, python_rabin(f, p)))
        assert [want for _, want in cases] == [False, False, True]
        for f, want in cases:
            t0 = time.perf_counter()
            assert _rabin(f, p) == want
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_binomial_criterion_agrees_with_rabin(self, p):
        for n in range(2, 13):
            binomials = [(c,) + (0,) * (n - 1) + (1,) for c in range(p)]
            got = [_binomial_irreducible(p, n, c) for c in range(p)]
            assert got == [_rabin(f, p) for f in binomials]
            # the search answers with the first irreducible binomial, or
            # else with the first irreducible past the binomial block
            k = index_of(lex_smallest_irreducible(p, n), p)
            if any(got):
                assert k == got.index(True)
            else:
                assert k >= p and _rabin(monic(k, p, n), p)
                assert not any(_rabin(monic(j, p, n), p) for j in range(p, k))

    def test_no_binomial_reaches_rabin(self, monkeypatch):
        # x^24 + 2 and x^24 + 3 have no factor of degree <= 6, so the sieve
        # passes them; the closed form has already ruled them out
        p, n = 5, 24
        s = _sieve_digits(p)
        assert _sieve(p, n, 0, s, s)[[2, 3]].all()
        tested = []
        real = fields._rabin
        monkeypatch.setattr(fields, "_rabin", lambda f, p, depth=0: tested.append(f) or real(f, p, depth))
        assert index_of(lex_smallest_irreducible.__wrapped__(p, n), p) == GOLDEN[p, n]
        assert tested and min(index_of(f, p) for f in tested) >= p

    def test_binomial_block_skipped_at_p_1000000007(self):
        # 3 | 24 but 3 does not divide p - 1, so every c is a cube and every
        # x^24 + c is reducible: the scan starts past all p of them
        p = 1000000007
        assert (p - 1) % 3
        assert not any(_binomial_irreducible(p, 24, c) for c in range(1000))
        f = lex_smallest_irreducible(p, 24)
        assert f == (85, 1) + (0,) * 22 + (1,)
        assert python_rabin(f, p)

    @pytest.mark.parametrize("n,half", [(25, None), (26, 13), (31, None), (36, 18)])
    def test_packed_rabin_matches_reference(self, n, half):
        p = 5
        f = lex_smallest_irreducible(p, n)
        Q = fields.FieldBatch(p, f, exact=True).frobenius_matrix(p)[0]
        assert linalg.PackedMatrix(Q.T, p).lanes > 1  # the lane-packed path runs
        k = index_of(f, p)
        cases = [monic(j, p, n) for j in range(max(k - 3, 0), k + 4)]
        if half:
            # two irreducibles of degree n/2: x^(p^n) = x mod g h, and only
            # the gcd at the checkpoint n/2 rejects the product
            g = lex_smallest_irreducible(p, half)
            h = next(monic(j, p, half) for j in range(index_of(g, p) + 1, p**half)
                     if python_rabin(monic(j, p, half), p))
            cases.append(poly_mul(g, h, p))
        for f in cases:
            assert _rabin(f, p) == python_rabin(f, p)


def _irreducible_rows(p, d, count):
    """The first `count` monic irreducibles of degree d by trial division."""
    out = []
    k = 0
    while len(out) < count:
        f = monic(k, p, d)
        if brute_irreducible(f, p):
            out.append(f)
        k += 1
    return out


def python_rabin(f, p):
    """Rabin's test with x^(p^k) by square-and-multiply on Python ints."""
    n = len(f) - 1

    def mulmod(a, b):
        return poly_mod(list(poly_mul(a, b, p)), f, p)

    def xpow(e):
        result, base = [1], [0, 1]
        while e:
            if e & 1:
                result = mulmod(result, base)
            e >>= 1
            if e:
                base = mulmod(base, base)
        return result

    def minus_x(a):
        a = list(a) + [0] * (2 - len(a))
        a[1] = (a[1] - 1) % p
        while a and a[-1] == 0:
            a.pop()
        return a

    if minus_x(xpow(p**n)):
        return False
    for t in {t for t in range(2, n + 1) if n % t == 0 and all(t % s for s in range(2, t))}:
        g, h = list(f), minus_x(xpow(p ** (n // t)))
        while h:
            g, h = h, poly_mod(g, h, p)
        if len(g) > 1:
            return False
    return True



def brute_subfield_root(fld, poly, d):
    """(k, x): the first root x of an F_p-polynomial among the q^d-fixed
    elements digits(k) @ basis, k = 0, 1, ..., by Horner on field elements."""
    basis = fld.subfield_basis(d)
    for k in range(fld.p ** basis.shape[0]):
        digits = np.array(monic(k, fld.p, basis.shape[0])[:-1], dtype=np.int64)
        x = fld.elem(int(c) for c in digits @ basis % fld.p)
        acc = fld.zero
        for c in reversed(poly):
            acc = acc * x + fld.scalar(c)
        if not acc:
            return k, x
    raise AssertionError("no root")


class TestSubfieldRoots:
    @pytest.mark.parametrize("p,e,m", [(5, 2, 2), (3, 2, 3), (2, 3, 2), (2, 2, 3), (3, 3, 2)])
    def test_base_generator_is_first_root(self, p, e, m):
        fld = make_field(p, e, m)
        assert fld.base_generator() == brute_subfield_root(fld, lex_smallest_irreducible(p, e), 1)[1]

    @pytest.mark.parametrize("block", [1 << 12, 3])
    @pytest.mark.parametrize("modulus,m", [((2, 0, 1), 3), ((2, 0, 1), 4), ((1, 1, 0, 1), 2)])
    def test_residue_embedding_is_first_root(self, monkeypatch, block, modulus, m):
        monkeypatch.setattr(fields, "_ROOT_BLOCK", block)
        d = len(modulus) - 1
        rf = fields.field_with_modulus(5, 1, d, modulus)
        B = make_field(5, 1, d * m)
        sigma = reduction._residue_embedding(rf, B, d)
        k, beta = brute_subfield_root(B, modulus, d)
        assert k >= 3  # past the first block of 3
        assert tuple(sigma[:, 1]) == beta.coords
