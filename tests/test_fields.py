import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import drinfeld.fields as fields
from drinfeld import linalg
from drinfeld.fields import (
    _MR_LIMIT,
    FieldError,
    ModulusSearchError,
    PrimalityError,
    _binomial_irreducible,
    _disc_character,
    _divmod,
    _gcd_is_unit,
    _irreducibles,
    _rabin,
    _sieve,
    _sieve_digits,
    field_with_modulus,
    is_prime,
    lex_smallest_irreducible,
    make_field,
)
from drinfeld.linalg import Int64RangeError, mod_p


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


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        sieve = np.ones(100_000, dtype=bool)
        sieve[:2] = False
        for k in range(2, 317):
            if sieve[k]:
                sieve[k * k :: k] = False
        assert [n for n in range(100_000) if is_prime(n)] == np.flatnonzero(sieve).tolist()

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        5394826801, 232250619601, 9746347772161,  # Carmichael numbers
        2047, 3215031751, 3825123056546413051,  # strong pseudoprimes to small bases
        (2**31 - 1) * 1_000_000_007, 3825123056546413051 * 863,
    ])
    def test_composites(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 1_000_000_007, 3037000493, 2**61 - 1, 10**24 + 7])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_refuses_beyond_the_deterministic_bound(self):
        # the bound is itself a strong pseudoprime to every base 2 .. 41
        with pytest.raises(PrimalityError, match="bound of the deterministic primality test"):
            is_prime(_MR_LIMIT)
        with pytest.raises(PrimalityError):
            is_prime(2**89 - 1)
        assert not is_prime(2 * _MR_LIMIT)  # a base divides it

    def test_large_prime_field_is_immediate(self):
        start = time.perf_counter()
        fld = make_field(2**61 - 1, 1, 1)
        assert time.perf_counter() - start < 1.0
        assert fld.modulus == (0, 1)


INT64 = st.integers(-(2**63), 2**63 - 1)
SIZES = [1, linalg._MOD_P_MIN_SIZE + 3]  # `%` below the threshold, floor division from it


class TestModPHelper:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(INT64, min_size=1, max_size=40), size=st.sampled_from(SIZES),
           p=st.sampled_from([2, 3, 5, 7, 1_000_000_007, 2**31 - 1, 3037000493]))
    def test_equals_percent_on_int64(self, values, size, p):
        a = np.resize(np.array(values, dtype=np.int64), max(size, len(values)))
        assert np.array_equal(mod_p(a, p), a % p)

    @pytest.mark.parametrize("size", SIZES)
    def test_extremes_of_int64(self, size):
        extremes = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
        a = np.resize(np.array(extremes, dtype=np.int64), max(size, len(extremes)))
        for p in (2, 3, 7, 2**31 - 1, 3037000493):
            assert mod_p(a, p).tolist() == [v % p for v in a.tolist()]

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=20),
           p=st.sampled_from([5, 2**61 - 1, 2**89 - 1]))
    def test_equals_percent_on_object_arrays(self, values, p):
        a = np.array(values, dtype=object)
        assert mod_p(a, p).tolist() == [v % p for v in values]


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


LIST_PRIMES = [2, 3, 7, 2**61 - 1, 2**64 - 59]  # p past int64 too


class TestListArithmetic:
    """`_divmod`, the one division with remainder on F_p[x] coefficient
    lists, and `Field.inv`, the extended Euclid on its quotients, at small p
    and at p on both sides of 2^63."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(LIST_PRIMES), n=st.integers(1, 40))
    def test_divmod_gives_a_equals_q_b_plus_r(self, data, p, n):
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        b.append(data.draw(st.integers(1, p - 1)))
        a = data.draw(st.lists(st.integers(-p, 2 * p), max_size=2 * n + 2))  # read mod p
        q, r = _divmod(a, b, p)
        assert len(r) < len(b) and (not r or r[-1]) and all(0 <= c < p for c in q + r)
        qb = np.convolve(np.array(q or [0], dtype=object), np.array(b, dtype=object)).tolist()
        size = max(len(a), len(qb))
        got = [(x + y) % p for x, y in zip(qb + [0] * (size - len(qb)),
                                          r + [0] * (size - len(r)))]
        assert got == [c % p for c in a + [0] * (size - len(a))]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.sampled_from(LIST_PRIMES), n=st.integers(1, 40))
    def test_inv_is_the_inverse_mod_the_modulus(self, data, p, n):
        # any monic modulus will do for an a prime to it; coprimality comes
        # from the numpy gcd of the Rabin test, a separate Euclid
        f = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
        a = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        assume(_gcd_is_unit(f, np.array(a, dtype=object), p))
        fld = field_with_modulus(p, 1, n, f, validate=False)
        x = fld.elem(a)
        assert x * fld.inv(x) == fld.one


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

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
    def test_powers_beyond_int64_products(self, p):
        # x -> x^(q^2) multiplies two Frobenius matrices whose sums of
        # products do not fit in int64
        fld = make_field(p, 1, 3)
        x = fld.gen + fld.scalar(3)
        assert fld.frobenius(x, 2) == (x**p) ** p
        assert fld.frobenius(fld.frobenius(x, 2), 1) == x

    @pytest.mark.parametrize("n", [25, 45])
    def test_frobenius_matrix_past_int64(self, n):
        # x^(q^k) is a product with the Frobenius matrices, and at
        # p = 2^61 - 1 int64 cannot hold one product of residues; the
        # modulus is a binomial x^n + c, as 3 and 5 divide p - 1
        p = 2**61 - 1
        fld = make_field(p, 1, n)
        assert fld.modulus[1:-1] == (0,) * (n - 1)
        x = fld.from_int(random.Random(n).randrange(fld.order))
        xq = x**p
        assert fld.frobenius(x, 1) == xq
        assert fld.frobenius(x, 2) == xq**p

    @pytest.mark.parametrize("n", [2, 25])
    def test_coordinates_on_both_sides_of_2_63(self, n):
        # -1 = (p - 1, 0, ...) and the element below have coordinates above
        # and below 2^63, for which numpy infers float64; `Field.array`
        # keeps them as Python ints
        p = 2**64 - 59
        fld = make_field(p, 1, n)
        straddle = fld.elem([2**63 + 7 * i if i % 2 else 2**62 + i for i in range(n)])
        assert fld.array(straddle).tolist() == list(straddle.coords)
        assert fld.array([straddle, -fld.one]).tolist() == [list(straddle.coords),
                                                            list((-fld.one).coords)]
        for x in (-fld.one, straddle):
            for k in (1, 2):
                assert fld.frobenius(x, k) == x ** fld.q**k

    def test_norm_past_int64_is_the_product_of_the_conjugates(self):
        p, n = 2**61 - 1, 25
        fld = make_field(p, 1, n)
        x = fld.from_int(random.Random(1).randrange(fld.order))
        conj, want = x, fld.one
        for _ in range(n):
            want = want * conj
            conj = conj**p
        assert fld.norm_to_base(x) == want

    def test_e2_frobenius_fixes_base_subfield(self):
        fld = make_field(5, 2, 2)  # F_625 over F_25
        alpha = fld.elem(fld.base_embedding()[:, 1].tolist())
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

    @pytest.mark.parametrize("n,half", [(25, None), (26, 13), (31, None), (36, 18), (64, None)])
    def test_packed_rabin_matches_reference(self, monkeypatch, n, half):
        p = 5
        f = lex_smallest_irreducible(p, n)
        Q = fields.FieldBatch(p, f, exact=True).frobenius_matrix(p)[0]
        # int64 lanes from _PACK_MIN_WIDTH columns on, the plain product below
        packed = linalg.PackedMatrix(Q.T, p)
        assert packed.lanes > 1 and (packed.packed is not None) == (n >= linalg._PACK_MIN_WIDTH)
        # these f would take the sparse route: force the Berlekamp matrix
        monkeypatch.setattr(fields, "_sparse_frobenius", lambda f, p: None)
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


def frobenius_powers(step, n):
    """x^(p^k) mod f for k = 1 .. n, by n applications of a route's step."""
    u = np.zeros(n, dtype=np.int64)
    u[1] = 1
    out = []
    for _ in range(n):
        u = step(u)
        out.append([int(c) for c in u])
    return out


def route_counts(monkeypatch):
    """Spies on the two Frobenius routes of `_rabin`: [sparse, dense] calls."""
    counts = [0, 0]
    sparse, dense = fields._sparse_frobenius, fields._dense_frobenius

    def counted_sparse(f, p):
        step = sparse(f, p)
        counts[0] += step is not None
        return step

    def counted_dense(f, p):
        counts[1] += 1
        return dense(f, p)

    monkeypatch.setattr(fields, "_sparse_frobenius", counted_sparse)
    monkeypatch.setattr(fields, "_dense_frobenius", counted_dense)
    return counts


def random_first_block(rng, p, deg_g, extra):
    """x^n + g, n = max(p deg g, p) + extra, deg g = deg_g, g(0) != 0."""
    n = max(p * deg_g, p) + extra
    g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg_g)]
    if deg_g:
        g[-1] = rng.randrange(1, p)
    return tuple(g) + (0,) * (n - deg_g - 1) + (1,)


# (sparse, dense) Frobenius routes that the search for each `GOLDEN` modulus
# takes, one per Rabin test; a modulus found by the closed form or by the
# sieve alone takes none.  The p = 5 rows are the nine splitting fields of
# the q = 5 torsion benchmark.
GOLDEN_ROUTES = {
    (2, 30): (1, 0), (2, 32): (1, 0), (2, 64): (1, 0), (2, 100): (3, 0), (2, 128): (1, 0),
    (2, 256): (33, 0), (3, 24): (1, 0), (3, 27): (3, 0), (3, 36): (1, 0), (3, 81): (28, 0),
    (5, 20): (1, 0), (5, 24): (5, 0), (5, 40): (6, 0), (5, 48): (2, 0), (5, 62): (5, 0),
    (5, 124): (1, 0), (5, 248): (43, 0), (7, 12): (0, 1), (7, 21): (1, 0), (7, 30): (1, 0),
    (7, 49): (1, 0),
}


class TestFrobeniusRoutes:
    """`_rabin` steps u -> u^p mod f by the sparse closed form for
    f = x^n + g with p < n and p deg g < n, and by the packed Berlekamp
    matrix otherwise; both must give the same powers and answers."""

    @pytest.mark.parametrize("p,canonical", [(2, 30), (3, 24), (5, 20), (7, 21)])
    def test_routes_agree_with_each_other_and_python_rabin(self, monkeypatch, p, canonical):
        rng = random.Random(1980 + p)
        cases = [random_first_block(rng, p, deg_g, extra)
                 for deg_g in (0, 1, 2, 3, 4) for extra in (1, 2, 3, 5) for _ in range(2)]
        cases.append(lex_smallest_irreducible(p, canonical))
        for f in cases:
            n = len(f) - 1
            powers = frobenius_powers(fields._sparse_frobenius(f, p), n)
            assert powers == frobenius_powers(fields._dense_frobenius(f, p), n)
            want = python_xpow(f, p, p**n)
            assert powers[-1] == want + [0] * (n - len(want))
        want = [python_rabin(f, p) for f in cases]
        assert any(want) and not all(want)
        counts = route_counts(monkeypatch)
        assert [_rabin(f, p) for f in cases] == want
        assert counts == [len(cases), 0]
        monkeypatch.setattr(fields, "_sparse_frobenius", lambda f, p: None)
        assert [_rabin(f, p) for f in cases] == want
        assert counts == [len(cases), len(cases)]

    @pytest.mark.parametrize("p,n,want", [
        (2, 12, [15]), (2, 15, [139]), (3, 10, [20, 29, 56]), (5, 14, [26, 29, 51, 54]),
        (7, 12, [1, 2, 3, 4, 5, 6, 9, 13, 16, 20, 23, 27, 30, 34, 37, 41, 44, 48]),
    ])
    def test_reducible_fixed_by_frobenius_fails_at_a_gcd(self, monkeypatch, p, n, want):
        # every x^n + g with g(0) != 0 and p deg g < n for which x^(p^n) = x
        # mod f although f is reducible, found by brute force: only a gcd
        # checkpoint rejects these
        cases = [monic(k, p, n) for k in range(1, p ** ((n - 1) // p + 1)) if k % p]
        hits = [f for f in cases if python_xpow(f, p, p**n) == [0, 1] and not python_rabin(f, p)]
        assert [index_of(f, p) for f in hits] == want
        for f in hits:
            assert frobenius_powers(fields._sparse_frobenius(f, p), n)[-1] == [0, 1] + [0] * (n - 2)
        counts = route_counts(monkeypatch)
        assert not any(_rabin(f, p) for f in hits)
        monkeypatch.setattr(fields, "_sparse_frobenius", lambda f, p: None)
        assert not any(_rabin(f, p) for f in hits)
        assert counts == [len(hits), len(hits)]

    @pytest.mark.parametrize("p,n", sorted(GOLDEN))
    def test_golden_searches_take_the_expected_route(self, monkeypatch, p, n):
        # a search that silently fell back to the dense route would still
        # answer right; the counts catch it
        counts = route_counts(monkeypatch)
        assert index_of(lex_smallest_irreducible.__wrapped__(p, n), p) == GOLDEN[p, n]
        assert tuple(counts) == GOLDEN_ROUTES.get((p, n), (0, 0))

    @pytest.mark.parametrize("p,f", [
        (7, (1, 2, 0, 0, 0, 1)),                      # p >= n
        (7, monic(GOLDEN[7, 12], 7, 12)),             # p deg g = 14 >= n = 12
        (2, monic(2**14 + 5, 2, 20)),                 # second sieve block at p = 2
        (3, monic(3**4 + 2, 3, 12)),                  # p deg g = n
    ])
    def test_other_shapes_take_the_dense_route(self, monkeypatch, p, f):
        assert fields._sparse_frobenius(f, p) is None
        counts = route_counts(monkeypatch)
        assert _rabin(f, p) == python_rabin(f, p)
        assert counts == [0, 1]

    def test_python_int_p_takes_the_dense_route(self):
        # the Python-int case of `test_degree_25_at_p_1000000007`: a short g,
        # but sums that int64 cannot hold
        f = (1000000007 - 55, 1000000006) + (0,) * 23 + (1,)
        assert fields._sparse_frobenius(f, 1000000007) is None


class TestSearchBound:
    def test_first_degree_above_the_bound_refuses_at_once(self):
        # 3 divides 33 but not p - 1, so no binomial decides it: the search
        # would run Rabin's test on Python ints
        p, n = 1000000007, fields.MAX_EXACT_SEARCH_DEGREE + 1
        assert n == 33 and linalg.products(p, np.int64) < n and (p - 1) % 3
        start = time.perf_counter()
        with pytest.raises(ModulusSearchError,
                           match="degree 33 exceeds MAX_EXACT_SEARCH_DEGREE = 32"):
            make_field(p, 1, n)
        assert time.perf_counter() - start < 1.0

    def test_searches_within_the_bound_or_in_int64_still_run(self):
        assert lex_smallest_irreducible(1000000007, fields.MAX_EXACT_SEARCH_DEGREE)[-1] == 1
        assert index_of(lex_smallest_irreducible(5, 248), 5) == GOLDEN[5, 248]
        # a closed-form binomial is no search: 3 and 11 divide p - 1
        assert make_field(2**61 - 1, 1, 33).modulus[1:] == (0,) * 32 + (1,)


def clear_sieve_caches():
    for cached in (fields._irreducibles, fields._irreducible_ring, fields._xpow_irreducibles):
        cached.cache_clear()


def sieve_blocks(p, n):
    """(start, s, depth) of the first sieve block of the degree-n search and
    of a later one whose high digits are not all zero (top > 0), if any."""
    s = min(n, _sieve_digits(p))
    depth = min(n // 2, s)
    blocks = [0] if n == s else [0, p**s * min(p + 1, p ** (n - s) - 1)]
    return [(start, s, depth) for start in blocks]


def square_and_multiply(p, d, e):
    """x^e mod g for every irreducible g of degree d by `FieldBatch.pow`,
    with no cache: the sieve's powers as plain square and multiply."""
    gs = _irreducibles(p, d)
    ring = fields.FieldBatch(p, np.hstack([gs, np.ones((len(gs), 1), dtype=np.int64)]))
    x = fields._times_x(ring.one().T, ring.red(1)[:, 0].T, p).T
    return ring.pow(x, e)


class TestSievePowers:
    """The sieve reads x^e mod g from a cache of every prefix e >> k; that
    changes the cost of a search, never a mask."""

    def test_masks_equal_square_and_multiply_in_either_search_order(self, monkeypatch):
        want = {}
        with monkeypatch.context() as m:
            m.setattr(fields, "_xpow_irreducibles", square_and_multiply)
            for p, n in GOLDEN:
                for block in sieve_blocks(p, n):
                    want[p, n, block] = _sieve(p, n, *block).tolist()
        for order in (sorted(GOLDEN), sorted(GOLDEN, reverse=True)):
            clear_sieve_caches()
            for p, n in order:
                assert index_of(lex_smallest_irreducible.__wrapped__(p, n), p) == GOLDEN[p, n]
                for block in sieve_blocks(p, n):
                    assert _sieve(p, n, *block).tolist() == want[p, n, block]

    @pytest.mark.parametrize("p,n", [(2, 256), (3, 81), (5, 248), (5, 20), (7, 49)])
    def test_a_cold_sieve_squares_as_often_as_square_and_multiply(self, monkeypatch, p, n):
        calls = {}
        real = fields.FieldBatch.mul

        def counted(self, a, b):
            calls[self.n] = calls.get(self.n, 0) + 1
            return real(self, a, b)

        monkeypatch.setattr(fields.FieldBatch, "mul", counted)
        for start, s, depth in sieve_blocks(p, n):
            high = fields._int_digits(start // p**s, p, n - s)
            top = max((i + 1 for i, c in enumerate(high) if c), default=0)
            assert top == (2 if start else 0)
            clear_sieve_caches()
            calls.clear()
            _sieve(p, n, start, s, depth)
            assert calls == {d: (n - s - top).bit_length() for d in range(1, depth + 1)}


def monic_rows(p, n):
    """Every monic polynomial of degree n over F_p, one row each, in index
    order."""
    ks = np.arange(p**n)
    out = np.ones((ks.size, n + 1), dtype=np.int64)
    for j in range(n):
        out[:, j] = ks % p
        ks = ks // p
    return out


def factor_table(p, nmax):
    """For every degree n <= nmax, indexed by `index_of`: the number of
    irreducible factors with multiplicity and whether f is squarefree.
    Trial division turned around: every product g*h of a monic irreducible
    g with a monic h is marked, and so is every g*g*h; what no product
    reaches is irreducible."""
    omega, sqfree, irreducible = {0: np.zeros(1, dtype=np.int64)}, {}, {}

    def products(g, h):
        out = np.zeros((g.shape[0], h.shape[0], g.shape[1] + h.shape[1] - 1), dtype=np.int64)
        for i in range(g.shape[1]):
            out[:, :, i : i + h.shape[1]] += g[:, None, i : i + 1] * h[None]
        return out % p

    index = lambda rows: rows[..., :-1] @ p ** np.arange(rows.shape[-1] - 1)
    for n in range(1, nmax + 1):
        om, sf = np.zeros(p**n, dtype=np.int64), np.ones(p**n, dtype=bool)
        for d in range(1, n):
            g = irreducible[d]
            om[index(products(g, monic_rows(p, n - d)))] = omega[n - d] + 1
            if 2 * d <= n:
                squares = np.einsum("kk...->k...", products(g, g))
                sf[index(products(squares, monic_rows(p, n - 2 * d)))] = False
        irreducible[n] = monic_rows(p, n)[om == 0]
        om[om == 0] = 1
        omega[n], sqfree[n] = om, sf
    return omega, sqfree


class TestDiscriminantCharacter:
    """Stickelberger: a squarefree f of degree n with k irreducible factors
    has disc(f) of quadratic character (-1)^(n-k); otherwise disc(f) = 0."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_factor_count_parity(self, p):
        omega, sqfree = factor_table(p, 6)
        assert [(omega[n] == 1).sum() for n in (1, 2, 3)] == [p, (p * p - p) // 2, (p**3 - p) // 3]
        for n in range(1, 7):
            want = np.where(sqfree[n], (-1) ** (n - omega[n]), 0).tolist()
            assert [_disc_character(f, p) for f in map(tuple, monic_rows(p, n).tolist())] == want

    def test_constant_derivative(self):
        # f' = 18x^17 + 3x^2 - 1 = -1 at p = 3, so f is squarefree and Berlekamp's
        # count n - rank(Q - I) is its number of irreducible factors
        p, f = 3, (1, 2, 0, 1) + (0,) * 14 + (1,)
        n = len(f) - 1
        xp = poly_mod([0] * p + [1], f, p)
        col, cols = [1], []
        for _ in range(n):
            cols.append(col + [0] * (n - len(col)))
            col = poly_mod(list(poly_mul(col, xp, p)), f, p)
        Q = np.array(cols, dtype=np.int64).T
        k = n - linalg.rank_mod_p((Q - np.eye(n, dtype=np.int64)) % p, p)
        assert _disc_character(f, p) == (-1) ** (n - k)
        # x f has the character of f, since f(0) != 0; x^2 f is not squarefree;
        # the Artin-Schreier x^3 - x + 1 is irreducible
        assert [_disc_character(g, p) for g in [(0,) + f, (0, 0) + f, (1, 2, 0, 1)]] == [
            (-1) ** (n - k), 0, 1]


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


def python_xpow(f, p, e):
    """x^e mod f by square-and-multiply on Python ints, trimmed."""

    def mulmod(a, b):
        return poly_mod(list(poly_mul(a, b, p)), f, p)

    result, base = [1], [0, 1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return result


def python_rabin(f, p):
    """Rabin's test with x^(p^k) by square-and-multiply on Python ints."""
    n = len(f) - 1
    xpow = lambda e: python_xpow(f, p, e)

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
        alpha = fld.elem(fld.base_embedding()[:, 1].tolist())
        assert alpha == brute_subfield_root(fld, lex_smallest_irreducible(p, e), 1)[1]

    @pytest.mark.parametrize("block", [1 << 12, 3])
    @pytest.mark.parametrize("modulus,m", [((2, 0, 1), 3), ((2, 0, 1), 4), ((1, 1, 0, 1), 2)])
    def test_residue_embedding_is_first_root(self, monkeypatch, block, modulus, m):
        monkeypatch.setattr(fields, "_ROOT_BLOCK", block)
        d = len(modulus) - 1
        rf = fields.field_with_modulus(5, 1, d, modulus)
        B = fields.field_with_modulus(5, 1, d * m, make_field(5, 1, d * m).modulus)  # fresh caches
        sigma = B.subfield_embedding(rf.modulus, d)
        k, beta = brute_subfield_root(B, modulus, d)
        assert k >= 3  # past the first block of 3
        assert tuple(sigma[:, 1]) == beta.coords

    @pytest.mark.parametrize("p,c,n", [(5, 1, 20), (5, 4, 124), (3, 2, 6)])
    def test_residue_field_f_p_embeds_without_a_subfield_basis(self, p, c, n):
        # F_p = F_p[T]/(T + c) has the one basis vector 1: sigma is e_0, and
        # no q-fixed subfield of B (an n x n elimination) is computed
        rf = fields.field_with_modulus(p, 1, 1, (c, 1))
        B = fields.field_with_modulus(p, 1, n, make_field(p, 1, n).modulus)  # fresh caches
        sigma = B.subfield_embedding(rf.modulus, 1)
        assert sigma.dtype == B.batch().dtype and sigma.tolist() == [[1]] + [[0]] * (n - 1)
        assert B._subfield == {}

    @pytest.mark.parametrize("p,e,m,d", [(5, 1, 6, 2), (5, 1, 6, 3), (3, 2, 4, 2), (2, 3, 2, 1)])
    def test_subfield_basis_is_cached_and_read_only(self, p, e, m, d):
        fld = make_field(p, e, m)
        basis = fld.subfield_basis(d)
        assert fld.subfield_basis(d) is basis and fld.subfield_basis(d + m) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1
        fresh = linalg.kernel_mod_p(
            (fld.frobenius_power_matrix(d) - np.eye(fld.n, dtype=np.int64)) % p, p)
        assert basis.dtype == np.int64 and basis.tolist() == fresh.tolist()
        assert basis.shape[0] == e * np.gcd(d, m)  # the fixed field F_(q^gcd(d, m))
