import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import polynomials
from drinfeld.fields import Field, make_field
from drinfeld.polynomials import (
    INF,
    Place,
    PolySyntaxError,
    SparsePoly,
    format_poly,
    format_rows,
    is_irreducible,
    necklace_count,
    parse_poly,
    poly_valuation,
    prime_coordinates,
    primes_of_degree,
    residue_field,
)

F5 = make_field(5, 1, 1)
F7 = make_field(7, 1, 1)


def moebius_count(q, d):
    """Independent necklace-count oracle: the Moebius sum over every divisor
    of d, mu by trial division."""
    def mu(n):
        m, dd = 1, 2
        while dd * dd <= n:
            if n % dd == 0:
                n //= dd
                if n % dd == 0:
                    return 0
                m = -m
            dd += 1
        return -m if n > 1 else m

    return sum(mu(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


class TestPrimes:
    def test_degree_one_is_all_linears(self):
        pr = primes_of_degree(F5, 1)
        assert [format_poly(f) for f in pr] == ["T", "T+1", "T+2", "T+3", "T+4"]

    @pytest.mark.parametrize("q,d,count", [(5, 2, 10), (7, 3, 112), (5, 4, 150), (7, 2, 21)])
    def test_counts_match_moebius_oracle(self, q, d, count):
        base = make_field(q, 1, 1)
        pr = primes_of_degree(base, d)
        assert len(pr) == count == moebius_count(q, d) == necklace_count(q, d)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 25])
    def test_necklace_count_matches_moebius_oracle_to_degree_64(self, q):
        # d <= 64 includes the square factors of 4, 8, 9, 12, 36 and 64
        degrees = range(1, 65)
        assert [necklace_count(q, d) for d in degrees] == [moebius_count(q, d) for d in degrees]

    def test_all_irreducible_by_gcd_recheck(self):
        for f in primes_of_degree(F5, 3):
            assert is_irreducible(f)

    def test_pairwise_coprime(self):
        pr = primes_of_degree(F5, 2)
        for i, f in enumerate(pr):
            for g in pr[i + 1 :]:
                assert f.gcd(g).degree == 0

    def test_lexicographic_order(self):
        pr = primes_of_degree(F5, 2)
        idx = [sum(c.to_int() * 5**e for e, c in f.terms if e < 2) for f in pr]
        assert idx == sorted(idx)

    @pytest.mark.parametrize("p,dmax", [(7, 6), (2, 10), (11, 4)])
    def test_product_sieve_counts_order_and_leading_one(self, p, dmax):
        base = make_field(p, 1, 1)
        for d in range(1, dmax + 1):
            rows = prime_coordinates(base, d)
            assert len(rows) == necklace_count(p, d) == moebius_count(p, d)
            index = rows[:, :d, 0] @ p ** np.arange(d)
            assert (np.diff(index) > 0).all()
            assert (rows[:, d, 0] == 1).all()

    # recorded from the sieve that reduced every candidate by each divisor
    @pytest.mark.parametrize("p,e,d,shape,digest", [
        (7, 1, 5, (3360, 6, 1), "ec4bab250ac36f908a64d6d30757ff8bc9da8ae660c751d15153c15101bd78b3"),
        (3, 2, 4, (1620, 5, 2), "38e3a8602d47642982450fa89fbc6080a9f7c93e20355dadc02078e6c3c46b79"),
        (2, 3, 4, (1008, 5, 3), "73a880ef37842c8dbfb8b18a2ea91da5b4bb3503274f830b08cbb5485a607b5d"),
    ])
    def test_prime_coordinates_digests(self, p, e, d, shape, digest):
        rows = prime_coordinates(make_field(p, e, 1), d)
        assert rows.shape == shape and rows.dtype == np.int64
        assert hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest() == digest

    def test_coordinates_build_no_sparse_poly_of_their_degree(self, monkeypatch):
        base = Field(7, 1, 1, (0, 1))  # a fresh object: the caches key on id
        built = []
        real = polynomials.from_coordinates
        monkeypatch.setattr(polynomials, "from_coordinates",
                            lambda b, row: built.append(len(row) - 1) or real(b, row))
        rows = prime_coordinates(base, 3)
        assert not built  # the sieve works on coordinate arrays only
        assert not any(polynomials._IRRED_CACHE.get(real(base, row)) for row in rows.tolist())
        primes = primes_of_degree(base, 3)
        assert built.count(3) == len(primes) == 112
        assert [f.coeff(i).coords for f in primes for i in range(4)] == [
            tuple(c) for c in rows.reshape(-1, 1).tolist()
        ]
        assert all(polynomials._IRRED_CACHE[f] for f in primes)
        assert primes_of_degree(base, 3) is primes and built.count(3) == 112


# (p, e, largest degree): Rabin's test at e = 1, the distinct-degree
# criterion at e > 1 (q = 4, 8, 9), past degree 3 where it takes q^k-th
# powers for k >= 2
IRRED_CASES = [(2, 1, 6), (3, 1, 6), (5, 1, 6), (7, 1, 6), (2, 2, 3), (2, 3, 3), (3, 2, 3),
               (2, 2, 5), (3, 2, 4)]


class TestIrreducibility:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_both_routes_match_the_sieve(self, data):
        p, e, dmax = data.draw(st.sampled_from(IRRED_CASES))
        base = make_field(p, e, 1)
        d = data.draw(st.integers(1, dmax))
        k = data.draw(st.integers(0, base.q**d - 1))
        unit = base.from_int(data.draw(st.integers(1, base.q - 1)))
        digits = [k // p**i % p for i in range(d * e)]
        f = polynomials.from_coordinates(
            base, [digits[j * e:(j + 1) * e] for j in range(d)] + [[1] + [0] * (e - 1)])
        rows = prime_coordinates(base, d)
        primes = set((rows[:, :d].reshape(len(rows), d * e) @ p ** np.arange(d * e)).tolist())
        # `_is_irreducible` itself, so that no memo entry answers for it
        got = polynomials._is_irreducible(f)
        assert got == polynomials._is_irreducible(f * unit) == (k in primes)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_products_without_roots_are_reducible(self, data):
        # no factor of degree 1: only the steps k >= 2 of the e > 1 route see them
        p, e, j = data.draw(st.sampled_from([(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]))
        base = make_field(p, e, 1)
        g = data.draw(st.sampled_from(primes_of_degree(base, 2)))
        h = data.draw(st.sampled_from(primes_of_degree(base, j)))
        assert not polynomials._is_irreducible(g * h)

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_x2_plus_1_at_large_p(self, p):
        f = parse_poly("T^2+1", make_field(p, 1, 1))
        assert polynomials._is_irreducible(f) == (p % 4 == 3)


class TestValuation:
    def test_exponent_readoff_at_T(self):
        f = SparsePoly.monomial(F5, 4)  # T^(q-1)
        assert poly_valuation(f, Place.finite(SparsePoly.T(F5))) == 4

    def test_infinity_of_T(self):
        assert poly_valuation(SparsePoly.T(F5), Place.infinity()) == -1

    def test_unit_at_T(self):
        f = parse_poly("T+4", F5)
        assert poly_valuation(f, Place.finite(SparsePoly.T(F5))) == 0

    def test_zero_gets_infinite_valuation(self):
        assert poly_valuation(SparsePoly.zero(F5), Place.infinity()) == INF

    def test_multiplicative_and_ultrametric(self):
        rng = random.Random(17)
        places = [Place.finite(SparsePoly.T(F5)),
                  Place.finite(parse_poly("T^2+2", F5)),
                  Place.infinity()]
        for _ in range(25):
            f = _rand_poly(rng, 6)
            g = _rand_poly(rng, 6)
            if not f or not g:
                continue
            for v in places:
                assert poly_valuation(f * g, v) == poly_valuation(f, v) + poly_valuation(g, v)
                s = f + g
                if s:
                    lhs = poly_valuation(s, v)
                    a, b = poly_valuation(f, v), poly_valuation(g, v)
                    assert lhs >= min(a, b)
                    if a != b:
                        assert lhs == min(a, b)

    def test_product_formula(self):
        # f assembled from known primes so every valuation is visible
        rng = random.Random(23)
        pool = primes_of_degree(F5, 1) + primes_of_degree(F5, 2)
        for _ in range(10):
            factors = rng.sample(pool, 3)
            exps = [rng.randrange(1, 3) for _ in factors]
            f = SparsePoly.one(F5)
            for g, e in zip(factors, exps):
                f = f * g**e
            total = sum(g.degree * e for g, e in zip(factors, exps))
            assert poly_valuation(f, Place.infinity()) == -total
            acc = 1 * poly_valuation(f, Place.infinity())
            for g in pool:
                acc += g.degree * poly_valuation(f, Place.finite(g))
            assert acc == 0


def _valuation_by_division(f, g):
    count = 0
    while True:
        q, r = f.divmod(g)
        if r:
            return count
        count, f = count + 1, q


class TestSparseValuation:
    """`poly_valuation` finds the least Hasse derivative D^(j) f that g does
    not divide, each tested by the sparse remainder `_sparse_mod`, with no
    division, and skips the j where every binomial of D^(j) f vanishes (as
    at k = p, where D^(j) g^p = 0 for 0 < j < p): the same answers as long
    division alone."""

    @pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
    def test_equals_the_division_loop_on_g_to_the_k_times_h(self, p, e):
        base, rng = make_field(p, e, 1), random.Random(p * 10 + e)
        for d in (1, 2, 3):
            for g in primes_of_degree(base, d)[:4]:
                for k in (0, 1, 2, 3, p):
                    h = SparsePoly(base, [(x, base.from_int(rng.randrange(1, base.q)))
                                          for x in rng.sample(range(2 * base.q), 3)])
                    f = g**k * h
                    assert poly_valuation(f, Place.finite(g)) == _valuation_by_division(f, g)

    @pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
    def test_sparse_remainder_equals_long_division(self, p, e):
        base, rng = make_field(p, e, 1), random.Random(p + e)
        for d in (1, 2, 3):
            for g in primes_of_degree(base, d)[:4]:
                for _ in range(5):
                    f = SparsePoly(base, [(x, base.from_int(rng.randrange(base.q)))
                                          for x in rng.sample(range(3 * base.q**2), 4)])
                    assert polynomials._sparse_mod(f, g) == f % g

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
    def test_hasse_binomials_equal_math_comb(self, p, e):
        # D^(j) of sum_(k < 200) T^k has C(k, j) mod p at T^(k - j)
        base = make_field(p, e, 1)
        f = SparsePoly(base, [(k, base.one) for k in range(200)])
        for j in range(201):
            got = {k: c.coords for k, c in polynomials._hasse(f, j).terms}
            want = {k - j: base.scalar(math.comb(k, j)).coords
                    for k in range(j, 200) if math.comb(k, j) % p}
            assert got == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_next_binomial_equals_the_least_nonzero_math_comb(self, p):
        for e in range(200):
            nonzero = [i for i in range(e + 1) if math.comb(e, i) % p]
            for j in range(200):
                want = next((i for i in nonzero if i >= j), None)
                assert polynomials._next_binomial(e, j, p) == want


def _rand_poly(rng, max_deg):
    return SparsePoly(F5, [(e, F5.scalar(rng.randrange(5)))
                           for e in rng.sample(range(max_deg + 1), rng.randrange(1, 4))])


class TestResidueField:
    def test_linear_prime_evaluation(self):
        rf = residue_field(parse_poly("T+3", F5))  # (T-2)
        assert rf.field.order == 5
        assert rf.reduce(parse_poly("T^2+1", F5)) == rf.field.zero

    def test_quadratic_prime(self):
        rf = residue_field(parse_poly("T^2+2", F5))
        assert rf.field.order == 25
        assert rf.reduce(parse_poly("T^2", F5)) == rf.field.scalar(-2)

    def test_at_T_over_F7(self):
        rf = residue_field(SparsePoly.T(F7))
        assert rf.field.order == 7
        assert rf.reduce(SparsePoly.T(F7)) == rf.field.zero

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            residue_field(parse_poly("T^2+1", F5))  # (T+2)(T+3)

    def test_reduction_is_ring_homomorphism(self):
        rf = residue_field(parse_poly("T^2+2", F5))
        rng = random.Random(31)
        for _ in range(20):
            f = _rand_poly(rng, 5)
            g = _rand_poly(rng, 5)
            assert rf.reduce(f * g) == rf.reduce(f) * rf.reduce(g)
            assert rf.reduce(f + g) == rf.reduce(f) + rf.reduce(g)

    def test_kernel_is_exactly_the_prime(self):
        ell = parse_poly("T^2+2", F5)
        rf = residue_field(ell)
        rng = random.Random(37)
        for _ in range(20):
            f = _rand_poly(rng, 5)
            assert (rf.reduce(f) == rf.field.zero) == (not f % ell)
        assert rf.reduce(ell) == rf.field.zero
        assert rf.reduce(ell * parse_poly("T+1", F5)) == rf.field.zero


# (p, e, largest degree) of the residue fields whose lift is checked
LIFT_CASES = [(2, 1, 4), (5, 1, 3), (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]


class TestLift:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lift_inverts_reduce_below_the_degree(self, data):
        p, e, dmax = data.draw(st.sampled_from(LIFT_CASES))
        base = make_field(p, e, 1)
        d = data.draw(st.integers(1, dmax))
        primes = primes_of_degree(base, d)
        rf = residue_field(primes[data.draw(st.integers(0, len(primes) - 1))])
        for c in rf.field.elements():
            f = rf.lift(c)
            assert f.degree < d and rf.reduce(f) == c
        for k in range(base.q**d):  # every polynomial of degree < d
            digits = [k // p**i % p for i in range(d * e)]
            f = polynomials.from_coordinates(base, [digits[j * e:(j + 1) * e] for j in range(d)])
            assert rf.lift(rf.reduce(f)) == f


class TestSyntax:
    def test_ascending_descending_equal(self):
        assert parse_poly("T^3+2*T+1", F5) == parse_poly("1+2*T+T^3", F5)

    def test_canonical_output_descending(self):
        assert format_poly(parse_poly("1+2*T+T^3", F5)) == "T^3+2*T+1"

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(20):
            f = _rand_poly(rng, 9)
            assert parse_poly(format_poly(f), F5) == f

    def test_negative_coefficients(self):
        assert parse_poly("-T+1", F5) == parse_poly("4*T+1", F5)

    def test_malformed_raises_with_token(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("T^2+zz", F5)
        assert "zz" in str(err.value)

    def test_empty_raises(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("   ", F5)

    @pytest.mark.parametrize("p,e,dmax", [(2, 2, 4), (3, 2, 3), (5, 2, 2)])
    def test_round_trip_of_primes_over_f_q(self, p, e, dmax):
        # format_poly writes an F_q coefficient as its element index
        base = make_field(p, e, 1)
        for d in range(1, dmax + 1):
            for f in primes_of_degree(base, d):
                assert parse_poly(format_poly(f), base) == f

    @pytest.mark.parametrize("p,e,d", [(7, 1, 1), (7, 1, 4), (3, 2, 3), (2, 2, 4)])
    def test_format_rows_is_format_poly_of_each_row(self, p, e, d):
        base = make_field(p, e, 1)
        primes = primes_of_degree(base, d)
        rows = np.array([[f.coeff(j).to_int() for j in range(d + 1)] for f in primes])
        assert format_rows(rows, base.q).tolist() == [format_poly(f) for f in primes]
        # any nonzero leading index, with zero entries below it
        rows = np.array([[0, 0, 2], [base.q - 1, 0, base.q - 1]])
        assert format_rows(rows, base.q).tolist() == [
            format_poly(SparsePoly(base, [(j, base.from_int(int(k))) for j, k in enumerate(row)]))
            for row in rows]

    def test_f9_coefficients_are_element_indices(self):
        F9 = make_field(3, 2, 1)
        f = parse_poly("T^2+T+5", F9)
        assert f.coeff(0) == F9.from_int(5) and format_poly(f) == "T^2+T+5"
        assert format_poly(parse_poly("T+1", F9)) == "T+1"
        assert format_poly(parse_poly("T+2", F9)) == "T+2"
        assert parse_poly("T-4", F9) == parse_poly("T+8", F9)  # -(1 + w) = 2 + 2w
        for text in ("T+9", "10*T+1", "T^2+T+12"):
            with pytest.raises(PolySyntaxError):
                parse_poly(text, F9)

    def test_prime_field_still_reads_residues(self):
        assert parse_poly("T+7", F5) == parse_poly("T+2", F5)


class TestSparseArithmetic:
    def test_large_exponents_stay_sparse(self):
        f = SparsePoly.monomial(F5, 10**6) + SparsePoly.one(F5)
        g = f * f
        assert g.degree == 2 * 10**6
        assert len(g.terms) == 3

    def test_divmod_reconstruction(self):
        rng = random.Random(43)
        for _ in range(25):
            f = _rand_poly(rng, 8)
            g = _rand_poly(rng, 4)
            if not g:
                continue
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_gcd_monic(self):
        a = parse_poly("T+1", F5) * parse_poly("T+2", F5)
        b = parse_poly("T+1", F5) * parse_poly("T+3", F5)
        assert format_poly(a.gcd(b)) == "T+1"
