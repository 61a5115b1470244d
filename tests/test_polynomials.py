import random

import pytest

from drinfeld import polynomials
from drinfeld.fields import Field, make_field
from drinfeld.polynomials import (
    INF,
    Place,
    PolySyntaxError,
    RationalFn,
    SparsePoly,
    format_poly,
    is_irreducible,
    necklace_count,
    parse_poly,
    poly_valuation,
    prime_coordinates,
    primes_of_degree,
    residue_field,
    valuation,
)

F5 = make_field(5, 1, 1)
F7 = make_field(7, 1, 1)


def moebius_count(q, d):
    """Independent necklace-count oracle."""
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

    def test_coordinates_build_no_sparse_poly_of_their_degree(self, monkeypatch):
        base = Field(7, 1, 1, (0, 1))  # a fresh object: the caches key on id
        built = []
        real = polynomials.from_coordinates
        monkeypatch.setattr(polynomials, "from_coordinates",
                            lambda b, row: built.append(len(row) - 1) or real(b, row))
        rows = prime_coordinates(base, 3)
        assert 3 not in built  # only the divisors of degree 1 the sieve reduces by
        assert not any(polynomials._IRRED_CACHE.get(real(base, row)) for row in rows.tolist())
        primes = primes_of_degree(base, 3)
        assert built.count(3) == len(primes) == 112
        assert [f.coeff(i).coords for f in primes for i in range(4)] == [
            tuple(c) for c in rows.reshape(-1, 1).tolist()
        ]
        assert all(polynomials._IRRED_CACHE[f] for f in primes)
        assert primes_of_degree(base, 3) is primes and built.count(3) == 112


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

    def test_rational_valuation(self):
        f = RationalFn(SparsePoly.T(F5), parse_poly("T^2+2", F5))
        assert valuation(f, Place.infinity()) == 1
        assert valuation(f, Place.finite(SparsePoly.T(F5))) == 1
        assert valuation(f, Place.finite(parse_poly("T^2+2", F5))) == -1


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

    def test_f9_coefficients_are_element_indices(self):
        F9 = make_field(3, 2, 1)
        f = parse_poly("T^2+T+5", F9)
        assert f.constant() == F9.from_int(5) and format_poly(f) == "T^2+T+5"
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
