import random

import pytest

from drinfeld.fields import PrimalityError, make_field
from drinfeld.polynomials import SparsePoly, parse_poly, primes_of_degree
from drinfeld.skew import (
    DrinfeldModule,
    SkewDivisionError,
    SkewError,
    SkewPoly,
    _integer_root,
    linearized_eval,
    split_prime_power,
)

F5 = make_field(5, 1, 1)
F25 = make_field(5, 1, 2)


def default_module(q=5, r=3):
    return DrinfeldModule.default_family(q, r)


def rand_poly(rng, base, deg):
    terms = [(deg, base.scalar(rng.randrange(1, base.p)))]
    terms += [(e, base.scalar(rng.randrange(base.p))) for e in range(deg)]
    return SparsePoly.from_pairs(base, terms)


class TestCommutation:
    def test_tau_times_constant(self):
        D = default_module()
        tau = SkewPoly.tau(D.ring)
        t_const = SkewPoly(D.ring, [(0, SparsePoly.T(F5))])
        prod = tau * t_const
        assert prod.terms == ((1, SparsePoly.monomial(F5, 5)),)

    def test_single_term_rule(self):
        # (T^(q-1) tau^r) * T = T^(q^r + q - 1) tau^r
        D = default_module()
        lhs = SkewPoly(D.ring, [(3, SparsePoly.monomial(F5, 4))])
        t_const = SkewPoly(D.ring, [(0, SparsePoly.T(F5))])
        assert (lhs * t_const).terms == ((3, SparsePoly.monomial(F5, 129)),)

    def test_mixed_rings_rejected(self):
        D5 = default_module()
        D7 = default_module(7, 3)
        with pytest.raises(SkewError):
            D5.phi_T * D7.phi_T

    def test_degree_additivity(self):
        rng = random.Random(2)
        ring = default_module().ring
        for _ in range(15):
            f = SkewPoly(ring, [(e, rand_poly(rng, F5, 2)) for e in range(rng.randrange(1, 4))])
            g = SkewPoly(ring, [(e, rand_poly(rng, F5, 2)) for e in range(rng.randrange(1, 4))])
            if f and g:
                assert (f * g).degree == f.degree + g.degree


class TestPhiOf:
    def test_unital(self):
        D = default_module()
        assert D.phi(SparsePoly.one(F5)) == SkewPoly.one(D.ring)

    def test_image_of_T(self):
        D = default_module()
        assert D.phi(SparsePoly.T(F5)) == D.phi_T
        assert D.phi_T.terms == (
            (0, SparsePoly.T(F5)),
            (2, SparsePoly.one(F5)),
            (3, SparsePoly.monomial(F5, 4)),
        )

    @pytest.mark.parametrize("q,r", [(5, 3), (7, 3), (5, 5)])
    def test_phi_T2_six_term_formula(self, q, r):
        D = default_module(q, r)
        base = D.base
        got = D.phi(SparsePoly.T(base) * SparsePoly.T(base))
        mono = lambda e: SparsePoly.monomial(base, e)
        want = SkewPoly(D.ring, {
            0: mono(2),
            r - 1: mono(q ** (r - 1)) + mono(1),
            r: mono(q**r + q - 1) + mono(q),
            2 * r - 2: SparsePoly.one(base),
            2 * r - 1: mono((q - 1) * q ** (r - 1)) + mono(q - 1),
            2 * r: mono((q - 1) * (q**r + 1)),
        }.items())
        assert got == want

    def test_ring_homomorphism_on_random_pairs(self):
        D = default_module()
        rng = random.Random(100)
        for _ in range(100):
            a = rand_poly(rng, F5, rng.randrange(1, 5))
            b = rand_poly(rng, F5, rng.randrange(1, 5))
            assert D.phi(a * b) == D.phi(a) * D.phi(b)
            assert D.phi(a + b) == D.phi(a) + D.phi(b)

    def test_tau_degree_and_constant_term(self):
        D = default_module()
        rng = random.Random(7)
        for _ in range(20):
            deg = rng.randrange(1, 5)
            a = rand_poly(rng, F5, deg)
            image = D.phi(a)
            assert image.degree == 3 * deg
            assert image.min_exp == 0
            assert image.coeff(0) == a  # gamma is the natural injection

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_leading_coefficient_law(self, d):
        # top coefficient of phi_l is T^((q-1) sum q^(r(i-1))), any monic prime l
        D = default_module()
        q, r = 5, 3
        expected_exp = (q - 1) * sum(q ** (r * (i - 1)) for i in range(1, d + 1))
        for ell in primes_of_degree(F5, d)[:5]:
            exp, coeff = D.phi(ell).terms[-1]
            assert exp == r * d
            assert coeff == SparsePoly.monomial(F5, expected_exp)

    def test_fq_linearity(self):
        D = default_module()
        rng = random.Random(9)
        for _ in range(20):
            a = rand_poly(rng, F5, 3)
            c = rng.randrange(1, 5)
            scaled = a * F5.scalar(c)
            assert D.phi(scaled) == D.phi(a).scale(SparsePoly.monomial(F5, 0, c))

    def test_default_family_validation(self):
        with pytest.raises(SkewError):
            DrinfeldModule.default_family(5, 4)  # not an odd prime rank
        with pytest.raises(SkewError):
            DrinfeldModule.default_family(2, 3)  # q too small

    def test_carlitz(self):
        C = DrinfeldModule.carlitz(5)
        assert C.r == 1
        assert C.phi_T.terms == ((0, SparsePoly.T(F5)), (1, SparsePoly.one(F5)))


class TestDivision:
    def field_ring(self):
        from drinfeld.skew import _FieldRing

        return _FieldRing(F25)

    def rand_skew(self, rng, deg):
        ring = self.field_ring()
        terms = [(deg, F25.from_int(rng.randrange(1, 25)))]
        terms += [(e, F25.from_int(rng.randrange(25))) for e in range(deg)]
        return SkewPoly(ring, terms)

    def test_tau_squared_by_tau(self):
        ring = self.field_ring()
        f = SkewPoly.tau(ring, 2)
        g = SkewPoly.tau(ring, 1)
        q, r = f.divmod_right(g)
        assert q == SkewPoly.tau(ring, 1) and not r

    def test_division_by_one(self):
        rng = random.Random(3)
        f = self.rand_skew(rng, 4)
        q, r = f.divmod_right(SkewPoly.one(self.field_ring()))
        assert q == f and not r

    def test_reconstruction_random(self):
        rng = random.Random(77)
        for _ in range(25):
            f = self.rand_skew(rng, 5)
            g = self.rand_skew(rng, 2)
            q, r = f.divmod_right(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_uniqueness_by_perturbation(self):
        rng = random.Random(78)
        ring = self.field_ring()
        f = self.rand_skew(rng, 5)
        g = self.rand_skew(rng, 2)
        q, r = f.divmod_right(g)
        bump = SkewPoly(ring, [(0, F25.one)])
        q2 = q + bump
        r2 = f - q2 * g
        assert (q2, r2) != (q, r)
        assert r2.degree >= g.degree  # perturbed quotient breaks the degree bound

    def test_poly_backend_exact_division(self):
        D = default_module()
        # phi_(T^2) = phi_T * phi_T exactly
        phi2 = D.phi(parse_poly("T^2", F5))
        q, r = phi2.divmod_right(D.phi_T)
        assert q == D.phi_T and not r

    def test_poly_backend_signals_impossible_division(self):
        D = default_module()
        ring = D.ring
        f = SkewPoly(ring, [(1, SparsePoly.T(F5))])
        g = SkewPoly(ring, [(1, SparsePoly.monomial(F5, 2))])  # T^2 does not divide T
        with pytest.raises(SkewDivisionError):
            f.divmod_right(g)


class TestLinearizedEval:
    def test_tau_is_qth_power(self):
        from drinfeld.skew import _FieldRing

        f = SkewPoly(_FieldRing(F25), [(1, F25.one)])
        rng = random.Random(5)
        for _ in range(10):
            x = F25.from_int(rng.randrange(25))
            assert linearized_eval(f, x) == x**5

    def test_phi_T_at_zero(self):
        D = default_module()
        from drinfeld.reduction import reduce_mod

        R = reduce_mod(D, parse_poly("T+3", F5))  # T |-> 2
        assert linearized_eval(R.phi_T, R.field.zero) == R.field.zero

    def test_additivity(self):
        from drinfeld.skew import _FieldRing

        rng = random.Random(55)
        ring = _FieldRing(F25)
        for _ in range(15):
            f = SkewPoly(ring, [(e, F25.from_int(rng.randrange(25))) for e in range(3)])
            x = F25.from_int(rng.randrange(25))
            y = F25.from_int(rng.randrange(25))
            assert linearized_eval(f, x + y) == linearized_eval(f, x) + linearized_eval(f, y)

    def test_fq_homogeneity(self):
        from drinfeld.skew import _FieldRing

        rng = random.Random(56)
        ring = _FieldRing(F25)
        for _ in range(15):
            f = SkewPoly(ring, [(e, F25.from_int(rng.randrange(25))) for e in range(3)])
            x = F25.from_int(rng.randrange(25))
            for c in range(5):
                assert linearized_eval(f, x * c) == linearized_eval(f, x) * c


class TestSplitPrimePower:
    @pytest.mark.parametrize("q,pe", [
        (2, (2, 1)), (4, (2, 2)), (9, (3, 2)), (25, (5, 2)), (3**20, (3, 20)),
        (2**61 - 1, (2**61 - 1, 1)), ((2**31 - 1) ** 2, (2**31 - 1, 2)), (5**27, (5, 27)),
        ((2**61 - 1) ** 3, (2**61 - 1, 3)),  # q past the primality bound, p below it
    ])
    def test_prime_powers(self, q, pe):
        assert split_prime_power(q) == pe

    def test_prime_past_the_primality_bound_is_refused(self):
        # only e = 1 has an exact root, so primality is asked of q itself
        with pytest.raises(PrimalityError, match="bound of the deterministic primality test"):
            split_prime_power(2**89 - 1)

    @pytest.mark.parametrize("q", [-4, 0, 1, 6, 12, 36, 100, 3**5 * 5, (2**31 - 1) * 1_000_000_007])
    def test_refuses_others(self, q):
        with pytest.raises(SkewError, match="is not a prime power"):
            split_prime_power(q)

    def test_agrees_with_trial_division(self):
        def by_trial(q):
            p = next(k for k in range(2, q + 1) if q % k == 0)
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None

        for q in range(2, 5000):
            try:
                got = split_prime_power(q)
            except SkewError:
                got = None
            assert got == by_trial(q)

    def test_integer_root(self):
        rng = random.Random(7)
        for _ in range(500):
            n, k = rng.getrandbits(rng.randint(1, 200)) or 1, rng.randint(1, 40)
            x = _integer_root(n, k)
            assert x**k <= n < (x + 1) ** k
