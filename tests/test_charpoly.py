from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drinfeld import reduction
from drinfeld.charpoly import (
    CharPoly,
    CharPolyError,
    charpoly_linear_system,
    charpoly_mod_l,
    det_check,
    det_law,
    epsilon_of,
    frobenius_charpolys,
)
from drinfeld.fields import make_field
from drinfeld.linalg import Int64RangeError
from drinfeld.polynomials import SparsePoly, parse_poly, primes_of_degree, residue_field
from drinfeld.reduction import TorsionSearchError, reduce_mod, torsion_space
from drinfeld.skew import DrinfeldModule, SkewPoly, split_prime_power

F5 = make_field(5, 1, 1)
F7 = make_field(7, 1, 1)
D5 = DrinfeldModule.default_family(5, 3)
D7 = DrinfeldModule.default_family(7, 3)


class TestClosedForm:
    @pytest.mark.parametrize("q,r", [(5, 3), (7, 3), (5, 5), (7, 5)])
    def test_linear_primes(self, q, r):
        D = DrinfeldModule.default_family(q, r)
        base = D.base
        for c in range(1, q):
            prime = SparsePoly(base, [(0, base.scalar(-c)), (1, base.one)])
            cp = charpoly_linear_system(D, prime)
            assert cp.a[0] == SparsePoly.one(base)
            for i in range(2, r):
                assert not cp.a[i - 1]
            assert cp.a[r - 1] == -prime

    def test_carlitz_rank_one(self):
        C = DrinfeldModule.carlitz(5)
        for prime in primes_of_degree(F5, 2)[:3]:
            cp = charpoly_linear_system(C, prime)
            # P = x - p: Frobenius acts as multiplication by the prime
            assert cp.a[0] == -prime
            assert cp.epsilon == F5.scalar(-1)

    def test_bad_reduction_rejected(self):
        with pytest.raises(CharPolyError):
            charpoly_linear_system(D5, SparsePoly.T(F5))

    def test_p_past_int64_refused_by_name(self):
        # object coordinates would be written into the int64 system
        D = DrinfeldModule.default_family(2**64 - 59, 3)
        with pytest.raises(Int64RangeError):
            charpoly_linear_system(D, parse_poly("T+1", D.base))


class TestEpsilon:
    def test_linear_primes_give_minus_one(self):
        for c in range(1, 5):
            prime = parse_poly(f"T+{5 - c}", F5)
            assert epsilon_of(D5, prime) == F5.scalar(-1)

    def test_carlitz_closed_form_matches_frobenius_congruence(self):
        # rank 1: a_1 = epsilon*p and P(Frob) = 0 force Frob = -epsilon*p;
        # the Frobenius congruence Frob = p mod l then pins epsilon = -1
        C = DrinfeldModule.carlitz(5)
        for prime in primes_of_degree(F5, 1) + primes_of_degree(F5, 2)[:2]:
            if prime == SparsePoly.T(F5):
                continue
            eps = epsilon_of(C, prime)
            assert eps == F5.scalar(-1)
            cp = charpoly_linear_system(C, prime)
            for ell in primes_of_degree(F5, 1):
                if ell == prime:
                    continue
                rf = residue_field(ell)
                frob_eigenvalue = -rf.reduce(cp.a[0])
                assert frob_eigenvalue == rf.reduce(prime)

    def test_degree_two_primes_norm_formula(self):
        # epsilon = -((-1)^d p(0))^(-(q-1)) which is -1 once p(0) != 0
        for prime in primes_of_degree(F5, 2):
            assert epsilon_of(D5, prime) == F5.scalar(-1)

    def test_epsilon_via_torsion_oracle_even_degree(self):
        # the sign convention at even degree validated against the matrix route
        prime = parse_poly("T^2+2", F5)
        cp = charpoly_linear_system(D5, prime)
        assert cp.a[-1] == prime * epsilon_of(D5, prime)
        for ell in (parse_poly("T+4", F5), parse_poly("T+2", F5)):
            via_matrix = charpoly_mod_l(D5, prime, ell)
            assert [c.to_int() for c in cp.reduce_mod(ell)] == [c.to_int() for c in via_matrix]


class TestDegreeBoundsAndResidual:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bounds_and_constant_term(self, d):
        for prime in primes_of_degree(F5, d):
            if not prime.coeff(0):
                continue
            cp = charpoly_linear_system(D5, prime)
            for i in range(1, 4):
                assert cp.a[i - 1].degree <= i * d // 3
            assert cp.a[2] == prime * epsilon_of(D5, prime)

    def test_residual_identity_explicit(self):
        prime = parse_poly("T^2+2", F5)
        cp = charpoly_linear_system(D5, prime)
        R = reduce_mod(D5, prime)
        d = prime.degree
        total = SkewPoly.tau(R.ring, 3 * d)
        for i in range(1, 4):
            total = total + R.phi(cp.a[i - 1]).shift_tau((3 - i) * d)
        assert not total


class TestModL:
    def test_example_values(self):
        prime = parse_poly("T+4", F5)
        got = charpoly_mod_l(D5, prime, parse_poly("T+3", F5))
        assert [c.to_int() for c in got] == [4, 0, 1, 1]
        got = charpoly_mod_l(D5, prime, parse_poly("T+2", F5))
        assert [c.to_int() for c in got] == [3, 0, 1, 1]

    def test_rejects_equal_primes(self):
        prime = parse_poly("T+4", F5)
        with pytest.raises(CharPolyError):
            charpoly_mod_l(D5, prime, prime)

    @pytest.mark.parametrize("d", [1, 2])
    def test_two_method_agreement(self, d):
        ells = [parse_poly("T+4", F5), parse_poly("T+3", F5), parse_poly("T+2", F5)]
        for prime in primes_of_degree(F5, d):
            if not prime.coeff(0):
                continue
            cp = charpoly_linear_system(D5, prime)
            for ell in ells:
                if ell == prime:
                    continue
                via_torsion = charpoly_mod_l(D5, prime, ell)
                assert [c.to_int() for c in cp.reduce_mod(ell)] == \
                    [c.to_int() for c in via_torsion]

    def test_mod_l_independence_lifts(self):
        # coefficients recovered from residues at two linear primes agree
        # with the integral linear-system output (degree bounds < 2)
        prime = parse_poly("T^2+2", F5)
        cp = charpoly_linear_system(D5, prime)
        l1, l2 = parse_poly("T+4", F5), parse_poly("T+2", F5)
        red1 = charpoly_mod_l(D5, prime, l1)
        red2 = charpoly_mod_l(D5, prime, l2)
        for i in range(1, 3):  # a_1, a_2 have degree <= 1
            a = cp.a[i - 1]
            assert a.degree <= 1
            # interpolate a line through (1, red1), (3, red2): T=1 at l1, T=3 at l2
            x1, y1 = 1, red1[3 - i].to_int()
            x2, y2 = 3, red2[3 - i].to_int()
            slope = (y2 - y1) * pow(x2 - x1, 3, 5) % 5
            const = (y1 - slope * x1) % 5
            want = SparsePoly.from_pairs(F5, [(1, F5.scalar(slope)), (0, F5.scalar(const))])
            assert a == want


class TestDetCheck:
    def test_linear_primes_sign_algebra(self):
        ell = parse_poly("T+4", F5)
        for c in (2, 3, 4):
            prime = parse_poly(f"T+{5 - c}", F5)
            assert det_check(D5, prime, ell)

    def test_with_torsion_matrix(self):
        prime = parse_poly("T+4", F5)
        ell = parse_poly("T+3", F5)
        ts = torsion_space(reduce_mod(D5, prime), ell)
        assert det_check(D5, prime, ell, torsion=ts)

    def test_carlitz_frobenius_congruence(self):
        C = DrinfeldModule.carlitz(5)
        ell = parse_poly("T+4", F5)
        for prime in primes_of_degree(F5, 2)[:4]:
            assert det_check(C, prime, ell)

    def test_wrong_sign_mutant_fails(self):
        prime = parse_poly("T+3", F5)
        ell = parse_poly("T+4", F5)
        cp = charpoly_linear_system(D5, prime)
        mutant = CharPoly(prime, cp.r, cp.a[:-1] + (-cp.a[-1],), cp.epsilon)
        assert det_check(D5, prime, ell, charpoly=cp)
        assert not det_check(D5, prime, ell, charpoly=mutant)


    def test_custom_module_with_sign_two(self):
        # phi_T = T + tau + 2 tau^2 at p = T+4: epsilon = 2, so (-1)^r epsilon p
        # = 2 p, and det(Frob) = 2 mod l = T+3 where p mod l = 1
        C = DrinfeldModule(F5, [parse_poly(t, F5) for t in ("T", "1", "2")])
        prime, ell = parse_poly("T+4", F5), parse_poly("T+3", F5)
        assert epsilon_of(C, prime).to_int() == 2
        ts = torsion_space(reduce_mod(C, prime), ell)
        assert ts.frobenius_matrix.det().to_int() == 2
        assert det_law(2, epsilon_of(C, prime), prime, ell).to_int() == 2
        assert det_check(C, prime, ell, torsion=ts)


def _custom_module(base, r, data):
    """phi_T = T + g_1 tau + ... + g_r tau^r, each g_i of degree <= 1 and
    g_r outside {1, -1}."""
    elem = st.integers(0, base.order - 1).map(base.from_int)
    linear = st.tuples(elem, elem).map(
        lambda c: SparsePoly(base, [(1, c[0]), (0, c[1])]))
    g_r = data.draw(linear.filter(
        lambda g: g and g != SparsePoly.one(base) and g != -SparsePoly.one(base)))
    return DrinfeldModule(base, [SparsePoly.T(base)] + [data.draw(linear) for _ in range(r - 1)] + [g_r])


def _torsion_pair(module, max_n=40):
    """The first pair of distinct primes p, l of degree <= 2 (p a good prime
    other than T, l linear) whose torsion field has F_p-dimension <= max_n."""
    base = module.base
    for d in (1, 2):
        for prime in primes_of_degree(base, d):
            if prime == SparsePoly.T(base) or not module.g[-1] % prime:
                continue  # g_r = 0 mod p: bad reduction
            reduced = reduce_mod(module, prime)
            for ell in primes_of_degree(base, 1):
                if ell == prime:
                    continue
                try:
                    with mock.patch.object(reduction, "MAX_SPLITTING_FIELD_DEGREE", max_n):
                        return prime, ell, torsion_space(reduced, ell)
                except TorsionSearchError:
                    continue
    return None


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(q=st.sampled_from([3, 4, 5, 7, 9]), r=st.integers(2, 5), data=st.data())
def test_det_law_on_custom_modules(q, r, data):
    # every rank 2-5 and e <= 2: the law holds with the sign (-1)^r epsilon,
    # checked against the determinant of the torsion Frobenius matrix
    p, e = split_prime_power(q)
    module = _custom_module(make_field(p, e, 1), r, data)
    found = _torsion_pair(module)
    if found is None:
        return
    prime, ell, ts = found
    (cp,) = frobenius_charpolys(module, [prime])
    want = det_law(r, epsilon_of(module, prime), prime, ell)
    assert ts.frobenius_matrix.det() == want
    assert cp.det_of_frobenius_mod(ell) == want
    assert det_check(module, prime, ell, charpoly=cp, torsion=ts)


class TestExtensionBaseField:
    def test_q25_linear_prime_closed_form(self):
        base = make_field(5, 2, 1)
        D = DrinfeldModule.default_family(base, 3)
        prime = SparsePoly(base, [(0, -base.gen), (1, base.one)])  # T - w
        cp = charpoly_linear_system(D, prime)
        assert cp.a[0] == SparsePoly.one(base)
        assert not cp.a[1]
        assert cp.a[2] == -prime
        assert cp.epsilon == base.scalar(-1)
