import random
from fractions import Fraction

import pytest

from drinfeld.fields import make_field
from drinfeld.newton import (
    NewtonPolygon,
    inertia_order_prediction,
    newton_polygon,
    np_irreducibility,
    slope_integrality,
    torsion_polygon,
    torsion_slopes,
)
from drinfeld.polynomials import Place, SparsePoly, parse_poly, primes_of_degree
from drinfeld.skew import DrinfeldModule

F5 = make_field(5, 1, 1)
D5 = DrinfeldModule.default_family(5, 3)
T = SparsePoly.T(F5)
AT_T = Place.finite(T)
AT_INF = Place.infinity()


def brute_hull(points):
    """Quadratic-time lower hull oracle: a point is a vertex iff no segment
    between two other points passes strictly below it."""
    pts = sorted(points)
    hull = [pts[0]]
    cur = pts[0]
    while cur != pts[-1]:
        # steepest descent: smallest slope to any later point, farthest wins ties
        best = None
        for q in pts:
            if q[0] <= cur[0]:
                continue
            s = Fraction(q[1] - cur[1], q[0] - cur[0])
            if best is None or s < best[0] or (s == best[0] and q[0] > best[1][0]):
                best = (s, q)
        hull.append(best[1])
        cur = best[1]
    return hull


class TestHull:
    def test_matches_brute_oracle_on_random_inputs(self):
        rng = random.Random(2026)
        for _ in range(50):
            n = rng.randrange(2, 9)
            xs = rng.sample(range(0, 40), n)
            pts = [(x, rng.randrange(-15, 15)) for x in xs]
            poly = NewtonPolygon(AT_T, pts)
            assert list(poly.vertices) == brute_hull(pts)

    def test_lengths_sum_to_span(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randrange(2, 8)
            xs = rng.sample(range(0, 60), n)
            pts = [(x, rng.randrange(-9, 9)) for x in xs]
            poly = NewtonPolygon(AT_T, pts)
            assert sum(L for _, L in poly.segments) == max(xs) - min(xs)

    def test_slopes_increase(self):
        rng = random.Random(10)
        for _ in range(30):
            xs = rng.sample(range(0, 30), 6)
            pts = [(x, rng.randrange(-9, 9)) for x in xs]
            poly = NewtonPolygon(AT_T, pts)
            slopes = poly.slopes
            assert slopes == sorted(slopes)

    def test_points_on_or_above_hull(self):
        rng = random.Random(11)
        for _ in range(30):
            xs = rng.sample(range(0, 30), 6)
            pts = [(x, rng.randrange(-9, 9)) for x in xs]
            poly = NewtonPolygon(AT_T, pts)
            for x, y in pts:
                for (x0, y0), (x1, y1) in zip(poly.vertices, poly.vertices[1:]):
                    if x0 <= x <= x1:
                        assert Fraction(y) >= Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (x - x0)

    def test_single_point_degenerate(self):
        poly = newton_polygon([(1, SparsePoly.one(F5))], AT_T)
        assert poly.segments == ()


class TestFamilySlopes:
    def test_phi_T_at_infinity_single_segment(self):
        poly = newton_polygon(D5.phi_as_x_poly(T), AT_INF)
        assert poly.segments == ((Fraction(-3, 124), 124),)

    def test_torsion_polygon_linear_prime_at_T(self):
        for c in (1, 2, 3, 4):
            prime = parse_poly(f"T+{5 - c}", F5)
            segs = torsion_slopes(D5, prime, AT_T)
            assert list(segs) == [(Fraction(0), 24), (Fraction(1, 25), 100)]

    def test_root_valuations_follow_the_c09_slopes(self):
        # at (T) each segment (s, L) gives L roots of valuation -s, and the
        # multiplicities count every root of phi_a(x)/x, of degree q^(r deg a) - 1
        cases = [(parse_poly(f"T+{5 - c}", F5), 5**3 - 1) for c in (1, 2, 3, 4)]
        for a, length in cases + [(T * T, 5**6 - 1)]:
            poly = torsion_polygon(D5, a, AT_T)
            assert poly.root_valuations() == [(-s, L) for s, L in poly.segments]
            assert sum(L for _, L in poly.root_valuations()) == length
        poly = torsion_polygon(D5, parse_poly("T+4", F5), AT_T)
        assert poly.root_valuations() == [(Fraction(0), 24), (Fraction(-1, 25), 100)]
        vals = {v for v, _ in torsion_polygon(D5, T * T, AT_T).root_valuations()}
        assert {Fraction(-1, 625), Fraction(-1, 25)} <= vals

    def test_phi_T2_contains_both_slopes(self):
        slopes = [s for s, _ in torsion_slopes(D5, T * T, AT_T)]
        assert Fraction(1, 625) in slopes
        assert Fraction(1, 25) in slopes

    def test_counterexample_single_slope(self):
        psi = DrinfeldModule(F5, [T, -T])
        for c in (1, 2):
            prime = parse_poly(f"T+{5 - c}", F5)
            segs = torsion_slopes(psi, prime, AT_T)
            assert list(segs) == [(Fraction(1, 4), 4)]

    def test_slope_integrality(self):
        prime = parse_poly("T+4", F5)
        good = [(e - 1, c) for e, c in D5.phi_as_x_poly(prime)]
        assert slope_integrality(good, AT_T)
        psi = DrinfeldModule(F5, [T, -T])
        bad = [(e - 1, c) for e, c in psi.phi_as_x_poly(prime)]
        assert not slope_integrality(bad, AT_T)

    def test_constant_vacuously_integral(self):
        assert slope_integrality([(0, SparsePoly.one(F5))], AT_T)

    def test_lattice_valuations(self):
        poly = newton_polygon(D5.phi_as_x_poly(T), AT_INF)
        mu = -poly.segments[0][0]
        assert mu == Fraction(5 - 2, 5**3 - 1)
        assert mu - 1 == Fraction(-(5**3) + 5 - 1, 5**3 - 1)

    def test_tame_at_infinity_denominators(self):
        for a in (T, T * T, parse_poly("T+4", F5)):
            for s, _ in torsion_slopes(D5, a, AT_INF):
                assert (5**3 - 1) % s.denominator == 0


class TestSlopeZeroRootCount:
    def test_unit_root_count_matches_polygon(self):
        # slope-0 length is q^(r-1) - 1; the mod-T reduction of the torsion
        # polynomial of phi_(T-1) is x^24 - 1, whose roots fill F_25^*
        prime = parse_poly("T+4", F5)
        segs = torsion_slopes(D5, prime, AT_T)
        assert segs[0] == (Fraction(0), 24)
        B = make_field(5, 1, 2)
        count = sum(1 for x in B.elements() if x and x**24 == B.one)
        assert count == 24


class TestInertia:
    def test_degree_one(self):
        for ell in primes_of_degree(F5, 1):
            if ell == T:
                continue
            assert inertia_order_prediction(D5, ell) == 25

    def test_degree_two(self):
        for ell in primes_of_degree(F5, 2)[:4]:
            assert inertia_order_prediction(D5, ell) == 625

    def test_max_denominator_is_the_prediction(self):
        ell = parse_poly("T^2+2", F5)
        segs = torsion_slopes(D5, ell, AT_T)
        assert max(s.denominator for s, _ in segs) == 625

    def test_carlitz_unramified(self):
        C = DrinfeldModule.carlitz(5)
        assert inertia_order_prediction(C, parse_poly("T+4", F5)) == 1

    def test_rejects_T(self):
        with pytest.raises(ValueError):
            inertia_order_prediction(D5, T)


class TestIrreducibilityCertificate:
    def test_torsion_polynomial_at_infinity(self):
        for c in (1, 2, 3, 4):
            prime = parse_poly(f"T+{5 - c}", F5)
            coeffs = [(e - 1, co) for e, co in D5.phi_as_x_poly(prime)]
            assert np_irreducibility(coeffs, AT_INF) == "Irreducible"

    def test_inconclusive_at_T(self):
        prime = parse_poly("T+4", F5)
        coeffs = [(e - 1, co) for e, co in D5.phi_as_x_poly(prime)]
        assert np_irreducibility(coeffs, AT_T) == "Inconclusive"

    def test_eisenstein_analogue(self):
        coeffs = [(2, SparsePoly.one(F5)), (0, -T)]
        assert np_irreducibility(coeffs, AT_INF) == "Irreducible"

    def test_denominator_equals_degree(self):
        prime = parse_poly("T+4", F5)
        poly = torsion_polygon(D5, prime, AT_INF)
        assert len(poly.segments) == 1
        s = poly.segments[0][0]
        assert s == Fraction(-3, 124)
        assert s.denominator == 124 == 5**3 - 1

    def test_requires_nonzero_constant(self):
        with pytest.raises(ValueError):
            np_irreducibility([(1, SparsePoly.one(F5)), (3, T)], AT_T)
