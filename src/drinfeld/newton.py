"""Newton polygons at places of F_q(T), root-valuation bookkeeping,
ramification-size predictions at (T), and the single-slope irreducibility
certificate.

Slope convention, fixed once for the whole artifact: a lower-hull segment
of slope s and horizontal length L certifies L roots of valuation -s.
Slopes are exact `fractions.Fraction`s; no floating point enters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomials import Place, SparsePoly, poly_valuation
from .skew import DrinfeldModule


class NewtonError(ValueError):
    """A polygon or prediction was asked for outside its domain."""


class NewtonPolygon:
    """Lower convex hull of (exponent, valuation) points at one place."""

    def __init__(self, place: Place, points: Sequence[tuple[int, int]]):
        pts = sorted(points)
        if len(pts) != len({e for e, _ in pts}):
            raise NewtonError("duplicate exponents")
        self.place = place
        self.points = tuple(pts)
        self.vertices = _lower_hull(pts)
        segs = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            segs.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
        self.segments = tuple(segs)

    @property
    def slopes(self) -> list[Fraction]:
        return [s for s, _ in self.segments]

    def root_valuations(self) -> list[tuple[Fraction, int]]:
        """(valuation, multiplicity) per segment: L roots of valuation -s."""
        return [(-s, L) for s, L in self.segments]

    def __repr__(self):
        segs = ", ".join(f"{s}x{L}" for s, L in self.segments)
        return f"NewtonPolygon({self.place!r}, [{segs}])"


def _lower_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain lower hull; collinear interior points removed."""
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop if hull turns left (or straight) at x1 going to pt
            if (x1 - x0) * (pt[1] - y0) <= (pt[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(coeffs: Sequence[tuple[int, SparsePoly]], place: Place) -> NewtonPolygon:
    """Polygon of sum c_e x^e from its sparse (exponent, coefficient) list;
    zero coefficients are skipped."""
    pts = []
    for e, c in coeffs:
        if not c:
            continue
        pts.append((e, poly_valuation(c, place)))
    if not pts:
        raise NewtonError("zero polynomial has no Newton polygon")
    return NewtonPolygon(place, pts)


def torsion_polygon(module: DrinfeldModule, a: SparsePoly, place: Place) -> NewtonPolygon:
    """Polygon of phi_a(x)/x: exponents q^i - 1."""
    xpoly = module.phi_as_x_poly(a)
    return newton_polygon([(e - 1, c) for e, c in xpoly], place)


def torsion_slopes(module: DrinfeldModule, a: SparsePoly, place: Place):
    """Segment list of the torsion polynomial phi_a(x)/x at the place."""
    return torsion_polygon(module, a, place).segments


def inertia_order_prediction(module: DrinfeldModule, ell: SparsePoly) -> int:
    """Size prediction for the local image at (T): the largest lowest-terms
    slope denominator of phi_l(x)/x there.  Checked against
    q^((r-1) deg l) for the default family shape; a mismatch is reported
    as a falsification, not silently returned."""
    base = module.base
    t_place = Place.finite(SparsePoly.T(base))
    if ell == SparsePoly.T(base):
        raise NewtonError("the prediction is for l away from (T)")
    segs = torsion_slopes(module, ell, t_place)
    denom = max(s.denominator for s, _ in segs)
    expected = module.q ** ((module.r - 1) * ell.degree)
    if denom != expected:
        raise ArithmeticError(
            f"inertia denominator {denom} != q^((r-1) deg l) = {expected}"
        )
    return denom


def np_irreducibility(coeffs: Sequence[tuple[int, SparsePoly]], place: Place) -> str:
    """'Irreducible' when the polygon is a single segment whose lowest-terms
    slope denominator equals the degree (a totally ramified factor of full
    degree); otherwise 'Inconclusive'.  Never claims reducibility."""
    pts = [(e, c) for e, c in coeffs if c]
    if not pts:
        raise NewtonError("zero polynomial")
    exps = [e for e, _ in pts]
    if min(exps) != 0:
        raise NewtonError("nonzero constant term required")
    poly = newton_polygon(pts, place)
    deg = max(exps)
    if len(poly.segments) == 1 and poly.segments[0][0].denominator == deg:
        return "Irreducible"
    return "Inconclusive"


def slope_integrality(coeffs: Sequence[tuple[int, SparsePoly]], place: Place) -> bool:
    """Whether the first (smallest) slope is an integer; vacuously true when
    the polygon is a single point."""
    poly = newton_polygon([(e, c) for e, c in coeffs if c], place)
    if not poly.segments:
        return True
    return poly.segments[0][0].denominator == 1
