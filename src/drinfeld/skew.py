"""The twisted polynomial ring K{tau} with tau*c = c^q*tau.

Two coefficient backends sit behind one class: exact F_q[T] coefficients
(`SparsePoly`, the generic-characteristic ring) and finite-field
coefficients (`FieldElement`, the reduction of the ring mod a prime).
Passing from one to the other is a backend change, nothing else.

`DrinfeldModule` holds the defining image of T and extends it to the full
ring homomorphism a |-> phi_a; `linearized_eval` turns a skew polynomial
with field coefficients into the additive map x |-> sum c_i x^(q^i).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .fields import Field, FieldElement, make_field
from .polynomials import SparsePoly, format_poly


class SkewError(ValueError):
    pass


class SkewDivisionError(SkewError):
    """Right division impossible over these coefficients (extend scalars)."""


class _PolyRing:
    """F_q[T]-coefficient backend."""

    kind = "poly"

    def __init__(self, base: Field):
        self.base = base
        self.q = base.q

    def is_zero(self, c):
        return not c

    def zero(self):
        return SparsePoly.zero(self.base)

    def one(self):
        return SparsePoly.one(self.base)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def twist(self, c, k):
        """c^(q^k): coefficients are q-power fixed, exponents scale."""
        if k == 0:
            return c
        step = self.q**k
        return SparsePoly(self.base, [(e * step, cf) for e, cf in c.terms])

    def untwist(self, c, k):
        return c.qpower_root(k)

    def invert(self, c):
        if c.degree != 0:
            raise SkewDivisionError("leading coefficient not invertible in F_q[T]")
        return SparsePoly.monomial(self.base, 0, self.base.inv(c.constant()))

    def eq(self, a, b):
        return a == b

    def fmt(self, c):
        return format_poly(c)


class _FieldRing:
    """Finite-field coefficient backend (the reduction mod a prime)."""

    kind = "field"

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q

    def is_zero(self, c):
        return not c

    def zero(self):
        return self.field.zero

    def one(self):
        return self.field.one

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def twist(self, c, k):
        return self.field.frobenius(c, k)

    def untwist(self, c, k):
        return self.field.frobenius(c, -k)

    def invert(self, c):
        return self.field.inv(c)

    def eq(self, a, b):
        return a == b

    def fmt(self, c):
        from .polynomials import format_field_element

        return format_field_element(c)


class SkewPoly:
    """Element of K{tau}: sorted sparse (tau-exponent, coefficient) terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: Iterable[tuple[int, object]]):
        clean = [(e, c) for e, c in terms if not ring.is_zero(c)]
        clean.sort(key=lambda t: t[0])
        self.ring = ring
        self.terms = tuple(clean)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "SkewPoly":
        return cls(ring, [])

    @classmethod
    def one(cls, ring) -> "SkewPoly":
        return cls(ring, [(0, ring.one())])

    @classmethod
    def tau(cls, ring, k: int = 1) -> "SkewPoly":
        return cls(ring, [(k, ring.one())])

    # -- structure ---------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(
            e1 == e2 and self.ring.eq(c1, c2)
            for (e1, c1), (e2, c2) in zip(self.terms, other.terms)
        )

    def __hash__(self):
        return hash(tuple((e, c) for e, c in self.terms))

    @property
    def degree(self) -> int:
        """tau-degree; -1 for zero."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise SkewError("zero skew polynomial has no lowest term")
        return self.terms[0][0]

    def coeff(self, e: int):
        for exp, c in self.terms:
            if exp == e:
                return c
            if exp > e:
                break
        return self.ring.zero()

    def _same_ring(self, other: "SkewPoly"):
        r1, r2 = self.ring, other.ring
        if r1.kind != r2.kind:
            raise SkewError("mixed coefficient rings")
        if r1.kind == "poly" and r1.base is not r2.base:
            raise SkewError("mixed coefficient rings")
        if r1.kind == "field" and r1.field is not r2.field:
            raise SkewError("mixed coefficient rings")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._same_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = self.ring.add(acc[e], c) if e in acc else c
        return SkewPoly(self.ring, acc.items())

    def __neg__(self):
        return SkewPoly(self.ring, [(e, self.ring.neg(c)) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        """Product under tau^i * c = c^(q^i) * tau^i."""
        self._same_ring(other)
        ring = self.ring
        acc: dict[int, object] = {}
        for i, a in self.terms:
            for j, b in other.terms:
                e = i + j
                prod = ring.mul(a, ring.twist(b, i))
                acc[e] = ring.add(acc[e], prod) if e in acc else prod
        return SkewPoly(ring, acc.items())

    def scale(self, c) -> "SkewPoly":
        """Left multiplication by a coefficient: scales every term."""
        return SkewPoly(self.ring, [(e, self.ring.mul(c, cf)) for e, cf in self.terms])

    def shift_tau(self, k: int) -> "SkewPoly":
        """Right multiplication by tau^k (coefficients untouched)."""
        return SkewPoly(self.ring, [(e + k, c) for e, c in self.terms])

    def divmod_right(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """f = Q*g + R with deg_tau R < deg_tau g; unique.

        Over field coefficients the leading solve needs a q^k-th root; over
        F_q[T] coefficients exact divisibility is required and
        `SkewDivisionError` signals the caller to extend scalars.
        """
        self._same_ring(g)
        if not g:
            raise ZeroDivisionError("skew division by zero")
        ring = self.ring
        dg = g.degree
        glead = g.terms[-1][1]
        rem = self
        q_terms: list[tuple[int, object]] = []
        while rem and rem.degree >= dg:
            k = rem.degree - dg
            # lead(rem) = c * lead(g)^(q^k)  =>  c = lead(rem) / lead(g)^(q^k)
            target = ring.twist(glead, k)
            if ring.kind == "poly":
                num = rem.terms[-1][1]
                quot, r = num.divmod(target) if target.degree <= num.degree else (None, None)
                if quot is None or r:
                    raise SkewDivisionError("leading term not divisible; extend scalars")
                c = quot
            else:
                c = ring.mul(rem.terms[-1][1], ring.invert(target))
            q_terms.append((k, c))
            rem = rem - SkewPoly(ring, [(k, c)]) * g
        return SkewPoly(ring, q_terms), rem

    def __repr__(self):
        return f"SkewPoly({self.format()!r})"

    def format(self) -> str:
        """Ascending tau powers as `c(T)*t^k + ...` with canonical coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = self.ring.fmt(c)
            multi = "+" in cs or (cs.startswith("-") and "+" in cs[1:])
            if e == 0:
                parts.append(f"({cs})" if multi else cs)
                continue
            t = "t" if e == 1 else f"t^{e}"
            if cs == "1":
                parts.append(t)
            else:
                parts.append(f"({cs})*{t}" if multi else f"{cs}*{t}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Drinfeld modules
# ---------------------------------------------------------------------------


class DrinfeldModule:
    """Rank-r module over F = F_q(T), determined by the image of T.

    g is the coefficient list (g_0 = T, g_1, ..., g_r) of the image of T,
    with g_r != 0.  The default family is T + tau^(r-1) + T^(q-1)*tau^r,
    which asks for an odd prime rank.
    """

    def __init__(self, base: Field, g: Sequence[SparsePoly]):
        if len(g) < 2:
            raise SkewError("rank must be >= 1")
        if g[0] != SparsePoly.T(base):
            raise SkewError("the constant coefficient of the image of T must be T")
        if not g[-1]:
            raise SkewError("the top coefficient must be nonzero")
        self.base = base
        self.q = base.q
        self.g = tuple(g)
        self.r = len(g) - 1
        self.ring = _PolyRing(base)
        self.phi_T = SkewPoly(self.ring, [(i, c) for i, c in enumerate(g)])
        self._phi_T_pows: list[SkewPoly] = [SkewPoly.one(self.ring), self.phi_T]

    @classmethod
    def default_family(cls, q: int | Field, r: int) -> "DrinfeldModule":
        """phi_T = T + tau^(r-1) + T^(q-1)*tau^r; r an odd prime, q >= 3."""
        base = q if isinstance(q, Field) else _field_for_q(q)
        if r < 3 or not _is_odd_prime(r):
            raise SkewError("the default family takes an odd prime rank")
        if base.q < 3:
            raise SkewError("the default family needs q >= 3")
        g = [SparsePoly.T(base)] + [SparsePoly.zero(base)] * (r - 2)
        g.append(SparsePoly.one(base))
        g.append(SparsePoly.monomial(base, base.q - 1))
        return cls(base, g)

    @classmethod
    def carlitz(cls, q: int | Field) -> "DrinfeldModule":
        """C_T = T + tau, the rank-1 module."""
        base = q if isinstance(q, Field) else _field_for_q(q)
        return cls(base, [SparsePoly.T(base), SparsePoly.one(base)])

    def phi_T_power(self, j: int) -> SkewPoly:
        while len(self._phi_T_pows) <= j:
            self._phi_T_pows.append(self._phi_T_pows[-1] * self.phi_T)
        return self._phi_T_pows[j]

    def phi(self, a: SparsePoly) -> SkewPoly:
        """Image of a under the ring homomorphism; F_q-linear in a."""
        if a.base is not self.base:
            raise SkewError("argument from a different coefficient field")
        acc = SkewPoly.zero(self.ring)
        for e, c in a.terms:
            acc = acc + self.phi_T_power(e).scale(SparsePoly.monomial(self.base, 0, c))
        return acc

    def phi_as_x_poly(self, a: SparsePoly) -> list[tuple[int, SparsePoly]]:
        """phi_a as the additive polynomial sum c_i x^(q^i): (q^i, c_i) pairs."""
        return [(self.q**e, c) for e, c in self.phi(a).terms]

    def __repr__(self):
        return f"DrinfeldModule(q={self.q}, r={self.r}, phi_T={self.phi_T.format()})"


def _field_for_q(q: int) -> Field:
    """F_q from its size: q = p^e split uniquely."""
    p, e = split_prime_power(q)
    return make_field(p, e, 1)


def split_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; SkewError if q is not a prime power.  The
    smallest divisor p > 1 of q is prime, found by trial division."""
    if q >= 2:
        p = next((k for k in range(2, math.isqrt(q) + 1) if q % k == 0), q)
        e, t = 0, q
        while t % p == 0:
            t //= p
            e += 1
        if t == 1:
            return p, e
    raise SkewError(f"{q} is not a prime power")


def _is_odd_prime(r: int) -> bool:
    from .fields import is_prime

    return r % 2 == 1 and is_prime(r)


def linearized_eval(f: SkewPoly, x: FieldElement) -> FieldElement:
    """Evaluate a field-coefficient skew polynomial as sum c_i x^(q^i)."""
    if f.ring.kind != "field":
        raise SkewError("evaluation needs finite-field coefficients")
    fld = f.ring.field
    if x.field is not fld:
        raise SkewError("point and coefficients in different fields")
    acc = fld.zero
    for e, c in f.terms:
        acc = acc + c * fld.frobenius(x, e)
    return acc
