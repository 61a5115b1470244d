"""Characteristic polynomials of Frobenius at good primes.

The primary method (`frobenius_charpolys`) goes through the Anderson
motive L{tau} of the reduction, L = A/p the residue field, d = deg p.  On
the basis 1, tau, ..., tau^(r-1) over L[T], left multiplication by tau is
sigma-semilinear (sigma the q-power map) with the companion matrix

    A = [e_1 | e_2 | ... | e_(r-1) | g_r^-1 ((T - g_0) e_0 - sum g_i e_i)],

so tau^d acts L[T]-linearly by M = A sigma(A) ... sigma^(d-1)(A), and

    P(X) = x^r + a_1 x^(r-1) + ... + a_r = det(X - M).

The determinant is taken division-free (Berkowitz), so nothing pivots and
every prime of one degree is computed at once on numpy arrays.  The array
entry point is `charpolys_of_degree`: primes of one degree as a coordinate
array in, the a_i and epsilon as F_q coordinate arrays out, with the
reduction of the g_i done by `reduction.reduce_batch` and no per-prime
`Field`.  `frobenius_charpolys` runs the same route and wraps the arrays
into `CharPoly` objects.  Each answer is checked before it is returned: the
coefficients land in F_q, deg a_i <= i*d/r, a_r = epsilon*p with epsilon in
closed form, and the operator identity

    tau^(r d) + phi_(a_1) tau^((r-1)d) + ... + phi_(a_r)  =  0

holds exactly in L{tau}.

Two independent oracles remain.  `charpoly_linear_system` solves that
identity as a linear system in the coefficients of the a_i inside their
degree bounds, posed over F_p with e digits per F_q coefficient (a unique
F_q solution is F_p nullity 0); for prime rank the bounded solution is unique
(the constant term is a unit times the prime, ruling out a full r-th
power), and a system that is not raises.  `charpoly_mod_l` reads the
characteristic polynomial off the torsion Frobenius matrix at l.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import linalg
from .fields import FieldBatch, FieldElement
from .linalg import _berkowitz
from .polynomials import (
    PrimeError,
    ResidueBatch,
    SparsePoly,
    coordinates,
    format_poly,
    from_coordinates,
    is_irreducible,
    residue_field,
)
from .reduction import ReducedModule, reduce_batch, reduce_mod, torsion_space
from .skew import DrinfeldModule, SkewPoly


class CharPolyError(ValueError):
    pass


class CharPoly:
    """P(x) = x^r + a_1 x^(r-1) + ... + a_r with a_i in A, plus the unit
    epsilon with a_r = epsilon * p."""

    def __init__(self, prime: SparsePoly, r: int, coeffs: tuple[SparsePoly, ...],
                 epsilon: FieldElement):
        if len(coeffs) != r:
            raise CharPolyError("need exactly r coefficients a_1..a_r")
        self.prime = prime
        self.r = r
        self.a = coeffs
        self.epsilon = epsilon
        self._mod: dict[SparsePoly, list[FieldElement]] = {}

    def coefficient(self, i: int) -> SparsePoly:
        """a_i for 1 <= i <= r."""
        return self.a[i - 1]

    def reduce_mod(self, ell: SparsePoly) -> list[FieldElement]:
        """Monic image in F_l[x], ascending: [a_r mod l, ..., a_1 mod l, 1]."""
        if ell not in self._mod:
            rf = residue_field(ell)
            self._mod[ell] = [rf.reduce(a) for a in reversed(self.a)] + [rf.field.one]
        return list(self._mod[ell])

    def det_of_frobenius_mod(self, ell: SparsePoly) -> FieldElement:
        """(-1)^r a_r mod l: the determinant of the mod-l Frobenius matrix."""
        val = self.reduce_mod(ell)[0]
        return val if self.r % 2 == 0 else -val

    def __eq__(self, other):
        return (
            isinstance(other, CharPoly)
            and self.prime == other.prime
            and self.a == other.a
        )

    def __repr__(self):
        from .polynomials import format_poly

        parts = [f"x^{self.r}"]
        for i, a in enumerate(self.a, start=1):
            if a:
                parts.append(f"({format_poly(a)})*x^{self.r - i}")
        return "CharPoly(" + " + ".join(parts) + ")"


def epsilon_of(module: DrinfeldModule, prime: SparsePoly) -> FieldElement:
    """The unit with a_r = epsilon * p, from the closed form
    (-1)^r (-1)^(d(r+1)) / Nr(g_r) with d = deg p and the norm taken from
    the residue field down to F_q."""
    reduced = reduce_mod(module, prime)
    return _epsilon_from_reduced(reduced)


def _epsilon_from_reduced(reduced: ReducedModule) -> FieldElement:
    if not reduced.is_good:
        raise CharPolyError("epsilon needs good reduction")
    module = reduced.module
    base = module.base
    d = reduced.prime.degree
    r = module.r
    g_r_bar = reduced.coeffs[r]
    nr = reduced.field.norm_to_base(g_r_bar)
    nr_base = _into_base(reduced, nr)
    return base.scalar(_epsilon_sign(r, d)) * base.inv(nr_base)


def _epsilon_sign(r: int, d: int) -> int:
    """(-1)^r (-1)^(d(r+1)): epsilon = sign / Nr(g_r)."""
    return -1 if (r + d * (r + 1)) % 2 else 1


def _into_base(reduced: ReducedModule, x: FieldElement):
    """Pull an element of the F_q-subfield of the residue field back to F_q."""
    base = reduced.module.base
    embed = reduced.field.base_embedding()
    sol = linalg.solve_mod_p(embed, np.array(x.coords, dtype=np.int64), base.p)
    if sol is None:
        raise CharPolyError("norm did not land in the base field")
    return base.elem(int(v) for v in sol[0])


def _degree_bounds(r: int, d: int) -> list[int]:
    return [i * d // r for i in range(1, r + 1)]


# ---------------------------------------------------------------------------
# primary route: the motive matrix, batched over primes of one degree
# ---------------------------------------------------------------------------


def frobenius_charpolys(module: DrinfeldModule,
                        primes: Sequence[SparsePoly]) -> list[CharPoly]:
    """Characteristic polynomials of Frobenius at good primes, in input
    order, through det(X - M) on the Anderson motive: the array route of
    `charpolys_of_degree`, one batch per degree, wrapped into `CharPoly`
    objects.  Every answer passes the checks in the module docstring.  The
    first prime of bad reduction (in input order), or the first failing a
    check, is named by the CharPolyError raised."""
    base = module.base
    by_degree: dict[int, list[int]] = {}
    for k, prime in enumerate(primes):
        if prime.base is not base:
            raise CharPolyError(f"prime {format_poly(prime)} from a different coefficient field")
        if not prime.is_monic() or not is_irreducible(prime):
            raise PrimeError("residue fields require a monic irreducible generator")
        by_degree.setdefault(prime.degree, []).append(k)
    batches, first_bad = [], len(primes)
    for d, idx in by_degree.items():
        residues, g = reduce_batch(module, coordinates(base, (primes[k] for k in idx), d))
        bad = np.flatnonzero(~g[:, -1].any(axis=-1))
        if bad.size:
            first_bad = min(first_bad, idx[bad[0]])
        batches.append((idx, residues, g))
    if first_bad < len(primes):
        raise CharPolyError(f"bad reduction at {format_poly(primes[first_bad])}")
    out: list[CharPoly] = [None] * len(primes)  # type: ignore[list-item]
    for idx, residues, g in batches:
        a, eps = _motive_charpolys(module, residues, g)
        for k, cp in zip(idx, _charpoly_objects(base, [primes[k] for k in idx], a, eps)):
            out[k] = cp
    return out


def charpolys_of_degree(module: DrinfeldModule,
                        primes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The array route at the good primes of one degree d, given as a
    (B, d+1, e) array (`prime_coordinates`): a list of the (B, i*d/r + 1, e)
    F_q coefficient arrays of a_1, ..., a_r, and the (B, e) array of
    epsilon.  Raises a CharPolyError naming the first prime, in row order,
    of bad reduction (g_r = 0 mod p) or failing a check."""
    residues, g = reduce_batch(module, primes)
    _raise_at(module.base, primes, ~g[:, -1].any(axis=-1), "bad reduction")
    return _motive_charpolys(module, residues, g)


def _motive_charpolys(module: DrinfeldModule, residues: ResidueBatch,
                      g: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """All primes here share one degree d, hence one residue-field degree;
    g holds the (B, r+1, n) coordinates of g_i mod p.  Arrays run over the
    batch on axis 0; L-elements are power-basis coordinates on the last axis
    and L[T]-elements put T-degrees before them."""
    base = module.base
    r, q = module.r, module.q
    primes, d, fb = residues.primes, residues.degree, residues.fb
    B, n = len(primes), fb.n

    def raise_at(bad: np.ndarray, message: str):
        _raise_at(base, primes, bad, message)

    # sig[:, k, i] = sigma^k(g_i mod p), k < d: sigma has order d on L
    frob = fb.frobenius_matrix(q)
    sig = [g]
    for _ in range(d - 1):
        sig.append(fb.apply(frob, sig[-1]))
    sig = np.stack(sig, axis=1)
    pullback = linalg.pullback(residues.embed, fb.p)  # one F_q embedding per degree
    into_base = lambda v, what: _into_base_batch(v, residues.embed, pullback, fb.p, raise_at, what)

    # sigma^k(g_r)^-1 = Nr(g_r)^-1 prod_(j != k) sigma^j(g_r), the norm the
    # product of the d conjugates: prefix and suffix products, and one
    # inverse taken in F_q
    pre = [fb.one()]
    for k in range(d):
        pre.append(fb.mul(pre[-1], sig[:, k, r]))
    nr_inv = base.batch().inv(into_base(pre[d], "Nr(g_r) lies"))
    u, suf = [None] * d, nr_inv @ residues.embed.T % fb.p
    for k in reversed(range(d)):
        u[k] = fb.mul(pre[k], suf)
        suf = fb.mul(suf, sig[:, k, r])
    u = np.stack(u, axis=1)

    # M = A sigma(A) ... sigma^(d-1)(A); right multiplication by the
    # companion matrix shifts the columns left and appends M c, where
    # c = sigma^k(g_r)^-1 (T e_0 - sum_(i<r) sigma^k(g_i) e_i)
    M = np.zeros((B, r, r, 1, n), dtype=np.int64)
    M[:, range(r), range(r), 0, 0] = 1
    for k in range(d):
        consts = fb.mul_matrix(fb.mul(u[:, k, None], (-sig[:, k, :r]) % fb.p))
        last = np.zeros((B, r, k + 2, n), dtype=np.int64)
        last[:, :, 1:] = fb.apply(fb.mul_matrix(u[:, k]), M[:, :, 0])  # the T e_0 term
        for i in range(r):
            last[:, :, :-1] += fb.apply(consts[:, i], M[:, :, i])
        shifted = np.pad(M[:, :, 1:], [(0, 0)] * 3 + [(0, 1), (0, 0)])
        M = np.concatenate([shifted, last[:, :, None] % fb.p], axis=2)
    coeffs = _berkowitz(fb, M)[1:]

    bounds = _degree_bounds(r, d)
    a = []
    for i, c in enumerate(coeffs, start=1):
        y = into_base(c, f"a_{i} has a coefficient")
        raise_at(y[:, bounds[i - 1] + 1:].any(axis=(1, 2)), f"deg a_{i} exceeds {i}*d/{r}")
        a.append(y[:, : bounds[i - 1] + 1])

    eps = _epsilon_sign(r, d) * nr_inv % base.p  # epsilon = sign / Nr(g_r)
    eps_p = base.batch().mul(eps[:, None], primes)
    raise_at((eps_p != a[-1]).any(axis=(1, 2)), "a_r differs from epsilon*p")

    _check_residual(fb, g, frob, np.stack([c[:, : d + 1] for c in coeffs], axis=1), raise_at)
    return a, eps


def _into_base_batch(v: np.ndarray, embed: np.ndarray, pullback, p: int, raise_at, what: str):
    """F_q coordinates (B, ..., e) of L-elements (B, ..., n) that must lie
    in the embedded F_q; raises naming the first prime where one does not."""
    rows, inv = pullback
    y = v[..., rows] @ inv.T % p
    raise_at((y @ embed.T % p != v).reshape(len(v), -1).any(axis=1), f"{what} outside F_q")
    return y


def _raise_at(base, primes: np.ndarray, bad: np.ndarray, message: str):
    """Raise naming the first prime (a row of `primes`) flagged in `bad`."""
    if bad.any():
        prime = from_coordinates(base, primes[int(np.argmax(bad))].tolist())
        raise CharPolyError(f"{message} at {format_poly(prime)}")


def _check_residual(fb: FieldBatch, g: np.ndarray, frob: np.ndarray, coeffs: np.ndarray,
                    raise_at):
    """tau^(rd) + sum_i phi_(a_i) tau^((r-i)d) = 0 in L{tau}, the a_i given
    by their L-coordinates coeffs[:, i-1] (B, r, d+1, n) within the degree
    bounds.  phi_(T^j) = P_j comes from P_(j+1) = phi_T P_j, that is
    P_(j+1)[m] = sum_k g_k sigma^k(P_j[m-k]): one matrix per k."""
    batch, r, width, n = coeffs.shape
    d = width - 1
    p = fb.p
    steps = [np.broadcast_to(np.eye(n, dtype=np.int64), frob.shape)]
    for _ in range(r):
        steps.append(steps[-1] @ frob % p)
    steps = fb.mul_matrix(g) @ np.stack(steps, axis=1) % p  # x -> g_k sigma^k(x)
    steps = steps.swapaxes(-1, -2)
    total = np.zeros((batch, r * d + 1, n), dtype=np.int64)
    total[:, r * d, 0] = 1
    P = fb.one((1,))
    for j in range(d + 1):
        span = P.shape[1]
        terms = P[:, None] @ fb.mul_matrix(coeffs[:, :, j]).swapaxes(-1, -2) % p
        for i, bound in enumerate(_degree_bounds(r, d), start=1):
            if j <= bound:
                total[:, (r - i) * d : (r - i) * d + span] += terms[:, i - 1]
        if j < d:
            terms = P[:, None] @ steps % p
            P = np.zeros((batch, span + r, n), dtype=np.int64)
            for k in range(r + 1):
                P[:, k : k + span] += terms[:, k]
            P %= p
    raise_at((total % p).any(axis=(1, 2)), "residual identity fails")


def _charpoly_objects(base, primes: list[SparsePoly], a: list[np.ndarray],
                      eps: np.ndarray) -> list[CharPoly]:
    r = len(a)
    elems: dict[tuple[int, ...], FieldElement] = {}

    def elem(coords: list[int]) -> FieldElement:
        key = tuple(coords)
        x = elems.get(key)
        if x is None:
            x = elems[key] = base.elem(key)
        return x

    rows = [ai.tolist() for ai in a]
    out = []
    for b, (prime, e) in enumerate(zip(primes, eps.tolist())):
        polys = tuple(
            SparsePoly(base, [(j, elem(c)) for j, c in enumerate(ai[b]) if any(c)])
            for ai in rows
        )
        out.append(CharPoly(prime, r, polys, elem(e)))
    return out


def charpoly_linear_system(module: DrinfeldModule, prime: SparsePoly) -> CharPoly:
    """Characteristic polynomial of Frobenius at a good prime via the
    degree-bounded linear system; exact, no field extensions.  The oracle
    for `frobenius_charpolys`."""
    reduced = reduce_mod(module, prime)
    if not reduced.is_good:
        raise CharPolyError("bad reduction at the given prime")
    base = module.base
    r = module.r
    d = prime.degree
    bounds = _degree_bounds(r, d)
    layout = [(i, j) for i in range(1, r + 1) for j in range(bounds[i - 1] + 1)]
    ncols = len(layout)

    # coefficients of phi_(T^j) in the residue field
    phis = [reduced.phi_T_power(j) for j in range(d + 1)]
    coeff = [{e: c for e, c in f.terms} for f in phis]

    # each F_q unknown is e F_p digits: digit k's column holds alpha^k c,
    # alpha^k the embedded powers of the F_q generator
    fld = reduced.field
    nf, e, p = fld.n, base.e, base.p
    times_alpha = fld.batch().mul_matrix(fld.base_embedding().T)  # x -> alpha^k x
    rows = np.zeros(((r * d + 1) * nf, ncols * e), dtype=np.int64)
    rhs = np.zeros((r * d + 1) * nf, dtype=np.int64)
    for col, (i, j) in enumerate(layout):
        shift = (r - i) * d
        for ex, c in coeff[j].items():
            k = ex + shift
            rows[k * nf : (k + 1) * nf, col * e : (col + 1) * e] = (times_alpha @ c.coords % p).T
    rhs[r * d * nf : r * d * nf + nf] = [(-v) % p for v in fld.one.coords]
    sol = linalg.solve_mod_p(rows, rhs, p)
    if sol is None:
        raise CharPolyError("inconsistent Frobenius system (arithmetic bug)")
    vec, nullity = sol
    if nullity:
        raise CharPolyError(f"ambiguous Frobenius system at {format_poly(prime)}")
    terms: list[list[tuple[int, FieldElement]]] = [[] for _ in range(r)]
    for (i, j), digits in zip(layout, vec.reshape(ncols, e).tolist()):
        if any(digits):
            terms[i - 1].append((j, base.elem(digits)))
    a = [SparsePoly(base, t) for t in terms]

    eps = _epsilon_from_reduced(reduced)
    cp = CharPoly(prime, r, tuple(a), eps)
    _assert_residual(reduced, cp)
    return cp


def _assert_residual(reduced: ReducedModule, cp: CharPoly):
    """Substituting Frobenius back must give the zero skew polynomial."""
    r = cp.r
    d = cp.prime.degree
    total = SkewPoly.tau(reduced.ring, r * d)
    for i in range(1, r + 1):
        total = total + reduced.phi(cp.a[i - 1]).shift_tau((r - i) * d)
    if total:
        raise CharPolyError("residual identity failed (arithmetic bug)")


def charpoly_mod_l(module: DrinfeldModule, prime: SparsePoly, ell: SparsePoly) -> list[FieldElement]:
    """Characteristic polynomial of the Frobenius matrix on the l-torsion:
    monic ascending coefficients over F_l.  Independent of the linear-system
    method; the two must agree after reduction."""
    if prime == ell:
        raise CharPolyError("l must differ from the prime of reduction")
    reduced = reduce_mod(module, prime)
    if not reduced.is_good:
        raise CharPolyError("bad reduction at the given prime")
    ts = torsion_space(reduced, ell)
    return ts.frobenius_matrix.charpoly()


def det_law(r: int, epsilon: FieldElement, prime: SparsePoly, ell: SparsePoly) -> FieldElement:
    """The determinant of Frobenius on the l-torsion as the law gives it:
    (-1)^r a_r = (-1)^r epsilon p mod l, epsilon the unit with a_r = epsilon p."""
    rf = residue_field(ell)
    val = rf.embed_base(epsilon) * rf.reduce(prime)
    return -val if r % 2 else val


def det_check(module: DrinfeldModule, prime: SparsePoly, ell: SparsePoly,
              charpoly: CharPoly | None = None,
              torsion: "TorsionSpace | None" = None) -> bool:
    """Determinant law: (-1)^r a_r = (-1)^r epsilon p mod l with epsilon in
    closed form, and when a torsion space is supplied its matrix
    determinant must give the same residue."""
    if charpoly is None:
        charpoly = charpoly_linear_system(module, prime)
    want = det_law(module.r, epsilon_of(module, prime), prime, ell)
    if charpoly.det_of_frobenius_mod(ell) != want:
        return False
    return torsion is None or torsion.frobenius_matrix.det() == want
