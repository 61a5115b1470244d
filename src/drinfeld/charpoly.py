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
`Field`.  `frobenius_charpolys` calls it once per degree and wraps the
arrays into `CharPoly` objects.  Each answer is checked before it is
returned: the coefficients land in F_q, deg a_i <= i*d/r, a_r = epsilon*p
with epsilon in closed form, and the operator identity

    tau^(r d) + phi_(a_1) tau^((r-1)d) + ... + phi_(a_r)  =  0

holds exactly in L{tau}, phi_(T^j) taken from `reduction.phi_T_powers`.

Two independent oracles remain.  `charpoly_linear_system` solves that
identity as a linear system in the coefficients of the a_i inside their
degree bounds, posed over F_p with e digits per F_q coefficient (a unique
F_q solution is F_p nullity 0); for prime rank the bounded solution is unique
(the constant term is a unit times the prime, ruling out a full r-th
power), and a system that is not raises.  It is assembled from the same
`phi_T_powers` arrays and checked by the same `_check_residual`, but the
primary route never uses those powers to produce the a_i.  `charpoly_mod_l`
reads the characteristic polynomial off the torsion Frobenius matrix at l.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import linalg
from .fields import FieldBatch, FieldElement
from .linalg import _berkowitz, matmul_mod_p, mod_p, products, sum_products
from .polynomials import (
    PrimeError,
    SparsePoly,
    coordinates,
    format_poly,
    from_coordinates,
    is_irreducible,
    residue_field,
)
from .reduction import ReducedModule, phi_T_powers, reduce_batch, reduce_mod, torsion_space
from .skew import DrinfeldModule


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

    def reduce_mod(self, ell: SparsePoly) -> list[FieldElement]:
        """Monic image in F_l[x], ascending: [a_r mod l, ..., a_1 mod l, 1]."""
        rf = residue_field(ell)
        return [rf.reduce(a) for a in reversed(self.a)] + [rf.field.one]

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
    base, r, embed = reduced.module.base, reduced.module.r, reduced.field.base_embedding()
    norm = reduced.field.norm_to_base(reduced.coeffs[r])  # in the embedded F_q
    nr, outside = linalg.preimage(reduced.field.array(norm), embed,
                                  linalg.pullback(embed, base.p), base.p)
    if outside:
        raise CharPolyError("norm did not land in the base field")
    return base.scalar(_epsilon_sign(r, reduced.prime.degree)) * base.inv(base.elem(nr.tolist()))


def _epsilon_sign(r: int, d: int) -> int:
    """(-1)^r (-1)^(d(r+1)): epsilon = sign / Nr(g_r)."""
    return -1 if (r + d * (r + 1)) % 2 else 1


def _degree_bounds(r: int, d: int) -> list[int]:
    return [i * d // r for i in range(1, r + 1)]


# ---------------------------------------------------------------------------
# primary route: the motive matrix, batched over primes of one degree
# ---------------------------------------------------------------------------


def frobenius_charpolys(module: DrinfeldModule,
                        primes: Sequence[SparsePoly]) -> list[CharPoly]:
    """Characteristic polynomials of Frobenius at good primes, in input
    order, through det(X - M) on the Anderson motive: one call of
    `charpolys_of_degree` per degree, wrapped into `CharPoly` objects.
    Every answer passes the checks in the module docstring.  A prime from
    another coefficient field, or not monic irreducible, raises before any
    charpoly is computed (the first such, in input order); otherwise the
    CharPolyError raised names the first prime of bad reduction, or failing
    a check, within its degree, the degrees taken in the order they first
    appear in the input."""
    base = module.base
    by_degree: dict[int, list[int]] = {}
    for k, prime in enumerate(primes):
        if prime.base is not base:
            raise CharPolyError(f"prime {format_poly(prime)} from a different coefficient field")
        if not prime.is_monic() or not is_irreducible(prime):
            raise PrimeError("residue fields require a monic irreducible generator")
        by_degree.setdefault(prime.degree, []).append(k)
    out: list[CharPoly] = [None] * len(primes)  # type: ignore[list-item]
    for d, idx in by_degree.items():
        group = [primes[k] for k in idx]
        a, eps = charpolys_of_degree(module, coordinates(base, group, d))
        for k, cp in zip(idx, _charpoly_objects(base, group, a, eps)):
            out[k] = cp
    return out


def charpolys_of_degree(module: DrinfeldModule,
                        primes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The array route at the good primes of one degree d, given as a
    (B, d+1, e) array (`prime_coordinates`): a list of the (B, i*d/r + 1, e)
    F_q coefficient arrays of a_1, ..., a_r, and the (B, e) array of
    epsilon.  Raises a CharPolyError naming the first prime, in row order,
    of bad reduction (g_r = 0 mod p) or failing a check.

    Arrays run over the batch on axis 0; L-elements are power-basis
    coordinates on the last axis and L[T]-elements put T-degrees before
    them.  g holds the (B, r+1, n) coordinates of g_i mod p."""
    base = module.base
    r, q = module.r, module.q
    residues, g = reduce_batch(module, primes)
    d, fb = residues.degree, residues.fb

    def raise_at(bad: np.ndarray, message: str):
        _raise_at(base, primes, bad, message)

    raise_at(~g[:, -1].any(axis=-1), "bad reduction")
    frob = fb.frobenius_matrix(q)
    pulled = linalg.pullback(residues.embed, fb.p)  # one F_q embedding per degree

    def into_base(v: np.ndarray, what: str) -> np.ndarray:
        """F_q coordinates (B, ..., e) of L-elements (B, ..., n) that must lie
        in the embedded F_q, naming the first prime where one does not."""
        y, outside = linalg.preimage(v, residues.embed, pulled, fb.p)
        raise_at(outside.reshape(len(v), -1).any(axis=1), f"{what} outside F_q")
        return y

    # g_r^-1 = Nr(g_r)^-1 s, s = sigma(g_r sigma(g_r) ... sigma^(d-2)(g_r)),
    # the norm Nr(g_r) = g_r s inverted in F_q
    s = fb.one()
    for _ in range(d - 1):
        s = fb.apply(frob, fb.mul(g[:, r], s))
    nr_inv = base.batch().inv(into_base(fb.mul(g[:, r], s), "Nr(g_r) lies"))
    u = fb.mul(matmul_mod_p(nr_inv, residues.embed.T, fb.p), s)
    coeffs = _berkowitz(fb, _motive_matrix(fb, frob, g, u, d), d + 1)[1:]

    bounds = _degree_bounds(r, d)
    # c_i has the T-length its products reached, at most d + 1; the T-degrees
    # past it are 0, in F_q and within every bound
    digits = np.zeros((len(primes), r, d + 1, base.e), dtype=fb.dtype)
    for i, c in enumerate(coeffs, start=1):
        y = into_base(c, f"a_{i} has a coefficient")
        raise_at(y[:, bounds[i - 1] + 1:].any(axis=(1, 2)), f"deg a_{i} exceeds {i}*d/{r}")
        digits[:, i - 1, : y.shape[1]] = y
    a = [digits[:, i, : bound + 1] for i, bound in enumerate(bounds)]

    eps = _epsilon_sign(r, d) * nr_inv % base.p  # epsilon = sign / Nr(g_r)
    eps_p = base.batch().mul(eps[:, None], primes)
    raise_at((eps_p != a[-1]).any(axis=(1, 2)), "a_r differs from epsilon*p")

    _check_residual(fb, phi_T_powers(fb, g, frob, d), digits, residues.embed, raise_at)
    return a, eps


def _motive_matrix(fb: FieldBatch, frob: np.ndarray, g: np.ndarray, u: np.ndarray,
                   d: int) -> np.ndarray:
    """M = A sigma(A) ... sigma^(d-1)(A) as (B, r, r, D, n), given the
    matrices `frob` of sigma, the g_i mod p and u = g_r^-1.  D is 1 + the
    largest T-degree of an entry of M at some prime of the batch (at most
    d + 1; ceil(d/r) + 1 for the default family): after every step the
    T-degrees that are zero throughout the batch are cut, so M is exact and
    only its zero coefficients are left out."""
    B, r, n = len(g), g.shape[1] - 1, fb.n
    # the companion column c = u (T e_0 - sum_(i<r) g_i e_i) has the
    # constants u and -g_i u at the g_i nonzero somewhere in the batch; the
    # sigma^k-images of those, k < d, act through multiplication matrices
    # (transposed: rows of coordinates times them)
    live = [i for i in range(r) if g[:, i].any()]
    consts = [np.concatenate([u[:, None], fb.mul(u[:, None], mod_p(-g[:, live], fb.p))], axis=1)]
    for _ in range(d - 1):
        consts.append(fb.apply(frob, consts[-1]))
    mats = fb.mul_matrix(np.stack(consts, axis=1)).swapaxes(-1, -2)  # (B, d, 1 + live, n, n)
    stacked = mats[:, :, 1:].reshape(B, d, len(live) * n, n)

    # M held as (B, row, T-degree, column, n): right multiplication by
    # sigma^k(A) shifts the columns left and appends M sigma^k(c), raising
    # the T-length D by at most one; D then drops to 1 + the largest
    # T-degree still nonzero somewhere in the batch, so the entries beyond
    # D are zero and every product reads only the first D
    M = np.zeros((B, r, d + 1, r, n), dtype=fb.dtype)
    M[:, range(r), 0, range(r), 0] = 1
    D = 1
    for k in range(d):
        last = _companion_column(M[:, :, :D], mats[:, k, 0], stacked[:, k], live, fb.p)
        M[:, :, :D, :-1] = M[:, :, :D, 1:]
        M[:, :, : D + 1, -1] = last
        D += 1
        while D > 1 and not M[:, :, D - 1].any():
            D -= 1
    return M[:, :, :D].transpose(0, 1, 3, 2, 4)


def _companion_column(M: np.ndarray, u: np.ndarray, c: np.ndarray, live: list[int],
                      p: int) -> np.ndarray:
    """M c over L[T], reduced, for M (B, r, D, r, n) as (row, T-degree,
    column) and the column c = T u e_0 + sum_(i in live) c_i e_i given by
    transposed multiplication matrices: u (B, n, n), and c (B, len(live) n, n)
    the c_i stacked in order.  Two products: the live columns of M against
    c, and column 0 against u, shifted up one T-degree."""
    B, r, D, _, n = M.shape
    cols = M[:, :, :, live].reshape(B, r * D, -1)
    out = np.zeros((B, r, D + 1, n), dtype=M.dtype)
    out[:, :, :-1] = sum_products(cols, c, p, n).reshape(B, r, D, n)
    out[:, :, 1:] += sum_products(M[:, :, :, 0], u[:, None], p, cols.shape[-1])
    return mod_p(out, p)


def _raise_at(base, primes: np.ndarray, bad: np.ndarray, message: str):
    """Raise naming the first prime (a row of `primes`) flagged in `bad`."""
    if bad.any():
        prime = from_coordinates(base, primes[int(np.argmax(bad))].tolist())
        raise CharPolyError(f"{message} at {format_poly(prime)}")


def _check_residual(fb: FieldBatch, powers: list[np.ndarray], digits: np.ndarray,
                    embed: np.ndarray, raise_at):
    """tau^(rd) + sum_i phi_(a_i) tau^((r-i)d) = 0 in L{tau}, the a_i given
    by their F_q digits within the degree bounds (`_phi_of`)."""
    batch, r, width, _ = digits.shape
    d = width - 1
    phi_a = _phi_of(fb, powers, digits, embed)
    # phi_(a_i) has tau-degree <= i*d, the bound on deg a_i times r
    total = np.zeros((batch, r * d + 1, fb.n), dtype=fb.dtype)
    total[:, r * d, 0] = 1
    for i in range(1, r + 1):
        total[:, (r - i) * d :] += phi_a[:, i - 1, : i * d + 1]
    raise_at(mod_p(total, fb.p).any(axis=(1, 2)), "residual identity fails")


def _phi_of(fb: FieldBatch, powers: list[np.ndarray], digits: np.ndarray,
            embed: np.ndarray) -> np.ndarray:
    """phi_(a_i) as (B, r, r*d+1, n) tau-coefficients, reduced, for the a_i
    given by their F_q digits (B, r, d+1, e), digit k of a coefficient
    standing for alpha^k (column k of `embed`), and phi_(T^j) by powers[j]
    (`phi_T_powers`), j <= d.  For each k, sum_j a_ijk phi_(T^j) is summed
    over j in place, then multiplied by alpha^k when k >= 1.  The sum for
    (j, k) runs over the rows i >= i0 only, i0 the first a_i whose digit
    there is nonzero at some prime of the batch: the rows before it add 0,
    so leaving them out is exact for any digits (a (j, k) with no nonzero
    digit adds nothing at all)."""
    batch, r, width, e = digits.shape
    n, p = fb.n, fb.p
    # unreduced, an entry of `term` sums d+1 products of residues
    raw = products(p, fb.dtype) >= width
    first = np.where(digits.any(axis=0), np.arange(r)[:, None, None], r).min(axis=0)  # (d+1, e)
    phi_a = 0
    for k in range(e):
        term = np.zeros((batch, r) + powers[-1].shape[1:], dtype=fb.dtype)
        for j, P in enumerate(powers):
            i0 = first[j, k]
            if i0 == r:
                continue
            prod = digits[:, i0:, j, k, None, None] * P[:, None]
            term[:, i0:, : P.shape[1]] += prod if raw else mod_p(prod, p)
        term = mod_p(term, p)
        if k:
            alpha = fb.mul_matrix(np.broadcast_to(embed[:, k], (batch, n)))
            term = matmul_mod_p(term, alpha.swapaxes(-1, -2)[:, None], p)
        phi_a = phi_a + term
    return phi_a if e == 1 else mod_p(phi_a, p)  # e reduced terms


def _charpoly_objects(base, primes: list[SparsePoly], a: list[np.ndarray],
                      eps: np.ndarray) -> list[CharPoly]:
    rows = [ai.tolist() for ai in a]
    return [CharPoly(prime, len(a), tuple(from_coordinates(base, ai[b]) for ai in rows),
                     base.elem(e))
            for b, (prime, e) in enumerate(zip(primes, eps.tolist()))]


def charpoly_linear_system(module: DrinfeldModule, prime: SparsePoly) -> CharPoly:
    """Characteristic polynomial of Frobenius at a good prime via the
    degree-bounded linear system; exact, no field extensions.  The oracle
    for `frobenius_charpolys`.  Refuses a p past int64
    (`linalg.Int64RangeError`), where the system is written."""
    linalg.check_int64_range(module.base.p, 1)
    reduced = reduce_mod(module, prime)
    if not reduced.is_good:
        raise CharPolyError("bad reduction at the given prime")
    base = module.base
    r = module.r
    d = prime.degree
    bounds = _degree_bounds(r, d)
    layout = [(i, j) for i in range(1, r + 1) for j in range(bounds[i - 1] + 1)]
    ncols = len(layout)

    # each F_q unknown is e F_p digits: digit k's column holds alpha^k c,
    # alpha^k the embedded powers of the F_q generator (alpha^0 = 1 multiplies
    # nothing) and c a coefficient of phi_(T^j) = P_j; blocks[j] is (m, n, e)
    fld = reduced.field
    fb, nf, e, p = fld.batch(), fld.n, base.e, base.p
    alphas = fld.base_embedding().T
    powers = reduced.phi_T_arrays(d)
    blocks = [np.stack([P[0]] + [fb.mul(a, P[0]) for a in alphas[1:]], axis=-1) for P in powers]
    rows = np.zeros((r * d + 1, nf, ncols, e), dtype=np.int64)
    for col, (i, j) in enumerate(layout):
        rows[(r - i) * d : (r - i) * d + j * r + 1, :, col] = blocks[j]
    rhs = np.zeros((r * d + 1) * nf, dtype=np.int64)
    rhs[r * d * nf] = p - 1  # the -1 of -tau^(rd)
    sol = linalg.solve_mod_p(rows.reshape(len(rhs), ncols * e), rhs, p)
    if sol is None:
        raise CharPolyError("inconsistent Frobenius system (arithmetic bug)")
    vec, nullity = sol
    if nullity:
        raise CharPolyError(f"ambiguous Frobenius system at {format_poly(prime)}")
    digits = np.zeros((1, r, d + 1, e), dtype=fb.dtype)
    digits[0, [i - 1 for i, _ in layout], [j for _, j in layout]] = vec.reshape(ncols, e)
    primes = coordinates(base, [prime], d)
    _check_residual(fb, powers, digits, alphas.T, lambda bad, msg: _raise_at(base, primes, bad, msg))
    a = [digits[:, i, : bound + 1] for i, bound in enumerate(bounds)]
    return _charpoly_objects(base, [prime], a, base.array([_epsilon_from_reduced(reduced)]))[0]


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
    determinant must give the same residue.  A charpoly built here carries
    that closed-form epsilon already; a given one may not, so epsilon is
    computed afresh for it."""
    if charpoly is None:
        charpoly = charpoly_linear_system(module, prime)
        epsilon = charpoly.epsilon
    else:
        epsilon = epsilon_of(module, prime)
    want = det_law(module.r, epsilon, prime, ell)
    if charpoly.det_of_frobenius_mod(ell) != want:
        return False
    return torsion is None or torsion.frobenius_matrix.det() == want
