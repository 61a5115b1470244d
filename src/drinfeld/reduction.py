"""Reduction of a Drinfeld module at primes of A, heights, torsion spaces
with explicit Frobenius matrices, and quotient isogenies over the reduction.

The torsion space at l is computed inside the minimal extension of the
residue field that contains all of ker(phi_l); that splitting degree is
found by the equivalent divisibility condition (tau^(d*m) - 1 right
divisible by phi_l in the reduced skew ring), which costs a handful of
small-field multiplications per step instead of a kernel probe.  The
kernel dimension is still verified on the constructed field.

All of the F_q-linear algebra is numpy over F_p, with F_q acting through
the residue field's embedding (the one through which A acts).  The torsion
basis is deterministic: for e = 1 the canonical kernel basis of
`linalg.kernel_mod_p`, for e > 1 the reduced F_q-echelon basis along the
powers w^i of the splitting field's generator.  The module basis is
greedily extracted from it, so Frobenius matrices are reproducible.
Cross-prime comparisons should use their characteristic polynomials only.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .fields import Field, FieldElement, make_field
from .polynomials import (
    ResidueBatch,
    ResidueField,
    SparsePoly,
    format_poly,
    residue_field,
)
from .skew import DrinfeldModule, SkewPoly, _FieldRing, linearized_eval


class ReductionError(ValueError):
    pass


class TorsionSearchError(RuntimeError):
    """The splitting field would exceed MAX_SPLITTING_FIELD_DEGREE."""


GOOD = "Good"
STABLE_BAD = "StableBad"

# Largest F_p-degree e*d*m of a splitting field that `torsion_space` builds;
# `splitting_degree` searches m only up to this bound over e*d.
# The torsion pairs at q = 5 with primes of degree <= 2 need at most 248;
# a field of a few thousand digits would take its modulus search hours.
MAX_SPLITTING_FIELD_DEGREE = 2048


class ReducedModule:
    """phi mod p: coefficients of the image of T in the residue field."""

    def __init__(self, module: DrinfeldModule, prime: SparsePoly, rf: ResidueField,
                 coeffs: tuple[FieldElement, ...], r1: int):
        self.module = module
        self.prime = prime
        self.rf = rf
        self.field = rf.field
        self.coeffs = coeffs
        self.r = module.r
        self.r1 = r1
        self.kind = GOOD if r1 == module.r else STABLE_BAD
        self.ring = _FieldRing(rf.field)
        self.phi_T = SkewPoly(self.ring, [(i, c) for i, c in enumerate(coeffs)])
        self._pows = [SkewPoly.one(self.ring), self.phi_T]

    @property
    def is_good(self) -> bool:
        return self.kind == GOOD

    def describe(self) -> str:
        if self.is_good:
            return GOOD
        return f"{STABLE_BAD}({self.r1})"

    def phi_T_power(self, j: int) -> SkewPoly:
        while len(self._pows) <= j:
            self._pows.append(self._pows[-1] * self.phi_T)
        return self._pows[j]

    def phi(self, a: SparsePoly) -> SkewPoly:
        """Image of a in the reduced skew ring F_p{tau}."""
        acc = SkewPoly.zero(self.ring)
        for e, c in a.terms:
            acc = acc + self.phi_T_power(e).scale(self.rf.embed_base(c))
        return acc

    def __repr__(self):
        return f"ReducedModule({format_poly(self.prime)}, {self.describe()})"


def reduce_mod(module: DrinfeldModule, prime: SparsePoly) -> ReducedModule:
    """Reduce the defining coefficients mod a prime and classify the type by
    the top surviving index."""
    if prime.base is not module.base:
        raise ReductionError("prime from a different coefficient field")
    rf = residue_field(prime)
    coeffs = tuple(rf.reduce(g) for g in module.g)
    r1 = 0
    for i in range(module.r, 0, -1):
        if coeffs[i]:
            r1 = i
            break
    if r1 == 0:
        raise ReductionError(
            "unstable model: every non-constant coefficient vanishes at this prime"
        )
    return ReducedModule(module, prime, rf, coeffs, r1)


def reduce_batch(module: DrinfeldModule, primes: np.ndarray) -> tuple[ResidueBatch, np.ndarray]:
    """`reduce_mod` at the primes of one degree at once, given as a
    (B, d+1, e) array (`prime_coordinates`): the batch of residue fields and
    the (B, r+1, n) coordinates of g_i mod p.  The reduction at row b is
    good exactly where g_r mod p, row [b, r], is nonzero."""
    residues = ResidueBatch(module.base, primes)
    return residues, np.stack([residues.reduce(g) for g in module.g], axis=1)


def height(reduced: ReducedModule) -> int:
    """Height at the characteristic prime: the lowest tau-exponent of the
    image of the prime, per residue degree."""
    phi_p = reduced.phi(reduced.prime)
    d = reduced.prime.degree
    m = phi_p.min_exp
    if m % d:
        raise ReductionError("lowest tau-exponent not divisible by the residue degree")
    h = m // d
    if not 1 <= h <= reduced.r:
        raise ReductionError(f"height {h} out of range")
    return h


def torsion_at_char(reduced: ReducedModule, e_prime: int) -> int:
    """F_q-dimension of ker phi_(p^e') over the algebraic closure: the gap
    between the top and bottom tau-exponents (count of distinct roots is
    q^gap for the separable part)."""
    if e_prime < 1:
        raise ReductionError("exponent must be >= 1")
    f = reduced.phi(reduced.prime**e_prime)
    return f.degree - f.min_exp


# ---------------------------------------------------------------------------
# torsion spaces away from the characteristic
# ---------------------------------------------------------------------------


def splitting_degree(phil: SkewPoly) -> int:
    """Minimal m with all roots of phi_l rational over the degree-m extension
    of the residue field F_(q^d) that phi_l lives over: tau^(d*m) = 1 in the
    quotient by right division.  tau^d commutes with residue-field
    coefficients, so remainders iterate.  Only m with a splitting field of
    F_p-degree e*d*m <= MAX_SPLITTING_FIELD_DEGREE are searched."""
    ring = phil.ring
    n = ring.field.n
    m_max = MAX_SPLITTING_FIELD_DEGREE // n
    taud = SkewPoly.tau(ring, ring.field.m)
    one = SkewPoly.one(ring)
    u = taud.divmod_right(phil)[1]
    for m in range(1, m_max + 1):
        if u == one:
            return m
        u = (u * taud).divmod_right(phil)[1]
    raise TorsionSearchError(
        f"no splitting degree m <= {m_max}; at m = {m_max + 1} the F_p-degree "
        f"{n * (m_max + 1)} exceeds MAX_SPLITTING_FIELD_DEGREE = {MAX_SPLITTING_FIELD_DEGREE}"
    )


class TorsionSpace:
    """ker phi_l over the splitting extension, with its F_l-module data."""

    def __init__(self, reduced, ell, m, field, sigma, basis, module_basis,
                 frobenius_matrix, t_action_matrix, ell_field):
        self.reduced = reduced
        self.prime = reduced.prime
        self.ell = ell
        self.m = m
        self.field = field            # the splitting field B
        self.sigma = sigma            # n x (e d) embedding matrix F_p -> B coords
        self.basis = basis            # canonical echelon F_q-basis of the kernel
        self.module_basis = module_basis
        self.frobenius_matrix = frobenius_matrix  # r x r over F_l
        self.t_action_matrix = t_action_matrix    # r x r over F_l
        self.ell_field = ell_field    # ResidueField at l

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def embed(self, x: FieldElement) -> FieldElement:
        """Image of a residue-field element in the splitting field."""
        coords = (self.sigma @ np.array(x.coords, dtype=np.int64)) % self.field.p
        return self.field.elem(int(c) for c in coords)

    def phi_in_splitting(self, a: SparsePoly) -> SkewPoly:
        """phi_a with coefficients pushed into the splitting field."""
        f = self.reduced.phi(a)
        return SkewPoly(_FieldRing(self.field), [(e, self.embed(c)) for e, c in f.terms])


def _check_distinct_primes(p1: SparsePoly, p2: SparsePoly):
    if p1 == p2:
        raise ReductionError("the two primes must be distinct")


def torsion_space(reduced: ReducedModule, ell: SparsePoly) -> TorsionSpace:
    """Torsion of a good reduction at a prime l away from the characteristic.

    All the linear algebra is numpy over F_p: an F_q-span is the F_p-span
    of the products with the embedded powers alpha^k of the F_q generator,
    alpha taken through the residue field (the embedding by which A acts)."""
    if not reduced.is_good:
        raise ReductionError("torsion spaces require good reduction")
    _check_distinct_primes(reduced.prime, ell)
    if not ell.is_monic():
        raise ReductionError("l must be monic")
    e = reduced.module.base.e
    d = reduced.prime.degree
    degl = ell.degree
    N = reduced.r * degl

    m = splitting_degree(reduced.phi(ell))
    B = make_field(reduced.field.p, e, d * m)
    p, n = B.p, B.n
    linalg.check_int64_range(p, n)
    sigma = _residue_embedding(reduced.field, B, d)
    alphas = (sigma @ reduced.field.base_embedding() % p).T  # alpha^k, one row each

    def scalar(c: FieldElement) -> np.ndarray:
        """F_p-matrix of an element of F_q acting on B."""
        return B.batch().mul_matrix((np.array(c.coords, dtype=np.int64) @ alphas % p)[None])[0]

    A_T = _t_action(reduced, B, sigma)
    # phi_l = l(A_T) by Horner: l is monic and F_q scalars commute with A_T
    times_A_T = linalg.PackedMatrix(A_T, p)
    L = (A_T + scalar(ell.coeff(degl - 1))) % p
    for j in range(degl - 2, -1, -1):
        L = (times_A_T.rmul(L) + scalar(ell.coeff(j))) % p
    kernel = linalg.kernel_mod_p(L, p)
    if kernel.shape[0] != e * N:
        raise ReductionError(
            f"kernel F_p-dimension {kernel.shape[0]} != e*r*deg(l) = {e * N}"
        )
    basis = kernel if e == 1 else _fq_echelon(B, alphas, kernel)
    fq_span = lambda vecs: B.batch().mul(alphas, vecs[:, None]).reshape(-1, n)

    # greedy F_l-module basis: first kernel vector outside the F_q-span of
    # the T-orbits taken so far (the orbits form a direct sum)
    module_idx: list[int] = []
    span = np.zeros((0, n), dtype=np.int64)
    for i, v in enumerate(basis):
        if linalg.rank_mod_p(np.vstack([span, v]), p) > span.shape[0]:
            module_idx.append(i)
            orbit = [v]
            for _ in range(degl - 1):
                orbit.append(A_T @ orbit[-1] % p)
            span = np.vstack([span, fq_span(np.array(orbit))])
        if len(module_idx) == reduced.r:
            break
    if len(module_idx) != reduced.r:
        raise ReductionError("could not extract an F_l-module basis")

    # coordinates along the F_p-basis alpha^k phi_(T^a)(v_j) of the torsion,
    # index (j*degl + a)*e + k, of F v_j (F: x -> x^(q^d)) and of phi_T(v_j)
    vs = basis[module_idx].T
    images = np.concatenate([B.frobenius_power_matrix(d) @ vs, A_T @ vs], axis=1) % p
    sol = linalg.solve_mod_p(span.T, images, p)
    if sol is None or sol[1]:
        raise ReductionError("the module basis does not give a basis of the torsion")
    ell_rf = residue_field(ell)
    frob_mat = _fl_matrix(reduced, ell_rf, sol[0][:, : reduced.r])
    t_mat = _fl_matrix(reduced, ell_rf, sol[0][:, reduced.r :])
    if not frob_mat.det():
        raise ReductionError("Frobenius matrix is singular")

    elems = [B.elem(int(c) for c in v) for v in basis]
    return TorsionSpace(reduced, ell, m, B, sigma, elems, [elems[i] for i in module_idx],
                        frob_mat, t_mat, ell_rf)


def _residue_embedding(rf_field: Field, B: Field, d: int) -> np.ndarray:
    """Matrix of the embedding F_p -> B: the generator of the residue field
    goes to the first root of its modulus in the q^d-fixed subfield of B."""
    beta = B.first_root(B.scalars(rf_field.modulus), B.subfield_basis(d))
    if beta is None:
        raise ReductionError("no embedding of the residue field found")  # unreachable
    cols = []
    cur = B.one
    for _ in range(rf_field.n):
        cols.append(cur.coords)
        cur = cur * beta
    return np.array(cols, dtype=np.int64).T % B.p


def _t_action(reduced: ReducedModule, B: Field, sigma: np.ndarray) -> np.ndarray:
    """F_p-matrix on B of phi_T = sum_i g_i tau^i, by Horner in the matrix
    of tau (the q-power map)."""
    p = B.p
    frob = linalg.PackedMatrix(B.frobenius_matrix(), p)
    coeffs = dict(reduced.phi_T.terms)
    mult = lambda c: B.batch().mul_matrix((sigma @ np.array(c.coords, dtype=np.int64) % p)[None])[0]
    A_T = mult(coeffs[reduced.r])
    for i in range(reduced.r - 1, -1, -1):
        A_T = frob.rmul(A_T)
        if i in coeffs:
            A_T = (A_T + mult(coeffs[i])) % p
    return A_T


def _fq_echelon(B: Field, alphas: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Reduced F_q-echelon basis of the span of `kernel` along the F_q-basis
    w^i of B (w the field generator).  In F_p-coordinates along w^i alpha^k,
    index i*e + k, the rows of the F_p-echelon form that pivot at k = 0 are
    exactly the F_q-echelon rows; the others are their alpha^k multiples."""
    p, e = B.p, alphas.shape[0]
    C = B.batch().mul_matrix(alphas)[:, :, : B.n // e]  # C[k][:, i] = alpha^k w^i
    C = C.transpose(1, 2, 0).reshape(B.n, B.n)
    coords = linalg.solve_mod_p(C, kernel.T, p)[0]
    ech, pivots = linalg.rref_mod_p(coords.T, p)
    rows = ech[[t for t, c in enumerate(pivots) if c % e == 0]]
    return rows @ C.T % p


def _fl_matrix(reduced: ReducedModule, ell_rf: ResidueField, sol: np.ndarray) -> linalg.Matrix:
    """The r x r matrix over F_l whose column j has the coordinates sol[:, j]
    along the basis alpha^k phi_(T^a)(v_i): entry (i, j) is digits @ W, where
    row (a, k) of W holds the F_l coordinates of T bar^a alpha^k."""
    base, r, Fl = reduced.module.base, reduced.r, ell_rf.field
    alphas = [ell_rf.embed_base(base.gen**k) for k in range(base.e)]
    W, tpow = [], Fl.one
    for _ in range(ell_rf.prime.degree):
        W.extend((tpow * a).coords for a in alphas)
        tpow = tpow * ell_rf.t_image
    digits = sol.T.reshape(r, r, -1).swapaxes(0, 1)  # [i][j] -> digits (a, k)
    return linalg.Matrix(Fl, r, r, digits @ np.array(W, dtype=np.int64) % Fl.p)


# ---------------------------------------------------------------------------
# quotient isogenies
# ---------------------------------------------------------------------------


class Isogeny:
    """u: phi -> psi over the residue field, with u*phi_T = psi_T*u exactly."""

    def __init__(self, source: ReducedModule, u: SkewPoly, target_coeffs: tuple):
        self.source = source
        self.u = u
        self.target_coeffs = target_coeffs
        self.target_T = SkewPoly(source.ring, [(i, c) for i, c in enumerate(target_coeffs)])

    def verify(self) -> bool:
        return self.u * self.source.phi_T == self.target_T * self.u

    def __repr__(self):
        return f"Isogeny(deg_tau={max(self.u.degree, 0)})"


def quotient_by_kernel(ts: TorsionSpace, x_basis: list[FieldElement]) -> Isogeny:
    """Quotient of a good reduction by a Frobenius-stable F_l-submodule X of
    the torsion, given by an F_q-basis inside the splitting field.

    u is the monic separable additive polynomial with kernel exactly X;
    psi_T is the exact right quotient of u*phi_T by u.  Rejects X that is
    not a module (nonzero remainder) or not Galois-stable (coefficients do
    not descend to the residue field).
    """
    reduced = ts.reduced
    B = ts.field
    p = B.p
    d = reduced.prime.degree

    ring = _FieldRing(B)
    u = SkewPoly.one(ring)
    q = B.q
    for b in x_basis:
        if b.field is not B:
            raise ReductionError("kernel vectors must live in the splitting field")
        beta = linearized_eval(u, b)
        if not beta:
            raise ReductionError("kernel basis is not F_q-independent")
        u = (SkewPoly.tau(ring) - SkewPoly(ring, [(0, beta ** (q - 1))])) * u

    # descend coefficients to the residue field through the embedding
    sig = ts.sigma
    coeffs = []
    for e_, c in u.terms:
        sol = linalg.solve_mod_p(sig, np.array(c.coords, dtype=np.int64), p)
        if sol is None:
            raise ReductionError("kernel is not Galois-stable: u does not descend")
        coeffs.append((e_, reduced.field.elem(int(v) for v in sol[0])))
    u_res = SkewPoly(reduced.ring, coeffs)

    prod = u_res * reduced.phi_T
    quot, rem = prod.divmod_right(u_res)
    if rem:
        raise ReductionError("kernel is not an A-submodule: nonzero remainder")
    target = tuple(quot.coeff(i) for i in range(reduced.r + 1))
    iso = Isogeny(reduced, u_res, target)
    if not iso.verify():
        raise ReductionError("isogeny identity failed")  # unreachable
    return iso


def fl_line(ts: TorsionSpace, coords: list[FieldElement]) -> list[FieldElement]:
    """F_q-basis of the F_l-line spanned by sum coords_j . v_j in the module
    basis: the orbit of the vector under powers of the T-action."""
    reduced = ts.reduced
    degl = ts.ell.degree
    w = ts.field.zero
    for c, v in zip(coords, ts.module_basis):
        # c in F_l acts through phi of any lift of c
        lift = _lift_fl(ts, c)
        w = w + linearized_eval(ts.phi_in_splitting(lift), v)
    out = []
    cur = w
    T = SparsePoly.T(reduced.module.base)
    for _ in range(degl):
        out.append(cur)
        cur = linearized_eval(ts.phi_in_splitting(T), cur)
    return out


def _lift_fl(ts: TorsionSpace, c: FieldElement) -> SparsePoly:
    """A polynomial lift of an element of F_l (coefficients along powers of
    T bar; valid when e = 1)."""
    base = ts.reduced.module.base
    if base.n != 1:
        raise ReductionError("F_l lifts only implemented over prime base fields")
    return SparsePoly(base, [(i, base.scalar(int(v))) for i, v in enumerate(c.coords) if v])
