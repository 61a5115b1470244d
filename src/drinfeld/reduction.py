"""Reduction of a Drinfeld module at primes of A, heights, torsion spaces
with explicit Frobenius matrices, and quotient isogenies over the reduction.

`phi_T_powers` is the one source of phi_(T^j) mod p, on coordinate arrays;
`ReducedModule.phi_T_power`, and all that is built on it, reads from it.

The torsion space at l is computed inside the minimal extension of the
residue field that contains all of ker(phi_l); that splitting degree is
found by the equivalent divisibility condition (tau^(d*m) - 1 right
divisible by phi_l in the reduced skew ring), as the order of right
multiplication by tau^d on the quotient: an F_p matrix of side
e*d*deg_tau(phi_l), built from deg_tau(phi_l) skew remainders and then
iterated by matrix-vector products, instead of a kernel probe.  The
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
from .fields import Field, FieldBatch, FieldElement, make_field
from .polynomials import (
    ResidueBatch,
    ResidueField,
    SparsePoly,
    coordinates,
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
        self._powers: list[np.ndarray] = []  # P_0 .. P_k of `phi_T_powers`

    @property
    def is_good(self) -> bool:
        return self.kind == GOOD

    def describe(self) -> str:
        if self.is_good:
            return GOOD
        return f"{STABLE_BAD}({self.r1})"

    def phi_T_arrays(self, upto: int) -> list[np.ndarray]:
        """phi_(T^j), j <= upto, as the (1, j*r+1, n) arrays of `phi_T_powers`."""
        if len(self._powers) <= upto:
            fb = self.field.batch()
            g = self.field.array(self.coeffs)[None]
            self._powers = phi_T_powers(fb, g, self.field.frobenius_matrix()[None], upto)
        return self._powers[: upto + 1]

    def phi_T_power(self, j: int) -> SkewPoly:
        P = self.phi_T_arrays(j)[j][0].tolist()
        return SkewPoly(self.ring, [(m, FieldElement(self.field, tuple(c))) for m, c in enumerate(P)])

    def phi(self, a: SparsePoly) -> SkewPoly:
        """Image of a in the reduced skew ring F_p{tau}."""
        acc = SkewPoly.zero(self.ring)
        for e, c in reversed(a.terms):  # the top power first: one recurrence
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


def phi_T_powers(fb: FieldBatch, g: np.ndarray, frob: np.ndarray, upto: int) -> list[np.ndarray]:
    """phi_(T^j) mod p for j <= upto, in the fields of `fb`: P_j is the
    (B, j*r+1, n) array of its tau-coefficients, in `fb.dtype`, given the
    (B, r+1, n) coordinates g of the g_i mod p and the matrices `frob` of
    sigma, the q-power map.  P_(j+1) = phi_T P_j, that is
    P_(j+1)[m] = sum_k g_k sigma^k(P_j[m-k]): one matrix per k with g_k
    nonzero somewhere in the batch."""
    r, n, p = g.shape[1] - 1, fb.n, fb.p
    live = [k for k in range(r + 1) if g[:, k].any()]
    steps = [np.broadcast_to(np.eye(n, dtype=fb.dtype), frob.shape)]
    for _ in range(live[-1]):
        steps.append(linalg.matmul_mod_p(steps[-1], frob, p))
    steps = np.stack([steps[k] for k in live], axis=1)
    steps = linalg.matmul_mod_p(fb.mul_matrix(g[:, live]), steps, p)  # x -> g_k sigma^k(x)
    steps = steps.swapaxes(-1, -2)
    powers = [np.broadcast_to(fb.one((1,)), (len(g), 1, n))]
    for _ in range(upto):
        span = powers[-1].shape[1]
        # an entry of P_(j+1) sums one matrix product of n terms per k
        terms = linalg.sum_products(powers[-1][:, None], steps, p, spare=n * (len(live) - 1))
        P = np.zeros((len(g), span + r, n), dtype=fb.dtype)
        for t, k in enumerate(live):
            P[:, k : k + span] += terms[:, t]
        powers.append(linalg.mod_p(P, p))
    return powers


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
    of the residue field L = F_(q^d) that phi_l lives over: tau^(d*m) = 1 in
    the quotient by right division.  Only m with a splitting field of
    F_p-degree e*d*m <= MAX_SPLITTING_FIELD_DEGREE are searched.

    tau^d is central in L{tau}, so right multiplication by it is a left
    L-linear map N of L{tau}/L{tau}phi_l, basis tau^0 .. tau^(R-1), R the
    tau-degree of phi_l.  On F_p coordinates its block (j, i) multiplies by
    the coefficient of tau^j in tau^(d+i) mod phi_l.  N^m e_0 = e_0, e_0
    the coordinates of 1, says tau^(d*m) = 1; the least such m is found by
    matrix-vector products."""
    ring = phil.ring
    field = ring.field
    p, n, d, R = field.p, field.n, field.m, phil.degree
    m_max = MAX_SPLITTING_FIELD_DEGREE // n
    fb = field.batch()
    N = np.zeros((R * n, R * n), dtype=fb.dtype)
    for i in range(R):
        rem = SkewPoly.tau(ring, d + i).divmod_right(phil)[1]
        for j, c in rem.terms:
            N[j * n : (j + 1) * n, i * n : (i + 1) * n] = fb.mul_matrix(field.array([c]))[0]
    times_N = linalg.PackedMatrix(N.T, p)  # v -> N v, on rows
    start = np.zeros(R * n, dtype=N.dtype)
    start[:1] = 1
    v = start
    for m in range(1, m_max + 1 if R else 1):  # every remainder mod a constant is 0, not 1
        v = times_N.rmul(v)
        if np.array_equal(v, start):
            return m
    raise TorsionSearchError(
        f"no splitting degree m <= {m_max}; at m = {m_max + 1} the F_p-degree "
        f"{n * (m_max + 1)} exceeds MAX_SPLITTING_FIELD_DEGREE = {MAX_SPLITTING_FIELD_DEGREE}"
    )


class TorsionSpace:
    """ker phi_l over the splitting extension, with its F_l-module data."""

    def __init__(self, reduced, ell, m, field, sigma, basis, module_basis,
                 frobenius_matrix, t_action_matrix, ell_field, span):
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
        self.span = span              # rows alpha^k phi_(T^a)(v_j), index (j*degl + a)*e + k

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def embed(self, x: FieldElement) -> FieldElement:
        """Image of a residue-field element in the splitting field."""
        coords = linalg.matmul_mod_p(self.reduced.field.array(x), self.sigma.T, self.field.p)
        return self.field.elem(int(c) for c in coords)

    def phi_in_splitting(self, a: SparsePoly) -> SkewPoly:
        """phi_a with coefficients pushed into the splitting field."""
        f = self.reduced.phi(a)
        return SkewPoly(_FieldRing(self.field), [(e, self.embed(c)) for e, c in f.terms])


def torsion_space(reduced: ReducedModule, ell: SparsePoly) -> TorsionSpace:
    """Torsion of a good reduction at a prime l away from the characteristic.

    All the linear algebra is numpy over F_p, F_q acting on B through
    mult(alpha^k), k >= 1, alpha^k the embedded powers of the F_q generator
    (alpha taken through the residue field, the embedding by which A acts)."""
    if not reduced.is_good:
        raise ReductionError("torsion spaces require good reduction")
    if reduced.prime == ell:
        raise ReductionError("the two primes must be distinct")
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
    sigma = B.subfield_embedding(reduced.field.modulus, d)
    A_T = _t_action(reduced, B, sigma)  # before mults, which would add to its peak memory
    alphas = linalg.matmul_mod_p(sigma, reduced.field.base_embedding(), p).T  # alpha^k, as rows
    mults = np.array([B.batch().mul_matrix(a[None])[0] for a in alphas[1:]],
                     dtype=B.batch().dtype).reshape(e - 1, n, n)  # mult(alpha^k), k >= 1
    scalar = lambda c: _mult(ell.base.array(c), mults, p)  # c in F_q acting on B

    # phi_l = l(A_T) by Horner: l is monic and F_q scalars commute with A_T
    times_A_T = linalg.PackedMatrix(A_T, p)
    L = (A_T + scalar(ell.coeff(degl - 1))) % p
    for j in range(degl - 2, -1, -1):
        L = (times_A_T.rmul(L) + scalar(ell.coeff(j))) % p
    kernel = linalg.kernel_mod_p(L, p)
    del L, times_A_T  # n x n each: freed so that the echelon's solve does not also hold them
    if kernel.shape[0] != e * N:
        raise ReductionError(
            f"kernel F_p-dimension {kernel.shape[0]} != e*r*deg(l) = {e * N}"
        )
    basis = kernel if e == 1 else _fq_echelon(ell.base, mults, kernel)

    # greedy F_l-module basis: first kernel vector outside the F_q-span of
    # the T-orbits taken so far (the orbits form a direct sum)
    module_idx: list[int] = []
    span = np.zeros((0, n), dtype=np.int64)
    for i, v in enumerate(basis):
        if linalg.rank_mod_p(np.vstack([span, v]), p) > span.shape[0]:
            module_idx.append(i)
            orbit = [v]
            for _ in range(degl - 1):
                orbit.append(linalg.matmul_mod_p(orbit[-1], A_T.T, p))
            orbit = np.array(orbit)
            fq_span = [orbit] + [linalg.matmul_mod_p(orbit, M.T, p) for M in mults]
            span = np.vstack([span, np.stack(fq_span, axis=1).reshape(-1, n)])
        if len(module_idx) == reduced.r:
            break
    if len(module_idx) != reduced.r:
        raise ReductionError("could not extract an F_l-module basis")

    # coordinates along the F_p-basis alpha^k phi_(T^a)(v_j) of the torsion,
    # index (j*degl + a)*e + k, of F v_j (F: x -> x^(q^d)) and of phi_T(v_j)
    vs = basis[module_idx].T
    images = np.hstack([linalg.matmul_mod_p(F, vs, p) for F in (B.frobenius_power_matrix(d), A_T)])
    sol = linalg.solve_mod_p(span.T, images, p)
    if sol is None or sol[1]:
        raise ReductionError("the module basis does not give a basis of the torsion")
    ell_rf = residue_field(ell)
    frob_mat = _fl_matrix(ell_rf, sol[0][:, : reduced.r])
    t_mat = _fl_matrix(ell_rf, sol[0][:, reduced.r :])
    if not frob_mat.det():
        raise ReductionError("Frobenius matrix is singular")

    elems = [B.elem(int(c) for c in v) for v in basis]
    return TorsionSpace(reduced, ell, m, B, sigma, elems, [elems[i] for i in module_idx],
                        frob_mat, t_mat, ell_rf, span)


def _t_action(reduced: ReducedModule, B: Field, sigma: np.ndarray) -> np.ndarray:
    """F_p-matrix on B of phi_T = sum_i g_i tau^i: the sum of mult(g_i) F^i
    over the nonzero g_i, F^i the cached matrices of the q^i-power maps of
    B.  mult(g) is `_mult` over the residue-field basis beta^k, the columns
    of sigma.  A g_i equal to 1 adds F^i and g_0 adds mult(g_0), with no
    product."""
    p, n = B.p, B.n
    betas = B.batch().mul_matrix(sigma.T[1:])  # mult(beta^k), k >= 1
    A_T = np.zeros((n, n), dtype=np.int64)
    for i, c in reduced.phi_T.terms:
        if i and c == reduced.field.one:
            A_T += B.frobenius_power_matrix(i)
            continue
        mult = _mult(reduced.field.array(c), betas, p)
        A_T += linalg.matmul_mod_p(mult, B.frobenius_power_matrix(i), p) if i else mult
    return A_T % p


def _mult(coords: np.ndarray, mults: np.ndarray, p: int) -> np.ndarray:
    """F_p-matrix of multiplication by sum_k coords[k] b_k on B, given
    mult(b_k) for k >= 1 of a basis with b_0 = 1."""
    K, n = mults.shape[:2]
    mat = linalg.sum_products(coords[1:], mults.reshape(K, n * n), p, spare=1).reshape(n, n)
    mat[np.diag_indices(n)] += coords[0]
    return mat % p


def _fq_echelon(Fq: Field, mults: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Reduced F_q-echelon basis of the span of `kernel` along the F_q-basis
    w^i of B (w the field generator), given mult(alpha^k), k >= 1: the
    `linalg.Matrix.rref` over F_q of its coordinates along alpha^k w^i (C)."""
    p, e, n = Fq.p, Fq.n, kernel.shape[1]
    C = np.stack([np.eye(n, n // e, dtype=mults.dtype), *mults[:, :, : n // e]], axis=2)
    C = C.reshape(n, n)  # column i*e + k: alpha^k w^i
    coords = linalg.solve_mod_p(C, kernel.T, p)[0]
    ech, pivots = linalg.Matrix(Fq, len(kernel), n // e, coords.T).rref()
    return linalg.matmul_mod_p(ech.coords[: len(pivots)].reshape(len(pivots), n), C.T, p)


def _fl_matrix(ell_rf: ResidueField, sol: np.ndarray) -> linalg.Matrix:
    """The r x r matrix over F_l whose column j has the coordinates sol[:, j]
    along the basis alpha^k phi_(T^a)(v_i): entry (i, j) is the residue at l
    of the polynomial whose coefficient of T^a has the F_q coordinates
    (a, k), read through `ell_rf.batch.evaluate`."""
    r, e = sol.shape[1], ell_rf.prime.base.n
    digits = sol.T.reshape(r, r, -1, e).swapaxes(0, 1)  # [i][j] -> digits (a, k)
    return linalg.Matrix(ell_rf.field, r, r, ell_rf.batch.evaluate(digits))


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
    coords, outside = linalg.preimage(B.array([c for _, c in u.terms]), ts.sigma,
                                      linalg.pullback(ts.sigma, p), p)
    if outside.any():
        raise ReductionError("kernel is not Galois-stable: u does not descend")
    u_res = SkewPoly(reduced.ring, [(i, reduced.field.elem(c))
                                    for (i, _), c in zip(u.terms, coords.tolist())])

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
    """F_q-basis of the F_l-line spanned by w = sum coords_j . v_j in the
    module basis: its T-orbit phi_(T^a)(w), a < deg l.  The v_j are
    l-torsion, so phi_(T^a)(w) = sum_j phi_f(v_j) for f the lift of
    T bar^a coords_j, whose F_q digits (b, k) are its coordinates along the
    rows alpha^k phi_(T^b)(v_j) of `ts.span`: one product for the orbit."""
    base, rf, degl = ts.ell.base, ts.ell_field, ts.ell.degree
    t_powers = [rf.reduce(SparsePoly.monomial(base, a)) for a in range(degl)]  # T bar^a
    lifts = [rf.lift(t * c) for t in t_powers for c in coords]
    digits = coordinates(base, lifts, degl - 1).reshape(degl, -1)
    orbit = linalg.matmul_mod_p(digits, ts.span, ts.field.p)
    return [ts.field.elem(int(x) for x in v) for v in orbit]
