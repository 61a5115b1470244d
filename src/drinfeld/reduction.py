"""Reduction of a Drinfeld module at primes of A, heights, torsion spaces
with explicit Frobenius matrices, and quotient isogenies over the reduction.

The torsion space at l is computed inside the minimal extension of the
residue field that contains all of ker(phi_l); that splitting degree is
found by the equivalent divisibility condition (tau^(d*m) - 1 right
divisible by phi_l in the reduced skew ring), which costs a handful of
small-field multiplications per step instead of a kernel probe.  The
kernel dimension is still verified on the constructed field.

Everything downstream of the kernel uses the deterministic echelon basis:
pivots by power-basis column order, module basis greedily extracted, so
Frobenius matrices are reproducible.  Cross-prime comparisons should use
their characteristic polynomials only.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .fields import Field, FieldElement, make_field
from .polynomials import (
    ResidueField,
    SparsePoly,
    format_poly,
    residue_field,
)
from .skew import DrinfeldModule, SkewPoly, linearized_eval


class ReductionError(ValueError):
    pass


class TorsionSearchError(RuntimeError):
    """Splitting-degree search exceeded its configured bound."""


GOOD = "Good"
STABLE_BAD = "StableBad"

DEFAULT_SPLITTING_CAP = 5000


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
        from .skew import _FieldRing

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


def splitting_degree(phil: SkewPoly, d: int, cap: int = DEFAULT_SPLITTING_CAP) -> int:
    """Minimal m with all roots of phi_l rational over the degree-m extension
    of the residue field: tau^(d*m) = 1 in the quotient by right division.
    tau^d commutes with residue-field coefficients, so remainders iterate."""
    ring = phil.ring
    taud = SkewPoly.tau(ring, d)
    one = SkewPoly.one(ring)
    u = taud.divmod_right(phil)[1]
    m = 1
    while u != one:
        u = (u * taud).divmod_right(phil)[1]
        m += 1
        if m > cap:
            raise TorsionSearchError(f"splitting degree exceeds the bound {cap}")
    return m


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
        from .skew import _FieldRing

        return SkewPoly(_FieldRing(self.field), [(e, self.embed(c)) for e, c in f.terms])


def _check_distinct_primes(p1: SparsePoly, p2: SparsePoly):
    if p1 == p2:
        raise ReductionError("the two primes must be distinct")


def torsion_space(reduced: ReducedModule, ell: SparsePoly,
                  cap: int = DEFAULT_SPLITTING_CAP) -> TorsionSpace:
    """Torsion of a good reduction at a prime l away from the characteristic."""
    if not reduced.is_good:
        raise ReductionError("torsion spaces require good reduction")
    _check_distinct_primes(reduced.prime, ell)
    if not ell.is_monic():
        raise ReductionError("l must be monic")
    base = reduced.module.base
    p, e = base.p, base.e
    d = reduced.prime.degree
    degl = ell.degree
    r = reduced.r
    N = r * degl

    phil = reduced.phi(ell)
    m = splitting_degree(phil, d, cap)

    B = make_field(p, e, d * m)
    sigma = _residue_embedding(reduced.field, B, d)

    # F_p-matrix of x |-> phi_l(x) on B
    frob = B.frobenius_matrix()
    n = B.n
    L = np.zeros((n, n), dtype=np.int64)
    frob_pow = np.eye(n, dtype=np.int64)
    prev = 0
    for i, c in phil.terms:
        frob_pow = (frob_pow @ linalg.matpow_mod_p(frob, i - prev, p)) % p
        prev = i
        c_B = (sigma @ np.array(c.coords, dtype=np.int64)) % p
        L = (L + _mult_matrix(B, c_B) @ frob_pow) % p

    kernel = linalg.kernel_mod_p(L, p)
    if e == 1:
        if kernel.shape[0] != N:
            raise ReductionError(
                f"kernel dimension {kernel.shape[0]} != r*deg(l) = {N}"
            )
        return _assemble_torsion_prime_field(reduced, ell, m, B, sigma, kernel, L)
    return _assemble_torsion_general(reduced, ell, m, B, sigma, kernel)


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


def _mult_matrix(B: Field, coords: np.ndarray) -> np.ndarray:
    """F_p-matrix of multiplication by the element with these coordinates."""
    return B.batch().mul_matrix(coords[None])[0]


def _assemble_torsion_prime_field(reduced, ell, m, B, sigma, kernel, L):
    """e = 1: all the F_q-linear algebra is numpy over F_p."""
    p = B.p
    n = B.n
    d = reduced.prime.degree
    degl = ell.degree
    r = reduced.r
    N = r * degl

    # action of T via phi and the |F_p|-power Frobenius, as F_p-matrices
    A_T = np.zeros((n, n), dtype=np.int64)
    frob = B.frobenius_matrix()
    for i, c in reduced.phi_T.terms:
        c_B = (sigma @ np.array(c.coords, dtype=np.int64)) % p
        A_T = (A_T + _mult_matrix(B, c_B) @ linalg.matpow_mod_p(frob, i, p)) % p
    F = linalg.matpow_mod_p(frob, d, p)

    basis_vecs = [kernel[i] for i in range(N)]

    # greedy F_l-module basis: first kernel vector outside the phi-span so far
    module_idx: list[int] = []
    span = np.zeros((0, n), dtype=np.int64)
    span_rank = 0
    for i, v in enumerate(basis_vecs):
        stacked = np.vstack([span, v])
        if linalg.rank_mod_p(stacked, p) > span_rank:
            module_idx.append(i)
            block = [v]
            for _ in range(degl - 1):
                block.append((A_T @ block[-1]) % p)
            span = np.vstack([span] + block)
            span_rank = linalg.rank_mod_p(span, p)
        if len(module_idx) == r:
            break
    if len(module_idx) != r:
        raise ReductionError("could not extract an F_l-module basis")

    # columns ordered (j, a) -> j*degl + a
    cols = []
    for i in module_idx:
        v = basis_vecs[i]
        cur = v
        for a in range(degl):
            cols.append(cur)
            cur = (A_T @ cur) % p
    S = np.array(cols, dtype=np.int64).T

    ell_rf = residue_field(ell)
    Fl = ell_rf.field

    def fl_entry(y, j):
        chunk = y[j * degl : (j + 1) * degl]
        acc = Fl.zero
        tpow = Fl.one
        for a in range(degl):
            acc = acc + tpow * int(chunk[a])
            tpow = tpow * ell_rf.t_image
        return acc

    def matrix_of(action: np.ndarray) -> linalg.Matrix:
        entries = []
        rowsols = []
        for i in module_idx:
            w = (action @ basis_vecs[i]) % p
            sol = linalg.solve_mod_p(S, w, p)
            if sol is None:
                raise ReductionError("module basis failed to span its image")
            rowsols.append(sol[0])
        for jrow in range(r):
            for jcol in range(r):
                entries.append(fl_entry(rowsols[jcol], jrow))
        return linalg.Matrix(Fl, r, r, entries)

    frob_mat = matrix_of(F)
    t_mat = matrix_of(A_T)
    if not frob_mat.det():
        raise ReductionError("Frobenius matrix is singular")

    elems = [B.elem(int(c) for c in v) for v in basis_vecs]
    module_elems = [B.elem(int(c) for c in basis_vecs[i]) for i in module_idx]
    return TorsionSpace(reduced, ell, m, B, sigma, elems, module_elems,
                        frob_mat, t_mat, ell_rf)


def _assemble_torsion_general(reduced, ell, m, B, sigma, kernel):
    """e > 1: echelonize the F_p-kernel over F_q, then proceed generically.

    The F_q-power basis of B is 1, w, ..., w^(dm-1) with w the field
    generator; F_q-coordinates come from the change of basis by powers of the
    embedded F_q generator.
    """
    p, e = B.p, B.e
    n = B.n
    d = reduced.prime.degree
    degl = ell.degree
    r = reduced.r
    N = r * degl
    dm = n // e

    alpha = B.base_generator()
    Fq = make_field(p, e, 1)

    # columns of C: coords of w^i * alpha^j, index i*e + j
    cols = []
    w_pow = B.one
    for _ in range(dm):
        a_pow = w_pow
        for _ in range(e):
            cols.append(a_pow.coords)
            a_pow = a_pow * alpha
        w_pow = w_pow * B.gen
    C = np.array(cols, dtype=np.int64).T % p
    Cinv_sol = linalg.solve_mod_p(C, np.eye(n, dtype=np.int64), p)
    if Cinv_sol is None:
        raise ReductionError("power basis change is singular")
    Cinv = Cinv_sol[0] % p

    def to_fq_vector(coords: np.ndarray) -> list[FieldElement]:
        y = (Cinv @ coords) % p
        return [Fq.elem(int(c) for c in y[i * e : (i + 1) * e]) for i in range(dm)]

    def to_B(vec: list[FieldElement]) -> FieldElement:
        coords = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(vec):
            for j, digit in enumerate(c.coords):
                coords[i * e + j] = digit
        return B.elem(int(c) for c in (C @ coords) % p)

    rows = [to_fq_vector(kernel[i]) for i in range(kernel.shape[0])]
    mat = linalg.Matrix.from_rows(Fq, rows) if rows else None
    if mat is None:
        raise ReductionError("empty kernel")
    ech, pivots = mat.rref()
    fq_basis = [row for row in ech[: len(pivots)]]
    if len(fq_basis) != N:
        raise ReductionError(f"kernel F_q-dimension {len(fq_basis)} != r*deg(l) = {N}")

    basis_elems = [to_B(v) for v in fq_basis]

    phi_T_B = SkewPoly(
        _field_ring(B),
        [(i, _embed_elem(B, sigma, c)) for i, c in reduced.phi_T.terms],
    )

    def t_action(x: FieldElement) -> FieldElement:
        return linearized_eval(phi_T_B, x)

    def frob_action(x: FieldElement) -> FieldElement:
        return B.frobenius(x, d)

    # greedy module basis over F_q-span of phi-orbits
    module_elems: list[FieldElement] = []
    span_rows: list[list[FieldElement]] = []

    def in_span(x: FieldElement) -> bool:
        if not span_rows:
            return False
        old_rank = linalg.Matrix.from_rows(Fq, span_rows).rank()
        probe = span_rows + [to_fq_vector(np.array(x.coords, dtype=np.int64))]
        return linalg.Matrix.from_rows(Fq, probe).rank() == old_rank

    for v in basis_elems:
        if not in_span(v):
            module_elems.append(v)
            cur = v
            for _ in range(degl):
                span_rows.append(to_fq_vector(np.array(cur.coords, dtype=np.int64)))
                cur = t_action(cur)
        if len(module_elems) == r:
            break
    if len(module_elems) != r:
        raise ReductionError("could not extract an F_l-module basis")

    ell_rf = residue_field(ell)
    Fl = ell_rf.field

    # solve in the basis {phi_(T^a)(v_j)} by stacking F_q-coordinates
    cols = []
    for v in module_elems:
        cur = v
        for _ in range(degl):
            cols.append(to_fq_vector(np.array(cur.coords, dtype=np.int64)))
            cur = t_action(cur)
    Smat = linalg.Matrix.from_rows(Fq, cols).transpose()

    def fl_coords(x: FieldElement) -> list[FieldElement]:
        target = to_fq_vector(np.array(x.coords, dtype=np.int64))
        aug_rows = [list(Smat.row(i)) + [target[i]] for i in range(Smat.rows)]
        aug = linalg.Matrix.from_rows(Fq, aug_rows)
        red, pivots = aug.rref()
        if any(c == Smat.cols for c in pivots):
            raise ReductionError("module basis failed to span its image")
        sol = [Fq.zero] * Smat.cols
        for rr, c in enumerate(pivots):
            sol[c] = red[rr][Smat.cols]
        out = []
        for j in range(r):
            acc = Fl.zero
            tpow = Fl.one
            for a in range(degl):
                acc = acc + tpow * ell_rf.embed_base(sol[j * degl + a])
                tpow = tpow * ell_rf.t_image
            out.append(acc)
        return out

    frob_cols = [fl_coords(frob_action(v)) for v in module_elems]
    t_cols = [fl_coords(t_action(v)) for v in module_elems]
    frob_mat = linalg.Matrix(Fl, r, r, [frob_cols[j][i] for i in range(r) for j in range(r)])
    t_mat = linalg.Matrix(Fl, r, r, [t_cols[j][i] for i in range(r) for j in range(r)])
    if not frob_mat.det():
        raise ReductionError("Frobenius matrix is singular")
    return TorsionSpace(reduced, ell, m, B, sigma, basis_elems, module_elems,
                        frob_mat, t_mat, ell_rf)


def _field_ring(B: Field):
    from .skew import _FieldRing

    return _FieldRing(B)


def _embed_elem(B: Field, sigma: np.ndarray, c: FieldElement) -> FieldElement:
    coords = (sigma @ np.array(c.coords, dtype=np.int64)) % B.p
    return B.elem(int(x) for x in coords)


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

    ring = _field_ring(B)
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
