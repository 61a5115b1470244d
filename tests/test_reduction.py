import hashlib
import json
import random
from unittest import mock

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import linalg, reduction
from drinfeld.fields import make_field
from drinfeld.polynomials import SparsePoly, parse_poly, primes_of_degree
from drinfeld.reduction import (
    ReductionError,
    TorsionSearchError,
    fl_line,
    height,
    quotient_by_kernel,
    reduce_mod,
    splitting_degree,
    torsion_at_char,
    torsion_space,
)
from drinfeld.skew import DrinfeldModule, SkewPoly, linearized_eval

F5 = make_field(5, 1, 1)
D5 = DrinfeldModule.default_family(5, 3)
T = SparsePoly.T(F5)


class TestReduceMod:
    def test_at_T_stable_bad(self):
        R = reduce_mod(D5, T)
        assert R.describe() == "StableBad(2)"
        assert R.phi_T == SkewPoly(R.ring, [(2, R.field.one)])

    def test_at_T_minus_1_good(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        assert R.is_good
        # leading coefficient 1^(q-1) = 1
        assert R.coeffs[3] == R.field.one

    def test_at_quadratic_prime_good(self):
        R = reduce_mod(D5, parse_poly("T^2+2", F5))
        assert R.is_good

    def test_good_at_every_prime_except_T(self):
        for d in (1, 2):
            for prime in primes_of_degree(F5, d):
                R = reduce_mod(D5, prime)
                if prime == T:
                    assert R.describe() == "StableBad(2)"
                else:
                    assert R.is_good

    def test_unstable_model_rejected(self):
        # custom module whose every non-constant coefficient vanishes mod T
        bad = DrinfeldModule(F5, [T, T, T])
        with pytest.raises(ReductionError):
            reduce_mod(bad, T)

    def test_reduced_hom_is_multiplicative(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        rng = random.Random(4)
        for _ in range(10):
            a = SparsePoly.from_pairs(
                F5, [(e, F5.scalar(rng.randrange(5))) for e in range(3)])
            b = SparsePoly.from_pairs(
                F5, [(e, F5.scalar(rng.randrange(5))) for e in range(3)])
            assert R.phi(a * b) == R.phi(a) * R.phi(b)


class TestHeight:
    def test_linear_good_primes(self):
        for c in range(1, 5):
            R = reduce_mod(D5, parse_poly(f"T+{5 - c}", F5))
            # reduced image of (T-c) is tau^(r-1) + tau^r
            phi_p = R.phi(R.prime)
            assert phi_p.terms == ((2, R.field.one), (3, R.field.one))
            assert height(R) == 2

    def test_carlitz_rank_one(self):
        C = DrinfeldModule.carlitz(5)
        for prime in primes_of_degree(F5, 1):
            assert height(reduce_mod(C, prime)) == 1

    def test_degree_two_prime_with_linearity_recheck(self):
        prime = parse_poly("T^2+2", F5)
        R = reduce_mod(D5, prime)
        h = height(R)
        m1 = R.phi(prime).min_exp
        m2 = R.phi(prime * prime).min_exp
        assert m2 == 2 * m1  # lowest exponent scales with the valuation
        assert h == m1 // prime.degree
        # cross-check against the torsion dimension accounting
        assert torsion_at_char(R, 1) == (3 - h) * prime.degree


class TestTorsionAtChar:
    def test_linear_prime_dimensions(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        assert torsion_at_char(R, 1) == 1
        assert torsion_at_char(R, 2) == 2

    def test_formula_across_degrees(self):
        for d in (1, 2):
            for prime in primes_of_degree(F5, d):
                if prime == T:
                    continue
                R = reduce_mod(D5, prime)
                h = height(R)
                for e_prime in (1, 2):
                    assert torsion_at_char(R, e_prime) == (3 - h) * e_prime * d

    def test_carlitz_dimension_zero(self):
        C = DrinfeldModule.carlitz(5)
        R = reduce_mod(C, parse_poly("T+4", F5))
        assert torsion_at_char(R, 1) == 0

    def test_distinct_root_count_matches(self):
        # kernel of tau^2 + tau^3: q distinct roots (x = 0 plus x^(q-1) = -1),
        # all rational over the quadratic extension of the residue field
        from drinfeld.skew import _FieldRing

        R = reduce_mod(D5, parse_poly("T+4", F5))
        phi_p = R.phi(R.prime)
        B = make_field(5, 1, 2)
        lifted = SkewPoly(_FieldRing(B),
                          [(e, B.scalar(c.coords[0])) for e, c in phi_p.terms])
        roots = [x for x in B.elements() if not linearized_eval(lifted, x)]
        assert len(roots) == 5 ** torsion_at_char(R, 1)


class TestTorsionSpace:
    def test_example_t_minus_1_mod_t_minus_2(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        ts = torsion_space(R, parse_poly("T+3", F5))
        assert ts.dimension == 3
        cp = ts.frobenius_matrix.charpoly()
        assert [c.to_int() for c in cp] == [4, 0, 1, 1]  # x^3 + x^2 + 4

    def test_example_t_minus_1_mod_t_minus_3(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        ts = torsion_space(R, parse_poly("T+2", F5))
        assert ts.dimension == 3
        assert ts.frobenius_matrix.det()  # invertible

    def test_rejects_ell_equal_prime(self):
        prime = parse_poly("T+4", F5)
        R = reduce_mod(D5, prime)
        with pytest.raises(ReductionError):
            torsion_space(R, prime)

    def test_rejects_bad_reduction(self):
        R = reduce_mod(D5, T)
        with pytest.raises(ReductionError):
            torsion_space(R, parse_poly("T+4", F5))

    def test_search_bound_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "MAX_SPLITTING_FIELD_DEGREE", 3)
        R = reduce_mod(D5, parse_poly("T+4", F5))
        with pytest.raises(TorsionSearchError, match="MAX_SPLITTING_FIELD_DEGREE = 3"):
            torsion_space(R, parse_poly("T+3", F5))

    def test_kernel_vectors_vanish(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        ell = parse_poly("T+3", F5)
        ts = torsion_space(R, ell)
        phil = ts.phi_in_splitting(ell)
        for v in ts.basis:
            assert not linearized_eval(phil, v)

    def test_t_action_commutes_with_frobenius(self):
        R = reduce_mod(D5, parse_poly("T+4", F5))
        ts = torsion_space(R, parse_poly("T+3", F5))
        M, A = ts.frobenius_matrix, ts.t_action_matrix
        mul = M.field.batch().mul
        prod = lambda X, Y: mul(X.coords[:, :, None], Y.coords[None]).sum(axis=1) % M.field.p
        assert np.array_equal(prod(M, A), prod(A, M))

    def test_t_action_is_scalar_in_module_coordinates(self):
        # the module basis realizes phi[l] as F_l^r: T acts as the scalar T bar
        R = reduce_mod(D5, parse_poly("T+4", F5))
        for ell_text in ("T+3", "T^2+2"):
            ell = parse_poly(ell_text, F5)
            ts = torsion_space(R, ell)
            A = ts.t_action_matrix
            Fl = A.field
            t_bar = ts.ell_field.t_image
            want = linalg.Matrix(Fl, A.rows, A.cols,
                                 [t_bar if i == j else Fl.zero
                                  for i in range(A.rows) for j in range(A.cols)])
            assert A == want

    def test_splitting_degree_matches_direct_probe(self):
        # oracle: smallest m where the kernel on F_(p^m) has full dimension,
        # probed by brute evaluation over subfield elements
        prime = parse_poly("T+4", F5)
        R = reduce_mod(D5, prime)
        ell = parse_poly("T+2", F5)
        phil = R.phi(ell)
        m = splitting_degree(phil)
        ts = torsion_space(R, ell)
        assert ts.m == m
        B = ts.field
        assert B.m == m
        # every kernel element is fixed by frob^m
        for v in ts.basis:
            assert B.frobenius(v, m) == v

    def test_torsion_at_ell_equal_T(self):
        # the mod-(T) representation: l = (T) is fine away from (T) itself
        from drinfeld.charpoly import charpoly_linear_system, charpoly_mod_l

        prime = parse_poly("T+4", F5)
        via_torsion = charpoly_mod_l(D5, prime, T)
        cp = charpoly_linear_system(D5, prime)
        assert [c.to_int() for c in cp.reduce_mod(T)] == [c.to_int() for c in via_torsion]
        # x^3 + x^2 - (T-1) mod T = x^3 + x^2 + 1
        assert [c.to_int() for c in via_torsion] == [1, 0, 1, 1]

    def test_charpoly_consistent_under_crt(self):
        # the same prime at two different l of equal degree lifts to one
        # integral polynomial within the degree bounds
        prime = parse_poly("T^2+2", F5)
        R = reduce_mod(D5, prime)
        l1, l2 = parse_poly("T+4", F5), parse_poly("T+2", F5)
        cp1 = torsion_space(R, l1).frobenius_matrix.charpoly()
        cp2 = torsion_space(R, l2).frobenius_matrix.charpoly()
        # a_1 constant, a_2 of degree <= 1: interpolate from the two residues
        # and check both reductions are consistent
        from drinfeld.charpoly import charpoly_linear_system

        cp = charpoly_linear_system(D5, prime)
        assert [c.to_int() for c in cp.reduce_mod(l1)] == [c.to_int() for c in cp1]
        assert [c.to_int() for c in cp.reduce_mod(l2)] == [c.to_int() for c in cp2]


def remainder_loop_splitting_degree(phil):
    """Reference: tau^(d*m) mod phi_l by one skew product and one right
    division per m, until the remainder is 1."""
    ring = phil.ring
    n = ring.field.n
    m_max = reduction.MAX_SPLITTING_FIELD_DEGREE // n
    taud = SkewPoly.tau(ring, ring.field.m)
    one = SkewPoly.one(ring)
    u = taud.divmod_right(phil)[1]
    for m in range(1, m_max + 1):
        if u == one:
            return m
        u = (u * taud).divmod_right(phil)[1]
    raise TorsionSearchError(
        f"no splitting degree m <= {m_max}; at m = {m_max + 1} the F_p-degree "
        f"{n * (m_max + 1)} exceeds MAX_SPLITTING_FIELD_DEGREE = "
        f"{reduction.MAX_SPLITTING_FIELD_DEGREE}"
    )


def _m_or_refusal(fn, phil):
    try:
        return fn(phil)
    except TorsionSearchError as exc:
        return str(exc)


class TestSplittingDegree:
    @pytest.mark.parametrize("r", [3, 5])
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 25])
    def test_matches_remainder_loop(self, monkeypatch, q, r):
        # the bound keeps the reference loop short; both answers and
        # refusals occur at each q
        monkeypatch.setattr(reduction, "MAX_SPLITTING_FIELD_DEGREE", 250)
        D = DrinfeldModule.default_family(q, r)
        firsts = [[f for f in primes_of_degree(D.base, d) if f.coeff(0)] for d in (1, 2)]
        primes = [f for fs in firsts for f in fs[:2]]
        ells = [f for fs in firsts for f in fs[1:3]]
        outcomes = []
        for prime in primes:
            R = reduce_mod(D, prime)
            for ell in ells:
                if ell != prime:
                    phil = R.phi(ell)
                    want = _m_or_refusal(remainder_loop_splitting_degree, phil)
                    assert _m_or_refusal(splitting_degree, phil) == want
                    outcomes.append(want)
        assert any(isinstance(m, str) for m in outcomes)
        if (q, r) != (7, 5):  # every pair at q = 7, r = 5 needs m > 250
            assert any(isinstance(m, int) for m in outcomes)

    def test_refusal_text(self, monkeypatch):
        # m = 312 here
        monkeypatch.setattr(reduction, "MAX_SPLITTING_FIELD_DEGREE", 100)
        phil = reduce_mod(D5, parse_poly("T+4", F5)).phi(parse_poly("T^2+2", F5))
        want = ("no splitting degree m <= 100; at m = 101 the F_p-degree 101 exceeds "
                "MAX_SPLITTING_FIELD_DEGREE = 100")
        for fn in (splitting_degree, remainder_loop_splitting_degree):
            assert _m_or_refusal(fn, phil) == want


class TestExtensionBaseTorsion:
    def test_q25_torsion_agrees_with_linear_system(self):
        # e = 2: find a pair (p, l) of linear primes over F_25 whose torsion
        # splits in a small extension, then compare the two charpoly routes
        from drinfeld.charpoly import charpoly_linear_system
        from drinfeld.reduction import splitting_degree

        base = make_field(5, 2, 1)
        D = DrinfeldModule.default_family(base, 3)
        ell = SparsePoly(base, [(0, -base.one), (1, base.one)])  # T - 1
        picked = None
        for c_idx in range(2, base.order):
            c = base.from_int(c_idx)
            prime = SparsePoly(base, [(0, -c), (1, base.one)])
            R = reduce_mod(D, prime)
            try:
                # m <= 24 over F_25: F_p-degree 2m <= 48
                with mock.patch.object(reduction, "MAX_SPLITTING_FIELD_DEGREE", 48):
                    m = splitting_degree(R.phi(ell))
            except TorsionSearchError:
                continue
            picked = (prime, R, m)
            break
        assert picked is not None
        prime, R, m = picked
        ts = torsion_space(R, ell)
        assert ts.m == m
        assert ts.dimension == 3
        got = ts.frobenius_matrix.charpoly()
        cp = charpoly_linear_system(D, prime)
        want = cp.reduce_mod(ell)
        assert [c.to_int() for c in got] == [c.to_int() for c in want]

    # Primes of degree 2, where F_q coordinates read through another
    # embedding of F_q than the residue field's give Galois-twisted matrices.
    # At q = 4 the default family has no such pair with a splitting field of
    # F_2-dimension <= 48, so the rank-2 module T + tau + tau^2 stands in.
    @pytest.mark.parametrize("p, e, coeffs, prime_text, ell_text", [
        (2, 2, "T;1;1", "T^2+2*T+1", "T"),        # F_(2^20)
        (3, 2, None, "T^2+4", "T+3"),              # F_(3^32)
        (2, 3, None, "T^2+3*T+4", "T"),            # F_(2^42)
        (5, 2, None, "T^2+10", "T+11"),            # F_(5^24)
    ])
    def test_degree_two_primes_agree_with_motive_route(self, p, e, coeffs, prime_text,
                                                       ell_text):
        from drinfeld.charpoly import det_check, frobenius_charpolys

        base = make_field(p, e, 1)
        if coeffs:
            D = DrinfeldModule(base, [parse_poly(c, base) for c in coeffs.split(";")])
        else:
            D = DrinfeldModule.default_family(base, 3)
        prime, ell = parse_poly(prime_text, base), parse_poly(ell_text, base)
        ts = torsion_space(reduce_mod(D, prime), ell)
        assert ts.field.n <= 48
        cp = frobenius_charpolys(D, [prime])[0]
        got = ts.frobenius_matrix.charpoly()
        assert [c.to_int() for c in got] == [c.to_int() for c in cp.reduce_mod(ell)]
        assert det_check(D, prime, ell, cp, torsion=ts)


# Torsion spaces as recorded from the assembly that echelonized e > 1
# kernels over F_q with generic `Matrix` rows: (q, module coefficients or
# None for the default rank-3 family, p, l, splitting degree m, module basis
# as positions in the basis, basis vectors as ascending power-basis digits,
# and at e = 1 the Frobenius and T-action matrices as F_l element indices,
# row-major).  At e > 1 only the bases are recorded: that assembly read F_q
# coordinates through another embedding of F_q than the residue field's, so
# its matrices were Galois-twisted at primes of degree >= 2.
TORSION_GOLDEN = [
    (5, None, 'T+4', 'T+3', 24, (0, 1, 2),
     ['441444443320011022434100',
      '033442024022001340322010',
      '342223330044012201314001'],
     [3, 2, 3, 1, 0, 4, 4, 1, 1], [2, 0, 0, 0, 2, 0, 0, 0, 2]),
    (5, None, 'T^2+2', 'T+2', 4, (0, 1, 2),
     ['10001000',
      '04000100',
      '00000001'],
     [1, 0, 0, 0, 2, 0, 0, 0, 3], [3, 0, 0, 0, 3, 0, 0, 0, 3]),
    (5, None, 'T+1', 'T^2+2', 24, (0, 1, 2),
     ['041132102033314023100000',
      '001414240032310033010000',
      '011140111114304444001000',
      '423204341321130124000100',
      '033002443233234222000010',
      '324043433004143120000001'],
     [9, 14, 14, 15, 4, 15, 24, 12, 21], [5, 0, 0, 0, 5, 0, 0, 0, 5]),
    (7, None, 'T^2+4', 'T+1', 6, (0, 1, 2),
     ['526230244100',
      '434013035010',
      '524355114001'],
     [0, 0, 2, 6, 1, 2, 2, 6, 0], [6, 0, 0, 0, 6, 0, 0, 0, 6]),
    (7, None, 'T^2+2*T+5', 'T+6', 6, (0, 1, 2),
     ['014045140100',
      '203266403010',
      '540353243001'],
     [6, 3, 2, 0, 5, 4, 6, 4, 4], [1, 0, 0, 0, 1, 0, 0, 0, 1]),
    (4, 'T;1;1', 'T^2+2*T+1', 'T', 5, (0, 1),
     ['10011010100010111001',
      '10110000001111010010'],
     None, None),
    (4, None, 'T+1', 'T', 7, (0, 1, 2),
     ['11110101100000',
      '10100101100011',
      '01000111100000'],
     None, None),
    (4, None, 'T^2+T+2', 'T^2+T+3', 4, (0, 1, 2),
     ['1000000000000000',
      '1111011010011001',
      '0010100100000000',
      '0001000000000000',
      '0000010000000000',
      '0000001000000000'],
     None, None),
    (8, None, 'T+1', 'T', 7, (0, 1, 2),
     ['001001101000111101101',
      '110110011111110000011',
      '111011010001111000110'],
     None, None),
    (8, None, 'T^2+3*T+4', 'T', 7, (0, 1, 2),
     ['000110000001111101101110000011110010101100',
      '010110001101101100001111111010100011010101',
      '101111111110000100000111011111111111011111'],
     None, None),
    (9, None, 'T+1', 'T+2', 8, (0, 1, 2),
     ['1000000000000000',
      '2012021120001210',
      '1212110221222220'],
     None, None),
    (9, None, 'T^2+4', 'T+3', 8, (0, 1, 2),
     ['01110021222211200112100120022102',
      '12100010220010122210121102221002',
      '00101102122001201122220020111112'],
     None, None),
    (25, None, 'T^2+10', 'T+11', 6, (0, 1, 2),
     ['232334032032324403401130',
      '112420204232040034213132',
      '220304322221201421443303'],
     None, None),
    # n = 124: the basis by the sha256 of its digit strings, one a line
    (5, None, 'T^2+T+2', 'T+4', 62, (0, 1, 2),
     'c1f5fbff55aac9db97f70a24261ebae07f205316e00a83fcd9ab90bca5b957c9',
     [3, 3, 4, 2, 2, 2, 3, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0, 1]),
]


class TestTorsionGolden:
    @pytest.mark.parametrize("q, coeffs, prime_text, ell_text, m, module_idx, basis, frob, t_act",
                             TORSION_GOLDEN)
    def test_matches_recorded(self, q, coeffs, prime_text, ell_text, m, module_idx, basis,
                              frob, t_act):
        from drinfeld.skew import split_prime_power

        p, e = split_prime_power(q)
        base = make_field(p, e, 1)
        if coeffs:
            D = DrinfeldModule(base, [parse_poly(c, base) for c in coeffs.split(";")])
        else:
            D = DrinfeldModule.default_family(base, 3)
        ts = torsion_space(reduce_mod(D, parse_poly(prime_text, base)), parse_poly(ell_text, base))
        digits = lambda v: "".join(map(str, v.coords))
        indices = lambda M: [M[i, j].to_int() for i in range(M.rows) for j in range(M.cols)]
        assert ts.m == m
        got = [digits(v) for v in ts.basis]
        if isinstance(basis, str):
            assert hashlib.sha256("\n".join(got).encode()).hexdigest() == basis
            basis = got
        assert got == basis
        assert [digits(v) for v in ts.module_basis] == [basis[i] for i in module_idx]
        if frob is not None:
            assert indices(ts.frobenius_matrix) == frob
            assert indices(ts.t_action_matrix) == t_act

    def test_q5_pairs_digest(self):
        """The records of the torsion-q5 benchmark workload at seed 0: every
        prime of degree <= 2 but T against l = T+2, T+3, T+4, as sha256 of
        their sorted-key JSON."""
        from drinfeld import charpoly
        from drinfeld.polynomials import format_poly

        primes = [f for d in (1, 2) for f in primes_of_degree(F5, d) if f != T]
        ells = [parse_poly(f"T+{c}", F5) for c in (2, 3, 4)]
        records = []
        for f in primes:
            cp = charpoly.charpoly_linear_system(D5, f)
            for ell in ells:
                if ell == f:
                    continue
                ts = torsion_space(reduce_mod(D5, f), ell)
                records.append({
                    "p": format_poly(f), "l": format_poly(ell),
                    "det_ok": charpoly.det_check(D5, f, ell, cp, ts), "m": ts.m,
                    "system": [c.to_int() for c in cp.reduce_mod(ell)],
                    "torsion": [c.to_int() for c in ts.frobenius_matrix.charpoly()],
                })
        assert len(records) == 39
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == "9e22889a897e1596f78d11f10609fc978cbcf95acef69914ead8df89e543bb25"


class TestTAction:
    """`_t_action` against phi_T built by Horner in the matrix of tau."""

    @staticmethod
    def horner(reduced, B, sigma):
        p, F = B.p, B.frobenius_matrix()
        coeffs = dict(reduced.phi_T.terms)
        mult = lambda c: B.batch().mul_matrix((sigma @ np.array(c.coords) % p)[None])[0]
        A = mult(coeffs[reduced.r])
        for i in range(reduced.r - 1, -1, -1):
            A = A @ F % p
            if i in coeffs:
                A = (A + mult(coeffs[i])) % p
        return A

    @pytest.mark.parametrize("q, coeffs, prime_text, m", [
        (5, "T;2*T+1;T^2+3;4*T+2", "T^2+2", 3),
        (5, "T;1;3;T+1", "T+2", 5),
        (7, "T;3;1;T^2+5*T+1;2", "T^2+1", 2),
        (4, None, "T^2+T+2", 2),
        (9, "T;T+1;2*T;T^2+1", "T^2+4", 2),
        (25, None, "T+1", 3),
    ])
    def test_matches_horner(self, q, coeffs, prime_text, m):
        from drinfeld.skew import split_prime_power

        p, e = split_prime_power(q)
        base = make_field(p, e, 1)
        if coeffs:
            D = DrinfeldModule(base, [parse_poly(c, base) for c in coeffs.split(";")])
        else:
            D = DrinfeldModule.default_family(base, 3)
        R = reduce_mod(D, parse_poly(prime_text, base))
        d = R.prime.degree
        B = make_field(p, e, d * m)
        sigma = B.subfield_embedding(R.field.modulus, d)
        got = reduction._t_action(R, B, sigma)
        assert got.dtype == np.int64
        assert got.tolist() == self.horner(R, B, sigma).tolist()


class TestQuotient:
    def setup_method(self):
        self.prime = parse_poly("T+4", F5)
        self.R = reduce_mod(D5, self.prime)
        self.ell = parse_poly("T+3", F5)
        self.ts = torsion_space(self.R, self.ell)

    def test_trivial_kernel(self):
        iso = quotient_by_kernel(self.ts, [])
        assert iso.u == SkewPoly.one(self.R.ring)
        assert iso.target_T == self.R.phi_T

    def test_full_torsion(self):
        iso = quotient_by_kernel(self.ts, list(self.ts.basis))
        assert iso.u.degree == 3
        assert iso.verify()
        phil = self.R.phi(self.ell)
        q, r = phil.divmod_right(iso.u)
        assert not r and q.degree == 0

    def test_eigenline_quotient(self):
        M = self.ts.frobenius_matrix
        Fl = M.field
        # eigenvalue 3 of x^3+x^2+4 over F_5
        shifted = linalg.Matrix(Fl, 3, 3,
                                [M[i, j] - (Fl.scalar(3) if i == j else Fl.zero)
                                 for i in range(3) for j in range(3)])
        kb = shifted.kernel_basis()
        assert kb
        X = fl_line(self.ts, kb[0])
        iso = quotient_by_kernel(self.ts, X)
        assert iso.u.degree == 1
        assert iso.verify()

    def test_eigenline_kernel_set_equality(self):
        M = self.ts.frobenius_matrix
        Fl = M.field
        shifted = linalg.Matrix(Fl, 3, 3,
                                [M[i, j] - (Fl.scalar(3) if i == j else Fl.zero)
                                 for i in range(3) for j in range(3)])
        X = fl_line(self.ts, shifted.kernel_basis()[0])
        iso = quotient_by_kernel(self.ts, X)
        B = self.ts.field
        u_B = SkewPoly(self.ts.phi_in_splitting(self.ell).ring,
                       [(e, self.ts.embed(c)) for e, c in iso.u.terms])
        # kernel of u inside the splitting field is exactly the F_q-span of X
        span = {(X[0] * c).coords for c in range(5)}
        for coords in span:
            assert not linearized_eval(u_B, B.elem(coords))
        # degree bound ensures no extra roots: q^1 = 5 = |span|
        assert iso.u.degree == 1

    def test_non_stable_subspace_rejected(self):
        # a random kernel vector alone is generally not Frobenius-stable
        v = self.ts.basis[0]
        with pytest.raises(ReductionError):
            quotient_by_kernel(self.ts, [v])

    def test_leading_coefficient_relation(self):
        M = self.ts.frobenius_matrix
        Fl = M.field
        shifted = linalg.Matrix(Fl, 3, 3,
                                [M[i, j] - (Fl.scalar(3) if i == j else Fl.zero)
                                 for i in range(3) for j in range(3)])
        X = fl_line(self.ts, shifted.kernel_basis()[0])
        iso = quotient_by_kernel(self.ts, X)
        d = iso.u.degree
        a_d = iso.u.terms[-1][1]
        g_r_psi = iso.target_T.coeff(3)
        lhs = self.R.rf.reduce(SparsePoly.monomial(F5, (5**d) * 4))
        assert lhs == g_r_psi * a_d ** (5**3 - 1)


# (q, prime, l) with small splitting fields: deg l 1 and 2 at q = 4 and 5,
# primes of degree 1 and 2; at q = 9 no deg-2 l splits below F_p-degree
# 130 at any prime of degree <= 2, so only linear l there
FL_LINE_CASES = [
    (4, "T+2", "T+3"), (4, "T^2+2*T+1", "T+1"), (4, "T^2+T+2", "T^2+T+3"),
    (5, "T+4", "T+2"), (5, "T+1", "T^2+2"), (5, "T^2+2", "T+2"), (5, "T^2+3", "T^2+T+2"),
    (9, "T+1", "T+2"), (9, "T^2+4", "T+3"),
]


@functools.cache
def _fl_line_torsion(q, prime_text, ell_text):
    from drinfeld.skew import split_prime_power

    base = make_field(*split_prime_power(q), 1)
    R = reduce_mod(DrinfeldModule.default_family(base, 3), parse_poly(prime_text, base))
    return torsion_space(R, parse_poly(ell_text, base))


def fl_line_by_evaluation(ts, coords):
    """The F_l-line by phi of each lift evaluated on its module-basis vector
    in B, then the orbit under phi_T, both through `phi_in_splitting`."""
    w = ts.field.zero
    for c, v in zip(coords, ts.module_basis):
        w = w + linearized_eval(ts.phi_in_splitting(ts.ell_field.lift(c)), v)
    phi_T = ts.phi_in_splitting(SparsePoly.T(ts.ell.base))
    out = [w]
    for _ in range(ts.ell.degree - 1):
        out.append(linearized_eval(phi_T, out[-1]))
    return out


class TestFlLine:
    @pytest.mark.parametrize("q, prime_text, ell_text", FL_LINE_CASES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_evaluation_in_the_splitting_field(self, q, prime_text, ell_text, data):
        ts = _fl_line_torsion(q, prime_text, ell_text)
        Fl = ts.ell_field.field
        coords = [Fl.from_int(data.draw(st.integers(0, Fl.order - 1))) for _ in ts.module_basis]
        assert fl_line(ts, coords) == fl_line_by_evaluation(ts, coords)
