"""The batched motive-matrix route against its oracles, and its own checks."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drinfeld.charpoly as charpoly_mod
import drinfeld.sampling as sampling_mod
from drinfeld.charpoly import (
    CharPolyError,
    charpoly_linear_system,
    charpoly_mod_l,
    charpolys_of_degree,
    frobenius_charpolys,
)
from drinfeld.fields import FieldBatch, make_field
from drinfeld.linalg import products as dtype_products
from drinfeld.polynomials import (
    ResidueBatch,
    SparsePoly,
    coordinates,
    format_poly,
    is_irreducible,
    parse_poly,
    primes_of_degree,
)
from drinfeld.reduction import ReductionError, reduce_mod
from drinfeld.sampling import SamplingError, sample_frobenii
from drinfeld.skew import DrinfeldModule, split_prime_power

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _base(q):
    p, e = split_prime_power(q)
    return make_field(p, e, 1)


def _is_good(module, prime):
    try:
        return reduce_mod(module, prime).is_good
    except ReductionError:  # every non-constant coefficient vanishes
        return False


def _good_primes(module, d):
    return [f for f in primes_of_degree(module.base, d) if _is_good(module, f)]


def _assert_matches_linear_system(module, primes):
    got = frobenius_charpolys(module, primes)
    assert [cp.prime for cp in got] == list(primes)
    for cp in got:
        want = charpoly_linear_system(module, cp.prime)
        assert cp == want, format_poly(cp.prime)
        assert cp.epsilon == want.epsilon


@SETTINGS
@given(q=st.sampled_from([3, 4, 5, 7, 8, 9]), r=st.sampled_from([3, 5]),
       d=st.integers(1, 2), data=st.data())
def test_default_family_matches_linear_system(q, r, d, data):
    # q = 4, 9 (e = 2) and 8 (e = 3): canonical residue fields, first root as T bar
    module = DrinfeldModule.default_family(_base(q), r)
    primes = _good_primes(module, d)
    chosen = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=6, unique=True))
    _assert_matches_linear_system(module, chosen)


def _coeff_text(q):
    # a polynomial of degree <= 2 in the --coeffs syntax; at q = 9 the
    # syntax writes constants of F_3 only
    c = st.integers(0, split_prime_power(q)[0] - 1)
    return st.tuples(c, c, c).map(lambda t: f"{t[2]}*T^2+{t[1]}*T+{t[0]}")


@SETTINGS
@given(q=st.sampled_from([3, 5, 9]), r=st.sampled_from([1, 2, 3]), data=st.data())
def test_custom_modules_match_linear_system(q, r, data):
    # prime ranks (and 1): the oracle's bounded system is then unique
    base = _base(q)
    texts = [data.draw(_coeff_text(q)) for _ in range(r)]
    g = [parse_poly(t, base) for t in ["T"] + texts]
    if not g[-1]:
        g[-1] = SparsePoly.one(base)
    module = DrinfeldModule(base, g)
    for d in (1, 2):
        _assert_matches_linear_system(module, _good_primes(module, d))


def test_three_methods_agree_at_q5():
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    ell = parse_poly("T+3", base)
    primes = [f for d in (1, 2) for f in _good_primes(module, d) if f != ell]
    for cp in frobenius_charpolys(module, primes):
        via_motive = [c.to_int() for c in cp.reduce_mod(ell)]
        via_system = [c.to_int() for c in charpoly_linear_system(module, cp.prime).reduce_mod(ell)]
        via_torsion = [c.to_int() for c in charpoly_mod_l(module, cp.prime, ell)]
        assert via_motive == via_system == via_torsion, format_poly(cp.prime)


def test_input_order_across_degrees():
    base = make_field(7, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    primes = _good_primes(module, 2)[:5] + _good_primes(module, 1) + _good_primes(module, 3)[:4]
    primes = primes[::-1]
    _assert_matches_linear_system(module, primes)


def _some_primes(base, d, count, seed):
    """`count` monic primes of degree d, drawn at random by a seeded
    generator: no enumeration of the degree."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        coeffs = rng.integers(0, base.order, size=d).tolist() + [1]
        f = SparsePoly(base, [(j, base.from_int(c)) for j, c in enumerate(coeffs) if c])
        if f not in found and is_irreducible(f):
            found.append(f)
    return found


@pytest.mark.parametrize("q,r,d", [(7, 3, 5), (9, 3, 4), (11, 5, 4), (5, 3, 7)])
def test_motive_matrix_keeps_only_the_present_t_degrees(monkeypatch, q, r, d):
    # the default family's M has T-degree ceil(d/r), reached at some prime
    base = _base(q)
    module = DrinfeldModule.default_family(base, r)
    seen = []
    motive_matrix = charpoly_mod._motive_matrix

    def spy(*args):
        seen.append(motive_matrix(*args))
        return seen[-1]

    monkeypatch.setattr(charpoly_mod, "_motive_matrix", spy)
    charpolys_of_degree(module, coordinates(base, _some_primes(base, d, 24, seed=d), d))
    (M,) = seen
    assert M.shape[3] == -(-d // r) + 1
    assert M[:, :, :, -1].any()


@pytest.mark.parametrize("q,r,texts,degrees", [
    (5, 3, None, (4, 5, 6)),
    (9, 3, None, (4, 5)),  # d = 6 spends 16 s finding the residue fields
    (7, 5, None, (4, 5, 6)),
    (5, 3, ["2*T^2+T+3", "T+4", "3*T^2+1"], (4, 5, 6)),  # every g_i nonzero
])
def test_motive_route_matches_linear_system_at_higher_degree(q, r, texts, degrees):
    base = _base(q)
    if texts is None:
        module = DrinfeldModule.default_family(base, r)
    else:
        module = DrinfeldModule(base, [parse_poly(t, base) for t in ["T"] + texts])
        assert module.r == r and all(module.g)
    for d in degrees:
        _assert_matches_linear_system(module, _some_primes(base, d, 2, seed=d))


def test_sweep_over_several_chunks_keeps_prime_order(monkeypatch):
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    ell = parse_poly("T+4", base)
    monkeypatch.setattr(sampling_mod, "CHARPOLY_CHUNK", 16)  # degree 3 has 40 primes
    seen = []
    report = sample_frobenii(module, ell, 3, progress=lambda *call: seen.append(call))
    expected = [f for d in (1, 2, 3) for f in primes_of_degree(base, d)
                if f != SparsePoly.T(base) and f != ell]
    assert [rec.prime for rec in report.records] == expected
    # one call per chunk: (degree, primes done, usable primes of every degree)
    assert seen == [(1, 3, 53), (2, 13, 53), (3, 29, 53), (3, 45, 53), (3, 53, 53)]
    for rec in report.records:
        want = charpoly_linear_system(module, rec.prime).reduce_mod(ell)[:3]
        assert list(rec.charpoly) == want
        assert rec.det_ok


@pytest.mark.parametrize("g_r,first_bad", [("T^2+3*T+2", "T+1"), ("T^2+2", "T^2+2")])
def test_bad_prime_named_in_enumeration_order(g_r, first_bad):
    # T^2+3T+2 = (T+1)(T+2) over F_5; T^2+2 is prime
    base = make_field(5, 1, 1)
    module = DrinfeldModule(base, [parse_poly(t, base) for t in ("T", "0", "1", g_r)])
    with pytest.raises(SamplingError, match=f"bad reduction at {re.escape(first_bad)}$"):
        sample_frobenii(module, parse_poly("T+4", base), 2)


def _corrupt(monkeypatch, index, t_degree, coord, row=slice(None), delta=1):
    """Add delta to coordinates `coord` of one charpoly coefficient out of
    Berkowitz, at the given rows of the batch."""
    berkowitz = charpoly_mod._berkowitz

    def corrupted(fb, M, width):
        out = berkowitz(fb, M, width)
        out[index] = out[index].copy()
        out[index][row, t_degree, coord] = (out[index][row, t_degree, coord] + delta) % fb.p
        return out

    monkeypatch.setattr(charpoly_mod, "_berkowitz", corrupted)


@pytest.mark.parametrize("index,t_degree,coord,message", [
    (1, 0, 0, "residual identity fails"),          # a_1 + 1: passes every other check
    (3, 0, 0, "a_r differs from epsilon[*]p"),
    (2, 0, 1, "a_2 has a coefficient outside F_q"),
])
def test_corrupted_coefficient_is_caught(monkeypatch, index, t_degree, coord, message):
    base = make_field(7, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    primes = _good_primes(module, 3)[:4]
    _corrupt(monkeypatch, index, t_degree, coord)
    with pytest.raises(CharPolyError, match=f"{message} at {re.escape(format_poly(primes[0]))}$"):
        frobenius_charpolys(module, primes)


@pytest.mark.parametrize("q,r,index,t_degree,k", [
    (9, 3, 1, 0, 1),   # alpha added to a_1: the alpha-twisted digit
    (9, 3, 2, 1, 1),   # alpha T added to a_2
    (11, 5, 1, 0, 0),  # rank 5: g_0 and g_4 are the only nonzero g_i below g_5
    (11, 5, 4, 1, 0),
])
def test_corrupted_digit_is_caught(monkeypatch, q, r, index, t_degree, k):
    # the corrupted a_i stays in F_q[T] within its degree bound, so only the
    # residual identity can catch it, and only at the corrupted row
    base = _base(q)
    module = DrinfeldModule.default_family(base, r)
    primes = _good_primes(module, 2)[:6]
    alpha_k = ResidueBatch(base, coordinates(base, primes, 2)).embed[:, k]
    _corrupt(monkeypatch, index, t_degree, slice(None), row=3, delta=alpha_k)
    with pytest.raises(CharPolyError,
                       match=f"residual identity fails at {re.escape(format_poly(primes[3]))}$"):
        frobenius_charpolys(module, primes)


def test_stacked_sums_stay_exact_at_their_worst_case():
    # every entry p - 1: a companion column sums (live columns + the T e_0
    # term) * n = 15 or 10 products of residues, the residual combination
    # d + 1 = 10 per digit, where an int64 sum holds 9
    p, n, r, d = 1_000_000_007, 5, 3, 9
    assert dtype_products(p, np.int64) == 9

    def full(*shape):
        return np.full(shape, p - 1, dtype=np.int64)

    for live in ([0, 2], [1]):
        M, u, c = full(2, r, 2, r, n), full(2, n, n), full(2, len(live) * n, n)
        got = charpoly_mod._companion_column(M, u, c, live, p)
        M, u, c = M.astype(object), u.astype(object), c.astype(object)
        want = np.zeros((2, r, 3, n), dtype=object)
        for t, i in enumerate(live):
            want[:, :, :-1] += M[:, :, :, i] @ c[:, None, t * n : (t + 1) * n]
        want[:, :, 1:] += M[:, :, :, 0] @ u[:, None]
        assert np.array_equal(got, want % p), live

    # e = 2 in a field of degree 5, alpha with every coordinate p - 1
    fb = FieldBatch(p, [[2, 1, 0, 0, 0, 1]])
    powers = [full(1, j * r + 1, n) for j in range(d + 1)]
    digits, embed = full(1, r, d + 1, 2), full(n, 2)
    embed[:, 0] = np.eye(n, dtype=np.int64)[0]
    got = charpoly_mod._phi_of(fb, powers, digits, embed)
    assert np.array_equal(got, _phi_of_reference(fb, powers, digits, embed))


def _phi_of_reference(fb, powers, digits, embed):
    """`_phi_of` on Python ints, every (row, i, j, k) summed: the digit
    a_ijk times phi_(T^j) times alpha^k."""
    batch, r, width, e = digits.shape
    want = np.zeros((batch, r, powers[-1].shape[1], fb.n), dtype=object)
    for k in range(e):
        alpha = fb.mul_matrix(np.broadcast_to(embed[:, k], (batch, fb.n))).astype(object)
        for b in range(batch):
            for i in range(r):
                for j, P in enumerate(powers):
                    P = P[b].astype(object)
                    want[b, i, : P.shape[0]] += int(digits[b, i, j, k]) * (P @ alpha[b].T)
    return want % fb.p


@pytest.mark.parametrize("row,i,j,k", [(1, 2, 0, 0), (0, 0, 4, 1), (2, 1, 3, 0), (1, 2, 4, 1)])
def test_a_single_nonzero_digit_is_summed(row, i, j, k):
    # one (row, i) has a digit at T^j, every other digit there is 0: the
    # rows before i are left out of that sum, and nothing is lost by it
    p, n, r, d = 7, 5, 3, 4
    fb = FieldBatch(p, [[2, 1, 0, 0, 0, 1]])
    rng = np.random.default_rng(row * 1000 + i * 100 + j * 10 + k)
    powers = [rng.integers(0, p, size=(3, t * r + 1, n)) for t in range(d + 1)]
    embed = np.stack([np.eye(n, dtype=np.int64)[0], rng.integers(0, p, size=n)], axis=1)
    digits = np.zeros((3, r, d + 1, 2), dtype=np.int64)
    digits[row, i, j, k] = 5
    digits[:, :, d, 0] = rng.integers(0, p, size=(3, r))  # other powers stay dense
    got = charpoly_mod._phi_of(fb, powers, digits, embed)
    assert np.array_equal(got, _phi_of_reference(fb, powers, digits, embed))
    assert got[row, i].any()


def test_linear_system_refuses_an_ambiguous_system(monkeypatch):
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    solve = charpoly_mod.linalg.solve_mod_p
    monkeypatch.setattr(charpoly_mod.linalg, "solve_mod_p",
                        lambda *a: (solve(*a)[0], 1))
    with pytest.raises(CharPolyError, match=r"ambiguous Frobenius system at T\+3$"):
        charpoly_linear_system(module, parse_poly("T+3", base))


def test_linear_system_checks_its_solution_by_the_residual_identity(monkeypatch):
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    solve = charpoly_mod.linalg.solve_mod_p

    def perturbed(*a):
        x, nullity = solve(*a)
        x = x.copy()
        x[0] = (x[0] + 1) % 5
        return x, nullity

    monkeypatch.setattr(charpoly_mod.linalg, "solve_mod_p", perturbed)
    with pytest.raises(CharPolyError, match=r"residual identity fails at T\+3$"):
        charpoly_linear_system(module, parse_poly("T+3", base))


@pytest.mark.parametrize("p,products,texts", [
    (2**31 - 1, 2, ["T^2+3*T+1", "T^2+1", "T^2+2", "T^2+4"]),
    (1_000_000_007, 9, ["T^2+3*T+1", "T^2+T+3", "T^2+1", "T^2+2"]),
])
@pytest.mark.parametrize("coeffs", [None, "T;288545019*T+1222356006;1819850096*T+1722851097;"
                                          "1640193507*T+135520873"])
def test_large_p_degree_two_agrees_with_linear_system(p, products, texts, coeffs):
    # an int64 sum holds `products` products of residues here, too few for
    # the unreduced sums of the kernel, so they must be reduced as they go;
    # the dense coefficients make the residual's sums large as well
    assert dtype_products(p, np.int64) == products
    base = make_field(p, 1, 1)
    if coeffs is None:
        module = DrinfeldModule.default_family(base, 3)
    else:
        module = DrinfeldModule(base, [parse_poly(c, base) for c in coeffs.split(";")])
    primes = [parse_poly(t, base) for t in texts]
    assert frobenius_charpolys(module, primes) == [
        charpoly_linear_system(module, f) for f in primes]


def test_boundary_prime_of_the_int64_guard():
    # p = 3037000493 is the largest prime with (p-1)^2 inside int64
    base = make_field(3037000493, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    prime = parse_poly("T+1", base)
    (cp,) = frobenius_charpolys(module, [prime])
    assert cp.a == (SparsePoly.one(base), SparsePoly.zero(base), -prime)
