"""The batched motive-matrix route against its oracles, and its own checks."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drinfeld.charpoly as charpoly_mod
import drinfeld.sampling as sampling_mod
from drinfeld.charpoly import (
    CharPolyError,
    charpoly_linear_system,
    charpoly_mod_l,
    frobenius_charpolys,
)
from drinfeld.fields import make_field
from drinfeld.polynomials import SparsePoly, format_poly, parse_poly, primes_of_degree
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


def test_sweep_over_several_chunks_keeps_prime_order(monkeypatch):
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    ell = parse_poly("T+4", base)
    monkeypatch.setattr(sampling_mod, "CHARPOLY_CHUNK", 16)  # degree 3 has 40 primes
    seen = []
    report = sample_frobenii(module, ell, 3, progress=seen.append)
    expected = [f for d in (1, 2, 3) for f in primes_of_degree(base, d)
                if f != SparsePoly.T(base) and f != ell]
    assert [rec.prime for rec in report.records] == expected
    assert seen == report.records
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


def _corrupt(monkeypatch, index, t_degree, coord):
    """Add 1 to one coordinate of one charpoly coefficient out of Berkowitz."""
    berkowitz = charpoly_mod._berkowitz

    def corrupted(fb, M):
        out = berkowitz(fb, M)
        out[index] = out[index].copy()
        out[index][:, t_degree, coord] = (out[index][:, t_degree, coord] + 1) % fb.p
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


def test_linear_system_refuses_an_ambiguous_system(monkeypatch):
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    solve = charpoly_mod.linalg.solve_mod_p
    monkeypatch.setattr(charpoly_mod.linalg, "solve_mod_p",
                        lambda *a: (solve(*a)[0], 1))
    with pytest.raises(CharPolyError, match=r"ambiguous Frobenius system at T\+3$"):
        charpoly_linear_system(module, parse_poly("T+3", base))


def test_boundary_prime_of_the_int64_guard():
    # p = 3037000493 is the largest prime with (p-1)^2 inside int64
    base = make_field(3037000493, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    prime = parse_poly("T+1", base)
    (cp,) = frobenius_charpolys(module, [prime])
    assert cp.a == (SparsePoly.one(base), SparsePoly.zero(base), -prime)
