"""The array route of the sweep against its scalar oracles: the batched
reduction against `reduce_mod` and `residue_field`, the mod-l keys and the
determinant law against `CharPoly.reduce_mod` and `det_law`."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drinfeld.reduction as reduction_mod
import drinfeld.sampling as sampling_mod
from drinfeld.charpoly import (
    CharPoly,
    charpoly_linear_system,
    charpolys_of_degree,
    det_law,
    frobenius_charpolys,
)
from drinfeld.fields import make_field
from drinfeld.polynomials import (
    ResidueBatch,
    SparsePoly,
    coordinates,
    parse_poly,
    prime_coordinates,
    primes_of_degree,
    residue_field,
)
from drinfeld.reduction import ReductionError, reduce_batch, reduce_mod
from drinfeld.sampling import _charpolys_mod_l, sample_frobenii
from drinfeld.skew import DrinfeldModule

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# (p, e): q = 3, 5, 7 and the e = 2 fields F_4, F_9
FIELDS = [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]


def _custom_poly(base, data, nonzero=False):
    """A sparse polynomial of up to three terms, one exponent beyond 10^5."""
    exps = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 100_003]), max_size=3, unique=True))
    terms = [(x, base.from_int(data.draw(st.integers(1, base.order - 1)))) for x in exps]
    if nonzero and not terms:
        terms = [(0, base.one)]
    return SparsePoly(base, terms)


def _module(base, r, data):
    if r % 2 and base.q >= 3 and data.draw(st.booleans()):
        return DrinfeldModule.default_family(base, r)
    g = [_custom_poly(base, data) for _ in range(r - 1)]
    return DrinfeldModule(base, [SparsePoly.T(base)] + g + [_custom_poly(base, data, nonzero=True)])


def _draw_primes(base, d, data, size=6):
    rows = prime_coordinates(base, d)
    return sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                     max_size=size, unique=True)))


@SETTINGS
@given(pe=st.sampled_from(FIELDS), r=st.sampled_from([2, 3, 5]), d=st.integers(1, 3),
       data=st.data())
def test_batched_reduction_matches_reduce_mod(pe, r, d, data):
    base = make_field(pe[0], pe[1], 1)
    module = _module(base, r, data)
    chosen = _draw_primes(base, d, data)
    residues, g = reduce_batch(module, prime_coordinates(base, d)[chosen])
    for b, k in enumerate(chosen):
        prime = primes_of_degree(base, d)[k]
        assert residues.t_bar[b].tolist() == list(residue_field(prime).t_image.coords)
        try:
            want = reduce_mod(module, prime).coeffs
        except ReductionError:  # every non-constant coefficient vanishes
            assert not g[b, 1:].any()
            continue
        assert g[b].tolist() == [list(c.coords) for c in want]


@SETTINGS
@given(pe=st.sampled_from(FIELDS), d=st.integers(1, 3), data=st.data())
def test_evaluate_matches_residue_field(pe, d, data):
    base = make_field(pe[0], pe[1], 1)
    chosen = _draw_primes(base, d, data, size=3)
    residues = ResidueBatch(base, prime_coordinates(base, d)[chosen])
    polys = [_custom_poly(base, data) for _ in chosen]
    dense = [SparsePoly.from_pairs(base, [(x % 5, c) for x, c in f.terms]) for f in polys]
    got = residues.evaluate(coordinates(base, dense, 4))
    for b, k in enumerate(chosen):
        rf = residue_field(primes_of_degree(base, d)[k])
        assert got[b].tolist() == list(rf.reduce(dense[b]).coords)
        assert residues.reduce(polys[b])[b].tolist() == list(rf.reduce(polys[b]).coords)


@SETTINGS
@given(pe=st.sampled_from(FIELDS), r=st.sampled_from([2, 3, 5]), d=st.integers(1, 3),
       deg_l=st.integers(1, 2), data=st.data())
def test_mod_l_keys_and_det_law_match_the_scalar_route(pe, r, d, deg_l, data):
    base = make_field(pe[0], pe[1], 1)
    module = _module(base, r, data)
    ell = data.draw(st.sampled_from(primes_of_degree(base, deg_l)))
    rows = prime_coordinates(base, d)
    chosen = _draw_primes(base, d, data)
    _, g = reduce_batch(module, rows[chosen])
    good = [k for k, gb in zip(chosen, g) if gb[-1].any() and primes_of_degree(base, d)[k] != ell]
    if not good:
        return
    a, eps = charpolys_of_degree(module, rows[good])
    at_ell = ResidueBatch(base, coordinates(base, [ell], deg_l))
    keys, dets, det_ok = _charpolys_mod_l(at_ell, rows[good], a, eps)
    cps = frobenius_charpolys(module, [primes_of_degree(base, d)[k] for k in good])
    for b, cp in enumerate(cps):
        assert keys[b].tolist() == [c.to_int() for c in cp.reduce_mod(ell)[:r]]
        det = cp.det_of_frobenius_mod(ell)
        assert dets[b] == det.to_int()
        assert det_ok[b] == (det == det_law(r, cp.epsilon, cp.prime, ell))
        assert det_ok[b]


def test_mod_l_flags_a_broken_determinant_law():
    base = make_field(5, 1, 1)
    module = DrinfeldModule.default_family(base, 3)
    rows = prime_coordinates(base, 2)[:4]
    a, eps = charpolys_of_degree(module, rows)
    at_ell = ResidueBatch(base, coordinates(base, [parse_poly("T+3", base)], 1))
    eps[1] = eps[1] * 2 % 5  # the law at the second prime now disagrees
    assert _charpolys_mod_l(at_ell, rows, a, eps)[2].tolist() == [True, False, True, True]


def test_sweep_at_q9_over_several_chunks_keeps_prime_order(monkeypatch):
    base = make_field(3, 2, 1)
    module = DrinfeldModule.default_family(base, 3)
    ell = parse_poly("T+1", base)
    monkeypatch.setattr(sampling_mod, "CHARPOLY_CHUNK", 8)  # degree 2 has 36 primes
    seen = []
    report = sample_frobenii(module, ell, 2, progress=seen.append)
    expected = [f for d in (1, 2) for f in primes_of_degree(base, d)
                if f != SparsePoly.T(base) and f != ell]
    assert [rec.prime for rec in report.records] == expected
    assert seen == report.records
    for rec in report.records:
        assert list(rec.charpoly) == charpoly_linear_system(module, rec.prime).reduce_mod(ell)[:3]
        assert rec.det_ok


def test_first_roots_across_several_scan_blocks():
    # F_(25^3) has 15625 elements, four blocks of the root scan
    base = make_field(5, 2, 1)
    residues = ResidueBatch(base, prime_coordinates(base, 3))
    late = np.flatnonzero(residues.t_bar @ 5 ** np.arange(6) >= 1 << 12)
    assert late.size
    for k in late[:8].tolist() + [0, 1]:
        want = residue_field(primes_of_degree(base, 3)[k]).t_image.coords
        assert residues.t_bar[k].tolist() == list(want)


def test_sweep_makes_no_per_prime_scalar_calls(monkeypatch):
    calls = []

    def count(owner, name):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: (calls.append(name), orig(*a, **k))[1])

    for owner, name in [(SparsePoly, "eval_in"), (CharPoly, "reduce_mod"),
                        (reduction_mod, "reduce_mod"), (sampling_mod, "residue_field")]:
        count(owner, name)
    base = make_field(5, 1, 1)
    report = sample_frobenii(DrinfeldModule.default_family(base, 3), parse_poly("T+4", base), 3)
    assert len(report.records) == 4 + 10 + 40 - 1
    assert calls == ["residue_field"]  # once, for l
