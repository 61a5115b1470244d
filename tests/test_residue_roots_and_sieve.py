"""Residue fields and prime enumeration over F_q, q = p^e with e > 1.

T bar is the first root of the prime in index order inside the canonical
F_{p^(e*d)}, and the primes of degree d come out in index order.  Both are
checked here against brute force written out in the test.
"""

import itertools

import numpy as np
import pytest

import drinfeld.fields as fields
import drinfeld.polynomials as polynomials
from drinfeld import (
    FieldElement,
    PrimeError,
    SparsePoly,
    make_field,
    necklace_count,
    primes_of_degree,
    residue_field,
)
from drinfeld.fields import Field
from drinfeld.polynomials import ResidueBatch, _digits, _is_irreducible, coordinates


def embedding(fld, base):
    """F_q -> fld: coordinates over the powers of the embedded generator."""
    alpha = fld.elem(fld.base_embedding()[:, 1].tolist())
    pows = [fld.one]
    for _ in range(base.n - 1):
        pows.append(pows[-1] * alpha)

    def embed(c):
        acc = fld.zero
        for digit, pw in zip(c.coords, pows):
            acc = acc + pw * digit
        return acc

    return embed


def brute_first_root(prime):
    """Index of the first element of the canonical residue field at which
    the prime vanishes, by evaluating at every element in index order."""
    base = prime.base
    fld = make_field(base.p, base.e, prime.degree)
    embed = embedding(fld, base)
    coeffs = [embed(prime.coeff(i)) for i in range(prime.degree + 1)]
    for k, x in enumerate(fld.elements()):
        acc = fld.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        if not acc:
            return k
    raise AssertionError("no root")


def reference_primes(base, d, stride=1):
    """Monic irreducibles of degree d with index divisible by `stride`, by
    enumerating every candidate and testing it on its own."""
    q = base.q
    out = []
    for k, combo in enumerate(itertools.product(range(q), repeat=d)):
        if k % stride:
            continue
        # the last coefficient varies fastest in product order, so
        # reversing makes the constant term vary fastest: candidate k
        coeffs = combo[::-1]
        f = SparsePoly(base, [(i, base.from_int(c)) for i, c in enumerate(coeffs) if c]
                       + [(d, base.one)])
        if _is_irreducible(f):
            out.append(f)
    return out


def poly_index(f):
    q = f.base.q
    return sum(c.to_int() * q**i for i, c in f.terms if i < f.degree)


# (p, e, largest d): p = 2 at q = 4 and 8, e = 3 at q = 8 and 27
ROOT_CASES = [(2, 2, 3), (2, 3, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2)]


@pytest.mark.parametrize("p,e,dmax", ROOT_CASES)
def test_t_bar_is_first_root_in_index_order(p, e, dmax):
    base = make_field(p, e, 1)
    for d in range(1, dmax + 1):
        primes = primes_of_degree(base, d)
        step = max(1, len(primes) // 12)
        for prime in primes[::step] + [primes[-1]]:
            rf = residue_field(prime)
            assert rf.field is make_field(p, e, d)
            assert rf.t_image.to_int() == brute_first_root(prime)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 3)])
def test_base_embedding_matches_generator_powers(p, e):
    base = make_field(p, e, 1)
    prime = primes_of_degree(base, 2)[0]
    rf = residue_field(prime)
    embed = embedding(rf.field, base)
    for c in base.elements():
        assert rf.embed_base(c) == embed(c)


def test_root_past_the_first_block(monkeypatch):
    base = make_field(3, 2, 1)
    primes = primes_of_degree(base, 2)
    roots = [brute_first_root(f) for f in primes]
    prime = primes[max(range(len(primes)), key=roots.__getitem__)]
    block = 5  # 81 elements: 17 blocks, the last one short
    assert max(roots) >= 3 * block and max(roots) % block
    monkeypatch.setattr(fields, "_ROOT_BLOCK", block)
    rf = residue_field.__wrapped__(prime)  # past the cache: no T bar found earlier
    assert rf.t_image.to_int() == max(roots)
    assert not rf.reduce(prime)


@pytest.fixture
def colliding_ids(monkeypatch):
    """Every field gets id 0, as a freed field's address can go to the
    next field made: no table may be keyed by it."""
    monkeypatch.setattr(polynomials, "id", lambda x: 0, raising=False)


def test_prime_tables_of_a_freed_field_never_reach_another(colliding_ids):
    assert len(primes_of_degree(Field(5, 1, 1, (0, 1)), 2)) == 10  # fills both tables
    seven = Field(7, 1, 1, (0, 1))
    assert len(polynomials.prime_coordinates(seven, 2)) == 21
    primes = primes_of_degree(seven, 2)
    assert len(primes) == 21 and all(f.base is seven for f in primes)


def test_root_tables_of_a_freed_field_never_reach_another(colliding_ids):
    assert len(polynomials._first_roots(Field(3, 2, 1, (1, 0, 1)), 2)) == 81
    assert len(polynomials._first_roots(Field(5, 2, 1, (2, 0, 1)), 2)) == 625


def test_no_root_is_a_named_error():
    # a quadratic times a cubic has no root in F_(q^5): 2 and 3 do not divide 5
    base = make_field(2, 2, 1)
    quintic = primes_of_degree(base, 2)[0] * primes_of_degree(base, 3)[0]
    with pytest.raises(PrimeError, match="no root"):
        ResidueBatch(base, coordinates(base, [quintic], 5))


def test_reducible_generator_is_a_named_error():
    base = make_field(3, 2, 1)
    t = SparsePoly.T(base)
    with pytest.raises(PrimeError, match="monic irreducible"):
        residue_field(t * t + t)


# (q, largest d checked list for list, strided d): the full pure-Python
# reference at q = 25, 27 and d = 3 takes tens of seconds, so there every
# 13th candidate is checked instead
SIEVE_CASES = [((2, 2), 4, None), ((3, 2), 3, None), ((5, 2), 2, 3), ((3, 3), 2, 3)]


@pytest.mark.parametrize("pe,dmax,strided", SIEVE_CASES)
def test_sieve_matches_candidate_enumeration(pe, dmax, strided):
    base = make_field(*pe, 1)
    for d in range(1, dmax + 1):
        primes = primes_of_degree(base, d)
        assert primes == reference_primes(base, d)
        assert len(primes) == necklace_count(base.q, d)
    if strided:
        primes = primes_of_degree(base, strided)
        assert len(primes) == necklace_count(base.q, strided)
        assert [f for f in primes if poly_index(f) % 13 == 0] == reference_primes(base, strided, 13)


def test_sieve_order_and_coefficients():
    base = make_field(2, 3, 1)
    for d in (1, 2, 3):
        primes = primes_of_degree(base, d)
        assert len(primes) == necklace_count(8, d)
        idx = [poly_index(f) for f in primes]
        assert idx == sorted(idx)
        for f in primes:
            assert f.is_monic() and f.degree == d
            assert all(isinstance(c, FieldElement) and c.field is base for _, c in f.terms)


def test_digits_past_the_int64_powers_of_p():
    # 2^63 does not fit in int64: the digits of small indices must still
    # come out right, all zero above their top digit
    ks = np.arange(5000, dtype=np.int64)
    got = _digits(ks, 2, 70)
    want = [[(k >> j) & 1 for j in range(70)] for k in range(5000)]
    assert got.tolist() == want
