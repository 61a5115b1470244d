"""Golden values of the reduction map A -> A/(p), T |-> T bar.

Each digest pins the definition of a residue field itself, so that a new
route to it has to reproduce the old one byte for byte:

- per prime (`residue_field`): the modulus, T bar, the image of the F_q
  generator and the reduction of one fixed sparse polynomial with an
  exponent beyond 10^5;
- per degree (`ResidueBatch` over every prime of it): T bar, the F_q
  embedding and the reduction rows x^n mod f, which determine the moduli.

The digests were recorded from the implementation that built a residue
field by hand per prime (`make_field` or the prime itself as modulus, the
`Field.first_root` scan for e > 1) and a batch from the per-degree root
table.
"""

import hashlib
import json

import pytest

from drinfeld.fields import make_field
from drinfeld.polynomials import (
    ResidueBatch,
    SparsePoly,
    prime_coordinates,
    primes_of_degree,
    residue_field,
)

# (p, e, d): q = 3, 5, 7 and the e = 2 fields F_4, F_9 up to degree 3, and
# degree 4 at q = 4
CASES = [(p, e, d) for p, e in [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]
         for d in (1, 2, 3)] + [(2, 2, 4)]

PER_PRIME = {
    (3, 1, 1): "00722c363e0c4350e1f18fa2c45aff9c20ac574e3627e6ae843d721da8f0fd87",
    (3, 1, 2): "5b09f50eafea4d1e4e97d3f64ae3ba2a2dd0f2b8246b0541256f2a14804028c5",
    (3, 1, 3): "e7dfcccf1d8b52e546b71f18f9198bbe29d43a02441be4b8adf42308b554839c",
    (5, 1, 1): "65b4eabc8eb08bef13a16a0379a53117823a0d8d899b4a717caefa1ca320fe10",
    (5, 1, 2): "4b2ad6ba7cfa35d86b841a1574fe1fdcab15ff590ea7803c49e48ef0f63f239c",
    (5, 1, 3): "0720169e9ac49b6b736caab3369e1cd534752b151a780e854297a9ee2a28e6d0",
    (7, 1, 1): "ec32cda8b11ae3426d6757ce1a08853fd49cc704c43582baf69135b94e7e9234",
    (7, 1, 2): "1b5fb130d134ded7ab4e8e8e647a143da022da05592d0fa0e87b1ff4401dd6b4",
    (7, 1, 3): "a9496c57b96f16294f10dac2b150b096696bd00227e10a7f809b2f32f533c692",
    (2, 2, 1): "dd76df0935124baf3cb239093c72623cf2c4f0947f69b8e707d14133105f2a9b",
    (2, 2, 2): "a142d497f4429a14b6ed4a1966d2b33eade6bf18b16245b653261af1d780a4a6",
    (2, 2, 3): "bd9bb0bcc8d83521567e590dce29ec9bb0b74cca7c44b58337b70d107e2073df",
    (3, 2, 1): "a19c9001857852e486018e7e36ad3383d8b579bdff0c5e64be9bb9f6dba6e6df",
    (3, 2, 2): "29da5651a72989a59c2bbddcd7563ada8c792664aaca6b14f2d764ffe4565594",
    (3, 2, 3): "36e4ee9e9cc30167c26beb6676a858122c5dc71fc0312986fced70368a8331bc",
    (2, 2, 4): "dc0c12d554971cbcaa622eefbb4cd2c473faf76d027e0b11a36c99ff7397d0b1",
}

PER_DEGREE = {
    (3, 1, 1): "5294efa724f793bdded6fa91ecab6ca6f0ceaa1f956102bd68621224aced5c5e",
    (3, 1, 2): "338a8889a5a0842b43d46ac44dc8baffbaef1b4daa3a58045a8b364b73c56d20",
    (3, 1, 3): "acfdc99284882158749d0111a57751eba1ba39c18a07fa2313c1224607f5fd79",
    (5, 1, 1): "be4a8392314fdb1557a636e48fc645ecb52d1f1641bc9c109ece9b7e021b5bfc",
    (5, 1, 2): "262af6b0a0b19589836d9aa3b2c217b26587477da2aef0ebfbea75853c601eca",
    (5, 1, 3): "62083532f7ddd41bc194adda4ef412febbc6066fb00a23441619b99c1ab44794",
    (7, 1, 1): "2cfcd01f768a4b971305f4b407f2ca29b047cbf4a9cecbb1e1580b5af3dce68a",
    (7, 1, 2): "f6bb634421dff35582342efc71d88200628ba1f53ce6467e2c0836171f8633a0",
    (7, 1, 3): "5ed9497ada5cbe93ff09d7c94ba46754b7aca597fd60a9d374c5bdbe3d34fa79",
    (2, 2, 1): "1a8c79f55d994a0f45d4694ccb5b70d13c3aa322f8298f3094d5077b119d308b",
    (2, 2, 2): "f2ca6d26b7333a832486bb26be8b8eae8b0b6c7d74562cd85ab187f61bc82819",
    (2, 2, 3): "83ea8bf9cd93061f3cd27ce67f39c36e9a6bae6acb38c736ba9d782bda4d4d68",
    (3, 2, 1): "422b2404be1fb1f56cdee168956a83cf3cef0aeff633bed8f844293b3e370f26",
    (3, 2, 2): "1f1db6b970c65b39c303b50ec75d10af41de4158420d2b76e7aa5544a9580a03",
    (3, 2, 3): "c8b6e62e25f08045d31aa6eee198dda8ea22394c74617b2fb10b7fe6df632dd5",
    (2, 2, 4): "ee89740982bb0864aa6bdca27f8ab3e12811dca1e943ccff07481d8a7eb37ce6",
}


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def probe(base) -> SparsePoly:
    """A fixed sparse polynomial: T^100003 + c T^7 + c' T^2 + c''."""
    q = base.q
    return SparsePoly(base, [(100_003, base.one), (7, base.from_int(q - 1)),
                             (2, base.from_int(min(2, q - 1))), (0, base.from_int(q // 2))])


@pytest.mark.parametrize("p,e,d", CASES)
def test_residue_field_of_every_prime(p, e, d):
    base = make_field(p, e, 1)
    f = probe(base)
    out = []
    for prime in primes_of_degree(base, d):
        rf = residue_field(prime)
        out.append([list(rf.field.modulus), list(rf.t_image.coords),
                    list(rf.embed_base(base.gen).coords), list(rf.reduce(f).coords)])
    assert digest(out) == PER_PRIME[p, e, d]


@pytest.mark.parametrize("p,e,d", CASES)
def test_residue_batch_of_every_degree(p, e, d):
    base = make_field(p, e, 1)
    residues = ResidueBatch(base, prime_coordinates(base, d))
    out = [residues.t_bar.tolist(), residues.embed.tolist(), residues.fb.red(1).tolist()]
    assert digest(out) == PER_DEGREE[p, e, d]
