import hashlib
import random

import pytest

from drinfeld.fields import make_field
from drinfeld.polynomials import (
    SparsePoly,
    is_irreducible,
    parse_poly,
    primes_of_degree,
    residue_field,
)
from drinfeld.sampling import (
    CONSISTENT,
    FLAGGED,
    INCONCLUSIVE_NOTE,
    SampleRecord,
    SampleReport,
    SamplingError,
    gl_charpoly_distribution,
    gl_order,
    noise_bound,
    sample_frobenii,
    surjectivity_evidence,
    tv_distance,
    _irreducible_keys,
)
from drinfeld.skew import DrinfeldModule

F3 = make_field(3, 1, 1)
F5 = make_field(5, 1, 1)
F7 = make_field(7, 1, 1)


# Backend B before the centralizer formula hand-counted the r <= 3 shapes;
# these are the first 16 hex digits of the sha256 of repr(sorted(counts.items()))
# of its counts for r = 1, 2, 3, recorded from that implementation.
B_GOLDEN = {
    "2": ("748268a0190b1d5f", "e6837776121e5db3", "0a77a6670f188969"),
    "3": ("62f4217fb8c07f95", "3cf8ff8f70f8cc9e", "a4972bd460c0fedb"),
    "4": ("18ac95eeedf264cf", "7d31b7cb1b133389", "0dd8518fd695e70f"),
    "5": ("0db008e646e0cf6b", "2ace3dd4fee7f506", "46fc216af325879f"),
    "7": ("a4e50e16b812208a", "e0b8b942e0ad506c", "89ef8a3f6170c8af"),
    "8": ("e426ed930a6587df", "cbf0cc4a57bd9875", "e3dbbd3b5030260d"),
    "9": ("0adbec78ad2f3f02", "79fa9ecbb0022f8d", "3667601e342fe20b"),
    "9m": ("0adbec78ad2f3f02", "79fa9ecbb0022f8d", "3667601e342fe20b"),
    "25": ("aa80ecccd12fafb5", "51ff24a2d21a7d0f", "8baa1519d28e1722"),
}


def _golden_field(name):
    return {
        "2": make_field(2, 1, 1), "3": F3, "4": make_field(2, 2, 1), "5": F5, "7": F7,
        "8": make_field(2, 3, 1), "9": make_field(3, 2, 1),
        "9m": residue_field(parse_poly("T^2+1", F3)).field,  # F_3[T]/(T^2+1), m = 2
        "25": residue_field(parse_poly("T^2+2", F5)).field,  # F_5[T]/(T^2+2), m = 2
    }[name]


class TestGLDistribution:
    def test_rank_one_uniform(self):
        dist = gl_charpoly_distribution(1, F7)
        assert dist.counts == {(c,): 1 for c in range(1, 7)}

    def test_f3_total_is_11232(self):
        dist = gl_charpoly_distribution(3, F3, backend="A")
        assert dist.total == 11232 == gl_order(3, 3)

    def test_backends_agree_exactly_at_f3(self):
        a = gl_charpoly_distribution(3, F3, backend="A")
        b = gl_charpoly_distribution(3, F3, backend="B")
        assert a.counts == b.counts

    def test_backends_agree_rank_two(self):
        a = gl_charpoly_distribution(2, F5, backend="A")
        b = gl_charpoly_distribution(2, F5, backend="B")
        assert a.counts == b.counts
        assert a.total == gl_order(5, 2)

    def test_f5_irreducible_fraction_near_third(self):
        dist = gl_charpoly_distribution(3, F5, backend="A")
        mass = 0
        for key, cnt in dist.counts.items():
            poly = SparsePoly(F5, [(i, F5.scalar(c)) for i, c in enumerate(key) if c]
                              + [(3, F5.one)])
            if is_irreducible(poly):
                mass += cnt
        assert abs(mass / dist.total - 1 / 3) < 0.02

    def test_budget_guard(self):
        with pytest.raises(SamplingError):
            gl_charpoly_distribution(3, F7, backend="A", budget=1000)

    def test_backend_b_over_extension_field(self):
        fld = residue_field(parse_poly("T^2+2", F5)).field  # F_25
        dist = gl_charpoly_distribution(3, fld, backend="B")
        assert dist.total == gl_order(25, 3)

    def test_backend_a_generic_small_extension(self):
        fld = residue_field(parse_poly("T^2+1", F3)).field  # F_9
        a = gl_charpoly_distribution(2, fld, backend="A")
        b = gl_charpoly_distribution(2, fld, backend="B")
        assert a.counts == b.counts

    @pytest.mark.parametrize("name", list(B_GOLDEN))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_backend_b_matches_recorded_counts(self, name, r):
        dist = gl_charpoly_distribution(r, _golden_field(name), backend="B")
        digest = hashlib.sha256(repr(sorted(dist.counts.items())).encode()).hexdigest()
        assert digest[:16] == B_GOLDEN[name][r - 1]

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_backend_b_total_is_gl_order(self, s, r):
        dist = gl_charpoly_distribution(r, make_field(s, 1, 1), backend="B")
        assert dist.total == gl_order(s, r)

    def test_backends_agree_rank_four_over_f2(self):
        fld = make_field(2, 1, 1)
        a = gl_charpoly_distribution(4, fld, backend="A")
        b = gl_charpoly_distribution(4, fld, backend="B")
        assert a.total == gl_order(2, 4)
        assert a.counts == b.counts

    def test_backend_b_keys_ascend(self):
        keys = list(gl_charpoly_distribution(3, F5, backend="B").counts)
        assert keys == sorted(keys)

    def test_backend_b_budget_guard(self):
        with pytest.raises(SamplingError):
            gl_charpoly_distribution(5, make_field(11, 1, 1), backend="B", budget=10**5)

    @pytest.mark.parametrize("fld,r", [(F3, 4), (F5, 3), (make_field(3, 2, 1), 2), (F7, 1)])
    def test_irreducible_keys_match_is_irreducible(self, fld, r):
        s = fld.order
        want = []
        for k in range(s**r):
            coeffs = [(k // s**i) % s for i in range(r)]
            poly = SparsePoly(fld, [(i, fld.from_int(c)) for i, c in enumerate(coeffs)]
                              + [(r, fld.one)])
            if coeffs[0] and is_irreducible(poly):
                want.append(k)
        assert sorted(_irreducible_keys(fld, r).tolist()) == want


class TestSampling:
    def test_degree_one_exact_values(self):
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)  # (T-1)
        report = sample_frobenii(D, ell, 1)
        assert len(report.records) == 5
        rf = residue_field(ell)
        for rec in report.records:
            want = rf.reduce(rec.prime)
            # closed form: x^3 + x^2 - p mod l
            assert [c.to_int() for c in rec.charpoly] == [(-want).to_int(), 0, 1]
            assert rec.det_ok

    def test_det_values_distinct_at_degree_one(self):
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)
        report = sample_frobenii(D, ell, 1)
        rf = residue_field(ell)
        dets = {rf.reduce(rec.prime).to_int() for rec in report.records}
        assert len(dets) == len(report.records) == 5

    def test_exclusions(self):
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)
        report = sample_frobenii(D, ell, 1)
        sampled = {tuple(rec.prime.terms) for rec in report.records}
        assert tuple(SparsePoly.T(F7).terms) not in sampled
        assert tuple(ell.terms) not in sampled

    def test_ell_equal_T_pipeline(self):
        # mod-(T) sampling: only (T) excluded, matrices live in GL_r(F_q)
        D = DrinfeldModule.default_family(5, 3)
        ell = SparsePoly.T(F5)
        report = sample_frobenii(D, ell, 2)
        assert len(report.records) == 4 + 10
        assert all(rec.det_ok for rec in report.records)

    def test_det_law_with_sign_other_than_one(self):
        # phi_T = T + tau + 2 tau^2: (-1)^r epsilon = 1 / Nr(2) != 1, so the
        # law is not det = p mod l; every record must still pass it
        D = DrinfeldModule(F5, [parse_poly(t, F5) for t in ("T", "1", "2")])
        report = sample_frobenii(D, parse_poly("T+3", F5), 3)
        assert len(report.records) == 53
        assert all(rec.det_ok for rec in report.records)
        _, reasons = surjectivity_evidence(report)
        assert "determinant law failed at some prime" not in reasons

    def test_tv_decreases_with_degree(self):
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)
        r2 = sample_frobenii(D, ell, 2)
        r3 = sample_frobenii(D, ell, 3)
        r4 = sample_frobenii(D, ell, 4)
        bound = noise_bound(r3.oracle, len(r3.records))
        assert r3.tv_distance <= r2.tv_distance + bound
        assert r4.tv_distance <= r3.tv_distance + noise_bound(r4.oracle, len(r4.records))

    def test_verdict_flagged_on_empty(self):
        D = DrinfeldModule.default_family(7, 3)
        oracle = gl_charpoly_distribution(3, residue_field(parse_poly("T+6", F7)).field)
        empty = SampleReport(D, parse_poly("T+6", F7), 0, [], oracle, 1.0, False, False)
        verdict, reasons = surjectivity_evidence(empty)
        assert verdict == FLAGGED
        assert "no samples" in reasons
        assert INCONCLUSIVE_NOTE in reasons

    def test_verdict_flagged_without_irreducibles(self):
        # negative control: records drawn from a reducible (upper-triangular)
        # subgroup never produce irreducible characteristic polynomials
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)
        rf = residue_field(ell)
        oracle = gl_charpoly_distribution(3, rf.field)
        rng = random.Random(0)
        records = []
        for k, prime in enumerate(primes_of_degree(F7, 2)):
            # charpoly of an upper-triangular matrix: (x-a)(x-b)(x-c)
            a, b, c = (rng.randrange(1, 7) for _ in range(3))
            c0 = (-a * b * c) % 7
            c1 = (a * b + a * c + b * c) % 7
            c2 = (-(a + b + c)) % 7
            coeffs = (rf.field.scalar(c0), rf.field.scalar(c1), rf.field.scalar(c2))
            records.append(SampleRecord(prime, 2, coeffs, True))
        emp = {}
        for rec in records:
            emp[rec.key()] = emp.get(rec.key(), 0) + 1
        report = SampleReport(D, ell, 2, records, oracle,
                              tv_distance(emp, len(records), oracle), False, True)
        verdict, reasons = surjectivity_evidence(report)
        assert verdict == FLAGGED
        assert any("irreducible" in r for r in reasons)
        assert INCONCLUSIVE_NOTE in reasons

    def test_verdict_consistent_path(self):
        # checked at full scale in the acceptance suite; here a fabricated
        # report exercising the passing branch
        D = DrinfeldModule.default_family(7, 3)
        ell = parse_poly("T+6", F7)
        rf = residue_field(ell)
        oracle = gl_charpoly_distribution(3, rf.field)
        total = oracle.total
        records = []
        primes = iter(primes_of_degree(F7, 3) + primes_of_degree(F7, 4))
        counts = {}
        for key, cnt in oracle.counts.items():
            n = round(cnt / total * 600)
            for _ in range(n):
                records.append(SampleRecord(next(primes), 3,
                                            tuple(rf.field.scalar(c) for c in key), True))
                counts[key] = counts.get(key, 0) + 1
        report = SampleReport(D, ell, 3, records, oracle,
                              tv_distance(counts, len(records), oracle), True, True)
        verdict, reasons = surjectivity_evidence(report)
        assert verdict == CONSISTENT
        assert reasons == []

    def test_warning_when_q_not_1_mod_r(self):
        D = DrinfeldModule.default_family(5, 3)  # 5 = 2 mod 3
        report = sample_frobenii(D, parse_poly("T+4", F5), 1)
        assert any("not 1 mod r" in w for w in report.warnings)

    def test_no_warning_when_hypothesis_holds(self):
        D = DrinfeldModule.default_family(7, 3)  # 7 = 1 mod 3
        report = sample_frobenii(D, parse_poly("T+6", F7), 1)
        assert report.warnings == []


class TestTV:
    def test_tv_zero_against_itself(self):
        dist = gl_charpoly_distribution(3, F3)
        assert tv_distance(dist.counts, dist.total, dist) == 0.0

    def test_tv_range(self):
        dist = gl_charpoly_distribution(3, F3)
        key = next(iter(dist.counts))
        assert 0 < tv_distance({key: 10}, 10, dist) <= 1.0
