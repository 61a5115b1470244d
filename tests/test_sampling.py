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
)
from drinfeld.skew import DrinfeldModule

F3 = make_field(3, 1, 1)
F5 = make_field(5, 1, 1)
F7 = make_field(7, 1, 1)


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
