"""Identity registry, reports, and suite-level behavior."""

import json
from fractions import Fraction as F
from math import comb, factorial

import pytest

from test_golden import GOLDEN, _digest_doc
from triboconv import convolution, identity_catalog
from triboconv.convolution import _as_prefix
from triboconv.field import X, c_element, norm, trace
from triboconv.identity_catalog import (
    PRINTED,
    REGISTRY,
    RangeTooLarge,
    UnknownIdentity,
    identity_ids,
    verify,
    verify_all,
)


class TestSingleIdentities:
    def test_all_ids_registered(self):
        assert identity_ids() == sorted(
            [
                "P1", "P2", "T1", "L-CONST", "L2", "L7", "L8", "L9", "P3",
                "T2", "T2R", "T3", "T3R", "T4", "T4R",
                "GT2", "GT3", "GT4", "GT5", "S1", "S2", "S3", "GF",
            ]
        )

    @pytest.mark.parametrize(
        "identity", ["P1", "P2", "T1", "L2", "P3", "T2", "T2R", "GF"]
    )
    def test_expected_pass_small_ranges(self, identity):
        assert verify(identity, nmax=40).status == "pass"

    def test_t1_spot_value(self):
        report = verify("T1", nmax=5)
        first = report.checks[0]
        assert first.index == "n=5"
        assert first.lhs == "48"
        assert first.ok

    def test_p3_spot_value(self):
        report = verify("P3", nmax=2)
        assert report.checks[-1].index == "n=2"
        assert report.checks[-1].lhs == "2"

    def test_t2_default_parameter_sample(self):
        report = verify("T2", nmax=25)
        assert report.params == [{"D": "0"}, {"D": "1"}]
        assert report.status == "pass"

    def test_t2_parameter_override(self):
        report = verify("T2", nmax=20, params=[F(0), F(5, 3)])
        assert report.params == [{"D": "0"}, {"D": "5/3"}]
        assert report.status == "pass"

    def test_t3_runs_remark_and_generic_point(self):
        report = verify("T3", nmax=15)
        assert report.status == "pass"
        assert report.params[0] == {"D": "3", "E": "0", "G": "0", "H": "0"}
        assert len(report.params) == 2

    def test_t4_runs_remark_and_generic_point(self):
        report = verify("T4", nmax=12)
        assert report.status == "pass"
        assert report.params[0]["D"] == "15"
        assert len(report.params) == 2

    @pytest.mark.parametrize("identity", ["GT2", "GT3", "GT4", "GT5"])
    def test_gt_families(self, identity):
        assert verify(identity, nmax=2, mmax=25).status == "pass"

    def test_s1(self):
        assert verify("S1").status == "pass"


class TestKnownDiscrepancies:
    def test_s2_reports_both_evaluations(self):
        report = verify("S2", nmax=3)
        assert report.status == "known-discrepancy"
        failure = report.first_failure
        assert failure.index == "n=1,k=0,printed"
        assert failure.lhs == "3/484"
        assert failure.rhs == "1/160"  # 242 / (2^6 * 5 * 11^2)
        # the oracle-corrected candidate passes
        assert all(c.ok for c in report.checks)

    def test_s3_printed_table_flagged(self):
        report = verify("S3")
        assert report.status == "known-discrepancy"
        assert all(c.ok for c in report.checks)
        # n=1 printed row agrees, n=2..6 recorded as mismatches
        assert any(c.index == "n=1,printed" and c.ok for c in report.checks)
        assert [c.index for c in report.mismatches] == [
            f"n={n},printed" for n in range(2, 7)
        ]

    def test_s3_note_explains_the_discrepancy(self):
        assert "printed triples" in verify("S3").notes


class TestSpecializationConsistency:
    def test_gt2_at_n_one_matches_p3(self):
        gt = verify("GT2", nmax=1, mmax=40)
        p3 = verify("P3", nmax=40)
        gt_by_m = {c.index: c for c in gt.checks}
        p3_by_n = {c.index: c for c in p3.checks}
        for m in range(41):
            g, p = gt_by_m[f"n=1,m={m}"], p3_by_n[f"n={m}"]
            assert (g.lhs, g.rhs) == (p.lhs, p.rhs)


class TestFoldFailureStrings:
    """A failing fold check shows both sides as the reduced Fraction
    strings of an independent Fraction evaluation."""

    @staticmethod
    def _sides(m, a, b, c):
        # T2R with literals A, B, C: the terms are s3, e3 and s2*s1 of the
        # symmetric expansion, each read from traces in the field
        t = [trace(c_element() * X**k) for k in range(m + 1)]
        lhs = sum(
            F(factorial(m), factorial(i) * factorial(j) * factorial(m - i - j))
            * t[i] * t[j] * t[m - i - j]
            for i in range(m + 1) for j in range(m + 1 - i)
        )
        s3 = trace(c_element() ** 3 * (3 * X) ** m)
        s2s1 = sum(comb(m, k) * trace(c_element() ** 2 * (2 * X) ** k) * t[m - k] for k in range(m + 1))
        return lhs, a * s3 + b * norm(c_element()) + c * s2s1

    def test_wrong_literal_fails_with_exact_strings(self, monkeypatch):
        monkeypatch.setitem(PRINTED[3], "A", -1)
        report = verify("T2R", nmax=20)
        assert report.status == "fail"
        first = report.first_failure
        lhs, rhs = self._sides(int(first.index.removeprefix("n=")), -1, 6, 3)
        assert (first.lhs, first.rhs) == (str(lhs), str(rhs))
        for m, check in enumerate(report.checks):
            lhs, rhs = self._sides(m, -1, 6, 3)
            assert (check.ok, check.lhs, check.rhs) == (lhs == rhs, str(lhs), str(rhs))

    def test_a_run_leaves_nothing_to_the_next(self, monkeypatch):
        # rows and tables live in one run's store: a changed literal shows in
        # the next run, and undoing it passes again
        assert verify_all().verdict == "pass"
        monkeypatch.setitem(PRINTED[3], "A", -1)
        report = next(r for r in verify_all().reports if r.id == "T2R")
        assert report.status == "fail"
        first = report.first_failure
        lhs, rhs = self._sides(int(first.index.removeprefix("n=")), -1, 6, 3)
        assert (first.lhs, first.rhs) == (str(lhs), str(rhs))
        monkeypatch.undo()
        assert verify_all().verdict == "pass"

    def test_a_call_leaves_nothing_to_the_next(self):
        # GT3 builds T2R's tables at n = 1, shorter; T2R still matches its pin
        verify("GT3")
        pinned = json.loads((GOLDEN / "checks_seed42.json").read_text())["T2R"]
        assert json.loads(_digest_doc(42, {"T2R": None}))["T2R"] == pinned

    def test_printed_literals_agree_with_the_fraction_evaluation(self):
        for m, check in enumerate(verify("T2R", nmax=20).checks):
            lhs, rhs = self._sides(m, -2, 6, 3)
            assert lhs == rhs and (check.ok, check.lhs, check.rhs) == (True, str(lhs), str(rhs))


class TestT2Linearity:
    def test_rhs_d_coefficient_vanishes(self):
        # the identity holds at two distinct D values; since the right side
        # is affine in D, its D-coefficient must vanish termwise, certifying
        # the full one-parameter family
        a = verify("T2", nmax=60, params=[F(2)])
        b = verify("T2", nmax=60, params=[F(5)])
        for ca, cb in zip(a.checks, b.checks):
            assert ca.rhs == cb.rhs


#: Every identity whose first range starts above 0, so that an nmax of
#: start - 1 empties it.
FIRST_RANGE_ABOVE_ZERO = ["P1", "P2", "T1", "GT2", "GT3", "GT4", "GT5", "S1", "S2", "S3", "GF"]


class TestRangesAndErrors:
    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify("NOPE")

    def test_range_too_large(self):
        with pytest.raises(RangeTooLarge, match=r"^n <= 1000000 exceeds the configured cap 2000$"):
            verify("P1", nmax=10**6)
        with pytest.raises(RangeTooLarge, match=r"^m <= 2001 exceeds the configured cap 2000$"):
            verify("GT5", mmax=2001)

    @pytest.mark.parametrize("identity", FIRST_RANGE_ABOVE_ZERO)
    def test_empty_range_is_vacuous(self, identity):
        start = REGISTRY[identity].ranges[0].lo
        report = verify(identity, nmax=start - 1)  # just below the start
        assert report.status == "vacuous"
        assert report.checks == []
        assert report.mismatches == []
        assert report.params == []
        assert report.notes == ""
        assert report.first_failure is None

    def test_vacuous_cases_are_every_first_range_above_zero(self):
        above = [i for i, r in REGISTRY.items() if r.ranges and r.ranges[0].lo > 0]
        assert sorted(above) == sorted(FIRST_RANGE_ABOVE_ZERO)

    def test_report_fields_are_decimal_free(self):
        import re

        doc = verify("P3", nmax=60).to_dict()
        assert set(doc) == {
            "id", "paper_label", "range", "params", "status", "first_failure", "notes"
        }
        # no floating-point literals anywhere in a serialized report
        assert re.search(r"\d+\.\d+", str(doc)) is None


class TestSuite:
    def test_verify_all_default(self):
        suite = verify_all()
        counts = suite.counts()
        assert counts["fail"] == 0
        assert counts["known-discrepancy"] == 2
        assert suite.verdict == "pass"
        assert [r.id for r in suite.reports] == identity_ids()

    @pytest.mark.parametrize("seed", [42, 7])
    def test_shared_run_equals_per_identity_runs(self, seed):
        def rows(checks):
            return [(c.index, c.ok, c.lhs, c.rhs) for c in checks]

        for report in verify_all(seed).reports:
            alone = verify(report.id, seed=seed)
            assert rows(report.checks) == rows(alone.checks), report.id
            assert rows(report.mismatches) == rows(alone.mismatches), report.id

    def test_each_run_builds_each_table_once(self, monkeypatch):
        # once within a run, and again in the next: no table outlives its run
        built = []

        def recording(seqs, n_max):
            built.append((n_max, tuple(tuple(_as_prefix(s, n_max + 1)) for s in seqs)))
            return conv(seqs, n_max)

        conv = identity_catalog.multinomial_conv_prefix
        monkeypatch.setattr(identity_catalog, "multinomial_conv_prefix", recording)
        verify_all()
        first = built[:]
        built.clear()
        verify_all()
        assert first and len(set(first)) == len(first) and built == first

    def test_no_plain_product_on_a_verify_path(self, monkeypatch):
        # P1, P2, T1 and GF divide by short polynomials in O(n); the O(n^2)
        # plain kernel is kept for tests and must not be reached from verify
        def forbidden(*args):
            raise AssertionError("plain convolution on a verify path")

        for name in ("cauchy_convolve", "plain_conv_prefix"):
            for module in (convolution, identity_catalog):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        assert verify_all().verdict == "pass"
        for identity in ("P1", "P2", "T1", "GF"):
            assert verify(identity, nmax=2000).status == "pass", identity

    def test_deterministic_given_seed(self):
        assert verify_all(seed=42).to_dict() == verify_all(seed=42).to_dict()

    def test_generic_points_depend_on_seed(self):
        a = verify("T3", nmax=0, seed=1)
        b = verify("T3", nmax=0, seed=2)
        assert a.params[1] != b.params[1]
