"""Identity registry, reports, and suite-level behavior."""

import json
from fractions import Fraction as F
from math import comb, factorial

import pytest

from test_golden import DIGESTS, GOLDEN, _digest_doc
from triboconv import convolution, identity_catalog
from triboconv.convolution import _annihilator, _as_prefix, _roots_within, multinomial_conv_prefix
from triboconv.derivation import SumCofactorSqConst, family_element
from triboconv.field import X, c_element, norm, trace
from triboconv.identity_catalog import (
    BLOCK_FACTORS,
    C1,
    LEMMAS,
    ONE,
    PAIRSUMSQ_ORACLE,
    PAIRSUMSQ_PRINTED,
    PRINTED,
    REGISTRY,
    RangeTooLarge,
    UnknownIdentity,
    identity_ids,
    verify,
    verify_all,
)
from triboconv.symmetric_identities import DEPENDENT, TERMS, coeffs


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

    # the rule "a printed row that disagrees is reported, never failed" is
    # the claims evaluator's routing; these change its data and watch it

    def test_a_printed_row_that_agrees_is_a_check(self, monkeypatch):
        monkeypatch.setitem(PAIRSUMSQ_PRINTED, 3, PAIRSUMSQ_ORACLE[3])
        report = verify("S3")
        assert report.status == "known-discrepancy"
        assert [c.index for c in report.mismatches] == [f"n={n},printed" for n in (2, 4, 5, 6)]
        assert [c.index for c in report.checks if c.index.endswith(",printed")] == ["n=1,printed", "n=3,printed"]
        assert all(c.ok for c in report.checks)

    def test_a_wrong_oracle_row_fails(self, monkeypatch):
        scale, (s0, s1, s2) = PAIRSUMSQ_ORACLE[4]
        monkeypatch.setitem(PAIRSUMSQ_ORACLE, 4, (scale, (s0, s1, s2 + 1)))
        report = verify("S3")
        assert report.status == "fail"
        first = report.first_failure
        # the derived side is still the exact row that the unchanged table holds
        assert (first.index, first.lhs, first.rhs) == (
            "n=4,oracle", f"(A={scale}, triple={(s0, s1, s2)})", f"(A={scale}, triple={(s0, s1, s2 + 1)})")

    @pytest.mark.parametrize("identity,power", zip(["L2", "L7", "L8", "L9"], sorted(LEMMAS)))
    def test_a_changed_lemma_triple_fails_every_row(self, monkeypatch, identity, power):
        scale, triple = LEMMAS[power]
        # the difference is the Tribonacci sequence from (1, 1, 1), never 0
        monkeypatch.setitem(LEMMAS, power, (scale, tuple(v + 1 for v in triple)))
        report = verify(identity)
        assert report.status == "fail"
        assert [c.index for c in report.checks] == ["derivation"] + [f"k={k}" for k in range(51)]
        assert not any(c.ok for c in report.checks)

    def test_s2_printed_term_is_121_over_120_of_the_exact_one(self):
        # for every n: 242 / (2^6*5*11^2*484^(n-1)) against trace(q_n) = 3/484^n,
        # so the printed presentation already disagrees at k = 0 and no later
        # term needs comparing
        for n in range(1, 2001):
            printed = F(242, 2**6 * 5 * 11**2 * 484 ** (n - 1))
            assert printed / trace(family_element(SumCofactorSqConst(n))) == F(121, 120)
        report = verify("S2", nmax=2000)
        assert [c.index for c in report.mismatches] == [f"n={n},k=0,printed" for n in range(1, 2001)]
        assert {c.rhs_value / c.lhs_value for c in report.mismatches} == {F(121, 120)}


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


class TestSharedAnnihilator:
    """Every term of a fold has only exponents that are roots of the left
    side's annihilator L, so each term table is built on deg L terms and a
    point whose right side agrees with the left side there is settled
    without extension; a term outside L keeps its own full-length table."""

    #: e2 with the cofactor family unsigned: its roots leave L's.
    BAD_E2 = (("cof", 1), ONE)

    @staticmethod
    def _terms(r):
        store = {}
        for k, blocks in TERMS[r].items():
            fs = tuple(f for b in blocks for f in BLOCK_FACTORS[b])
            seqs = [identity_catalog._factor(f, 1, store)[0] for f in fs]
            yield k, seqs, _annihilator(tuple(sorted(s.charpoly for s in seqs)))

    @staticmethod
    def _rec(r):
        return _annihilator((identity_catalog._factor(C1, 1, {})[0].charpoly,) * r)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_term_shares_the_left_roots(self, r):
        assert all(_roots_within(poly, self._rec(r)) for _, _, poly in self._terms(r))

    @pytest.mark.parametrize("r,bad_e2", [(r, bad) for r in (2, 3, 4, 5) for bad in (False, True)])
    def test_helper_agrees_with_l_on_the_table(self, monkeypatch, r, bad_e2):
        # the table is annihilated by its term's polynomial A, so L applied to
        # deg A + deg L windows of it vanishes exactly when L holds throughout
        if bad_e2:
            monkeypatch.setitem(BLOCK_FACTORS, "e2", self.BAD_E2)
        rec = self._rec(r)
        results = set()
        for k, seqs, poly in self._terms(r):
            count = len(poly) + len(rec)
            table = seqs[0].prefix(count) if len(seqs) == 1 else multinomial_conv_prefix(seqs, count - 1)
            windows = [sum(c * table[m + i] for i, c in enumerate(rec)) for m in range(count - len(rec) + 1)]
            assert _roots_within(poly, rec) == (not any(windows)), k
            results.add(not any(windows))
        assert results == ({True, False} if bad_e2 else {True})

    @staticmethod
    def _count_extensions(monkeypatch) -> list:
        """The list to which each later right-side extension appends."""
        extended, extend = [], identity_catalog._extend

        def counting(*args):
            extended.append(args)
            return extend(*args)

        monkeypatch.setattr(identity_catalog, "_extend", counting)
        return extended

    @pytest.mark.parametrize("config", ["verify_all", "checks_deep.json"])
    def test_no_fold_takes_the_fallback(self, monkeypatch, config):
        # every point passes on its deg L head, so no right side is extended,
        # and no term table outgrows deg L; the left side's table spans the range
        calls, fold_checks = [], identity_catalog._fold_checks

        def recording_folds(r, n, ms, index, pts, store):
            calls.append((r, n, pts, store))
            return fold_checks(r, n, ms, index, pts, store)

        monkeypatch.setattr(identity_catalog, "_fold_checks", recording_folds)
        extended = self._count_extensions(monkeypatch)
        if config == "verify_all":
            assert verify_all().verdict == "pass"
        else:
            _, seed, ids = next(d for d in DIGESTS if d[0] == config)
            assert _digest_doc(seed, ids) == (GOLDEN / config).read_text()
        assert calls and extended == []
        lengths = {}
        for r, n, pts, store in calls:
            for k in pts[0][1]:
                fs = tuple(f for b in TERMS[r][k] for f in BLOCK_FACTORS[b])
                if fs != (C1,) * r:
                    key = tuple(sorted(fs, key=str)), n
                    lengths[key] = len(store[key][0]), len(self._rec(r)) - 1
        assert lengths and all(length <= deg for length, deg in lengths.values())

    # the same counts, first failures and check digests as the per-term tables
    @pytest.mark.parametrize("identity,nmax,failed,first,pin", [
        ("T2", 150, 149, "D=1,n=2",
         {"checks": 302, "mismatches": 0,
          "sha256": "799e6b67bf35f2d80ca06427cd5a868ead2089d3ea72f0816e8ac01735cc5b0e"}),
        ("T4", 150, 150, "D=3/4,I=5/4,L=5/3,N=4/3,P=2,Q=-1/2,R=1,S=-4,n=1",
         {"checks": 302, "mismatches": 0,
          "sha256": "6adc1a118abb307d50d002fb3657b2bc0cc6fe320851b11538962dca0cad19ab"}),
    ])
    def test_a_term_outside_l_falls_back(self, monkeypatch, identity, nmax, failed, first, pin):
        monkeypatch.setitem(BLOCK_FACTORS, "e2", self.BAD_E2)
        assert self._failures(monkeypatch, identity, nmax) == (failed, first, pin, False)

    @pytest.mark.parametrize("identity,nmax,failed,first,pin", [
        ("GT5", None, 244, "n=1,m=0",
         {"checks": 244, "mismatches": 0,
          "sha256": "85542b0735303b73325e31f64753cc52a1c9f1a867f510d5c97995b8e953f5c3"}),
        ("T4R", 280, 281, "n=0",
         {"checks": 281, "mismatches": 0,
          "sha256": "5b0d8a7894b323a110d150bb12e372831895de35c57af9aa6246f3aad9d0f99e"}),
    ])
    def test_a_wrong_literal_fails_on_the_extended_side(self, monkeypatch, identity, nmax, failed, first, pin):
        monkeypatch.setitem(PRINTED[5], "H", 11)
        assert self._failures(monkeypatch, identity, nmax) == (failed, first, pin, True)

    @classmethod
    def _failures(cls, monkeypatch, identity, nmax):
        """Failed checks, first failure, check digest, and whether the right
        side was extended by L."""
        extended = cls._count_extensions(monkeypatch)
        report = verify(identity, nmax=nmax, seed=42)
        return (sum(not c.ok for c in report.checks), report.first_failure.index,
                json.loads(_digest_doc(42, {identity: nmax}))[identity], bool(extended))


class TestFamilyPoints:
    """T2..T4 at points other than their default ones, through the fold
    evaluator.  The right side is affine in the free parameters, so passing
    at two D values certifies the whole one-parameter family T2."""

    POINTS = [
        (3, {"D": F(0)}),
        (3, {"D": F(5, 3)}),
        (3, {"D": F(2)}),
        (3, {"D": F(5)}),
        (4, {"D": F(-1, 2), "E": F(2, 3), "G": F(7), "H": F(5)}),
        (5, {"D": F(-2), "I": F(1, 3), "L": F(0), "N": F(7, 2), "P": F(-1), "Q": F(2, 5), "R": F(4),
             "S": F(-3, 4)}),
    ]

    @staticmethod
    def _checks(r, cs):
        return identity_catalog._fold_checks(r, 1, range(61), "n", [("", cs)], {})

    @pytest.mark.parametrize("r,point", POINTS,
                             ids=[f"T{r - 1}-" + ",".join(f"{k}={v}" for k, v in p.items()) for r, p in POINTS])
    def test_every_check_passes(self, r, point):
        checks = self._checks(r, coeffs(r, point))
        assert len(checks) == 61 and all(c.ok for c in checks)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_a_dependent_coefficient_plus_one_fails(self, r):
        cs = coeffs(r, {})
        cs[next(iter(DEPENDENT[r]))] += 1
        assert not any(c.ok for c in self._checks(r, cs))


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
