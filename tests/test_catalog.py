"""Identity registry, reports, and suite-level behavior."""

import hashlib
import json
import random
from fractions import Fraction as F
from functools import lru_cache, partial
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from golden_runs import CLI_OUTPUTS, CLI_SHA256
from test_golden import DIGESTS, GOLDEN, _cli_bytes, _digest_doc, _digest_entry
from triboconv import convolution, identity_catalog
from triboconv.convolution import (
    RationalSeries,
    _annihilator,
    _extend,
    _roots_within,
    cross_difference,
    multinomial_conv_prefix,
    multiset_table,
)
from triboconv.derivation import SumCofactorSqConst, _mul_pair, element_with_traces, family_element
from triboconv.field import X, FieldElement, c_element, cofactor_element, norm, trace
from triboconv.identity_catalog import (
    BLOCK_FACTORS,
    C1,
    LEMMAS,
    ONE,
    PAIRSUMSQ_ORACLE,
    PAIRSUMSQ_PRINTED,
    PRINTED,
    REGISTRY,
    IdentityRecord,
    RangeSpec,
    RangeTooLarge,
    UnknownIdentity,
    _run_claims,
    _run_fold,
    identity_ids,
    verify,
    verify_all,
)
from triboconv.symmetric_identities import DEPENDENT, TERMS, coeffs


class TestSingleIdentities:
    def test_two_evaluators_run_every_identity(self):
        runners = [r.runner for r in REGISTRY.values()]
        assert all(isinstance(runner, partial) for runner in runners)
        assert {runner.func for runner in runners} == {_run_claims, _run_fold}

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

    def test_constants_equal_the_field_computation(self):
        # L-CONST reads its values from integer trace triples and norms; the
        # FieldElement products are the oracle
        c = c_element()
        oracle = [trace(c), trace(X * c), trace(X * (X * c)), norm(c), trace(cofactor_element())]
        rows = list(identity_catalog._constant_rows(None))
        assert [lhs for _, lhs, _, _ in rows] == oracle and all(type(lhs) is F for _, lhs, _, _ in rows)
        assert all(lhs == rhs for _, lhs, rhs, _ in rows) and verify("L-CONST").status == "pass"


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

    def test_the_status_is_read_from_the_rows(self, monkeypatch):
        # no entry is tagged as a known discrepancy: one printed row that
        # disagrees makes it one
        def rows(ctx):
            yield "n=0,printed", 1, 2, True

        record = IdentityRecord("X", "one printed row", (RangeSpec("n", 0, 0),), partial(_run_claims, rows))
        monkeypatch.setitem(REGISTRY, "X", record)
        report = verify("X")
        assert report.status == "known-discrepancy"
        assert report.checks == [] and [c.index for c in report.mismatches] == ["n=0,printed"]

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
        ident, scale, triple = LEMMAS[power]
        assert ident == identity
        # the difference is the Tribonacci sequence from (1, 1, 1), never 0
        monkeypatch.setitem(LEMMAS, power, (ident, scale, tuple(v + 1 for v in triple)))
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

    def test_s2_printed_presentation_is_an_irrational_element(self):
        # at n = 1 the printed traces T_k(242, 82, 245) / (2^6*5*11^2) are those
        # of (161 + x)/77440, which is not rational: no power of S2's element is
        printed = element_with_traces(242, 82, 245) * F(1, 2**6 * 5 * 11**2)
        assert printed == FieldElement(F(161, 77440), F(1, 77440))
        assert family_element(SumCofactorSqConst(1)) == FieldElement.constant(F(1, 484))


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
        # and no term table outgrows the deg L of a fold that reads it, as a
        # term or as a sub-product a term is built from; only the left sides,
        # powers of C1, span the range
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
            deg = len(self._rec(r)) - 1
            for k in pts[0][1]:
                fs = tuple(sorted((f for b in TERMS[r][k] for f in BLOCK_FACTORS[b]), key=str))
                for part in (fs[:j] for j in range(1, len(fs) + 1)):
                    if set(part) != {C1}:
                        bound = lengths.get((id(store), n, part), (0, 0))[1]
                        lengths[id(store), n, part] = len(store[n][part]), max(bound, deg)
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


class TestIntegerFolds:
    """A fold carries its scales and weights as integer pairs and plans its
    terms once per run; every weight, common denominator and right-side head
    equals the Fraction arithmetic."""

    FOLDS = [i for i in identity_ids() if REGISTRY[i].runner.func is _run_fold]

    @staticmethod
    def _reference(r, n, cs, head):
        """(lhs_weight, common, right-side head) of one point in Fractions,
        each table by multinomial_conv_prefix."""
        store = {}

        def side(fs):
            seqs, scales = zip(*(identity_catalog._factor(f, n, store) for f in fs))
            return F(prod(scales)), multinomial_conv_prefix(list(seqs), head - 1)

        inv = 1 / side((C1,) * r)[0]
        terms = []
        for k, c in cs.items():
            scale, table = side([f for b in TERMS[r][k] for f in BLOCK_FACTORS[b]])
            terms.append((F(c) / scale, table))
        common = lcm(inv.denominator, *(w.denominator for w, _ in terms))
        return (inv.numerator * (common // inv.denominator), common,
                [common * sum(w * table[m] for w, table in terms) for m in range(head)])

    @classmethod
    def _points(cls, identity, seed):
        """(r, n, coefficients, record) of every point of the entry's report."""
        r, kind = REGISTRY[identity].runner.args
        report = verify(identity, seed=seed)
        if kind == "family":
            points = [coeffs(r, {k: F(v) for k, v in p.items()}) for p in report.params]
        else:
            points = [PRINTED[r]] * len(report._parts)
        for cs, part in zip(points, report._parts, strict=True):
            n = int(part.prefix.split(",")[0][2:]) if kind == "GT" else 1
            yield r, n, cs, part

    @pytest.mark.parametrize("identity,seed", [(i, 42) for i in FOLDS] + [
        (i, seed) for i in ("T3", "T4") for seed in range(20)])
    def test_weights_and_heads_equal_the_fraction_arithmetic(self, identity, seed):
        for r, n, cs, part in self._points(identity, seed):
            assert part.ok
            assert (part.lhs_weight, part.common, part.rhs) == self._reference(r, n, cs, part.head), part.prefix

    @given(st.integers(-60, 60) | st.fractions(-60, 60, max_denominator=30),
           st.integers(-10**6, 10**6).filter(bool), st.integers(-10**6, 10**6).filter(bool))
    def test_a_weight_is_the_reduced_fraction(self, c, num, den):
        # num / den is a scale: negative scales included; a weight is c times
        # its inverse, den / num
        w = F(c) / F(num, den)
        assert _mul_pair(c.numerator, c.denominator, den, num) == (w.numerator, w.denominator)

    def test_one_plan_per_fold_and_run(self, monkeypatch):
        made, annihilator = [], identity_catalog._annihilator
        monkeypatch.setattr(identity_catalog, "_annihilator", lambda polys: made.append(polys) or annihilator(polys))
        store = {}
        assert verify("GT5", _store=store).status == "pass"
        # L and each term's annihilator once, not once per family index n = 1..4
        assert list(store["plans"]) == [(5, tuple(PRINTED[5]))] and len(made) == 1 + len(PRINTED[5])

    def test_a_changed_block_map_gets_its_own_plan(self, monkeypatch):
        assert verify("T2", nmax=150).status == "pass"
        monkeypatch.setitem(BLOCK_FACTORS, "e2", TestSharedAnnihilator.BAD_E2)
        assert verify("T2", nmax=150).status == "fail"
        monkeypatch.undo()
        assert verify("T2", nmax=150).status == "pass"


class TestSettledValues:
    """A point settled on its deg L head builds its left side no further
    until its checks are read; that read extends the run's left-side table
    to the range's end, once."""

    @staticmethod
    def _count_extensions(monkeypatch) -> list:
        """The (head length, polynomial degree, n_max) of each later table extension."""
        extended, extend = [], convolution._extend

        def counting(head, poly, n_max):
            extended.append((len(head), len(poly) - 1, n_max))
            return extend(head, poly, n_max)

        monkeypatch.setattr(convolution, "_extend", counting)
        return extended

    def test_a_left_side_is_built_to_its_head_until_read(self):
        store = {}
        report = verify("GT5", nmax=4, mmax=2000, _store=store)
        assert report.status == "pass" and report.to_dict()["first_failure"] is None
        assert all(len(store[n][(C1,) * 5]) <= 21 for n in (1, 2, 3, 4))
        assert len(report.checks) == 4 * 2001
        assert all(len(store[n][(C1,) * 5]) == 2001 for n in (1, 2, 3, 4))
        last = report.checks[-1]
        assert last.index == "n=4,m=2000"
        shown = last.lhs
        seq, scale = identity_catalog._factor(C1, 4, {})
        assert shown == last.rhs == str(F(multinomial_conv_prefix([seq] * 5, 2000)[2000]) / scale**5)

    def test_reading_every_value_extends_each_left_side_once(self, monkeypatch):
        report = verify("T4", nmax=2000)
        extended = self._count_extensions(monkeypatch)
        shown = [(c.lhs, c.rhs) for c in report.checks]
        # T4's two points share the one left side at n = 1
        assert len(shown) == 2 * 2001 and len(extended) <= 1

    def test_an_earlier_report_reads_its_own_values(self):
        early = verify_all()
        verify_all()
        table = {r.id: _digest_entry(r) for r in early.reports}
        assert json.dumps(table, indent=2, sort_keys=True) + "\n" == (GOLDEN / "checks_seed42.json").read_text()

    def test_a_warm_run_extends_within_5000_products(self, monkeypatch):
        verify_all()
        extended = self._count_extensions(monkeypatch)
        assert verify_all().verdict == "pass"
        # each extension steps n_max + 1 - d times, d products a step; every
        # left side built to the range's end needs 17,631
        assert sum((n_max + 1 - d) * d for _, d, n_max in extended) <= 5000


class TestSettledPoints:
    """A settled fold point is one record: a report reads its status, first
    failure, document and settled count from the records, and forms the
    per-index checks only when they are read."""

    @staticmethod
    def _forbid_expansion(monkeypatch):
        def forbidden(self):
            raise AssertionError("a settled point was expanded")

        monkeypatch.setattr(identity_catalog._FoldPoint, "checks", forbidden)

    def test_reports_are_decided_without_expanding(self, monkeypatch, tmp_path):
        self._forbid_expansion(monkeypatch)
        suite = verify_all()
        assert [r.status for r in suite.reports if r.first_failure is not None] == ["known-discrepancy"] * 2
        assert json.dumps(suite.to_dict(), indent=2) + "\n" == (GOLDEN / "verify_all_seed42.json").read_text()
        for name in sorted(n for n in CLI_OUTPUTS if CLI_OUTPUTS[n][:2] == ["verify", "all"]):
            assert _cli_bytes(tmp_path, CLI_OUTPUTS[name]) == (GOLDEN / name).read_bytes(), name
        assert verify("GT5", nmax=4, mmax=2000).to_dict()["status"] == "pass"

    def test_no_check_is_built_until_read(self, monkeypatch):
        built = []
        for name in ("Check", "_Quotient"):
            made = getattr(identity_catalog, name)
            monkeypatch.setattr(identity_catalog, name, lambda *args, made=made: built.append(made) or made(*args))
        report = verify("GT5", nmax=4, mmax=2000)
        assert report.to_dict()["status"] == "pass" and built == []
        checks = report.checks
        assert len(checks) == 8004 and len(built) == 3 * 8004
        assert [c.index for c in checks] == [f"n={n},m={m}" for n in range(1, 5) for m in range(2001)]

    def test_two_reads_give_equal_lists(self):
        report = verify("T4", nmax=30)
        first = [(c.index, c.ok, c.lhs, c.rhs) for c in report.checks]
        assert report.checks == report.checks
        assert [(c.index, c.ok, c.lhs, c.rhs) for c in report.checks] == first
        tags = [",".join(f"{k}={v}" for k, v in p.items()) for p in report.params]
        assert [index for index, *_ in first] == [f"{tag},n={m}" for tag in tags for m in range(31)]

    @pytest.mark.parametrize("identity,nmax,mmax,checks,settled", [
        ("T4", 2000, None, 4002, (2, 2 * 21)),
        ("GT5", 4, 2000, 8004, (4, 4 * 21)),
        ("P3", 2000, None, 2001, (1, 6)),
        ("T2R", 3, None, 4, (1, 4)),  # a range shorter than deg L = 10 compares it whole
        ("P1", 2000, None, 1998, (0, 0)),
        ("GT2", 0, None, 0, (0, 0)),
    ])
    def test_settled_points_and_compared_terms(self, identity, nmax, mmax, checks, settled):
        report = verify(identity, nmax=nmax, mmax=mmax)
        assert report.settled == settled and (report.settled.points, report.settled.terms) == settled
        assert len(report.checks) == checks

    def test_a_disagreeing_head_is_no_settled_point(self, monkeypatch):
        monkeypatch.setitem(PRINTED[5], "H", 11)
        report = verify("GT5", nmax=2, mmax=30)
        assert report.status == "fail" and report.settled == (0, 0)
        assert report.first_failure is next(c for c in report.checks if not c.ok)

    def test_a_failed_record_shows_its_first_check(self, monkeypatch):
        monkeypatch.setitem(PRINTED[2], "B", 3)
        report = verify("P3", nmax=5)
        assert [p.ok for p in report._parts] == [False]
        assert report.status == "fail" and report.first_failure.index == "n=0"
        assert [c.ok for c in report.checks] == [False] * 6

    def test_a_disagreeing_head_is_lazy_too(self, monkeypatch):
        monkeypatch.setitem(PRINTED[5], "H", 11)
        built, made = [], identity_catalog.Check
        monkeypatch.setattr(identity_catalog, "Check", lambda *args: built.append(args) or made(*args))
        store = {}
        report = verify("GT5", nmax=2, mmax=2000, _store=store)
        assert report.status == "fail" and built == []
        assert all(len(store[n][(C1,) * 5]) <= 21 for n in (1, 2))
        assert report.first_failure is next(c for c in report.checks if not c.ok)
        failed = [c.index for c in report.checks if not c.ok]
        assert failed == [f"n={n},m={m}" for n in (1, 2) for m in self._eager_failures(n, 2000)]

    @staticmethod
    def _eager_failures(n, mmax):
        """The m at which GT5 at family index n fails, each side built in
        full by the multinomial convolution of its factors."""
        def side(fs, c):
            seqs, scales = zip(*(identity_catalog._factor(f, n, {}) for f in fs))
            return [F(c) * v / prod(scales) for v in multinomial_conv_prefix(list(seqs), mmax)]

        lhs = side((C1,) * 5, 1)
        rhs = [0] * (mmax + 1)
        for k, c in PRINTED[5].items():
            term = side([f for b in TERMS[5][k] for f in BLOCK_FACTORS[b]], c)
            rhs = [a + b for a, b in zip(rhs, term)]
        return [m for m in range(mmax + 1) if lhs[m] != rhs[m]]


class TestProvedClaims:
    """P1, P2 and T1 are decided by the cross-multiplied difference of their
    rational sides: a zero difference is one record, whose rows are built
    only when the checks are read; a nonzero one compares every row at once."""

    IDS = ("P1", "P2", "T1")

    def _count_expansions(self, monkeypatch) -> list:
        """The entry of each expansion of a P1, P2 or T1 side, in order.  The
        rows and the proof call the same sides function; only the rows expand."""
        calls = []
        expand = RationalSeries.coefficients
        for identity in self.IDS:
            record = REGISTRY[identity]
            rows, proof = record.runner.args[0], record.runner.keywords["proof"]

            def counted(sides=rows.args[0], identity=identity):
                pair = sides()
                for side in pair:
                    side.coefficients = lambda order, side=side: calls.append(identity) or expand(side, order)
                return pair

            runner = partial(record.runner.func, partial(rows.func, counted), proof=partial(proof.func, counted))
            monkeypatch.setitem(REGISTRY, identity, record._replace(runner=runner))
        return calls

    def test_verify_all_builds_no_rows_until_read(self, monkeypatch):
        calls = self._count_expansions(monkeypatch)
        reports = {r.id: r for r in verify_all().reports}
        assert [reports[i].status for i in self.IDS] == ["pass"] * 3 and calls == []
        want = json.loads((GOLDEN / "checks_seed42.json").read_text())
        assert {i: _digest_entry(reports[i]) for i in self.IDS} == {i: want[i] for i in self.IDS}
        assert calls == [i for i in self.IDS for _ in range(2)]  # both sides of each entry

    def test_the_rows_and_gf_read_the_pair_the_proof_built(self, monkeypatch):
        store, read = {}, []
        check = identity_catalog.series_check_derivatives
        monkeypatch.setattr(identity_catalog, "series_check_derivatives",
                            lambda order, sides: read.append(sides) or check(order, sides))
        report = verify("T1", nmax=2000, _store=store)
        assert report.status == verify("GF", _store=store).status == "pass"
        assert len(read) == 1 and read[0] is store[convolution.t1_rational]
        # the rows expand the run's pair: a constant changed after the proof is not read
        monkeypatch.setattr(convolution, "_T1_POLY", (2, 6, 12, 0, 6, 7))
        assert len(report.checks) == 1996 and all(c.ok for c in report.checks)

    def test_no_pair_outlives_its_run(self, monkeypatch):
        def statuses():
            reports = {r.id: r.status for r in verify_all().reports}
            return reports["T1"], reports["GF"]

        assert statuses() == ("pass", "pass")
        monkeypatch.setattr(convolution, "_T1_POLY", (2, 6, 12, 0, 6, 7))
        assert statuses() == ("fail", "fail")
        monkeypatch.undo()
        assert statuses() == ("pass", "pass")

    @pytest.mark.parametrize("identity", IDS)
    def test_the_cap_builds_no_rows_until_read(self, monkeypatch, tmp_path, identity):
        calls = self._count_expansions(monkeypatch)
        digests = json.loads((GOLDEN / "cli_sha256.json").read_text())
        for ext in ("json", "tsv", "txt"):
            name = f"verify_{identity}_2000.{ext}"
            assert hashlib.sha256(_cli_bytes(tmp_path, CLI_SHA256[name])).hexdigest() == digests[name]
        report = verify(identity, nmax=2000)
        assert report.status == "pass" and calls == []
        assert _digest_entry(report) == json.loads((GOLDEN / "checks_cap.json").read_text())[identity]
        assert calls == [identity, identity]

    @pytest.mark.parametrize("identity,constant,value,first", [
        ("T1", "_T1_POLY", (2, 6, 12, 0, 6, 7), ("n=8", "1008", "1009")),
        ("P1", "_T_PRIME_NUMERATOR", (1, 0, 1, 3), ("n=5", "11", "10")),
        ("P2", "_T_PRIME_NUMERATOR", (1, 0, 1, 3), ("n=5", "12", "11")),
        ("P1", "_P1_OFFSET", (0, 1, 2), ("n=3", "-1", "0")),
    ], ids=["T1-7x5", "P1-3x3", "P2-3x3", "P1-2x2"])
    def test_a_changed_constant_compares_every_row(self, monkeypatch, identity, constant, value, first):
        # the first failures are those of the evaluator before the proof
        monkeypatch.setattr(convolution, constant, value)
        assert any(cross_difference(REGISTRY[identity].runner.args[0].args[0]))
        built, made = [], identity_catalog.Check
        monkeypatch.setattr(identity_catalog, "Check", lambda *args: built.append(args[0]) or made(*args))
        report = verify(identity)
        lo, hi = REGISTRY[identity].ranges[0][1:]
        assert built == [f"n={n}" for n in range(lo, hi + 1)]
        assert report.status == "fail"
        ff = report.first_failure
        assert (ff.index, ff.lhs, ff.rhs) == first

    def test_a_difference_in_its_highest_coefficient_alone_fails(self, monkeypatch):
        # two polynomials, so each side's coefficients are its numerator's
        left, right = RationalSeries((1, 2, 3)), RationalSeries((1, 2, 3, 0, 0, 1))
        difference = (left - right).num
        assert difference == [0, 0, 0, 0, 0, -1]
        lhs, rhs = left.num + [0] * 6, right.num + [0] * 3

        def rows(ctx):
            for n in ctx.span("n"):
                yield f"n={n}", lhs[n], rhs[n], False

        runner = partial(_run_claims, rows, proof=lambda ctx: difference)
        monkeypatch.setitem(REGISTRY, "X", IdentityRecord("X", "sides apart at x^5", (RangeSpec("n", 0, 8),), runner))
        report = verify("X")
        assert report.status == "fail" and report.first_failure.index == "n=5"


def _multisets():
    """Every term's sorted factor tuple in TERMS[2..5], and the left sides."""
    for r, terms in TERMS.items():
        yield (C1,) * r
        for blocks in terms.values():
            yield tuple(sorted((f for b in blocks for f in BLOCK_FACTORS[b]), key=str))


_ROWS: dict = {}  # the factor rows, shared by the tests of this module's tables


def _seqs(n, fs):
    return [identity_catalog._factor(f, n, _ROWS)[0] for f in fs]


def _table_requests():
    """(n, factors, length) for n = 1..3 and lengths deg - 1, deg and
    deg + 40, deg the degree of the factors' annihilator."""
    for n in (1, 2, 3):
        for fs in dict.fromkeys(_multisets()):
            deg = len(_annihilator(tuple(sorted(s.charpoly for s in _seqs(n, fs))))) - 1
            for length in (deg - 1, deg, deg + 40):
                yield n, fs, length


TABLE_REQUESTS = list(_table_requests())


class TestMultisetTables:
    """A fold table is built from the run's table of its factors but the
    last, on the head of its annihilator, so which tables a store holds,
    and how long, depends on the order of the requests; their values must
    not."""

    @staticmethod
    @lru_cache(maxsize=None)
    def _expected(n, fs, length):
        return multinomial_conv_prefix(_seqs(n, fs), length - 1)

    def test_a_stored_table_past_its_head_is_continued_from_its_head(self):
        # the left side of GT3 stores GT2's at 10 terms, past its degree 6,
        # and a longer GT2 table continues from the first 6 of those
        seqs = {C1: _seqs(1, [C1])[0]}
        tables = {}
        multiset_table(tables, (C1,) * 3, seqs, 10)
        assert len(tables[(C1,) * 2]) == 10
        assert multiset_table(tables, (C1,) * 2, seqs, 50) == self._expected(1, (C1,) * 2, 50)

    @given(st.permutations(range(len(TABLE_REQUESTS))))
    @settings(max_examples=12, deadline=None)
    def test_any_order_gives_the_multinomial_convolution(self, order):
        seqs = {n: {f: seq for fs in _multisets() for f, seq in zip(fs, _seqs(n, fs))} for n in (1, 2, 3)}
        store = {n: {} for n in (1, 2, 3)}
        for i in order:
            n, fs, length = TABLE_REQUESTS[i]
            table = multiset_table(store[n], fs, seqs[n], length)
            assert table[:length] == self._expected(n, fs, length), (n, fs, length)
        for n, fs, length in TABLE_REQUESTS:
            assert store[n][fs][:length] == self._expected(n, fs, length), (n, fs, length)


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_one_factor_table_is_the_factor_prefix(self, monkeypatch, n):
        # every factor of the block map and the left sides, each table read
        # from its factor with no recurrence step
        factors = sorted({f for fs in _multisets() for f in fs}, key=str)
        seqs = dict(zip(factors, _seqs(n, factors)))
        lengths = {f: (1, len(seq.charpoly) - 1, len(seq.charpoly), 200) for f, seq in seqs.items()}
        expected = {(f, length): _extend(seq.prefix(len(seq.charpoly) - 1), seq.charpoly, length - 1)[:length]
                    for f, seq in seqs.items() for length in lengths[f]}
        monkeypatch.setattr(convolution, "_extend", None)
        tables = {}
        for (f, length), table in expected.items():
            assert multiset_table({}, (f,), seqs, length) == table, (f, length)
            assert multiset_table(tables, (f,), seqs, length)[:length] == table, (f, length)


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
        return list(identity_catalog._expand(identity_catalog._fold_checks(r, 1, range(61), "n", [("", cs)], {})))

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

    def test_nmax_and_mmax_bound_every_range(self):
        # verify reads nmax and mmax as the bounds of the first and second range
        assert max(len(r.ranges) for r in REGISTRY.values()) == 2

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
        # a table's head is one binomial convolution with its last factor, made
        # once within a run and again in the next: no table outlives its run
        built = []

        def recording(f, g):
            built.append((tuple(f), tuple(g)))
            return conv(f, g)

        verify_all()  # the annihilators' own convolutions are cached past the run
        conv = convolution.binomial_convolve
        monkeypatch.setattr(convolution, "binomial_convolve", recording)
        verify_all()
        first = built[:]
        built.clear()
        verify_all()
        assert first and len(set(first)) == len(first) and built == first
        # the heads share their sub-products, so a warm run stays within 5,000
        # products (a table convolving all of its factors afresh needs 12,742)
        assert sum(n * (n + 1) // 2 for n in (min(len(f), len(g)) for f, g in first)) <= 5000

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

    def test_only_the_entries_that_draw_make_a_generator(self, monkeypatch):
        seeds, make = [], random.Random
        monkeypatch.setattr(random, "Random", lambda seed: seeds.append(seed) or make(seed))
        assert verify_all(seed=42).verdict == "pass"
        assert seeds == ["42:T3", "42:T4"]  # T2's second point is GENERIC's

    def test_deterministic_given_seed(self):
        assert verify_all(seed=42).to_dict() == verify_all(seed=42).to_dict()

    def test_generic_points_depend_on_seed(self):
        a = verify("T3", nmax=0, seed=1)
        b = verify("T3", nmax=0, seed=2)
        assert a.params[1] != b.params[1]
