"""Power families: canonical tables, printed-recursion replication, conjecture."""

import random
import re
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st
from oracles import FRACTION_STEPS

from triboconv import derivation
from triboconv.derivation import (
    CPower,
    CofactorPower,
    FamilyKind,
    PairSumSqPower,
    PowerFamily,
    SumCofactorConst,
    SumCofactorSqConst,
    conjecture_check,
    derive,
    derive_paper_recursive,
    derive_table,
    element_with_traces,
    family_element,
    replicate_paper_table,
)
from triboconv.field import (FieldElement, c_element, cofactor_element, integral_coeffs, mul_coeffs,
                             sign_at_real_root, trace, trace_triple)
from triboconv.identity_catalog import DEFAULT_RANGE_CAP, PAIRSUMSQ_ORACLE, PAIRSUMSQ_PRINTED
from triboconv.sequences import ScaledSeq, binet_check, egf_rational_term, normalize_egf

# published tables for the power-of-c and cofactor families; both are
# reproduced exactly by the direct derivation path
CPOWER_TABLE = {
    1: (1, (0, 1, 1)),
    2: (22, (2, 3, 10)),
    3: (44, (3, 3, 5)),
    4: (484, (2, 14, 21)),
    5: (968, (5, 6, 15)),
    6: (2**4 * 11**3, (37, 61, 97)),
    7: (2**4 * 11**3, (7, 20, 36)),
    8: (2**5 * 11**4, (92, 127, 262)),
    9: (2**6 * 11**4, (51, 101, 169)),
    10: (2**6 * 11**5, (169, 347, 658)),
}
COFACTOR_TABLE = {
    1: (22, (-1, 2, 7)),
    2: (22**2, (1, 9, 4)),
    3: (2**4 * 11**3, (31, -7, 25)),
    4: (2**5 * 11**4, (-42, 29, 52)),
    5: (2**6 * 11**5, (53, 70, -8)),
    6: (2**8 * 11**6, (235, -217, 291)),
}


class TestFamilyElement:
    def test_cpower_one_is_c(self):
        assert family_element(CPower(1)) == c_element()

    def test_cofactor_one(self):
        assert family_element(CofactorPower(1)) == cofactor_element()

    def test_sum_cofactor_const(self):
        assert family_element(SumCofactorConst(1)) == FieldElement.constant(F(-1, 22))

    def test_sum_cofactor_sq_const(self):
        # e2^2 - 2 e1 e3 with e1 = 0, e2 = -1/22; equals trace(cofactor^2)
        elt = family_element(SumCofactorSqConst(1))
        assert elt == FieldElement.constant(F(1, 484))
        assert trace(cofactor_element() ** 2) == F(1, 484)

    def test_pair_sum_sq_alpha_embedding(self):
        # the element is trace(c^2) - c^2, whose alpha embedding is c2^2 + c3^2
        c2 = c_element() ** 2
        assert family_element(PairSumSqPower(1)) == FieldElement.constant(trace(c2)) - c2

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            CPower(0)


class TestDeriveTables:
    @pytest.mark.parametrize("n", sorted(CPOWER_TABLE))
    def test_cpower(self, n):
        scale, triple = CPOWER_TABLE[n]
        assert derive(CPower(n)) == ScaledSeq(F(scale), triple)

    @pytest.mark.parametrize("n", sorted(COFACTOR_TABLE))
    def test_cofactor(self, n):
        scale, triple = COFACTOR_TABLE[n]
        assert derive(CofactorPower(n)) == ScaledSeq(F(scale), triple)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sum_cofactor_const(self, n):
        assert derive(SumCofactorConst(n)) == ScaledSeq(F(-22) ** n, (3, 1, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sum_cofactor_sq_const(self, n):
        assert derive(SumCofactorSqConst(n)) == ScaledSeq(F(484) ** n, (3, 1, 3))

    @pytest.mark.parametrize("n", sorted(PAIRSUMSQ_ORACLE))
    def test_pair_sum_sq_oracle_table(self, n):
        # cross-checked against independent algebraic-number arithmetic;
        # for n >= 2 the published triples disagree with these (the
        # published scales are correct and asserted below)
        scale, triple = PAIRSUMSQ_ORACLE[n]
        assert derive(PairSumSqPower(n)) == ScaledSeq(F(scale), triple)

    @pytest.mark.parametrize("n", sorted(PAIRSUMSQ_PRINTED))
    def test_pair_sum_sq_printed_scales_match(self, n):
        assert derive(PairSumSqPower(n)).scale == PAIRSUMSQ_PRINTED[n][0]

    def test_pair_sum_sq_printed_triples_disagree_beyond_one(self):
        for n in range(2, 7):
            assert PAIRSUMSQ_PRINTED[n][1] != derive(PairSumSqPower(n)).triple

    @pytest.mark.parametrize(
        "make", [CPower, CofactorPower, SumCofactorConst, SumCofactorSqConst, PairSumSqPower]
    )
    @pytest.mark.parametrize("n", range(1, 13))
    def test_binet_holds_for_all_families(self, make, n):
        fam = make(n)
        assert binet_check(derive(fam), family_element(fam), 50)


class TestPaperRecursion:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_cpower_matches(self, n):
        result = derive_paper_recursive(CPower(n))
        assert result.match
        assert result.recursive == result.direct

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cofactor_matches(self, n):
        result = derive_paper_recursive(CofactorPower(n))
        assert result.match

    def test_cofactor_two_reproduces_worked_values(self):
        # published worked example: M = 9, N = 4, triple (1, 9, 4), scale 22^2
        result = derive_paper_recursive(CofactorPower(2))
        assert result.recursive == ScaledSeq(F(484), (1, 9, 4))

    def test_pairsumsq_two_replicates_printed_but_mismatches(self):
        # the printed recursion gives M = -1, N = 19/6, triple (6, -6, 19);
        # the exact element has traces (6, 6, -7)/484, so the flag is False
        result = derive_paper_recursive(PairSumSqPower(2))
        assert result.recursive == ScaledSeq(F(484), (6, -6, 19))
        assert result.direct == ScaledSeq(F(484), (6, 6, -7))
        assert not result.match

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pairsumsq_replicates_full_printed_table(self, n):
        result = derive_paper_recursive(PairSumSqPower(n))
        scale, triple = PAIRSUMSQ_PRINTED[n]
        assert result.recursive == ScaledSeq(F(scale), triple)
        assert not result.match

    def test_unsupported_family_rejected(self):
        with pytest.raises(ValueError):
            derive_paper_recursive(SumCofactorConst(2))

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            derive_paper_recursive(CPower(1))


REPLICABLE = [FamilyKind.CPOWER, FamilyKind.COFACTOR_POWER, FamilyKind.PAIR_SUM_SQ_POWER]


class TestStreamedTables:
    """The one-pass tables agree row by row with the per-n paths."""

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_derive_table_matches_derive(self, kind):
        assert derive_table(kind, 60) == [derive(PowerFamily(kind, n)) for n in range(1, 61)]

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_last_row_at_the_cap_matches_derive(self, kind):
        # the pair-sum-square and sum-cofactor elements are negative at the
        # real root, so their tables' signs alternate from row to row
        assert derive_table(kind, DEFAULT_RANGE_CAP)[-1] == derive(PowerFamily(kind, DEFAULT_RANGE_CAP))

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_replicate_table_matches_derive_paper_recursive(self, kind):
        table = replicate_paper_table(kind, derive_table(kind, 60))
        assert table == [derive_paper_recursive(PowerFamily(kind, n)) for n in range(2, 61)]

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_short_tables(self, kind):
        assert derive_table(kind, 0) == []
        assert replicate_paper_table(kind, derive_table(kind, 1)) == []

    def test_unsupported_family_rejected(self):
        kind = FamilyKind.SUM_COFACTOR_CONST
        with pytest.raises(ValueError):
            replicate_paper_table(kind, derive_table(kind, 1))

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_vanished_denominator_marks_every_later_row(self, k, monkeypatch):
        kind, n_max = FamilyKind.CPOWER, 9
        direct = derive_table(kind, n_max)
        real_step = derivation._STEPS[kind]
        vanishing_input = direct[k - 2].triple  # the step from n = k - 1 to n = k

        def step(triple, num, den):
            if triple == vanishing_input:
                raise ZeroDivisionError("x")
            return real_step(triple, num, den)

        monkeypatch.setitem(derivation._STEPS, kind, step)
        table = replicate_paper_table(kind, direct)
        note = "printed denominator vanished during replication: x"
        for n, result in enumerate(table, start=2):
            assert result == derive_paper_recursive(PowerFamily(kind, n))
            if n < k:
                assert result.match and result.recursive == direct[n - 1] and result.note == ""
            else:
                assert (result.recursive, result.match, result.note) == (None, False, note)


def _power_rows(q, n_max):
    """``normalize_egf(q**n)`` for n = 1..n_max as (numerator, positive
    denominator, triple), each power one more field product."""
    rows, power = [], q
    for _ in range(n_max):
        row = normalize_egf(power)
        rows.append((row.scale.numerator, row.scale.denominator, row.triple))
        power = power * q
    return rows


class TestPowerPairs:
    """The integer stepper's (num, den, triple) rows against the field's
    powers, compared as integer pairs, so an unreduced pair fails."""

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_family_elements(self, kind):
        q = family_element(PowerFamily(kind, 1))
        assert list(derivation._power_pairs(q, 60)) == _power_rows(q, 60)

    # rescaled by p / r, the scales turn negative and non-integral
    @given(st.sampled_from(list(FamilyKind)), st.integers(-30, 30).filter(bool), st.integers(1, 30))
    def test_rescaled_elements(self, kind, p, r):
        q = family_element(PowerFamily(kind, 1)) * F(p, r)
        assert list(derivation._power_pairs(q, 60)) == _power_rows(q, 60)


def _step_outcome(step, triple, scale):
    """step's (triple, num, den) from ``scale``, or ZeroDivisionError if a
    printed denominator vanishes; the messages differ by design and are
    not compared."""
    try:
        return step(triple, scale.numerator, scale.denominator)
    except ZeroDivisionError:
        return ZeroDivisionError


def _oracle_outcome(oracle, triple, scale):
    """The Fraction step's outcome as ``_step_outcome`` gives it: its scale
    as the reduced pair (numerator, positive denominator)."""
    try:
        triple, scale = oracle(triple, scale)
    except ZeroDivisionError:
        return ZeroDivisionError
    return triple, scale.numerator, scale.denominator


class TestIntegerSteps:
    """The integer printed steps against their Fraction form in oracles.py;
    the integer steps' scales are compared as pairs, so an unreduced pair
    fails."""

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_small_triples(self, kind):
        # the cpower and cofactor steps read their sign from a scalar that
        # holds for a table row only, so they go from each triple's
        # eventually positive sign; pairsumsq reads the norm, from any triple
        step, oracle = derivation._STEPS[kind], FRACTION_STEPS[kind]
        any_sign = kind is FamilyKind.PAIR_SUM_SQ_POWER
        for t in product(range(-6, 7), repeat=3):
            triple = t if any_sign or derivation._eventually_positive(t) else (-t[0], -t[1], -t[2])
            # a scale's denominator of 2 or 11 can share a factor with the
            # step's numerator, a divisor of 44
            for scale in (F(1), F(-22), F(7, 3), F(5, 22)):
                got = _step_outcome(step, triple, scale)
                assert got == _oracle_outcome(oracle, triple, scale), (triple, scale)

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_replayed_rows(self, kind):
        # every (triple, scale) the replay steps from, up to n = 400
        step, oracle = derivation._STEPS[kind], FRACTION_STEPS[kind]
        scale, triple = derive_table(kind, 1)[0]
        for _ in range(2, 401):
            got = step(triple, scale.numerator, scale.denominator)
            triple, scale = oracle(triple, scale)
            assert got == (triple, scale.numerator, scale.denominator)

    # a triple whose first vanishing printed denominator, in the order the
    # step divides, is the named one; (1, 0, 0) and (0, 1, 1) make both of
    # their family's denominators vanish
    @pytest.mark.parametrize("kind,triple,denominator", [
        (FamilyKind.CPOWER, (2, -1, 1), "5*s2*s1 - 4*s1*s0 - 3*s1^2"),
        (FamilyKind.CPOWER, (1, 0, 0), "5*s2*s1 - 4*s1*s0 - 3*s1^2"),
        (FamilyKind.CPOWER, (0, 3, 1), "3*s2 - s1"),
        (FamilyKind.COFACTOR_POWER, (1, 0, 1), "bh*dh - ah*eh"),
        (FamilyKind.COFACTOR_POWER, (0, 1, 1), "bh*dh - ah*eh"),
        (FamilyKind.COFACTOR_POWER, (5, 0, 1), "ah"),
        (FamilyKind.PAIR_SUM_SQ_POWER, (1, 1, 1), "s2 - 4*s1 + 3*s0"),
    ])
    def test_vanishing_denominator(self, kind, triple, denominator):
        step = derivation._STEPS[kind]
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(denominator)} = 0$"):
            step(triple, 1, 1)
        with pytest.raises(ZeroDivisionError):
            FRACTION_STEPS[kind](triple, F(1))
        note = f"printed denominator vanished during replication: {denominator} = 0"
        assert list(derivation._replay(step, ScaledSeq(F(1), triple), 6)) == [note] * 5


def _trace_step_of(kind):
    return derivation._trace_step(*integral_coeffs(family_element(PowerFamily(kind, 1))))


def _apply(matrix, s):
    return tuple(sum(m * v for m, v in zip(row, s)) for row in matrix)


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


#: each family's step in trace coordinates, K and the integer matrix N =
#: K M, written out as literals; ``_trace_step`` derives them from ``field``
TRACE_STEPS = {
    FamilyKind.CPOWER: (22, ((-4, -3, 5), (5, 1, 2), (2, 7, 3))),
    FamilyKind.COFACTOR_POWER: (44, ((-1, 4, -1), (-1, -2, 3), (3, 2, 1))),
    FamilyKind.PAIR_SUM_SQ_POWER: (44, ((3, -4, 1), (1, 4, -3), (-3, -2, 1))),
}


class TestTraceStep:
    """Each power table steps its rows by multiplication with the family
    element in trace coordinates, and the printed steps are that step."""

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_derived_matrices(self, kind):
        assert _trace_step_of(kind) == TRACE_STEPS[kind]

    @pytest.mark.parametrize("digits", [1, 20])
    def test_maps_traces_of_r_to_traces_of_q_r(self, digits):
        rng = random.Random(f"trace-step:{digits}")
        bound = 10**digits
        for _ in range(50):
            a = tuple(rng.randint(-bound, bound) for _ in range(3))
            r = tuple(rng.randint(-bound, bound) for _ in range(3))
            d = rng.randint(1, bound)
            k, matrix = derivation._trace_step(a, d)
            # t(q r) = t(a r) / d with q = a / d
            assert [F(v, k) for v in _apply(matrix, trace_triple(r))] == [
                F(v, d) for v in trace_triple(mul_coeffs(a, r))]

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_built_only_for_row_two(self, kind, monkeypatch):
        calls, real = [], derivation._trace_step
        monkeypatch.setattr(derivation, "_trace_step", lambda *a: calls.append(a) or real(*a))
        rows = derivation._scaled_powers(family_element(PowerFamily(kind, 1)), 5)
        assert derive_table(kind, 1) == [next(rows)] and calls == []
        next(rows)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", REPLICABLE)
    def test_printed_step_on_every_replayed_row(self, kind):
        # the printed cpower and cofactor steps are the matrix's step; the
        # printed pairsumsq step is tau(N s), with tau(t0, t1, t2) =
        # (t0, -t1, 2 t1 - t2), up to sign
        _, matrix = _trace_step_of(kind)
        base = derive_table(kind, 1)[0]
        replayed = derivation._replay(derivation._STEPS[kind], base, DEFAULT_RANGE_CAP)
        triples = [base.triple, *(triple for triple, _, _ in replayed)]
        assert len(triples) == DEFAULT_RANGE_CAP
        for triple, stepped in zip(triples, triples[1:]):
            v = _apply(matrix, triple)
            if kind is FamilyKind.PAIR_SUM_SQ_POWER:
                want = _primitive((v[0], -v[1], 2 * v[1] - v[2]))
                assert stepped in (want, tuple(-x for x in want))
            else:
                assert stepped == _primitive(v)


class TestElementWithTraces:
    def test_reconstructs_c_squared(self):
        elt = element_with_traces(F(2, 22), F(3, 22), F(10, 22))
        assert elt == c_element() ** 2

    def test_traces_round_trip(self):
        elt = element_with_traces(F(5), F(-3, 7), F(1, 2))
        assert [egf_rational_term(elt, k) for k in range(3)] == [F(5), F(-3, 7), F(1, 2)]

    @given(st.lists(st.fractions(max_denominator=50), min_size=3, max_size=3))
    def test_random_traces_round_trip(self, t):
        elt = element_with_traces(*t)
        assert [egf_rational_term(elt, k) for k in range(3)] == t


class TestReplaySign:
    """The replay's integer-determinant sign against the Fraction route, and
    the cpower and cofactor steps' scalar sign against the determinant."""

    @pytest.mark.parametrize("digits", [1, 3, 30, 300])
    def test_seeded_triples(self, digits):
        rng = random.Random(f"replay-sign:{digits}")
        bound = 10**digits
        for _ in range(200):
            t = tuple(rng.randint(-bound, bound) for _ in range(3))
            if t != (0, 0, 0):
                assert derivation._eventually_positive(t) is (
                    sign_at_real_root(element_with_traces(*t)) > 0)

    @pytest.mark.parametrize("t", [(1, 0, 0), (-1, 0, 0), (3, 1, 3), (-3, -1, -3),
                                   (10**40, -(10**40), 1), (-(10**40), 10**40, -1)])
    def test_hand_made_triples(self, t):
        assert derivation._eventually_positive(t) is (
            sign_at_real_root(element_with_traces(*t)) > 0)
        assert derivation._eventually_positive(tuple(-v for v in t)) is not (
            derivation._eventually_positive(t))

    @pytest.mark.parametrize("kind,positive", [(FamilyKind.CPOWER, 1999), (FamilyKind.COFACTOR_POWER, 1598)])
    def test_step_scalar_agrees_with_the_norm_to_the_cap(self, kind, positive, monkeypatch):
        # on every replayed row to the range cap, the cpower and cofactor
        # steps' scalar is nonzero and positive exactly when the norm calls
        # the candidate triple eventually positive
        seen, signed_triple = [], derivation._signed_triple

        def spy(v, scalar=None):
            seen.append((v, scalar))
            return signed_triple(v, scalar)

        monkeypatch.setattr(derivation, "_signed_triple", spy)
        results = replicate_paper_table(kind, derive_table(kind, DEFAULT_RANGE_CAP))
        assert all(r.match for r in results) and len(seen) == DEFAULT_RANGE_CAP - 1
        signs = []
        for v, scalar in seen:
            g = gcd(*v)
            signs.append(derivation._eventually_positive((v[0] // g, v[1] // g, v[2] // g)))
            assert scalar != 0 and (scalar > 0) is signs[-1]
        assert signs.count(True) == positive


class TestConjecture:
    def test_first_values(self):
        report = conjecture_check(5)
        assert report.all_equal
        assert [r.cpower_scale for r in report.rows] == [
            22, 484, 2**4 * 11**3, 2**5 * 11**4, 2**6 * 11**5,
        ]

    def test_no_counterexample_reported(self):
        assert conjecture_check(3).first_counterexample() is None

    def test_equal_scales_are_one_fraction(self):
        rows = conjecture_check(40).rows
        assert all(r.equal and r.cpower_scale is r.cofactor_scale for r in rows)
        assert all(type(r.cpower_scale) is F for r in rows)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            conjecture_check(0)

    def test_last_row_at_the_cap_matches_derive(self):
        row = conjecture_check(DEFAULT_RANGE_CAP).rows[-1]
        assert row.n == DEFAULT_RANGE_CAP and row.equal
        assert (row.cpower_scale, row.cofactor_scale) == (
            derive(CPower(2 * DEFAULT_RANGE_CAP)).scale, derive(CofactorPower(DEFAULT_RANGE_CAP)).scale)

    def test_rows_match_per_n_derive(self):
        assert [(r.cpower_scale, r.cofactor_scale) for r in conjecture_check(120).rows] == [
            (derive(CPower(2 * n)).scale, derive(CofactorPower(n)).scale) for n in range(1, 121)
        ]


class TestMultiplicativityConsistency:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 5), (6, 2)])
    def test_power_split(self, n, m):
        c = c_element()
        assert egf_rational_term(c ** (n + m), 0) == trace(c**n * c**m)
