"""Sequences, Binet round trips, and canonical EGF normalization."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from triboconv.field import FieldElement, X, ZERO, ZeroAtRoot, c_element, cofactor_element, trace
from triboconv.sequences import (
    ScaledSeq,
    TriboSeq,
    binet_check,
    egf_rational_term,
    egf_rational_terms,
    normalize_egf,
)

small_ints = st.integers(min_value=-50, max_value=50)
triples = st.tuples(small_ints, small_ints, small_ints)
fractions = st.fractions(min_value=-8, max_value=8, max_denominator=10)
elements = st.builds(FieldElement, fractions, fractions, fractions)
nonzero_elements = elements.filter(lambda q: not q.is_zero())


class TestTriboSeq:
    def test_ordinary_prefix(self):
        assert TriboSeq.ordinary().terms(11) == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]

    def test_term_of_modified_sequence(self):
        assert TriboSeq(2, 3, 10).term(3) == 15

    def test_term_with_negative_entry(self):
        assert TriboSeq(-1, 2, 7).term(3) == 8

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            TriboSeq.ordinary().term(-1)

    @given(triples, st.integers(min_value=3, max_value=40))
    def test_recurrence_holds(self, triple, k):
        s = TriboSeq(*triple)
        assert s.term(k) == s.term(k - 1) + s.term(k - 2) + s.term(k - 3)


class TestEgfRationalTerm:
    def test_c_gives_ordinary_tribonacci(self):
        c = c_element()
        assert [egf_rational_term(c, k) for k in range(5)] == [0, 1, 1, 2, 4]

    def test_constant_one_power_sums(self):
        assert egf_rational_term(FieldElement(1, 0, 0), 2) == 3

    def test_cofactor_at_zero(self):
        assert egf_rational_term(cofactor_element(), 0) == F(-1, 22)

    @given(elements, st.integers(min_value=0, max_value=30))
    def test_terms_match_single_term(self, q, k):
        assert egf_rational_terms(q, k + 1)[k] == egf_rational_term(q, k)

    @given(elements)
    def test_gram_matrix_matches_trace_of_products(self, q):
        # the closed-form trace triple against trace(x^k q) by field multiplication
        assert egf_rational_terms(q, 3) == [trace(q), trace(X * q), trace(X * X * q)]


class TestNormalizeEgf:
    def test_c_is_ordinary(self):
        assert normalize_egf(c_element()) == ScaledSeq(F(1), (0, 1, 1))

    def test_c_squared(self):
        assert normalize_egf(c_element() ** 2) == ScaledSeq(F(22), (2, 3, 10))

    def test_cofactor(self):
        assert normalize_egf(cofactor_element()) == ScaledSeq(F(22), (-1, 2, 7))

    def test_constant_one(self):
        assert normalize_egf(FieldElement(1, 0, 0)) == ScaledSeq(F(1), (3, 1, 3))

    def test_zero_raises(self):
        with pytest.raises(ZeroAtRoot):
            normalize_egf(ZERO)

    def test_rational_rescale_flags_nonintegral_scale(self):
        scaled = normalize_egf(2 * c_element())
        assert scaled == ScaledSeq(F(1, 2), (0, 1, 1))
        assert not scaled.integral
        assert normalize_egf(c_element()).integral

    @given(nonzero_elements)
    def test_triple_is_primitive(self, q):
        triple = normalize_egf(q).triple
        assert gcd(*[abs(v) for v in triple]) == 1

    @given(nonzero_elements, st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
    def test_scale_covariance_positive(self, q, lam):
        base = normalize_egf(q)
        scaled = normalize_egf(lam * q)
        assert scaled.triple == base.triple
        assert scaled.scale == base.scale / lam

    @given(nonzero_elements)
    def test_negation_flips_scale_not_triple(self, q):
        # canonical form keeps the (eventually positive) triple and moves
        # the sign into the scale, so A * q(alpha) > 0 still holds
        base = normalize_egf(q)
        flipped = normalize_egf(-q)
        assert flipped.triple == base.triple
        assert flipped.scale == -base.scale

    @given(nonzero_elements)
    def test_round_trip(self, q):
        scaled = normalize_egf(q)
        seq = scaled.sequence()
        traces = egf_rational_terms(q, 51)
        assert all(scaled.scale * traces[k] == seq.term(k) for k in range(51))


class TestBinetCheck:
    def test_ordinary(self):
        assert binet_check(ScaledSeq(F(1), (0, 1, 1)), c_element(), 20)

    def test_c_squared(self):
        assert binet_check(ScaledSeq(F(22), (2, 3, 10)), c_element() ** 2, 20)

    def test_perturbed_triple_fails(self):
        assert not binet_check(ScaledSeq(F(22), (2, 3, 11)), c_element() ** 2, 20)

    def test_non_integral_scale(self):
        # trace(x^k * 3c^2) = 3 T_k(2, 3, 10) / 22, so the scale is 22/3
        assert binet_check(ScaledSeq(F(22, 3), (2, 3, 10)), 3 * c_element() ** 2, 20)
        assert not binet_check(ScaledSeq(F(22, 3), (2, 3, 10)), c_element() ** 2, 20)
