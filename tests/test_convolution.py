"""Convolution kernels, the two closed-form pair sums, and the series oracle."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from triboconv.convolution import (
    ConstantSeq,
    IndexTooSmall,
    TruncSeries,
    WeightedSeq,
    _annihilator,
    _annihilator_degree,
    _poly_from_power_sums,
    binomial_convolve,
    multinomial_conv,
    multinomial_conv_enum,
    multinomial_conv_prefix,
    plain_conv,
    plain_conv_enum,
    prop1_lhs,
    prop2_rhs,
    series_T,
    series_check_derivatives,
)
from triboconv.sequences import TriboSeq


def _t(count):
    return TriboSeq.ordinary().terms(count)


class TestWeightedSeq:
    def test_prefix_applies_geometric_weight(self):
        w = WeightedSeq(TriboSeq.ordinary(), -2)
        assert w.prefix(5) == [0, -2, 4, -16, 64]
        assert w.term(3) == (-2) ** 3 * 2

    def test_constant_source(self):
        assert WeightedSeq(ConstantSeq(1)).prefix(4) == [1, 1, 1, 1]

    def test_substitution_law(self):
        # one-sequence multinomial convolution is just the weighted term
        t = TriboSeq.ordinary()
        for b in (-3, 1, 2):
            for n in range(10):
                assert multinomial_conv([WeightedSeq(t, b)], n) == b**n * t.term(n)


class TestPlainConv:
    def test_triple_at_three(self):
        t = _t(16)
        assert plain_conv([t, t, t], 3) == 1

    def test_triple_at_zero(self):
        t = _t(16)
        assert plain_conv([t, t, t], 0) == 0

    def test_pair_at_two(self):
        t = _t(16)
        assert plain_conv([t, t], 2) == 1

    def test_matches_enumeration(self):
        t = _t(16)
        for n in range(16):
            assert plain_conv([t, t, t], n) == plain_conv_enum([t, t, t], n)


class TestMultinomialConv:
    def test_pair_at_two(self):
        t = _t(13)
        assert multinomial_conv([t, t], 2) == 2

    def test_four_fold_at_three_vanishes(self):
        t = _t(13)
        assert multinomial_conv([t, t, t, t], 3) == 0

    def test_pair_at_zero(self):
        t = _t(13)
        assert multinomial_conv([t, t], 0) == 0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_enumeration(self, r):
        t = _t(13)
        for n in range(13):
            assert multinomial_conv([t] * r, n) == multinomial_conv_enum([t] * r, n)

    def test_permutation_invariance(self):
        a = WeightedSeq(TriboSeq(2, 3, 10), 2).prefix(12)
        b = WeightedSeq(TriboSeq(-1, 2, 7), -1).prefix(12)
        c = _t(12)
        base = multinomial_conv_prefix([a, b, c], 11)
        assert multinomial_conv_prefix([c, a, b], 11) == base
        assert multinomial_conv_prefix([b, c, a], 11) == base

    @given(
        st.lists(st.integers(-9, 9), min_size=25, max_size=25),
        st.lists(st.integers(-9, 9), min_size=25, max_size=25),
        st.lists(st.integers(-9, 9), min_size=25, max_size=25),
    )
    @settings(max_examples=30)
    def test_binomial_convolution_associative(self, f, g, h):
        assert binomial_convolve(binomial_convolve(f, g), h) == binomial_convolve(
            f, binomial_convolve(g, h)
        )


_TRIPLE = st.tuples(*[st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)] * 3)
_FACTOR = st.builds(
    WeightedSeq,
    st.builds(lambda t: TriboSeq(*t), _TRIPLE) | st.builds(ConstantSeq, st.integers(-3, 3)),
    st.integers(-3, 3),
)


class TestRecurrenceKernel:
    """multinomial_conv_prefix extends by the annihilator's recurrence when
    every factor declares a polynomial; plain lists force the schoolbook."""

    @given(st.lists(_FACTOR, min_size=2, max_size=5), st.integers(-2, 20))
    @settings(max_examples=80)
    def test_matches_schoolbook(self, seqs, past):
        polys = [s.charpoly for s in seqs]
        degree = 0 if None in polys else _annihilator_degree(Counter(polys))
        n = max(0, min(degree + past, 90))
        expected = multinomial_conv_prefix([s.prefix(n + 1) for s in seqs], n)
        assert multinomial_conv_prefix(seqs, n) == expected

    def test_declared_polynomials(self):
        t = TriboSeq.ordinary()
        assert t.charpoly == (-1, -1, -1, 1)
        assert ConstantSeq(5).charpoly == (-1, 1)
        assert WeightedSeq(t, -2).charpoly == (8, -4, 2, 1)  # x^3 + 2x^2 - 4x + 8
        assert WeightedSeq(ConstantSeq(1), 3).charpoly == (-3, 1)
        assert WeightedSeq(t, 0).charpoly is None
        assert WeightedSeq(_t(5), 2).charpoly is None

    def test_symmetric_square_of_tribonacci(self):
        # (x^3 - 2x^2 - 4x - 8)(x^3 - 2x^2 + 2): roots 2*alpha and 1 - alpha
        t = TriboSeq.charpoly
        assert _annihilator((t, t)) == (-16, -8, 12, 2, 0, -4, 1)

    def test_five_factors_of_t_give_degree_21(self):
        assert len(_annihilator((TriboSeq.charpoly,) * 5)) - 1 == 21

    def test_non_integral_newton_step_raises(self):
        # p_1 = 1, p_2 = 2 for two roots: e_2 = (1 - 2) / 2
        with pytest.raises(ArithmeticError):
            _poly_from_power_sums([2, 1, 2])
        assert _poly_from_power_sums([2, 1, 3]) == (-1, -1, 1)  # x^2 - x - 1


class TestProp1:
    def test_smallest_index(self):
        assert prop1_lhs(3) == 0

    def test_n_four(self):
        assert prop1_lhs(4) == 3

    def test_closed_form_at_ten(self):
        assert prop1_lhs(10) == 8 * 81 - 44  # (n-2) T_9 - T_8

    def test_below_range(self):
        with pytest.raises(IndexTooSmall):
            prop1_lhs(2)


class TestProp2:
    def test_n_two(self):
        assert prop2_rhs(2) == 1

    def test_n_three(self):
        assert prop2_rhs(3) == 2

    def test_matches_pair_convolution(self):
        t = _t(41)
        for n in range(2, 41):
            assert prop2_rhs(n) == sum(t[k] * t[n - k] for k in range(n + 1))

    def test_below_range(self):
        with pytest.raises(IndexTooSmall):
            prop2_rhs(1)


class TestTruncSeries:
    def test_coefficient_five_is_seven(self):
        assert series_T(12)[5] == 7

    def test_prefix_is_tribonacci(self):
        t = series_T(20)
        assert [t[k] for k in range(11)] == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]

    def test_defining_relation(self):
        order = 30
        t = series_T(order)
        assert TruncSeries([1, -1, -1, -1], order) * t == TruncSeries([0, 1], order)

    def test_reciprocal_roundtrip(self):
        s = TruncSeries([1, 2, -3, F(1, 2), 0, 4], 5)
        assert s * s.reciprocal() == TruncSeries([1], 5)

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            TruncSeries([0, 1], 3).reciprocal()

    def test_derivative(self):
        s = TruncSeries([5, 1, 2, 3], 3)
        assert s.derivative() == TruncSeries([1, 4, 9], 2)

    def test_derivative_checks_at_forty(self):
        assert series_check_derivatives(40)

    def test_order_below_six_rejected(self):
        with pytest.raises(ValueError):
            series_check_derivatives(5)
