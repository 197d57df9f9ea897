"""Convolution kernels, the list series and their division, and P1, P2
and T1 as rational functions and the rows they expand to."""

from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from triboconv import convolution
from triboconv.convolution import (
    ConstantSeq,
    IndexTooSmall,
    RationalSeries,
    WeightedSeq,
    _annihilator,
    _annihilator_degree,
    _extend,
    _poly_from_power_sums,
    _roots_within,
    binomial_convolve,
    cauchy_convolve,
    cross_difference,
    multinomial_conv_prefix,
    p1_rational,
    p2_rational,
    plain_conv_prefix,
    poly_times,
    prop1_lhs,
    prop2_rhs,
    series_T,
    series_check_derivatives,
    series_derivative,
    series_divide,
    series_reciprocal,
    t1_rational,
)
from triboconv.sequences import TriboSeq

from oracles import (
    extend_by_recurrence,
    multinomial_conv_enum,
    p1_sides_schoolbook,
    p2_sides_schoolbook,
    plain_conv_enum,
    poly_times_by_definition,
    series_check_derivatives_schoolbook,
    series_divide_by_definition,
    t1_sides_schoolbook,
)


def _t(count):
    return TriboSeq.ordinary().terms(count)


def _rows(sides, order):
    """Coefficients 0..order of both rational sides."""
    return tuple(side.coefficients(order) for side in sides())


class TestWeightedSeq:
    def test_prefix_applies_geometric_weight(self):
        w = WeightedSeq(TriboSeq.ordinary(), -2)
        assert w.prefix(5) == [0, -2, 4, -16, 64]
        assert w.term(3) == (-2) ** 3 * 2

    def test_constant_source(self):
        assert WeightedSeq(ConstantSeq(1)).prefix(4) == [1, 1, 1, 1]
        assert WeightedSeq(ConstantSeq(3), -1).prefix(4) == [3, -3, 3, -3]
        assert WeightedSeq(ConstantSeq(3), 2).prefix(0) == []

    def test_prefix_reads_the_memo_once(self, monkeypatch):
        # one term() call fills the memo to count terms; prefix reads it through terms()
        expected = [2**k * v for k, v in enumerate(TriboSeq(2, 3, 10).terms(40))]
        calls, term = [], TriboSeq.term
        monkeypatch.setattr(TriboSeq, "term", lambda self, k: calls.append(k) or term(self, k))
        assert WeightedSeq(TriboSeq(2, 3, 10), 2).prefix(40) == expected and calls == [39]

    def test_substitution_law(self):
        # one-sequence multinomial convolution is just the weighted term
        t = TriboSeq.ordinary()
        for b in (-3, 1, 2):
            for n in range(10):
                assert multinomial_conv_prefix([WeightedSeq(t, b)], n)[n] == b**n * t.term(n)


class TestPlainConv:
    def test_triple_at_three(self):
        t = _t(16)
        assert plain_conv_prefix([t, t, t], 3)[3] == 1

    def test_triple_at_zero(self):
        t = _t(16)
        assert plain_conv_prefix([t, t, t], 0)[0] == 0

    def test_pair_at_two(self):
        t = _t(16)
        assert plain_conv_prefix([t, t], 2)[2] == 1

    def test_matches_enumeration(self):
        t = _t(16)
        for n in range(16):
            assert plain_conv_prefix([t, t, t], n)[n] == plain_conv_enum([t, t, t], n)


class TestMultinomialConv:
    def test_pair_at_two(self):
        t = _t(13)
        assert multinomial_conv_prefix([t, t], 2)[2] == 2

    def test_four_fold_at_three_vanishes(self):
        t = _t(13)
        assert multinomial_conv_prefix([t, t, t, t], 3)[3] == 0

    def test_pair_at_zero(self):
        t = _t(13)
        assert multinomial_conv_prefix([t, t], 0)[0] == 0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_enumeration(self, r):
        t = _t(13)
        for n in range(13):
            assert multinomial_conv_prefix([t] * r, n)[n] == multinomial_conv_enum([t] * r, n)

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

    @pytest.mark.parametrize("base", range(-3, 4))
    def test_polynomial_made_once_equals_the_scaled_roots(self, base):
        # the attribute set at construction is the source's polynomial with
        # its coefficient of x^i times base^(d - i), as each read once made it
        for source in (TriboSeq.ordinary(), ConstantSeq(2), _t(5)):
            poly = getattr(source, "charpoly", None)
            expected = None if poly is None or base == 0 else tuple(
                c * base ** (len(poly) - 1 - i) for i, c in enumerate(poly))
            assert WeightedSeq(source, base).charpoly == expected

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


@st.composite
def _recurrences(draw):
    """A head of D values (ints or Fractions), a monic integer polynomial of
    degree D, often with zero coefficients, and n_max of D - 1, D or D + 5."""
    d = draw(st.integers(1, 6))
    coeff = st.just(0) | st.integers(-9, 9)
    poly = (*draw(st.lists(coeff, min_size=d, max_size=d)), 1)
    value = st.integers(-99, 99) | st.fractions(max_denominator=12)
    head = draw(st.lists(value, min_size=d, max_size=d))
    return head, poly, d - 1 + draw(st.sampled_from([0, 1, 6]))


class TestExtend:
    @given(_recurrences())
    @example(([3], (-2, 1), 0))
    @example(([F(1, 3)], (5, 1), 6))
    @example(([1, 0, F(-2, 7)], (-1, 0, 0, 1), 3))
    @example(([2, -1, 0, 4], (3, 0, -1, 0, 1), 9))
    def test_matches_the_plain_recurrence(self, case):
        assert _extend(*case) == extend_by_recurrence(*case)


class TestRootsWithin:
    """_roots_within(a, b): every root of a is a root of b."""

    L2 = _annihilator((TriboSeq.charpoly,) * 2)

    @pytest.mark.parametrize("r,degree", [(2, 6), (3, 10), (4, 15), (5, 21)])
    def test_degree_of_the_r_fold_annihilator(self, r, degree):
        assert len(_annihilator((TriboSeq.charpoly,) * r)) - 1 == degree

    @staticmethod
    def _power(poly, k):
        out = [1] + [0] * ((len(poly) - 1) * k)
        for _ in range(k):
            out = poly_times(poly, out)
        return tuple(out)

    def test_factors_and_repeated_roots_pass(self):
        # L2 = (x^3 - 2x^2 - 4x - 8)(x^3 - 2x^2 + 2); a power of a factor has
        # each root several times and still only roots of L2, and the fifth
        # power needs L2^5, past the fourth power
        g = (2, 0, -2, 1)
        for a in [(1,), (-8, -4, -2, 1), g, self.L2, self._power(g, 2), self._power(g, 5)]:
            assert _roots_within(a, self.L2), a
        assert _roots_within(self._power((-1, 1), 5), (-1, 1))  # (x - 1)^5 against x - 1

    def test_a_root_outside_fails(self):
        assert not _roots_within((-2, 1), self.L2)  # x - 2
        assert not _roots_within(TriboSeq.charpoly, self.L2)
        # one root outside among roots of L2
        assert not _roots_within(tuple(poly_times((-2, 1), [2, 0, -2, 1, 0])), self.L2)
        assert not _roots_within(self._power((-1, 1), 5), (1, 1))  # (x - 1)^5 against x + 1


def prop1_reference(n):
    """prop1_lhs as the printed per-n sum."""
    t = _t(n + 1)
    return sum(t[k] * (t[n - k] + t[n - k - 2] + 2 * t[n - k - 3]) for k in range(n - 2))


def prop2_reference(n):
    """prop2_rhs as the printed per-n double sum, weight evaluated afresh
    for every l (the adopted reading in prop2_rhs's docstring)."""
    t = _t(n + 1)
    total = 0
    for l in range(1, n):
        weight = 0
        for i in range((n - l - 1) // 3 + 1):
            m = n - l - i - 1
            if m % 2 == 0:
                weight += 2**i * (-1) ** (m // 2) * comb(m // 2, i)
        total += weight * l * t[l]
    return total


def t1_reference(n, triple):
    """T1's right side as the printed per-n shifted sum over the triple
    plain convolution table, n >= 5."""
    return (
        6 * triple[n - 5] + 6 * triple[n - 4] + 12 * triple[n - 2]
        + 6 * triple[n - 1] + 2 * triple[n]
    )


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

    def test_table_matches_per_n_sum(self):
        table, _ = _rows(p1_rational, 300)
        assert len(table) == 301
        assert table[3:] == [prop1_reference(n) for n in range(3, 301)]


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

    def test_table_matches_per_n_double_sum(self):
        _, table = _rows(p2_rational, 300)
        assert len(table) == 301
        assert table[2:] == [prop2_reference(n) for n in range(2, 301)]


class TestT1:
    def test_rows_match_printed_per_n_sides(self):
        t = _t(301)
        lhs, rhs = _rows(t1_rational, 300)
        triple = plain_conv_prefix([t, t, t], 300)
        assert lhs[5:] == [(n - 1) * (n - 2) * t[n - 1] for n in range(5, 301)]
        assert rhs[5:] == [t1_reference(n, triple) for n in range(5, 301)]


@pytest.mark.parametrize("sides", [p1_rational, p2_rational, t1_rational], ids=["p1_sides", "p2_sides", "t1_sides"])
@pytest.mark.parametrize("order", [0, 1, 300])
def test_sides_agree_at_every_coefficient(sides, order):
    """The generating-function identity itself: both sides agree at every
    coefficient 0..order, below the printed start too."""
    lhs, rhs = _rows(sides, order)
    assert len(lhs) == len(rhs) == order + 1
    assert lhs == rhs


@pytest.mark.parametrize(
    "sides,schoolbook",
    [(p1_rational, p1_sides_schoolbook), (p2_rational, p2_sides_schoolbook),
     (t1_rational, t1_sides_schoolbook)],
    ids=["P1", "P2", "T1"],
)
@pytest.mark.parametrize("order", [*range(13), 600])
def test_sides_equal_the_schoolbook_product(sides, schoolbook, order):
    assert _rows(sides, order) == schoolbook(order)


@pytest.mark.parametrize("order", [*range(6, 13), 600])
def test_derivative_relations_equal_the_schoolbook_product(order):
    assert series_check_derivatives(order) == series_check_derivatives_schoolbook(order)


_polys = st.lists(st.integers(-5, 5), max_size=6)
_rationals = st.builds(lambda num, tail: RationalSeries(num, [1, *tail]), _polys, _polys)


def _divided_by_definition(r: RationalSeries, order: int) -> list:
    """Coefficients 0..order of r, each solved from the one before."""
    return series_divide_by_definition((r.num + [0] * (order + 1))[: order + 1], r.den)


class TestRationalSides:
    """P1, P2 and T1 as rational functions: their expansions are the series
    division by definition, and their cross-multiplied differences are zero."""

    RATIONAL = [p1_rational, p2_rational, t1_rational]

    @pytest.mark.parametrize("rational", RATIONAL, ids=["P1", "P2", "T1"])
    @pytest.mark.parametrize("order", [*range(13), 2000])
    def test_sides_expand_to_the_series_sides(self, rational, order):
        # denominators of degree 6 to 12, longer than any _rationals draws
        assert _rows(rational, order) == tuple(_divided_by_definition(side, order) for side in rational())

    @given(_rationals, st.integers(0, 20))
    @settings(max_examples=80)
    def test_coefficients_are_the_division_by_definition(self, r, order):
        assert r.coefficients(order) == _divided_by_definition(r, order)

    @pytest.mark.parametrize("sides", RATIONAL, ids=["P1", "P2", "T1"])
    def test_cross_differences_are_zero(self, sides):
        difference = cross_difference(sides)
        assert difference and not any(difference)

    @pytest.mark.parametrize("sides,constant,value", [
        (t1_rational, "_T1_POLY", (2, 6, 12, 0, 6, 7)),
        (p1_rational, "_T_PRIME_NUMERATOR", (1, 0, 1, 3)),
        (p2_rational, "_T_PRIME_NUMERATOR", (1, 0, 1, 3)),
        (p1_rational, "_P1_OFFSET", (0, 1, 2)),
    ], ids=["T1-7x5", "P1-3x3", "P2-3x3", "P1-2x2"])
    def test_a_changed_constant_gives_a_nonzero_difference(self, monkeypatch, sides, constant, value):
        monkeypatch.setattr(convolution, constant, value)
        lhs, rhs = _rows(sides, 40)
        assert lhs != rhs and any(cross_difference(sides))

    def test_the_difference_is_n1_d2_minus_n2_d1(self):
        left, right = RationalSeries((1, 2), (1, -1)), RationalSeries((3,), (1, 0, 4))
        # (1 + 2x)(1 + 4x^2) - 3(1 - x)
        assert (left - right).num == [-2, 5, 4, 8]
        assert (left - right).den == [1, -1, 4, -4]

    @given(_rationals, _rationals)
    @settings(max_examples=60)
    def test_products_and_differences_are_those_of_the_series(self, a, b):
        order = 12
        sa, sb = a.coefficients(order), b.coefficients(order)
        assert (a * b).coefficients(order) == cauchy_convolve(sa, sb)
        assert (a - b).coefficients(order) == [x - y for x, y in zip(sa, sb)]

    @given(_rationals)
    @settings(max_examples=60)
    def test_the_derivative_is_that_of_the_series(self, a):
        assert a.derivative().coefficients(11) == series_derivative(a.coefficients(12))


class TestPolyTimes:
    @given(st.lists(st.integers(-3, 3), max_size=12), st.lists(st.integers(-10**6, 10**6), max_size=10))
    @example([0, 0, 2, 0, -1, 0, 0, 0, 0, 0, 0, 5], [4, -3, 7])  # zeros, and poly longer than s
    @example([1, -1, -1, -1], [])
    @settings(max_examples=100)
    def test_equals_the_product_by_definition(self, poly, s):
        assert poly_times(poly, s) == poly_times_by_definition(poly, s)


class TestSeriesDivide:
    @given(
        st.lists(st.integers(-10**6, 10**6), max_size=20)
        | st.lists(st.fractions(-50, 50, max_denominator=9), max_size=20),
        st.lists(st.integers(-9, 9), max_size=6),
    )
    @settings(max_examples=60)
    def test_product_with_the_divisor_gives_back_the_series(self, s, tail):
        a = [1, *tail]
        assert cauchy_convolve(series_divide(s, a), a + [0] * len(s)) == s

    @given(st.lists(st.integers(-10**6, 10**6), max_size=40), st.lists(st.integers(-9, 9), max_size=5))
    @example([3, -4, 5], [])  # a = (1,): the series itself
    @settings(max_examples=80)
    def test_equals_the_division_by_definition(self, s, tail):
        a = (1, *tail)
        assert series_divide(s, a) == series_divide_by_definition(s, a)

    # series_reciprocal's two exceptions are tested in TestTruncSeries
    @pytest.mark.parametrize("s", [[], [1, 2]])
    def test_divisor_needs_unit(self, s):
        with pytest.raises(ZeroDivisionError):
            series_divide(s, [0, 1])

    @pytest.mark.parametrize("s", [[], [1, 2]])
    def test_divisor_needs_constant_term_one(self, s):
        with pytest.raises(ValueError):
            series_divide(s, [2, 1])


class TestTruncSeries:
    """Truncated series as integer coefficient lists."""

    def test_coefficient_five_is_seven(self):
        assert series_T(12)[5] == 7

    def test_prefix_is_tribonacci(self):
        t = series_T(20)
        assert len(t) == 21
        assert t[:11] == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]

    def test_defining_relation(self):
        order = 30
        t = series_T(order)
        assert poly_times([1, -1, -1, -1], t) == [0, 1] + [0] * (order - 1)

    def test_reciprocal_roundtrip(self):
        s = [1, 2, -3, F(1, 2), 0, 4]
        assert cauchy_convolve(s, series_reciprocal(s, 5)) == [1, 0, 0, 0, 0, 0]

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            series_reciprocal([0, 1], 3)

    def test_reciprocal_needs_constant_term_one(self):
        with pytest.raises(ValueError):
            series_reciprocal([2, 1], 3)

    def test_derivative(self):
        assert series_derivative([5, 1, 2, 3]) == [1, 4, 9]

    def test_derivative_checks_at_forty(self):
        assert series_check_derivatives(40)

    def test_order_below_six_rejected(self):
        with pytest.raises(ValueError):
            series_check_derivatives(5)
