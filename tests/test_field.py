"""Field arithmetic in Q[x]/(x^3 - x^2 - x - 1): examples and ring laws."""

import cmath
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from triboconv import field
from triboconv.field import (
    ONE,
    REAL_ROOT_BRACKET,
    X,
    FieldElement,
    RootInterval,
    ZeroAtRoot,
    ZeroElement,
    c_element,
    cofactor_element,
    inverse,
    mul_coeffs,
    norm,
    sign_at_real_root,
    trace,
)
from oracles import norm_by_newton

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
elements = st.builds(FieldElement, fractions, fractions, fractions)
nonzero_elements = elements.filter(lambda q: not q.is_zero())


def _float_roots() -> tuple[complex, complex, complex]:
    iv = REAL_ROOT_BRACKET.bisect(64)
    alpha = float((iv.lower + iv.upper) / 2)
    # remaining quadratic factor x^2 + (alpha-1)x + (alpha^2-alpha-1)
    disc = cmath.sqrt(complex(-3 * alpha * alpha + 2 * alpha + 5))
    beta = ((1 - alpha) + disc) / 2
    return (complex(alpha), beta, beta.conjugate())


FLOAT_ROOTS = _float_roots()


def float_embeddings(q: FieldElement) -> tuple[complex, complex, complex]:
    """Float approximations of q at the real root and the conjugate pair:
    a sanity witness for the certified sign, never an authority."""
    return tuple(complex(q.a0) + complex(q.a1) * r + complex(q.a2) * r * r for r in FLOAT_ROOTS)


class TestAddMul:
    def test_add_coefficientwise(self):
        assert FieldElement(1, 0, 0) + FieldElement(0, 1, 0) == FieldElement(1, 1, 0)

    def test_add_identity(self):
        c = c_element()
        assert c + FieldElement() == c

    def test_additive_inverse(self):
        c = c_element()
        assert c + (-c) == FieldElement()

    def test_one_reduction_step(self):
        # x * x^2 = x^3 = 1 + x + x^2
        assert X * (X * X) == FieldElement(1, 1, 1)

    def test_two_reduction_steps(self):
        # x * x^3 = x^4 = 1 + 2x + 2x^2
        assert X * (X * (X * X)) == FieldElement(1, 2, 2)

    def test_c_element_times_defining_denominator(self):
        assert c_element() * FieldElement(-1, 4, -1) == ONE

    def test_scalar_multiplication(self):
        assert 2 * X == FieldElement(0, 2, 0)
        assert F(1, 3) * FieldElement(3, 6, 9) == FieldElement(1, 2, 3)


class TestPower:
    def test_equals_repeated_multiplication(self):
        x, product = c_element(), ONE
        for n in range(65):
            assert x**n == product, n
            product = product * x

    def test_negative_power_is_the_inverse_power(self):
        assert c_element() ** -3 == inverse(c_element()) ** 3

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 64, 65])
    def test_one_product_per_square_and_per_set_bit_past_the_lowest(self, monkeypatch, n):
        # no product with ONE, and no square past the top bit: n = 1 takes none
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul_coeffs(a, b)

        monkeypatch.setattr(field, "mul_coeffs", counting)
        c_element() ** n
        expected = 0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1
        assert len(calls) == expected

    @given(nonzero_elements, st.integers(-6, 40))
    def test_integer_ladder_equals_fraction_products(self, q, n):
        # the ladder runs on integer coefficients over d^n; q^|n| by repeated
        # Fraction products, and for n < 0 its product with q^n is one
        product = ONE.coeffs
        for _ in range(abs(n)):
            product = mul_coeffs(product, q.coeffs)
        power = (q**n).coeffs
        assert all(isinstance(v, F) for v in power)
        assert (power if n >= 0 else mul_coeffs(power, product)) == (product if n >= 0 else ONE.coeffs)


class TestInverse:
    def test_inverse_of_one(self):
        assert inverse(ONE) == ONE

    def test_inverse_defining_c(self):
        # solved independently as a 3x3 rational linear system
        assert inverse(FieldElement(-1, 4, -1)) == FieldElement(F(-2, 11), F(-3, 22), F(5, 22))

    def test_inverse_of_x(self):
        # x * (x^2 - x - 1) = x^3 - x^2 - x = 1
        assert inverse(X) == FieldElement(-1, -1, 1)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroElement):
            inverse(FieldElement())

    @given(nonzero_elements)
    def test_inverse_roundtrip(self, q):
        assert q * inverse(q) == ONE


class TestTraceNorm:
    def test_trace_of_one(self):
        assert trace(ONE) == 3

    def test_trace_of_c(self):
        assert trace(c_element()) == 0

    def test_trace_of_x_times_c(self):
        assert trace(X * c_element()) == 1

    def test_trace_of_x_squared(self):
        # Newton identity p2 = e1 p1 - 2 e2 = 1 + 2 = 3
        assert trace(X * X) == 3

    def test_norm_of_one(self):
        assert norm(ONE) == 1

    def test_norm_of_x(self):
        assert norm(X) == 1

    def test_norm_of_c(self):
        assert norm(c_element()) == F(1, 44)

    def test_norm_of_constant_is_cube(self):
        assert norm(FieldElement.constant(F(-3, 5))) == F(-27, 125)

    @given(elements, elements)
    def test_trace_additive(self, p, q):
        assert trace(p + q) == trace(p) + trace(q)

    @given(fractions, elements)
    def test_trace_scalar(self, k, q):
        assert trace(k * q) == k * trace(q)

    @given(elements, elements)
    def test_norm_multiplicative(self, p, q):
        assert norm(p * q) == norm(p) * norm(q)

    @given(elements)
    def test_norm_routes_agree(self, q):
        assert norm(q) == norm_by_newton(q)

    def test_trace_power_sequence_recurrence(self):
        # trace(x^k) follows the three-term recurrence from (3, 1, 3)
        traces = [trace(X**k) for k in range(20)]
        assert traces[:3] == [3, 1, 3]
        for k in range(3, 20):
            assert traces[k] == traces[k - 1] + traces[k - 2] + traces[k - 3]


class TestRingLaws:
    @given(elements, elements)
    def test_add_commutative(self, p, q):
        assert p + q == q + p

    @given(elements, elements)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(elements, elements, elements)
    def test_add_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(elements, elements, elements)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(elements, elements, elements)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestSpecialElements:
    def test_c_element_coeffs(self):
        assert c_element().coeffs == (F(-2, 11), F(-3, 22), F(5, 22))

    def test_trace_x2_times_c(self):
        assert trace(X * (X * c_element())) == 1

    def test_cofactor_coeffs(self):
        assert cofactor_element().coeffs == (F(-1, 44), F(1, 11), F(-1, 44))

    def test_cofactor_trace(self):
        assert trace(cofactor_element()) == F(-1, 22)

    def test_c_times_cofactor_is_constant(self):
        assert c_element() * cofactor_element() == FieldElement.constant(F(1, 44))


class TestSignAtRealRoot:
    def test_sign_of_c_is_positive(self):
        assert sign_at_real_root(c_element()) == 1

    def test_sign_of_negative_constant(self):
        assert sign_at_real_root(FieldElement.constant(-5)) == -1

    def test_sign_of_pair_sum_square(self):
        # at the real root this element evaluates to c2^2 + c3^2 < 0
        c2 = c_element() ** 2
        pair = FieldElement.constant(trace(c2)) - c2
        assert sign_at_real_root(pair) == -1

    def test_zero_raises(self):
        with pytest.raises(ZeroAtRoot):
            sign_at_real_root(FieldElement())

    def test_agrees_with_float_on_random_elements(self):
        rng = random.Random(2024)
        for _ in range(1000):
            q = FieldElement(
                F(rng.randint(-40, 40), rng.randint(1, 12)),
                F(rng.randint(-40, 40), rng.randint(1, 12)),
                F(rng.randint(-40, 40), rng.randint(1, 12)),
            )
            if q.is_zero():
                continue
            certified = sign_at_real_root(q)
            approx = float_embeddings(q)[0].real
            # the interval result is the authority; the float is a sanity witness
            assert (approx > 0) == (certified > 0)

    @given(nonzero_elements)
    def test_integer_norm_sign_is_the_fraction_norm_sign(self, q):
        assert sign_at_real_root(q) == (1 if norm(q) > 0 else -1)

    def test_tiny_embedding_still_resolves(self):
        q = c_element() ** 50  # about 2e-24 at the real root
        assert sign_at_real_root(q) == 1


class TestSignOfPowers:
    """sign(q^k) = sign(q)^k far below float precision: c^200 is about
    1e-95 at the real root, and the pair-sum power alternates in sign."""

    @staticmethod
    def _pair_sum_element():
        c2 = c_element() ** 2
        return FieldElement.constant(trace(c2)) - c2

    @staticmethod
    def _fixed_random_elements():
        rng = random.Random(7)
        return [FieldElement(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))
                for _ in range(4)]

    def _assert_sign_is_multiplicative(self, q, expected=None):
        sign = sign_at_real_root(q)
        if expected is not None:
            assert sign == expected
        power = ONE
        for k in range(1, 201):
            power = power * q
            assert sign_at_real_root(power) == sign**k, k

    def test_c_element(self):
        self._assert_sign_is_multiplicative(c_element(), 1)

    def test_cofactor_element(self):
        self._assert_sign_is_multiplicative(cofactor_element(), 1)

    def test_pair_sum_element(self):
        self._assert_sign_is_multiplicative(self._pair_sum_element(), -1)

    def test_fixed_random_elements(self):
        elements = self._fixed_random_elements()
        assert {sign_at_real_root(q) for q in elements} == {1, -1}
        for q in elements:
            self._assert_sign_is_multiplicative(q)


class TestFloatEmbeddings:
    def test_embeddings_of_x_match_the_roots(self):
        a, b, g = float_embeddings(X)
        assert a.real == pytest.approx(1.839286755, abs=1e-8)
        assert a.imag == 0
        assert b.real == pytest.approx(-0.4196433776, abs=1e-8)
        assert abs(b.imag) == pytest.approx(0.6062907292, abs=1e-8)
        assert g == b.conjugate()

    def test_embeddings_of_constant(self):
        assert float_embeddings(ONE) == (1, 1, 1)

    def test_embeddings_of_c(self):
        a, b, g = float_embeddings(c_element())
        assert a.real == pytest.approx(0.3362281170, abs=1e-8)
        assert b.real == pytest.approx(-0.1681140585, abs=1e-8)
        assert abs(b.imag) == pytest.approx(0.1983241401, abs=1e-8)
        assert g == b.conjugate()


class TestRootInterval:
    def test_bisection_narrows_and_keeps_the_root(self):
        def min_poly(v):
            return ((v - 1) * v - 1) * v - 1

        iv = RootInterval(F(11, 6), F(15, 8)).bisect(20)
        assert iv.lower < iv.upper
        assert iv.width() < F(1, 10**5)
        # the sign change certifies the root stayed strictly inside
        assert min_poly(iv.lower) < 0 < min_poly(iv.upper)
