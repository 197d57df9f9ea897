"""Exact arithmetic in K = Q[x]/(x^3 - x^2 - x - 1).

The minimal polynomial x^3 - x^2 - x - 1 is irreducible over Q with one
real root (1.8392...) and a complex-conjugate pair.  An element is stored
reduced in the power basis (1, x, x^2) with Fraction coefficients, so
equality is plain coefficient comparison.  Trace and norm of any element
are rational and are computed without ever constructing the roots: the
trace form is one Gram matrix, and the norm is one determinant.

No floating point and no search is used anywhere: inverse and norm are
closed forms in the coefficients, and :func:`sign_at_real_root` reads the
sign of the norm, because the two complex embeddings multiply to a
positive number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

#: Trace Gram matrix [trace(x^(i+j))] for i, j = 0, 1, 2.  Row 0 holds the
#: power sums of the three roots (Newton's identities from e1 = 1, e2 = -1,
#: e3 = 1); the later rows follow from x^3 = x^2 + x + 1.
_TRACE_GRAM = ((3, 1, 3), (1, 3, 7), (3, 7, 11))

#: 22 times the inverse of the trace Gram matrix, an integer matrix.
_TRACE_GRAM_INVERSE_22 = ((8, -5, 1), (-5, -12, 9), (1, 9, -4))


class FieldError(ArithmeticError):
    """Base class for errors raised by the field module."""


class ZeroElement(FieldError):
    """Inversion of the zero element was requested."""


class ZeroAtRoot(FieldError):
    """A sign or normalization query was made for an element vanishing at
    the real root (equivalently, for the zero element: the minimal
    polynomial is irreducible, so no nonzero reduced element vanishes
    there)."""


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class FieldElement:
    """a0 + a1*x + a2*x^2 modulo x^3 - x^2 - x - 1, coefficients exact.

    Instances are immutable (read-only properties over one slot, as in
    Fraction) and hashable; all operators return new elements, so values
    are safe to share between threads.
    """

    __slots__ = ("_coeffs",)

    a0 = property(lambda self: self._coeffs[0])
    a1 = property(lambda self: self._coeffs[1])
    a2 = property(lambda self: self._coeffs[2])

    def __init__(self, a0=0, a1=0, a2=0):
        self._coeffs = (_frac(a0), _frac(a1), _frac(a2))

    @classmethod
    def constant(cls, value) -> "FieldElement":
        return cls(_frac(value), 0, 0)

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not (self.a0 or self.a1 or self.a2)

    # -- ring operators -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return FieldElement(-self.a0, -self.a1, -self.a2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _frac(other)
            return FieldElement(k * self.a0, k * self.a1, k * self.a2)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return FieldElement(*mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return inverse(self) ** (-n)
        if not n:
            return ONE
        # q = a / d with a integral, so q^n = a^n / d^n: the ladder runs on integers
        base, d = integral_coeffs(self)
        denom = d**n
        while not n & 1:  # up to the lowest set bit, which starts the result
            base, n = mul_coeffs(base, base), n >> 1
        result = base
        while n := n >> 1:  # one square per higher bit, none past the top one
            base = mul_coeffs(base, base)
            if n & 1:
                result = mul_coeffs(result, base)
        return FieldElement(*(Fraction(v, denom) for v in result))

    def __eq__(self, other):
        return self._coeffs == other._coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"FieldElement(a0={self.a0!r}, a1={self.a1!r}, a2={self.a2!r})"

    def __str__(self) -> str:
        parts = []
        for coef, mon in zip(self.coeffs, ("", "*x", "*x^2")):
            if coef:
                parts.append(f"{coef}{mon}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _coerce(v):
    if isinstance(v, FieldElement):
        return v
    if isinstance(v, (int, Fraction)):
        return FieldElement.constant(v)
    return NotImplemented


def mul_coeffs(a: tuple, b: tuple) -> tuple:
    """Product of a0 + a1*x + a2*x^2 and b0 + b1*x + b2*x^2 reduced modulo
    x^3 - x^2 - x - 1, on coefficients of any ring (ints or Fractions)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    # plain polynomial product, then x^3 -> x^2+x+1 and x^4 -> 2x^2+2x+1
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    return (c0 + c3 + c4, c1 + c3 + 2 * c4, c2 + c3 + 2 * c4)


def integral_coeffs(q: FieldElement) -> tuple[tuple[int, int, int], int]:
    """q as ((a0, a1, a2), d) with q = (a0 + a1*x + a2*x^2) / d, the a_i
    integers and d > 0 the lcm of q's coefficient denominators."""
    d = lcm(*(v.denominator for v in q.coeffs))
    return tuple(v.numerator * (d // v.denominator) for v in q.coeffs), d


ONE = FieldElement(1, 0, 0)
X = FieldElement(0, 1, 0)


def _mult_matrix(a: tuple) -> list[list]:
    """Matrix of multiplication by a0 + a1*x + a2*x^2 in the basis
    (1, x, x^2), on coefficients of any ring; columns are the coefficient
    vectors of a, a*x, a*x^2."""
    a0, a1, a2 = a
    return [
        [a0, a2, a1 + a2],
        [a1, a0 + a2, a1 + 2 * a2],
        [a2, a1 + a2, a0 + a1 + 2 * a2],
    ]


def _det_and_cofactors(a: tuple) -> tuple:
    """Determinant of a's multiplication matrix and the cofactors of its
    first row, written out as 2x2 minors."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _mult_matrix(a)
    cof = (m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20)
    return m00 * cof[0] + m01 * cof[1] + m02 * cof[2], cof


def inverse(q: FieldElement) -> FieldElement:
    """Multiplicative inverse: the solution of (multiplication matrix of q)
    v = 1, i.e. the first column of the adjugate over the determinant.

    Raises ZeroElement for q = 0.
    """
    if q.is_zero():
        raise ZeroElement("cannot invert the zero element")
    d, cof = _det_and_cofactors(q.coeffs)
    # d = norm(q), nonzero for q != 0 because K is a field
    return FieldElement(*(c / d for c in cof))


def trace_triple(coeffs: tuple) -> tuple:
    """(trace(q), trace(x q), trace(x^2 q)) for q = a0 + a1*x + a2*x^2: the
    trace Gram matrix applied to coeffs = (a0, a1, a2), on any coefficient
    ring (ints or Fractions)."""
    a0, a1, a2 = coeffs
    return tuple(g0 * a0 + g1 * a1 + g2 * a2 for g0, g1, g2 in _TRACE_GRAM)


def coeffs_from_traces_22(traces: tuple) -> tuple:
    """22 times the coefficients of the unique element q with
    trace(x^j q) = traces[j] for j = 0, 1, 2: the inverse of
    ``trace_triple``, scaled so integer traces give integer coefficients."""
    t0, t1, t2 = traces
    return tuple(m0 * t0 + m1 * t1 + m2 * t2 for m0, m1, m2 in _TRACE_GRAM_INVERSE_22)


def trace(q: FieldElement) -> Fraction:
    """Sum of the three embeddings, q(alpha) + q(beta) + q(gamma): row 0
    of the trace Gram matrix applied to q's coefficients."""
    p0, p1, p2 = _TRACE_GRAM[0]
    return p0 * q.a0 + p1 * q.a1 + p2 * q.a2


def norm_coeffs(a: tuple):
    """Norm of a0 + a1*x + a2*x^2, the determinant of its multiplication
    matrix, on coefficients of any ring (ints or Fractions)."""
    return _det_and_cofactors(a)[0]


def norm(q: FieldElement) -> Fraction:
    """Product of the three embeddings, q(alpha) q(beta) q(gamma)."""
    return norm_coeffs(q.coeffs)


@lru_cache(maxsize=1)
def c_element() -> FieldElement:
    """The element 1/(-1 + 4x - x^2); its embeddings are the Binet
    coefficients of the ordinary Tribonacci numbers."""
    return inverse(FieldElement(-1, 4, -1))


@lru_cache(maxsize=1)
def cofactor_element() -> FieldElement:
    """(1/44)*(-1 + 4x - x^2); at each root its embedding is the product
    of the other two Binet coefficients."""
    return Fraction(1, 44) * FieldElement(-1, 4, -1)


def sign_at_real_root(q: FieldElement) -> int:
    """Exact sign of q(alpha), read from the sign of the norm.

    The other two roots beta, gamma are complex conjugates and q has
    rational coefficients, so q(gamma) is the conjugate of q(beta) and
    norm(q) = q(alpha) * |q(beta)|^2.  For q != 0 no embedding vanishes
    (the minimal polynomial is irreducible), so |q(beta)|^2 > 0 and the
    norm has the sign of q(alpha).

    Raises ZeroAtRoot when q(alpha) = 0 (equivalently q = 0).
    """
    if q.is_zero():
        raise ZeroAtRoot("element vanishes at the real root")
    # q = a / d with d > 0, so norm(q) = norm(a) / d^3 has the sign of the integer norm(a)
    return 1 if norm_coeffs(integral_coeffs(q)[0]) > 0 else -1


class RootInterval(NamedTuple):
    """Rational bracket (lower, upper) around the real root; the minimal
    polynomial changes sign across it."""

    lower: Fraction
    upper: Fraction

    def width(self) -> Fraction:
        return self.upper - self.lower

    def bisect(self, steps: int) -> "RootInterval":
        lo, hi = self.lower, self.upper
        for _ in range(steps):
            mid = (lo + hi) / 2
            if _min_poly_at(mid) < 0:
                lo = mid
            else:
                hi = mid
        return RootInterval(lo, hi)


def _min_poly_at(v: Fraction) -> Fraction:
    return ((v - 1) * v - 1) * v - 1


#: Initial bracket around 1.8392...; the minimal polynomial is negative at
#: 11/6 and positive at 15/8.
REAL_ROOT_BRACKET = RootInterval(Fraction(11, 6), Fraction(15, 8))
