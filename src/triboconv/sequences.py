"""Generalized Tribonacci sequences and canonical EGF normalization.

A field element q packages three per-root coefficients; the rational
numbers trace(x^k * q) then obey the Tribonacci recurrence in k.  This
module turns such an element into the canonical presentation used
throughout the identity catalog: a scale A and a primitive integer triple
(s0, s1, s2) with trace(x^k q) = T_k^(s0,s1,s2) / A, the sign of A fixed
so that A * q(alpha) > 0.  That sign rule makes the integer sequence
eventually positive (its dominant-root coefficient is positive), which
pins down the otherwise ambiguous choice of sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .field import FieldElement, integral_coeffs, sign_at_real_root, trace_triple

InitTriple = tuple[int, int, int]


class TriboSeq:
    """T(k) = T(k-1) + T(k-2) + T(k-3) from an arbitrary initial triple.

    Terms are memoized append-only, so materializing a prefix [0..n] costs
    O(n) big-integer additions and repeated queries are O(1).  Entries may
    be ints or Fractions.  The memo is mutated on demand: share instances
    across threads only for single-writer use.
    """

    charpoly = (-1, -1, -1, 1)  # x^3 - x^2 - x - 1, ascending coefficients

    def __init__(self, s0, s1, s2):
        self._memo = [s0, s1, s2]

    @classmethod
    def ordinary(cls) -> "TriboSeq":
        """The ordinary Tribonacci numbers 0, 1, 1, 2, 4, 7, 13, ..."""
        return cls(0, 1, 1)

    @property
    def triple(self) -> tuple:
        return tuple(self._memo[:3])

    def term(self, k: int):
        if k < 0:
            raise IndexError("sequence indices start at 0")
        memo = self._memo
        while len(memo) <= k:
            memo.append(memo[-1] + memo[-2] + memo[-3])
        return memo[k]

    def terms(self, count: int) -> list:
        if count < 0:
            raise IndexError("count must be nonnegative")
        if count:
            self.term(count - 1)
        return self._memo[:count]

    def __repr__(self) -> str:
        return f"TriboSeq{self.triple}"


class ScaledSeq(NamedTuple):
    """Canonical presentation (scale A, primitive integer triple) of an EGF
    combination: trace(x^k q) = T_k(triple) / scale for the source q.

    Every scale printed in the source tables is an integer; the scale is
    stored as a Fraction because rationally rescaled inputs legitimately
    produce non-integer scales (see ``integral``), and reports flag those.
    """

    scale: Fraction
    triple: InitTriple

    def sequence(self) -> TriboSeq:
        return TriboSeq(*self.triple)

    @property
    def integral(self) -> bool:
        return self.scale.denominator == 1

    def __str__(self) -> str:
        return f"(A={self.scale}, triple={self.triple})"


def egf_rational_term(q: FieldElement, k: int) -> Fraction:
    """trace(x^k * q): entry k of egf_rational_terms."""
    if k < 0:
        raise IndexError("sequence indices start at 0")
    return egf_rational_terms(q, k + 1)[k]


def egf_rational_terms(q: FieldElement, count: int) -> list[Fraction]:
    """Prefix [trace(q), trace(xq), ..., trace(x^(count-1) q)]: the
    Tribonacci sequence from the trace triple, never repeated field
    multiplication."""
    return TriboSeq(*trace_triple(q.coeffs)).terms(count)


def normalize_egf(q: FieldElement) -> ScaledSeq:
    """Canonical (A, triple) with trace(x^j q) = s_j / A for j = 0, 1, 2.

    The triple is made primitive (gcd 1) and the common scale absorbs the
    denominators; the sign of A is chosen so A * q(alpha) > 0.  A triple of
    all zeros cannot occur for q != 0 because the trace pairing on K is
    nondegenerate, and the traces are always rational so there is no
    non-commensurate failure mode.

    Raises ZeroAtRoot for q = 0 (degenerate coefficient function).
    """
    sign = sign_at_real_root(q)  # raises ZeroAtRoot for q = 0
    return normalize_integral(*integral_coeffs(q), sign)


def normalize_integral(coeffs: tuple[int, int, int], d: int, sign: int) -> ScaledSeq:
    """``normalize_egf`` of q = (a0 + a1*x + a2*x^2) / d, given the integers
    ``coeffs`` = (a0, a1, a2), d > 0 and ``sign`` = sign_at_real_root(q).

    The traces of q are (trace Gram matrix . coeffs) / d; dividing out the
    gcd g of that integer triple leaves the primitive triple and the scale
    d / g, both then multiplied by the sign.
    """
    ints = trace_triple(coeffs)
    content = gcd(*ints)
    if sign < 0:
        content = -content
    return ScaledSeq(Fraction(d, content), tuple(v // content for v in ints))


def binet_check(scaled: ScaledSeq, q: FieldElement | tuple, k_max: int) -> bool:
    """True iff T_k(triple) = scale * trace(x^k q) exactly for all k <= k_max, compared on integers:
    T_k(triple) * d * den == num * T_k(trace_triple(a)) for q = a / d and scale = num / den.
    q is a field element or already the pair (a, d) of integer coefficients a and integer d != 0."""
    coeffs, d = integral_coeffs(q) if isinstance(q, FieldElement) else q
    num, den = scaled.scale.numerator, scaled.scale.denominator
    traces = TriboSeq(*trace_triple(coeffs)).terms(k_max + 1)
    return all(t * d * den == num * u for t, u in zip(scaled.sequence().terms(k_max + 1), traces))
