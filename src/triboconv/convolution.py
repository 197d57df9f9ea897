"""Exact convolution engines, the OGF series of the Tribonacci numbers as
integer coefficient lists, and P1, P2 and T1 as identities between them.

Two kernels: plain (OGF) convolution, where a product of ordinary
generating functions sums products over compositions, and multinomial
(EGF) convolution, where the multinomial coefficient appears because
exponential generating functions multiply that way.  The schoolbook
kernel computes either by iterated pairwise convolution in O(r * n^2)
big-integer multiplications.

The multinomial kernel has a second path.  A factor may declare its
characteristic polynomial (``charpoly``: monic, squarefree, integer
coefficients in ascending order), as TriboSeq, ConstantSeq and a
WeightedSeq of either do.  The r-fold convolution of such factors is a
sum of (rho_1 + ... + rho_r)^n over tuples of their roots, so it is
annihilated by the polynomial whose roots are those sums, derived exactly
from the factors' polynomials (``_annihilator``, degree D).  When every
factor declares a polynomial and D <= n_max, the schoolbook kernel gives
terms 0..D-1 and the annihilator's integer recurrence the rest, in
O(n * D) multiplications; otherwise the schoolbook kernel runs alone.
``_roots_within`` tells exactly whether every root of one such polynomial
is a root of another, so that a sum of tables whose annihilators pass
against a common polynomial L satisfies L's recurrence: it equals another
such sequence everywhere once their first deg L terms agree, and can be
extended by the recurrence from them otherwise.  ``multiset_table`` keeps
such tables by sorted factor tuple and builds each from the table of its
factors but the last, so tables that share factors share sub-products.

P1, P2 and T1 are each stated once, as two RationalSeries: integer
numerator and denominator pairs built from T = x/(1 - x - x^2 - x^3).
``cross_difference`` proves the two sides equal at every coefficient, and
``RationalSeries.coefficients`` reads the rows from the same pair by one
series division (``series_divide``), so each side costs O(n).  The plain
kernel is left for the tests and the benchmark harness.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from functools import cache
from itertools import accumulate, repeat, zip_longest
from math import comb, prod
from operator import add, mul


class IndexTooSmall(ValueError):
    """An identity was evaluated below its smallest valid index."""


class ConstantSeq:
    """Constant sequence c, c, c, ...; covers the e^x factor (all ones)."""

    charpoly = (-1, 1)  # x - 1

    def __init__(self, value=1):
        self._value = value

    def term(self, k: int):
        return self._value

    def terms(self, count: int) -> list:
        return [self._value] * count


class WeightedSeq:
    """A term source with a geometric weight: term k contributes base^k * seq(k).

    base may be negative, which covers (-1)^k sign factors.  Any object
    with ``term(k)`` and ``terms(count)`` methods works as the source
    (TriboSeq, ConstantSeq).
    """

    def __init__(self, seq, base: int = 1):
        self.seq = seq
        self.base = base
        # the source's polynomial with its roots scaled by base, or None when
        # the source declares none or base is 0 (term 0 alone survives)
        poly = getattr(seq, "charpoly", None)
        self.charpoly: tuple | None = None
        if poly is not None and base != 0:
            d = len(poly) - 1
            self.charpoly = tuple(c * base ** (d - i) for i, c in enumerate(poly))

    def term(self, k: int):
        return self.base**k * self.seq.term(k)

    def prefix(self, count: int) -> list:
        powers = accumulate(repeat(self.base, count - 1), mul, initial=1)
        return list(map(mul, powers, self.seq.terms(count)))


def _as_prefix(s, count: int) -> list:
    if isinstance(s, WeightedSeq):
        return s.prefix(count)
    if isinstance(s, (list, tuple)):
        return list(s[:count])
    return [s.term(k) for k in range(count)]


def cauchy_convolve(f: Sequence, g: Sequence) -> list:
    """(f*g)_n = sum_k f_k g_{n-k}, on the common prefix."""
    n = min(len(f), len(g))
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(n)]


def binomial_convolve(f: Sequence, g: Sequence) -> list:
    """(f#g)_n = sum_k C(n,k) f_k g_{n-k}, on the common prefix."""
    n = min(len(f), len(g))
    return [sum(comb(k, j) * f[j] * g[k - j] for j in range(k + 1)) for k in range(n)]


def plain_conv_prefix(seqs: Sequence, n_max: int) -> list:
    """Values of the r-fold plain convolution for n = 0..n_max."""
    if not seqs:
        raise ValueError("need at least one sequence")
    acc = _as_prefix(seqs[0], n_max + 1)
    for s in seqs[1:]:
        acc = cauchy_convolve(acc, _as_prefix(s, n_max + 1))
    return acc


def multinomial_conv_prefix(seqs: Sequence, n_max: int) -> list:
    """Values of the r-fold multinomial convolution for n = 0..n_max.

    Extended by the annihilator's recurrence past its degree D when every
    factor declares a characteristic polynomial and D <= n_max; the
    schoolbook kernel otherwise (see the module docstring).
    """
    if not seqs:
        raise ValueError("need at least one sequence")
    polys = [getattr(s, "charpoly", None) for s in seqs]
    if None not in polys and _annihilator_degree(Counter(polys)) <= n_max:
        rec = _annihilator(tuple(sorted(polys)))
        return _extend(_binomial_kernel(seqs, len(rec) - 2), rec, n_max)
    return _binomial_kernel(seqs, n_max)


def _binomial_kernel(seqs: Sequence, n_max: int) -> list:
    acc = _as_prefix(seqs[0], n_max + 1)
    for s in seqs[1:]:
        acc = binomial_convolve(acc, _as_prefix(s, n_max + 1))
    return acc


def multiset_table(tables: dict, factors: tuple, seqs: dict, length: int) -> list:
    """At least ``length`` terms of the multinomial convolution of seqs[f]
    for f in ``factors``, a sorted tuple of keys; tables holds every table
    built so far, by its sorted tuple, and receives this one.

    The convolution is commutative, so one table serves every order of its
    factors.  It is the table of factors[:-1] convolved with the last
    factor on its head, min(length, D) terms for D the degree of its
    annihilator, and continued by the annihilator's recurrence; a stored
    table of D or more terms is continued from its first D terms instead of
    rebuilt.  A factor that declares no polynomial makes D unbounded, and so
    does a single factor: its table is its own prefix, with no recurrence.
    """
    table = tables.get(factors)
    if table is not None and len(table) >= length:
        return table
    polys = [getattr(seqs[f], "charpoly", None) for f in factors]
    rec = None if None in polys or len(factors) == 1 else _annihilator(tuple(sorted(polys)))
    deg = length if rec is None else min(length, len(rec) - 1)
    if table is None or len(table) < deg:
        last = _as_prefix(seqs[factors[-1]], deg)
        rest = factors[:-1]
        table = binomial_convolve(multiset_table(tables, rest, seqs, deg), last) if rest else last
    if len(table) < length:
        table = _extend(table[:deg], rec, length - 1)
    tables[factors] = table
    return table


def _extend(head: list, poly: tuple, n_max: int) -> list:
    """The D = len(head) initial terms continued to n = 0..n_max by the
    recurrence of the monic degree-D polynomial poly (ascending)."""
    d = len(poly) - 1
    neg_coeffs = [-c for c in poly[:-1]]
    out = list(head)
    for n in range(n_max + 1 - d):
        out.append(sum(map(mul, neg_coeffs, out[n:n + d])))
    return out


# -- the annihilator of a multinomial convolution ------------------------
#
# Each factor's polynomial is squarefree, so term k of the factor is
# sum_rho a_rho rho^k and the r-fold convolution is the sum over root
# tuples of a coefficient times (rho_1 + ... + rho_r)^n.  Factors sharing
# a polynomial contribute a multiset of its roots, so a group of m such
# factors of degree d has C(m+d-1, m) root sums, not d^m.  Everything is
# carried as power sums p_k of root sets, with p_0 the set's size: the
# power sums of A + B (every a + b) are the binomial convolution of those
# of A and B, and Newton's identities recover the polynomial.


def _annihilator_degree(groups: Counter) -> int:
    return prod(comb(m + len(poly) - 2, m) for poly, m in groups.items())


def _power_sums(poly: tuple, count: int) -> list[int]:
    """p_0..p_(count-1) over the roots of a monic integer polynomial."""
    d = len(poly) - 1
    a = poly[::-1]  # a[i] is the coefficient of x^(d-i)
    p = [d]
    for k in range(1, count):
        s = -sum(a[i] * p[k - i] for i in range(1, min(k, d + 1)))
        p.append(s - k * a[k] if k <= d else s)
    return p


def _exact_div(v: int, d: int) -> int:
    q, rem = divmod(v, d)
    if rem:
        raise ArithmeticError(f"{v}/{d} is not an integer")
    return q


def _multiset_power_sums(p: list[int], m: int) -> list[int]:
    """Power sums of the sums of m-element multisets of roots with power
    sums p: the cycle index of S_m, by m*h_m = sum_i p_i h_(m-i) with
    p_i(k) = i^k p_k and products taken as binomial convolutions."""
    count = len(p)
    scaled = [[i**k * p[k] for k in range(count)] for i in range(1, m + 1)]
    h = [[1] + [0] * (count - 1)]
    for j in range(1, m + 1):
        parts = [binomial_convolve(scaled[i - 1], h[j - i]) for i in range(1, j + 1)]
        h.append([_exact_div(sum(col), j) for col in zip(*parts)])
    return h[m]


def _poly_from_power_sums(p: list[int]) -> tuple[int, ...]:
    """The monic integer polynomial of degree p[0] whose roots have power
    sums p[1..], by Newton's identities; a non-integral coefficient raises
    ArithmeticError."""
    d = p[0]
    e = [1]
    for k in range(1, d + 1):
        num = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        e.append(_exact_div(num, k))
    return tuple((-1) ** (d - i) * e[d - i] for i in range(d + 1))


@cache
def _annihilator(polys: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Monic integer polynomial (ascending) vanishing at every sum
    rho_1 + ... + rho_r of roots of the sorted factor polynomials."""
    groups = Counter(polys)
    count = _annihilator_degree(groups) + 1
    total = [1] + [0] * (count - 1)
    for poly, m in groups.items():
        total = binomial_convolve(total, _multiset_power_sums(_power_sums(poly, count), m))
    return _poly_from_power_sums(total)


def _reduce(p: list, a: tuple) -> list:
    """p modulo the monic polynomial a (both ascending), len(a) - 1 terms."""
    d = len(a) - 1
    p = p + [0] * (d - len(p))
    for i in range(len(p) - 1, d - 1, -1):
        c = p[i]
        if c:
            for j in range(d):
                p[i - d + j] -= c * a[j]
    return p[:d]


@cache
def _roots_within(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether every root of the monic integer polynomial a is a root of the
    monic integer polynomial b: exactly when a divides b^e for any
    e >= deg(a), and b is squared modulo a until e reaches deg(a)."""
    d = len(a) - 1
    power, e = _reduce(list(b), a), 1
    while e < d:
        power, e = _reduce(_poly_product(power, power), a), 2 * e
    return not any(power)


# -- truncated power series as integer coefficient lists -------------------
#
# A list [a_0, ..., a_N] is a_0 + a_1 x + ... + a_N x^N modulo x^(N+1), and
# cauchy_convolve is its product.  The Tribonacci OGF's denominator has
# constant term 1, so every series below has integer coefficients.

TRIBO_DENOM = (1, -1, -1, -1)


def series_divide(s: Sequence, a: Sequence) -> list:
    """s/a modulo x^len(s) (terms of a past its end are zero) by one pass of
    a's recurrence; a's constant term must be 1, so nothing is divided."""
    if a[0] == 0:
        raise ZeroDivisionError("constant term is zero")
    if a[0] != 1:
        raise ValueError("constant term must be 1")
    d = len(a) - 1
    neg_coeffs = [-c for c in a[:0:-1]]  # -a_d, ..., -a_1, aligned with the window
    out = [0] * d  # coefficient k sits at out[k + d]; the d zeros stand before the series
    for k in range(len(s)):
        out.append(s[k] + sum(map(mul, neg_coeffs, out[k:k + d])))
    return out[d:]


def series_reciprocal(a: Sequence, order: int) -> list:
    """1/a modulo x^(order+1); a's constant term must be 1."""
    return series_divide([1] + [0] * order, a)


def series_derivative(s: Sequence) -> list:
    """d/dx of the series s, one coefficient shorter."""
    return [k * s[k] for k in range(1, len(s))]


def poly_times(poly: Sequence, s: Sequence) -> list:
    """poly times the series s modulo x^len(s): s shifted by j, times c, per nonzero c of x^j."""
    out = [0] * len(s)
    for j, c in enumerate(poly[: len(s)]):
        if c:
            out[j:] = map(add, out[j:], s if c == 1 else map(mul, repeat(c), s))
    return out


class RationalSeries:
    """The power series num/den of integer polynomials (ascending), den(0) = 1, kept exact by
    products, differences N1*D2 - N2*D1 over D1*D2 and derivatives (N'D - ND') / D^2."""

    def __init__(self, num: Sequence, den: Sequence = (1,)):
        self.num, self.den = list(num), list(den)

    def __mul__(self, other: RationalSeries) -> RationalSeries:
        return RationalSeries(_poly_product(self.num, other.num), _poly_product(self.den, other.den))

    def __sub__(self, other: RationalSeries) -> RationalSeries:
        return RationalSeries(_cross(self.num, other.den, other.num, self.den), _poly_product(self.den, other.den))

    def derivative(self) -> RationalSeries:
        n, d = self.num, self.den
        return RationalSeries(_cross(series_derivative(n), d, n, series_derivative(d)), _poly_product(d, d))

    def coefficients(self, order: int) -> list:
        """Coefficients 0..order of num/den, by one series division."""
        return series_divide((self.num + [0] * (order + 1))[: order + 1], self.den)


def _poly_product(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cross(a: Sequence, b: Sequence, c: Sequence, d: Sequence) -> list:
    """The polynomial a*b - c*d."""
    return [x - y for x, y in zip_longest(_poly_product(a, b), _poly_product(c, d), fillvalue=0)]


def series_T(order: int) -> list[int]:
    """x / (1 - x - x^2 - x^3) modulo x^(order+1), by exact series division;
    its coefficients are the ordinary Tribonacci numbers."""
    return ([0] + series_reciprocal(TRIBO_DENOM, order))[: order + 1]


# -- P1, P2 and T1 as generating-function identities -----------------------
#
# Each function returns an identity's two sides as rational functions.
# Coefficient n of each side is the printed identity at index n, and the
# sides agree at every coefficient, not only from the printed start.

_T_PRIME_NUMERATOR = (1, 0, 1, 2)  # T'(x) = (1 + x^2 + 2x^3) / (1 - x - x^2 - x^3)^2
_T1_POLY = (2, 6, 12, 0, 6, 6)
_P1_OFFSET = (0, 1, 1)  # x + x^2


def p1_rational() -> tuple[RationalSeries, RationalSeries]:
    """P1's sides: T((1 + x^2 + 2x^3)T - x - x^2), whose coefficient n is the
    printed sum of T_k (T_(n-k) + T_(n-k-2) + 2 T_(n-k-3)), against
    x (xT)' - (2 + x) xT, whose coefficient n is (n-2) T_(n-1) - T_(n-2)."""
    t, xt = RationalSeries((0, 1), TRIBO_DENOM), RationalSeries((0, 0, 1), TRIBO_DENOM)
    lhs = t * (RationalSeries(_T_PRIME_NUMERATOR) * t - RationalSeries(_P1_OFFSET))
    return lhs, RationalSeries((0, 1)) * xt.derivative() - RationalSeries((2, 1)) * xt


def p2_rational() -> tuple[RationalSeries, RationalSeries]:
    """P2's sides: T^2 against x / (1 + x^2 + 2x^3), whose coefficient d is
    the printed weight (see prop2_rhs), times x T'(x) = sum_l l T_l x^l."""
    t = RationalSeries((0, 1), TRIBO_DENOM)
    return t * t, RationalSeries((0, 0, 1), _T_PRIME_NUMERATOR) * t.derivative()


def t1_rational() -> tuple[RationalSeries, RationalSeries]:
    """T1's sides: x^3 T''(x), whose coefficient n is (n-1)(n-2) T_(n-1),
    against (2 + 6x + 12x^2 + 6x^4 + 6x^5) T^3."""
    t = RationalSeries((0, 1), TRIBO_DENOM)
    return RationalSeries((0, 0, 0, 1)) * t.derivative().derivative(), RationalSeries(_T1_POLY) * t * t * t


def cross_difference(sides: Callable[[], tuple[RationalSeries, RationalSeries]]) -> list[int]:
    """N1*D2 - N2*D1 for the sides N1/D1 and N2/D2 of p1_rational, p2_rational
    or t1_rational: D1 and D2 are units of the power series, so it is zero
    exactly when the two sides agree at every coefficient."""
    lhs, rhs = sides()
    return (lhs - rhs).num


def prop1_lhs(n: int) -> int:
    """sum_{k=0}^{n-3} T_k (T_{n-k} + T_{n-k-2} + 2 T_{n-k-3}), n >= 3."""
    if n < 3:
        raise IndexTooSmall("defined for n >= 3")
    return p1_rational()[0].coefficients(n)[n]


def prop2_rhs(n: int) -> int:
    """The weighted single-sequence sum equal to sum_k T_k T_{n-k}, n >= 2.

    The inner weight as printed raises (-1) to possibly half-integer
    powers; the adopted reading is i^m + i^(3m) with m = n - l - i - 1,
    which vanishes for odd m and equals 2*(-1)^(m/2) for even m.  With the
    printed 2^(i-1) prefactor the surviving weight is
    2^i * (-1)^(m/2) * C(m/2, i).  This is the only reading that keeps
    every term rational.  It is coefficient n of P2's right side, which
    ``cross_difference`` proves equal to T^2; the tests also compare it with
    the brute-force pair convolution.
    """
    if n < 2:
        raise IndexTooSmall("defined for n >= 2")
    return p2_rational()[1].coefficients(n)[n]


def series_check_derivatives(order: int, t1_sides: tuple[RationalSeries, RationalSeries] | None = None) -> bool:
    """Verify the two quoted derivative relations of the Tribonacci OGF up
    to the given truncation order:

    (i)  T'(x) = (1 + x^2 + 2x^3) / (1 - x - x^2 - x^3)^2
    (ii) (2 + 6x + 12x^2 + 6x^4 + 6x^5) * T(x)^3 = x^3 * T''(x), T1's sides t1_sides or t1_rational()
    """
    if order < 6:
        raise ValueError("order must be at least 6")
    inv = series_reciprocal(TRIBO_DENOM, order)
    first = poly_times(_T_PRIME_NUMERATOR, series_divide(inv, TRIBO_DENOM))
    if series_derivative(series_T(order)) != first[:order]:
        return False
    lhs, rhs = t1_rational() if t1_sides is None else t1_sides
    return lhs.coefficients(order) == rhs.coefficients(order)
