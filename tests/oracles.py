"""Brute-force composition enumerators: small-n oracles for the plain and
multinomial convolution tables of ``triboconv.convolution``, and a plain
recurrence, the oracle for their extension by an annihilator; series
division and the product with a polynomial term by term from their
definitions; the sides of
P1, P2, T1 and GF by the schoolbook product, oracles for the series
division that builds them; the norm by Newton's identities, an oracle
for ``triboconv.field.norm``; the printed triple/scale recursions in
Fraction arithmetic, oracles for the integer steps of
``triboconv.derivation``; and the symmetric families' coefficients by
Fraction arithmetic, grid rows at every point, a draw's expanded
coefficients against the grid equations and the Fraction draw, oracles for
``triboconv.symmetric_identities``."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod
from typing import Iterator, Sequence

from triboconv.convolution import (
    cauchy_convolve,
    plain_conv_prefix,
    series_derivative,
    series_reciprocal,
    series_T,
)
from triboconv.derivation import FamilyKind, _eventually_positive
from triboconv.field import trace
from triboconv.symmetric_identities import DEPENDENT, FREE, TERMS, _blocks, _cleared, _grid_equations


def compositions(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All ordered r-tuples of nonnegative integers summing to n."""
    if r == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, r - 1):
            yield (head,) + rest


def plain_conv_enum(seqs: Sequence, n: int):
    """Brute-force composition enumeration; oracle for plain_conv_prefix."""
    return sum(
        prod(_term(s, k) for s, k in zip(seqs, parts))
        for parts in compositions(n, len(seqs))
    )


def multinomial_conv_enum(seqs: Sequence, n: int):
    """Brute-force enumeration with explicit multinomial coefficients;
    oracle for multinomial_conv_prefix."""
    total = 0
    n_fact = factorial(n)
    for parts in compositions(n, len(seqs)):
        coef = n_fact
        for k in parts:
            coef //= factorial(k)
        total += coef * prod(_term(s, k) for s, k in zip(seqs, parts))
    return total


def _term(s, k: int):
    if isinstance(s, (list, tuple)):
        return s[k]
    return s.term(k)


def extend_by_recurrence(head: Sequence, poly: Sequence, n_max: int) -> list:
    """head continued to n = 0..n_max, term by term, by the recurrence of
    the monic polynomial poly (ascending), skipping its zero coefficients;
    oracle for convolution._extend."""
    d = len(poly) - 1
    out = list(head)
    while len(out) <= n_max:
        n = len(out) - d
        out.append(-sum(c * out[n + i] for i, c in enumerate(poly[:d]) if c != 0))
    return out


def series_divide_by_definition(s: Sequence, a: Sequence) -> list:
    """s/a modulo x^len(s) for a[0] = 1, coefficient k solved from
    coefficient k of a * out = s; oracle for convolution.series_divide."""
    out = []
    for k in range(len(s)):
        out.append(s[k] - sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return out


def poly_times_by_definition(poly: Sequence, s: Sequence) -> list:
    """poly times the series s modulo x^len(s), coefficient k summed over
    every j <= k; oracle for convolution.poly_times."""
    return [sum(poly[j] * s[k - j] for j in range(min(k, len(poly) - 1) + 1)) for k in range(len(s))]


# -- P1, P2, T1 and GF by the schoolbook product ---------------------------
#
# Each multiplies two series of length n + 1 in O(n^2) products where the
# library divides by a short polynomial in O(n); the polynomials are written
# out here, so a change to the library's copy shows as a disagreement.

def p1_sides_schoolbook(order: int) -> tuple[list[int], list[int]]:
    """P1: T((1 + x^2 + 2x^3)T - x - x^2) against (n-2) T_(n-1) - T_(n-2)."""
    t = series_T(order)
    inner = [a - b for a, b in zip(poly_times_by_definition((1, 0, 1, 2), t), [0, 1, 1] + [0] * order)]
    xt, x2t = [0] + t, [0, 0] + t
    return cauchy_convolve(t, inner), [(n - 2) * xt[n] - x2t[n] for n in range(order + 1)]


def p2_sides_schoolbook(order: int) -> tuple[list[int], list[int]]:
    """P2: T^2 against x / (1 + x^2 + 2x^3) times x T'(x)."""
    t = series_T(order)
    weight = ([0] + series_reciprocal((1, 0, 1, 2), order))[: order + 1]
    return cauchy_convolve(t, t), cauchy_convolve(weight, [0] + series_derivative(t))


def t1_sides_schoolbook(order: int) -> tuple[list[int], list[int]]:
    """T1: x^3 T''(x) against (2 + 6x + 12x^2 + 6x^4 + 6x^5) T^3."""
    t = series_T(order)
    lhs = ([0, 0, 0] + series_derivative(series_derivative(t)))[: order + 1]
    return lhs, poly_times_by_definition((2, 6, 12, 0, 6, 6), plain_conv_prefix([t, t, t], order))


def series_check_derivatives_schoolbook(order: int) -> bool:
    """GF's two derivative relations: T' = (1 + x^2 + 2x^3) / D^2 with
    D = 1 - x - x^2 - x^3, and T1's sides."""
    inv = series_reciprocal((1, -1, -1, -1), order)
    first = poly_times_by_definition((1, 0, 1, 2), cauchy_convolve(inv, inv))
    if series_derivative(series_T(order)) != first[:order]:
        return False
    lhs, rhs = t1_sides_schoolbook(order)
    return lhs == rhs


def norm_by_newton(q):
    """Product of the three embeddings of q from the power sums
    t_k = trace(q^k) by Newton's identities: (t1^3 - 3 t1 t2 + 2 t3) / 6.
    Oracle for ``field.norm``, the determinant of the multiplication matrix."""
    q2 = q * q
    t1, t2, t3 = trace(q), trace(q2), trace(q2 * q)
    return (t1**3 - 3 * t1 * t2 + 2 * t3) / 6


# -- the printed triple/scale recursions in Fraction arithmetic -------------
#
# Each printed ratio is a Fraction and the triple is scaled by the lcm of
# the reduced denominators, independently of the integer vector and gcd of
# ``derivation``'s steps; the sign rule is the library's.

def _signed_triple(m: Fraction, n_ratio: Fraction) -> tuple[int, int, int]:
    """Triple (s0, M*s0, N*s0) with |s0| = lcm of the reduced denominators
    and the sign chosen so the sequence is eventually positive."""
    s0 = lcm(m.denominator, n_ratio.denominator)
    candidate = (s0, int(m * s0), int(n_ratio * s0))
    if not _eventually_positive(candidate):
        candidate = tuple(-v for v in candidate)
    return candidate


def _step_cpower(s: tuple[int, int, int], a: Fraction):
    s0, s1, s2 = (Fraction(v) for v in s)
    denom = 5 * s2 * s1 - 4 * s1 * s0 - 3 * s1 * s1
    b = (2 * s2 * s1 + 5 * s1 * s0 + s1 * s1) / denom
    d = 9 * s2 * s2 * s1 + 6 * s2 * s1 * s0 + 18 * s2 * s1 * s1 - 2 * s1 * s1 * s0 - 7 * s1**3
    c = d / ((3 * s2 - s1) * denom)
    triple = _signed_triple(b, c)
    a_new = (a / s1) * (3 * triple[2] - 2 * triple[1] - triple[0])
    return triple, a_new


def _step_cofactor(s: tuple[int, int, int], a: Fraction):
    s0, s1, s2 = (Fraction(v) for v in s)
    ah = 10 * s2 - 10 * s1 - 2 * s0
    bh = -6 * s2 + 6 * s1 - 12 * s0
    ch = -8 * s2 + 8 * s1 + 6 * s0
    dh = -6 * s2 + 14 * s1 - 2 * s0
    eh = 8 * s2 - 26 * s1 + 10 * s0
    fh = 18 * s2 - 20 * s1 - 16 * s0
    m = (fh * ah - ch * dh) / (bh * dh - ah * eh)
    n_ratio = (-1 / ah) * (bh * m + ch)
    triple = _signed_triple(m, n_ratio)
    a_new = a / (s2 - s1 - s0) * (-8 * triple[2] + 18 * triple[1] + 2 * triple[0])
    return triple, a_new


def _step_pairsumsq(s: tuple[int, int, int], a: Fraction):
    s0, s1, s2 = (Fraction(v) for v in s)
    denom = s2 - 4 * s1 + 3 * s0
    m = (3 * s2 - 4 * s1 - s0) / denom
    n_ratio = (-7 * s2 + 10 * s1 + 5 * s0) / denom
    triple = _signed_triple(m, n_ratio)
    a_new = 44 * a * triple[0] / denom
    return triple, a_new


#: family kind -> its printed step in Fraction arithmetic.
FRACTION_STEPS = {
    FamilyKind.CPOWER: _step_cpower,
    FamilyKind.COFACTOR_POWER: _step_cofactor,
    FamilyKind.PAIR_SUM_SQ_POWER: _step_pairsumsq,
}


# -- the symmetric families ------------------------------------------------

def coeffs_by_fractions(r: int, params: dict) -> dict:
    """Every term's coefficient by the printed constraints in Fraction
    arithmetic; oracle for the integer evaluation behind ``coeffs``."""
    cs = {k: Fraction(params.get(k, 0)) for k in FREE[r]}
    for k, (const, form) in DEPENDENT[r].items():
        cs[k] = sum((c * cs[name] for name, c in form.items()), Fraction(const))
    return {k: cs[k] for k in TERMS[r]}


@lru_cache(maxsize=None)
def term_rows(r: int, grid_size: int) -> tuple:
    """((a+b+c)^r, values of the terms of TERMS[r] in term order) at every
    point (a, b, c) of {0..grid_size-1}^3, in ``product`` order; oracle for
    the grid equations, which keep only a basis of these rows."""
    rows = []
    for a, b, c in product(range(grid_size), repeat=3):
        blocks = _blocks(a, b, c)
        rows.append(((a + b + c) ** r, tuple(prod(blocks[x] for x in bs) for bs in TERMS[r].values())))
    return tuple(rows)


def verdict_by_cleared(r: int, params: dict, grid_size: int) -> bool:
    """The draw's cleared coefficients (den, den * coefficient of every term)
    dotted with every grid equation; oracle for the check on the equations
    projected onto the free parameters."""
    den, ns = _cleared(r, params)
    vector = (den, *(ns[k] for k in TERMS[r]))
    return all(sum(x * y for x, y in zip(vector, row)) == 0 for row in _grid_equations(r, grid_size))


def random_params_by_fractions(r: int, rng, bound: int = 10) -> dict:
    """One Fraction per free parameter, numerator drawn before denominator;
    oracle for the values of ``random_params`` and ``random_pairs``."""
    return {k: Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for k in FREE[r]}
