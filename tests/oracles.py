"""Brute-force composition enumerators: small-n oracles for the plain and
multinomial convolution tables of ``triboconv.convolution``, and a plain
recurrence, the oracle for their extension by an annihilator; the sides of
P1, P2, T1 and GF by the schoolbook product, oracles for the series
division that builds them; the norm by Newton's identities, an oracle
for ``triboconv.field.norm``; and the symmetric families' coefficients by
Fraction arithmetic and grid rows at every point, oracles for
``triboconv.symmetric_identities``."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator, Sequence

from triboconv.convolution import (
    cauchy_convolve,
    plain_conv_prefix,
    poly_times,
    series_derivative,
    series_reciprocal,
    series_T,
)
from triboconv.field import trace
from triboconv.symmetric_identities import DEPENDENT, FREE, TERMS, _blocks


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


# -- P1, P2, T1 and GF by the schoolbook product ---------------------------
#
# Each multiplies two series of length n + 1 in O(n^2) products where the
# library divides by a short polynomial in O(n); the polynomials are written
# out here, so a change to the library's copy shows as a disagreement.

def p1_sides_schoolbook(order: int) -> tuple[list[int], list[int]]:
    """P1: T((1 + x^2 + 2x^3)T - x - x^2) against (n-2) T_(n-1) - T_(n-2)."""
    t = series_T(order)
    inner = [a - b for a, b in zip(poly_times((1, 0, 1, 2), t), [0, 1, 1] + [0] * order)]
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
    return lhs, poly_times((2, 6, 12, 0, 6, 6), plain_conv_prefix([t, t, t], order))


def series_check_derivatives_schoolbook(order: int) -> bool:
    """GF's two derivative relations: T' = (1 + x^2 + 2x^3) / D^2 with
    D = 1 - x - x^2 - x^3, and T1's sides."""
    inv = series_reciprocal((1, -1, -1, -1), order)
    first = poly_times((1, 0, 1, 2), cauchy_convolve(inv, inv))
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
