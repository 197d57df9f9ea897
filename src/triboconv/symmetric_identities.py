"""Parameterized symmetric polynomial identities for (a+b+c)^2, ..., ^5.

Each family writes the power of a+b+c as a combination of terms, each a
product of the symmetric blocks s1..s5 (power sums) and e2, e3
(elementary).  TERMS[r] is the one statement of which blocks make up each
term; the identity catalog reads it too, because the r-fold convolution
identities are these expansions with a, b, c mapped to c_i*e^(alpha_i x).
Terms listed in DEPENDENT[r] have coefficients fixed by the printed linear
constraints; the others are free parameters.  Only the free parameters
are given and the dependent coefficients are always recomputed.

Verification is by deterministic finite-grid evaluation: both sides have
degree at most d in each of a, b, c, so agreement on a (d+1)^3 integer
grid is a complete proof of the polynomial identity.  A draw's cleared
coefficients (den, nums) pass exactly when they are orthogonal to the row
(-(a+b+c)^d, term values) of every grid point, so to the rows' span.  The
blocks are symmetric, so sorted points give every row; an integer echelon
basis of the span, of rank len(DEPENDENT[d]), is built once per (degree,
grid).  The cleared coefficients are an integer linear map of the draw's
own (den, den * p for p in FREE[d]), so each draw is checked against the
basis projected through that map, at most 5 rows of 9 integers, and never
expands its dependent coefficients.  For the printed constraints the
projected rows are zero: the family holds at every parameter value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm, prod
from operator import mul

#: term name -> blocks whose product is the term, per power r.
TERMS = {
    2: {"A": ("s2",), "B": ("e2",)},
    3: {"A": ("s3",), "B": ("e3",), "C": ("s2", "s1"), "D": ("e2", "s1")},
    4: {
        "A": ("s4",), "C": ("s3", "s1"), "D": ("s2", "s2"), "E": ("s2", "e2"),
        "F": ("e2", "e2"), "G": ("s2", "s1", "s1"), "H": ("e2", "s1", "s1"),
        "I": ("e3", "s1"),
    },
    5: {
        "A": ("s5",), "B": ("e2", "e3"), "C": ("s2", "e3"), "D": ("e3", "s1", "s1"),
        "E": ("s4", "s1"), "H": ("s3", "s2"), "I": ("s3", "e2"), "L": ("s3", "s1", "s1"),
        "N": ("s2", "s2", "s1"), "P": ("e2", "e2", "s1"), "Q": ("s2", "e2", "s1"),
        "R": ("s2", "s1", "s1", "s1"), "S": ("e2", "s1", "s1", "s1"),
    },
}

#: dependent term -> (constant, {free term: coefficient}), the printed
#: constraint formulas; e.g. the cubic A = D - 2.
DEPENDENT = {
    2: {"A": (1, {}), "B": (2, {})},
    3: {"A": (-2, {"D": 1}), "B": (6, {"D": -3}), "C": (3, {"D": -1})},
    4: {
        "A": (-3, {"D": -1, "E": 1, "G": 1, "H": 1}),
        "C": (4, {"E": -1, "G": -2, "H": -1}),
        "F": (6, {"D": -2, "G": -2, "H": -2}),
        "I": (0, {"D": 4, "E": -1, "G": 2, "H": -1}),
    },
    5: {
        "A": (-14, {"I": 1, "L": 2, "N": 2, "P": 1, "Q": 2, "R": 6, "S": 4}),
        "B": (30, {"D": -2, "N": -2, "P": -5, "Q": -2, "R": -6, "S": -12}),
        "C": (20, {"D": -1, "I": -1, "L": -2, "P": -2, "Q": -3, "R": -6, "S": -7}),
        "E": (5, {"I": -1, "L": -2, "N": -1, "Q": -1, "R": -3, "S": -1}),
        "H": (10, {"L": -1, "N": -2, "P": -1, "Q": -1, "R": -4, "S": -3}),
    },
}

#: free parameter names per power, in draw order.
FREE = {r: tuple(k for k in terms if k not in DEPENDENT[r]) for r, terms in TERMS.items()}


def _check_degree(r: int) -> None:
    if r not in TERMS:
        raise ValueError("degree must be 2, 3, 4 or 5")


def _free_pairs(r: int, params: dict) -> list[tuple[int, int]]:
    """The free parameters as (numerator, denominator) in FREE[r] order;
    names missing from params are 0."""
    _check_degree(r)
    unknown = set(params) - set(FREE[r])
    if unknown:
        raise ValueError(f"not free parameters of degree {r}: {', '.join(sorted(unknown))}")
    values = (v if isinstance(v := params.get(k, 0), (int, Fraction)) else Fraction(v) for k in FREE[r])
    return [(v.numerator, v.denominator) for v in values]


def _constraint_lcm(r: int) -> int:
    """The lcm of the denominators of DEPENDENT[r]'s constants and forms."""
    return lcm(*(x.denominator for const, form in DEPENDENT[r].values() for x in (const, *form.values())))


def _cleared(r: int, params: dict) -> tuple[int, dict]:
    """(den, den * coefficient of every term by name), exact integers: den
    is the lcm of the parameter denominators times that of the constraint
    entries, so every product in the constraints is integral."""
    pairs = _free_pairs(r, params)
    den = lcm(*(d for _, d in pairs)) * _constraint_lcm(r)
    ns = {k: n * (den // d) for k, (n, d) in zip(FREE[r], pairs)}
    for k, (const, form) in DEPENDENT[r].items():
        ns[k] = const * den + sum(c * ns[name] for name, c in form.items())
    return den, ns


def coeffs(r: int, params: dict) -> dict[str, Fraction]:
    """Coefficient of every term of the power-r family, by name; free names
    missing from params are 0."""
    den, ns = _cleared(r, params)
    return {k: Fraction(ns[k], den) for k in TERMS[r]}


def _blocks(a, b, c) -> dict:
    blocks = {f"s{j}": a**j + b**j + c**j for j in range(1, 6)}
    blocks["e2"] = a * b + b * c + c * a
    blocks["e3"] = a * b * c
    return blocks


def _combine(r: int, cs: dict, blocks: dict):
    return sum(cs[k] * prod(blocks[b] for b in bs) for k, bs in TERMS[r].items())


def rhs(r: int, params: dict, a, b, c) -> Fraction:
    """The parameterized right side of (a+b+c)^r at (a, b, c)."""
    return _combine(r, coeffs(r, params), _blocks(a, b, c))


# 32 covers degrees 2..5 at every grid symcheck accepts (6..12).
@lru_cache(maxsize=32)
def _grid_equations(r: int, grid_size: int) -> tuple[tuple[int, ...], ...]:
    """Integer echelon basis, each row divided by its gcd, of the span of
    the rows (-(a+b+c)^r, values of the terms of TERMS[r] in term order) at
    the points of {0..grid_size-1}^3; the sorted points give every row."""
    basis = []
    for point in combinations_with_replacement(range(grid_size), 3):
        blocks = _blocks(*point)
        row = [-sum(point) ** r, *(prod(blocks[x] for x in bs) for bs in TERMS[r].values())]
        for pivot, b in basis:
            row = [b[pivot] * x - row[pivot] * y for x, y in zip(row, b)]
        if any(row):
            g = gcd(*row)
            basis.append((next(i for i, x in enumerate(row) if x), [x // g for x in row]))
    return tuple(tuple(b) for _, b in basis)


def _projected_equations(r: int, grid_size: int) -> list[list[int]]:
    """Each row of _grid_equations(r, grid_size) times the map from a draw's
    (den, den * p for p in FREE[r]) to its (den, den * coefficient of every
    term of TERMS[r]), read from DEPENDENT[r]'s constants and forms and
    cleared by the lcm of their denominators.  A draw passes exactly when
    every row is orthogonal to its (den, den * p): the map and the row
    associate.  Built per call, because DEPENDENT may change between calls."""
    position = {k: i for i, k in enumerate(TERMS[r], 1)}
    column = {k: j for j, k in enumerate(FREE[r], 1)}
    rows = []
    for equation in _grid_equations(r, grid_size):
        row = [equation[0], *(equation[position[k]] for k in column)]
        for k, (const, form) in DEPENDENT[r].items():
            if w := equation[position[k]]:
                row[0] += w * const
                for name, c in form.items():
                    row[column[name]] += w * c
        rows.append(row)
    # an int total means no Fraction entry reached a row
    if type(sum(map(sum, rows))) is not int:
        clear = _constraint_lcm(r)
        rows = [[int(x * clear) for x in row] for row in rows]
    return rows


def _draw_vector(pairs) -> tuple[int, ...]:
    """(den, den * n / d for each (n, d)): den is the lcm of the d > 0, so
    an unreduced pair gives a positive multiple of the same vector."""
    den = lcm(*(d for _, d in pairs))
    return (den, *(n * (den // d) for n, d in pairs))


def verify_sym_identity(degree: int, params: dict, grid_size: int) -> bool:
    """Evaluate (a+b+c)^degree against the parameterized right side at every
    point of {0..grid_size-1}^3; grid_size >= degree+1 makes this a proof.

    Both sides are multiplied by den, which clears the coefficient
    denominators, and compared as integers: agreement at every point is
    orthogonality to the span of the points' rows, checked on the few
    projected equations."""
    return verify_draws(degree, [_free_pairs(degree, params)], grid_size)


def verify_draws(degree: int, draws, grid_size: int) -> bool:
    """Whether every draw, a sequence of (numerator, denominator > 0) pairs
    in FREE[degree] order, passes the grid of verify_sym_identity; the
    projected equations are built once and the first failing draw ends
    the check."""
    _check_degree(degree)
    if grid_size < degree + 1:
        raise ValueError("grid must have at least degree+1 points per axis")
    equations = _projected_equations(degree, grid_size)
    for pairs in draws:
        vector = _draw_vector(pairs)
        if any(sum(map(mul, row, vector)) for row in equations):
            return False
    return True


def random_pairs(degree: int, rng: random.Random, bound: int = 10) -> list[tuple[int, int]]:
    """Free-parameter draw as (numerator, denominator) pairs in FREE[degree]
    order, bounded by ``bound``; the pairs are not reduced."""
    _check_degree(degree)
    return [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in FREE[degree]]


def random_params(degree: int, rng: random.Random, bound: int = 10) -> dict[str, Fraction]:
    """Free-parameter draw with numerators and denominators bounded by ``bound``."""
    pairs = random_pairs(degree, rng, bound)
    return {k: Fraction(n, d) for k, (n, d) in zip(FREE[degree], pairs)}
