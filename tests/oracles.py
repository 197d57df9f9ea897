"""Brute-force composition enumerators: small-n oracles for the plain and
multinomial convolution tables of ``triboconv.convolution``; and the norm
by Newton's identities, an oracle for ``triboconv.field.norm``."""

from math import factorial, prod
from typing import Iterator, Sequence

from triboconv.field import trace


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


def norm_by_newton(q):
    """Product of the three embeddings of q from the power sums
    t_k = trace(q^k) by Newton's identities: (t1^3 - 3 t1 t2 + 2 t3) / 6.
    Oracle for ``field.norm``, the determinant of the multiplication matrix."""
    q2 = q * q
    t1, t2, t3 = trace(q), trace(q2), trace(q2 * q)
    return (t1**3 - 3 * t1 * t2 + 2 * t3) / 6
