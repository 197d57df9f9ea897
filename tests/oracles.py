"""Brute-force composition enumerators: small-n oracles for the plain and
multinomial convolution tables of ``triboconv.convolution``."""

from math import factorial, prod
from typing import Iterator, Sequence


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
