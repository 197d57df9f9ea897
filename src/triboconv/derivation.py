"""Power families of per-root coefficients and their canonical sequences.

The authoritative derivation path is: build the family's field element
exactly, take its n-th power, and normalize (``derive``).  A whole table
n = 1..N normalizes the element once and then steps the canonical row
itself (``derive_table``): multiplication by the element is one small
integer 3x3 matrix in trace coordinates, derived from ``field``, so each
row is that matrix times the row before's primitive triple, divided by a
gcd bounded by the matrix's determinant; the element's sign at the real
root is read once.  The source tables also print per-family recursions
for the initial triples and scales; those are replicated verbatim, in one
replay per table (``replicate_paper_table``, ``derive_paper_recursive``),
and compared against the direct path, because printed helper formulas of
this kind are exactly where typographical slips hide.  A mismatch flags
the printed recursion, never the direct path.  Each printed step is
evaluated on integers: its printed numerators and denominators as
written, multiplied out to one integer vector proportional to (1, M, N)
and reduced by one gcd, with a ZeroDivisionError at each printed
denominator that vanishes; scales are stepped as reduced integer pairs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from math import gcd

from .field import (
    FieldElement,
    c_element,
    coeffs_from_traces_22,
    cofactor_element,
    integral_coeffs,
    mul_coeffs,
    norm_coeffs,
    sign_at_real_root,
    trace,
    trace_triple,
)
from .sequences import ScaledSeq, normalize_egf, normalize_integral

class FamilyKind(str, Enum):
    CPOWER = "cpower"
    COFACTOR_POWER = "cofactor"
    SUM_COFACTOR_CONST = "sumcofactor"
    SUM_COFACTOR_SQ_CONST = "sumcofactorsq"
    PAIR_SUM_SQ_POWER = "pairsumsq"


class PowerFamily:
    """The family ``kind`` at exponent n >= 1, immutable like FieldElement."""

    __slots__ = ("_fields",)

    kind = property(lambda self: self._fields[0])
    n = property(lambda self: self._fields[1])

    def __init__(self, kind: FamilyKind, n: int):
        if n < 1:
            raise ValueError("family exponent must be >= 1")
        self._fields = (kind, n)

    def __eq__(self, other):
        return self._fields == other._fields if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        return f"PowerFamily(kind={self.kind!r}, n={self.n!r})"


def CPower(n: int) -> PowerFamily:
    return PowerFamily(FamilyKind.CPOWER, n)


def CofactorPower(n: int) -> PowerFamily:
    return PowerFamily(FamilyKind.COFACTOR_POWER, n)


def SumCofactorConst(n: int) -> PowerFamily:
    return PowerFamily(FamilyKind.SUM_COFACTOR_CONST, n)


def SumCofactorSqConst(n: int) -> PowerFamily:
    return PowerFamily(FamilyKind.SUM_COFACTOR_SQ_CONST, n)


def PairSumSqPower(n: int) -> PowerFamily:
    return PowerFamily(FamilyKind.PAIR_SUM_SQ_POWER, n)


def family_element(fam: PowerFamily) -> FieldElement:
    """The exact field element whose embedding at the real root is the
    coefficient attached to e^(alpha x) in the family's statement."""
    n = fam.n
    if fam.kind is FamilyKind.CPOWER:
        return c_element() ** n
    if fam.kind is FamilyKind.COFACTOR_POWER:
        return cofactor_element() ** n
    # the cofactor's embeddings are the pairwise products c_j c_k: their
    # sum and the sum of their squares are traces, so rational
    if fam.kind is FamilyKind.SUM_COFACTOR_CONST:
        return FieldElement.constant(trace(cofactor_element()) ** n)
    if fam.kind is FamilyKind.SUM_COFACTOR_SQ_CONST:
        return FieldElement.constant(trace(cofactor_element() ** 2) ** n)
    if fam.kind is FamilyKind.PAIR_SUM_SQ_POWER:
        c_sq = c_element() ** 2
        pair = FieldElement.constant(trace(c_sq)) - c_sq
        return pair**n
    raise ValueError(f"unknown family kind {fam.kind!r}")


def derive(fam: PowerFamily) -> ScaledSeq:
    """Authoritative derivation: normalize the exact family element."""
    return normalize_egf(family_element(fam))


def _trace_step(coeffs: tuple[int, int, int], d: int) -> tuple[int, tuple]:
    """(K, N) for q = (a0 + a1*x + a2*x^2) / d with a_i = ``coeffs``: the
    integer K > 0 and 3x3 integer matrix N with t(q r) = N t(r) / K for
    every r, where t(r) = (trace(r), trace(x r), trace(x^2 r)).

    In trace coordinates multiplication by q is G mult(q) G^-1, with G the
    trace Gram matrix and mult(q) its multiplication matrix.  22 G^-1 is an
    integer matrix, so N = G mult(a) 22 G^-1 and K = 22 d: column i of N
    is the trace triple of a times the element whose traces are 22 e_i.
    K and N are divided by their common content."""
    columns = [trace_triple(mul_coeffs(coeffs, coeffs_from_traces_22(e)))
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    content = gcd(22 * d, *(v for column in columns for v in column))
    return 22 * d // content, tuple(tuple(v // content for v in row) for row in zip(*columns))


def _mul_pair(num: int, den: int, x: int, y: int) -> tuple[int, int]:
    """Reduced num / den (den > 0) times x / y (y != 0) as a reduced pair, den > 0, as Fraction
    multiplies: x / y reduced first, then cross-cancelled, with no gcd of the full products."""
    g = gcd(x, y) if y > 0 else -gcd(x, y)
    x, y = x // g, y // g
    g2 = gcd(x, den)
    if y == 1:  # so on every step the tables take: num, the large operand, is read once
        return num * (x // g2), den // g2
    g1 = gcd(num, y)
    return (num // g1) * (x // g2), (den // g2) * (y // g1)


def _power_pairs(q: FieldElement, n_max: int) -> Iterator[tuple[int, int, tuple[int, int, int]]]:
    """``normalize_egf(q**n)`` for n = 1..n_max as (num, den, triple), num / den reduced, den > 0.

    Row 1 is ``normalize_egf(q)``.  Each later row steps the row before,
    (scale, s), in trace coordinates: with (K, N) from ``_trace_step`` the
    traces of q^(n+1) are v / (K scale) for v = N s.  So the next row is
    s' = v / g and scale' = scale K / g with g = gcd(v) sign(q): the norm
    is multiplicative, so sign(q^n) = sign(q)^n and q's sign is read once.
    s is primitive, so adj(N) v = det(N) s makes gcd(v) divide det(N), a
    small integer that the gcd starts from.  (K, N) is built only when
    row 2 is asked for.
    """
    if n_max < 1:
        return
    sign = sign_at_real_root(q)
    coeffs, d = integral_coeffs(q)
    scale, (s0, s1, s2) = row = normalize_integral(coeffs, d, sign)
    num, den = scale.numerator, scale.denominator
    yield num, den, row.triple
    if n_max == 1:
        return
    k, ((n00, n01, n02), (n10, n11, n12), (n20, n21, n22)) = _trace_step(coeffs, d)
    det = n00 * (n11 * n22 - n12 * n21) - n01 * (n10 * n22 - n12 * n20) + n02 * (n10 * n21 - n11 * n20)
    for _ in range(n_max - 1):
        v0, v1, v2 = n00 * s0 + n01 * s1 + n02 * s2, n10 * s0 + n11 * s1 + n12 * s2, n20 * s0 + n21 * s1 + n22 * s2
        g = gcd(det, v0, v1, v2) * sign
        s0, s1, s2 = v0 // g, v1 // g, v2 // g
        num, den = _mul_pair(num, den, k, g)
        yield num, den, (s0, s1, s2)


def _scaled_powers(q: FieldElement, n_max: int) -> Iterator[ScaledSeq]:
    """``normalize_egf(q**n)`` for n = 1..n_max; an integral scale skips Fraction's gcd."""
    return (ScaledSeq(Fraction(num) if den == 1 else Fraction(num, den), triple)
            for num, den, triple in _power_pairs(q, n_max))


def derive_table(kind: FamilyKind, n_max: int) -> list[ScaledSeq]:
    """``derive(PowerFamily(kind, n))`` for n = 1..n_max, stepping the
    family element from one row to the next instead of a fresh power."""
    return list(_scaled_powers(family_element(PowerFamily(kind, 1)), n_max))


# -- replication of the printed recursions --------------------------------

class PrintedRecursionResult(namedtuple("PrintedRecursionResult", "family direct recursive match note",
                                        defaults=("",))):
    """A family's direct row (ScaledSeq) and the printed recursion's replay
    of it, which is None when the replay stopped; ``match`` when the two
    are equal, and ``note`` says why a replay stopped."""

    __slots__ = ()


def element_with_traces(t0, t1, t2) -> FieldElement:
    """The unique element q with trace(x^j q) = t_j for j = 0, 1, 2."""
    return FieldElement(*(Fraction(v, 22) for v in coeffs_from_traces_22((t0, t1, t2))))


def _eventually_positive(triple: tuple[int, int, int]) -> bool:
    """Sign convention for a candidate integer triple: the sequence is
    eventually positive iff its dominant-root coefficient is positive.

    That coefficient is element_with_traces(*triple) at the real root.  22
    times the element has integer coefficients and the same sign there,
    which is the sign of its norm (see ``sign_at_real_root``), here an
    integer determinant."""
    return norm_coeffs(coeffs_from_traces_22(triple)) > 0


def _signed_triple(v: tuple[int, int, int], scalar: int | None = None) -> tuple[int, int, int]:
    """The triple of a printed step from v, an integer vector proportional
    to (1, M, N) with v[0] != 0.

    v divided by the gcd of its entries is, up to sign, (s0, M*s0, N*s0)
    with s0 the lcm of the reduced denominators of M and N.  The sign is
    the one that makes the sequence eventually positive.  The printed
    cpower and cofactor steps pass ``scalar``, which gives it: each is the
    exact step, multiplication by the family element (positive at the real
    root), times a nonzero scalar of the triple stepped from, a table row
    and so eventually positive; the candidate then is eventually positive
    exactly when the scalar is positive.  Without a scalar (pairsumsq) the
    sign is read from an integer norm; the norm is odd, norm(-t) = -norm(t),
    so that rule alone fixes it, whatever the sign of v[0]."""
    g = gcd(*v)
    candidate = (v[0] // g, v[1] // g, v[2] // g)
    if not (scalar > 0 if scalar is not None else _eventually_positive(candidate)):
        candidate = (-candidate[0], -candidate[1], -candidate[2])
    return candidate


def _printed_denominator(value: int, text: str) -> int:
    """value, a denominator of the printed recursion, which must not vanish."""
    if value == 0:
        raise ZeroDivisionError(f"{text} = 0")
    return value


# Each printed step maps (triple, num, den), the scale a reduced pair, to
# the next.  It keeps the printed numerators and denominators and scales
# (1, M, N) by its denominators to an integer vector reduced by one gcd.
# The denominators are tested in the order the printed formulas divide.

def _step_cpower(s: tuple[int, int, int], num: int, den: int):
    s0, s1, s2 = s
    denom = _printed_denominator(5 * s2 * s1 - 4 * s1 * s0 - 3 * s1 * s1, "5*s2*s1 - 4*s1*s0 - 3*s1^2")
    b_num = 2 * s2 * s1 + 5 * s1 * s0 + s1 * s1
    d = 9 * s2 * s2 * s1 + 6 * s2 * s1 * s0 + 18 * s2 * s1 * s1 - 2 * s1 * s1 * s0 - 7 * s1**3
    e = _printed_denominator(3 * s2 - s1, "3*s2 - s1")
    # M = b_num / denom, N = d / (e * denom); the step is s1*e times the exact one
    triple = _signed_triple((e * denom, b_num * e, d), s1 * e)
    return (triple, *_mul_pair(num, den, 3 * triple[2] - 2 * triple[1] - triple[0], s1))


def _step_cofactor(s: tuple[int, int, int], num: int, den: int):
    s0, s1, s2 = s
    ah = 10 * s2 - 10 * s1 - 2 * s0
    bh = -6 * s2 + 6 * s1 - 12 * s0
    ch = -8 * s2 + 8 * s1 + 6 * s0
    dh = -6 * s2 + 14 * s1 - 2 * s0
    eh = 8 * s2 - 26 * s1 + 10 * s0
    fh = 18 * s2 - 20 * s1 - 16 * s0
    p = fh * ah - ch * dh
    q = _printed_denominator(bh * dh - ah * eh, "bh*dh - ah*eh")
    _printed_denominator(ah, "ah")
    # M = p / q, N = -(bh * M + ch) / ah; the scale's s2 - s1 - s0 divides q;
    # the step is -44*ah*(s0 + s1 - s2) times the exact one
    triple = _signed_triple((ah * q, ah * p, -(bh * p + ch * q)), -44 * ah * (s0 + s1 - s2))
    return (triple, *_mul_pair(num, den, -8 * triple[2] + 18 * triple[1] + 2 * triple[0], s2 - s1 - s0))


def _step_pairsumsq(s: tuple[int, int, int], num: int, den: int):
    s0, s1, s2 = s
    denom = _printed_denominator(s2 - 4 * s1 + 3 * s0, "s2 - 4*s1 + 3*s0")
    # M = (3*s2 - 4*s1 - s0) / denom, N = (-7*s2 + 10*s1 + 5*s0) / denom
    triple = _signed_triple((denom, 3 * s2 - 4 * s1 - s0, -7 * s2 + 10 * s1 + 5 * s0))
    return (triple, *_mul_pair(num, den, 44 * triple[0], denom))


_STEPS = {
    FamilyKind.CPOWER: _step_cpower,
    FamilyKind.COFACTOR_POWER: _step_cofactor,
    FamilyKind.PAIR_SUM_SQ_POWER: _step_pairsumsq,
}

#: Families with a printed triple/scale recursion available for replication.
REPLICABLE_KINDS = frozenset(_STEPS)


def _printed_step(kind: FamilyKind):
    if kind not in _STEPS:
        raise ValueError(f"no printed recursion replicated for {kind.value}")
    return _STEPS[kind]


def _replay(step, base: ScaledSeq, n_max: int) -> Iterator[tuple | str]:
    """The printed recursion ``step`` applied verbatim from the n = 1 base,
    one step per n: its (triple, num, den) for n = 2..n_max.  From the step
    whose printed denominator vanishes on, every n yields that step's note."""
    row = base.triple, base.scale.numerator, base.scale.denominator
    note = None
    for _ in range(2, n_max + 1):
        if note is None:
            try:
                row = step(*row)
            except ZeroDivisionError as exc:
                note = f"printed denominator vanished during replication: {exc}"
        yield row if note is None else note


def _compare(fam: PowerFamily, direct: ScaledSeq, replayed: tuple | str) -> PrintedRecursionResult:
    if isinstance(replayed, str):
        return PrintedRecursionResult(fam, direct, None, False, note=replayed)
    triple, num, den = replayed
    if triple == direct.triple and num == direct.scale.numerator and den == direct.scale.denominator:
        return PrintedRecursionResult(fam, direct, direct, True)  # an equal replay holds the direct row
    return PrintedRecursionResult(fam, direct, ScaledSeq(Fraction(num, den), triple), False)


def replicate_paper_table(kind: FamilyKind, direct: Sequence[ScaledSeq]) -> list[PrintedRecursionResult]:
    """``derive_paper_recursive(PowerFamily(kind, n))`` for n = 2..len(direct)
    from one replay of the printed recursion; ``direct`` is the family's
    ``derive_table``, whose first row is the n = 1 base case."""
    replay = _replay(_printed_step(kind), direct[0], len(direct))
    return [_compare(PowerFamily(kind, n), row, replayed)
            for n, (row, replayed) in enumerate(zip(direct[1:], replay), start=2)]


def derive_paper_recursive(fam: PowerFamily) -> PrintedRecursionResult:
    """Apply the printed triple/scale recursion verbatim from the n = 1
    base case and compare against the direct path.

    The printed recursions are untrusted replication targets: a mismatch
    (or a vanishing printed denominator, which is reported rather than
    raised) indicts the recursion, not the direct derivation.
    """
    step = _printed_step(fam.kind)
    if fam.n < 2:
        raise ValueError("the recursion starts at n = 2")
    *_, last = _replay(step, derive(PowerFamily(fam.kind, 1)), fam.n)
    return _compare(fam, derive(fam), last)


# -- the scale conjecture --------------------------------------------------

class ConjectureRow(namedtuple("ConjectureRow", "n cpower_scale cofactor_scale equal")):
    """Row n of the scale conjecture: the scales (Fractions) of the 2n-th
    power-of-c family and of the n-th cofactor family, and whether they
    are equal; ``conjecture_check`` puts one Fraction in both when they are."""

    __slots__ = ()


class ConjectureReport(namedtuple("ConjectureReport", "rows all_equal")):
    """The conjecture's rows for n = 1..N, and whether every row is equal."""

    __slots__ = ()

    def first_counterexample(self) -> ConjectureRow | None:
        return next((row for row in self.rows if not row.equal), None)


def conjecture_check(n_max: int) -> ConjectureReport:
    """Check scale(c^(2n) family) == scale(cofactor^n family) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    c_squared, cofactor = family_element(CPower(2)), family_element(CofactorPower(1))
    rows = []
    powers = zip(_power_pairs(c_squared, n_max), _power_pairs(cofactor, n_max))
    for n, ((num, den, _), (c_num, c_den, _)) in enumerate(powers, start=1):
        lhs, equal = Fraction(num) if den == 1 else Fraction(num, den), num == c_num and den == c_den
        rows.append(ConjectureRow(n, lhs, lhs if equal else Fraction(c_num, c_den), equal))
    return ConjectureReport(tuple(rows), all(r.equal for r in rows))
