"""Registry binding every verified identity to exact evaluators and reports.

Each record evaluates its left and right side exactly (integers and
Fractions only) over a configured range of indices.  A fold decides every
index from the first deg L terms of its two sides, L their common
annihilator (see BLOCK_FACTORS), and forms its per-index checks only when
they are read.  Scaled-sequence identities are evaluated scale-free where
possible: both sides reduce to exact rationals, so the verdict does not
depend on a presentation convention.  There are two evaluators:
``_run_fold`` for the r-fold binomial convolutions, and ``_run_claims`` for
every other identity, whose rows (index, lhs, rhs, printed) say that two
exact values agree.  A printed row that the exact oracle contradicts is
reported and never fails the run; a report with such a row is a known
discrepancy, read from its rows.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial
from itertools import islice
from math import lcm, prod
from operator import mul

from .convolution import (
    TRIBO_DENOM,
    ConstantSeq,
    WeightedSeq,
    _annihilator,
    _extend,
    _roots_within,
    cross_difference,
    multinomial_conv_prefix,  # not called here; perfbench's tracer test wraps this binding
    multiset_table,
    p1_rational,
    p2_rational,
    poly_times,
    series_T,
    series_check_derivatives,
    t1_rational,
)
from .derivation import (
    CPower,
    FamilyKind,
    PairSumSqPower,
    PowerFamily,
    _mul_pair,
    _scaled_powers,
    derive,  # not called here; perfbench's tracer test wraps this binding
    family_element,
)
from .field import c_element, cofactor_element, integral_coeffs, mul_coeffs, norm, norm_coeffs, trace_triple
from .sequences import ScaledSeq, TriboSeq, binet_check
from .symmetric_identities import FREE, TERMS, coeffs

DEFAULT_RANGE_CAP = 2000
DEFAULT_SEED = 42


class CatalogError(Exception):
    pass


class UnknownIdentity(CatalogError):
    """The requested identity id is not registered."""


class RangeTooLarge(CatalogError):
    """A requested range exceeds the configured cap."""


def _without_digit_limit(call: Callable, *args):
    """call(*args) with no limit on the digits of an int: exact values
    routinely exceed the interpreter's int-to-str limit, which is restored
    afterwards, also when the call raises."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return call(*args)
    sys.set_int_max_str_digits(0)
    try:
        return call(*args)
    finally:
        sys.set_int_max_str_digits(limit)


class Check(namedtuple("Check", "index ok lhs_value rhs_value")):
    """Outcome of one exact comparison of two exact values: the index's
    label, whether they agree, and the two values.

    lhs/rhs read the values as decimal-free strings, made only when read:
    a report shows no more than the first failure.
    """

    __slots__ = ()
    lhs = property(lambda self: _without_digit_limit(str, self.lhs_value))
    rhs = property(lambda self: _without_digit_limit(str, self.rhs_value))


class _Quotient:
    """num / den, shown as the reduced Fraction, which is formed only when
    shown; it equals an integer t exactly when num == t * den."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __eq__(self, other):
        return self.num == other * self.den if isinstance(other, int) else NotImplemented

    def __str__(self) -> str:
        return _without_digit_limit(str, Fraction(self.num, self.den))


class _FoldPoint(namedtuple("_FoldPoint", "prefix ms full_lhs lhs_weight common head rhs rec ok")):
    """A fold point whose two sides, both sequences of L (rec), were compared
    on their first ``head`` terms; ``ok`` when those agree, and so at every m
    of ms.  It stands for one check per m, labelled prefix + m, formed only
    when read (checks()); full_lhs() builds the left side to the range's end."""

    __slots__ = ()

    def checks(self) -> list[Check]:
        count = self.ms[-1] + 1
        lhs = [v * self.lhs_weight for v in self.full_lhs()[:count]]
        if self.ok:
            rhs = lhs
        else:
            rhs = _extend(self.rhs, self.rec, count - 1) if self.head < count else self.rhs
        return [Check(f"{self.prefix}{m}", lhs[m] == rhs[m], _Quotient(lhs[m], self.common),
                      _Quotient(rhs[m], self.common)) for m in self.ms]


class _ProvedRows(namedtuple("_ProvedRows", "rows")):
    """Claim rows (a callable that yields them) whose two sides were proved
    equal at every index; ``ok``, and it stands for one check per row,
    formed only when read (checks())."""

    __slots__ = ()
    ok = True

    def checks(self) -> list[Check]:
        return [Check(index, lhs == rhs, lhs, rhs) for index, lhs, rhs, _ in self.rows()]


def _expand(parts) -> Iterator[Check]:
    """The checks of parts, each a Check, a fold point or proved rows, in order."""
    for part in parts:
        if isinstance(part, (_FoldPoint, _ProvedRows)):
            yield from part.checks()
        else:
            yield part


class RunOutcome:
    """A runner's checks or fold points, mismatches, notes and parameter
    points; each list left out starts empty."""

    __slots__ = ("checks", "mismatches", "notes", "params_used")

    def __init__(self, checks=None, mismatches=None, notes=None, params_used=None):
        self.checks: list[Check | _FoldPoint] = [] if checks is None else checks
        self.mismatches: list[Check] = [] if mismatches is None else mismatches
        self.notes: list[str] = [] if notes is None else notes
        self.params_used: list[dict[str, str]] = [] if params_used is None else params_used


class RangeSpec(namedtuple("RangeSpec", "name lo hi")):
    """A named index range lo..hi, both ends included."""

    __slots__ = ()


class RunContext(namedtuple("RunContext", "ranges rng store")):
    """A run's ranges, name -> (lo, hi), a callable that makes its seeded
    random.Random, called only by an entry that draws, and its store, shared by
    its entries: family rows, fold factors, fold plans, tables and rational pairs."""

    __slots__ = ()

    def span(self, name: str) -> range:
        lo, hi = self.ranges[name]
        return range(lo, hi + 1)


class SettledCount(namedtuple("SettledCount", "points terms")):
    """A report's settled fold points and the terms on which they compared
    their two sides."""

    __slots__ = ()


class VerifyReport:
    """Exact verification record for one identity.

    Holds the per-index statuses, the first failure with both side values
    as exact strings, the parameter assignment and oracle notes.  Nothing
    in a report is ever a float.  The checks it is given may hold fold
    points and proved rows: status and settled read those as they are, and
    ``checks`` expands each into its per-index checks when first read.
    """

    __slots__ = ("id", "label", "range_desc", "params", "_parts", "_checks", "mismatches", "notes")

    def __init__(self, id: str, label: str, range_desc: str, params: list[dict[str, str]],
                 checks: list[Check | _FoldPoint], mismatches: list[Check], notes: str):
        self.id, self.label, self.range_desc, self.params = id, label, range_desc, params
        self._parts, self._checks = checks, None
        self.mismatches, self.notes = mismatches, notes

    @property
    def checks(self) -> list[Check]:
        if self._checks is None:
            self._checks = list(_expand(self._parts))
        return self._checks

    @property
    def settled(self) -> SettledCount:
        points = [p for p in self._parts if isinstance(p, _FoldPoint) and p.ok]
        return SettledCount(len(points), sum(p.head for p in points))

    @property
    def status(self) -> str:
        if not self._parts and not self.mismatches:
            return "vacuous"
        if any(not p.ok for p in self._parts):
            return "fail"
        if any(not c.ok for c in self.mismatches):
            return "known-discrepancy"
        return "pass"

    @property
    def first_failure(self) -> Check | None:
        checks = self.checks if self.status == "fail" else self.mismatches
        return next((c for c in checks if not c.ok), None)

    def to_dict(self) -> dict:
        ff = self.first_failure
        return {
            "id": self.id,
            "paper_label": self.label,
            "range": self.range_desc,
            "params": self.params,
            "status": self.status,
            "first_failure": None if ff is None else {"index": ff.index, "lhs": ff.lhs, "rhs": ff.rhs},
            "notes": self.notes,
        }


class IdentityRecord(namedtuple("IdentityRecord", "id label ranges runner")):
    """A registered identity: its id, its paper label, its RangeSpecs and
    the runner that turns a RunContext into a RunOutcome."""

    __slots__ = ()


def _draw_point(names, rng: random.Random) -> dict:
    return {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in names}


# -- binomial convolutions of the c^n family ---------------------------------
#
# GT_r: the r-fold multinomial convolution of the c^n family equals a
# rational combination of terms, read from the symmetric expansion of
# (a+b+c)^r with a, b, c mapped to c_i*e^(alpha_i x): each block of a term
# (symmetric_identities.TERMS) becomes factors.  A term is its coefficient
# times the integer multinomial convolution table of its factors, divided
# by the product of the factor scales.  A factor is (family, base),
# weighted by base^k: an int j stands for the c^(j*n) family, "cof" for
# the cofactor^n family, "one" for the constant 1 and "norm" for the
# constant 1 over the scale 44^n = norm(c)^-n.
# P3, T2R, T3R and T4R are GT2..GT5 pinned at n = 1; T2, T3 and T4 are the
# same terms at n = 1 with the coefficients of a symmetric-lemma parameter
# point.  The printed combinations are not unique (Newton's relations tie
# the power sums together), so each fold keeps its own literals.

C1, ALT, ONE, NORM = (1, 1), ("cof", -1), ("one", 1), ("norm", 1)
NORM_SCALE = 1 / norm(c_element())
# With alpha_i the roots of x^3 - x^2 - x - 1, each block is a sum of
# exponentials whose exponents are sums of alphas: j*alpha_i for s_j,
# 1 - alpha_i = alpha_j + alpha_k for e2 (the cofactor family signed by -1,
# times e^x) and 1 = alpha_1 + alpha_2 + alpha_3 for e3.  So every term of
# (a+b+c)^r has exponents in {a*alpha_1 + b*alpha_2 + c*alpha_3 : a+b+c = r},
# the C(r+2, 2) roots of the left side's annihilator L.  _fold_checks proves
# this for each term's annihilator and combines the right side on the first
# deg L terms only: both sides satisfy L, so a right side whose head equals
# the left side's is equal everywhere, and only a head that disagrees is
# extended by L.  The left side too is built to deg L terms.  Each point is
# one record (_FoldPoint) whose checks, and the left side past deg L, are
# formed only when they are read.  If a term fails the test (a changed
# factor), every table is built in full.
#: block of the symmetric expansion -> its factors.
BLOCK_FACTORS = {f"s{j}": ((j, j),) for j in range(1, 6)} | {"e2": (ALT, ONE), "e3": (NORM,)}

#: GT_r's printed literal coefficients; names omitted are zero.
PRINTED = {
    2: {"A": 1, "B": 2},
    3: {"A": -2, "B": 6, "C": 3},
    4: {"A": -6, "C": 4, "D": 3, "I": 12},
    5: {"A": -14, "C": 5, "D": 15, "E": 5, "H": 10},
}

#: T_(r-1)'s fixed second default point; folds not listed draw one.
GENERIC = {3: {"D": 1}}


def _row(kind: FamilyKind, n: int, store: dict) -> ScaledSeq:
    """Row n of the family ``kind`` as ``derive`` gives it, read from the run's integer rows."""
    if kind not in store:
        # unbounded: the family's rows are stepped on only as far as they are read
        store[kind] = _scaled_powers(family_element(PowerFamily(kind, 1)), sys.maxsize), []
    steps, rows = store[kind]
    while len(rows) < n:
        rows.append(next(steps))
    return rows[n - 1]


def _factor(f: tuple, n: int, store: dict) -> tuple[WeightedSeq, int | Fraction]:
    """Sequence (term k weighted by base^k) and scale of one factor at family
    index n, made once per run and kept in its store under (f, n)."""
    if (f, n) not in store:
        family, base = f
        if family in ("one", "norm"):
            store[f, n] = WeightedSeq(ConstantSeq(1), base), NORM_SCALE**n if family == "norm" else 1
        else:
            kind, row = (FamilyKind.COFACTOR_POWER, n) if family == "cof" else (FamilyKind.CPOWER, family * n)
            scaled = _row(kind, row, store)
            store[f, n] = WeightedSeq(scaled.sequence(), base), scaled.scale
    return store[f, n]


def _plan(r: int, names: tuple, n: int, store: dict) -> tuple[dict, set, tuple, bool]:
    """The r-fold terms ``names``: each term's sorted factors, every factor
    needed, the left side's annihilator L and whether L vanishes at every
    root of every term's annihilator (see BLOCK_FACTORS).  A factor's
    polynomial depends on its base alone, not on n; the plan is made once
    per run, in its store, since the block map may differ between runs."""
    plans = store.setdefault("plans", {})
    if (r, names) not in plans:
        terms = {k: tuple(sorted((f for b in TERMS[r][k] for f in BLOCK_FACTORS[b]), key=str)) for k in names}
        needed = {f for fs in terms.values() for f in fs} | {C1}
        polys = {f: _factor(f, n, store)[0].charpoly for f in needed}
        rec = _annihilator((polys[C1],) * r)
        term_polys = [[polys[f] for f in fs] for fs in terms.values()]
        shared = all(None not in ps and _roots_within(_annihilator(tuple(sorted(ps))), rec) for ps in term_polys)
        plans[r, names] = terms, needed, rec, shared
    return plans[r, names]


def _fold_checks(r: int, n: int, ms: range, index: str, points, store: dict) -> list[_FoldPoint]:
    """The r-fold identity at family index n for conv indices ms, one record
    per (label prefix, coefficients) point, decided on the two sides' heads.
    The coefficients name the terms."""
    count = ms[-1] + 1
    lhs_factors = (C1,) * r
    terms, needed, rec, shared = _plan(r, tuple(points[0][1]), n, store)
    factors = {f: _factor(f, n, store) for f in needed}
    seqs = {f: seq for f, (seq, _) in factors.items()}
    scales = {f: (scale.numerator, scale.denominator) for f, (_, scale) in factors.items()}
    # the run's tables at family index n by sorted factor tuple, each built
    # from the table of its factors but the last (multiset_table)
    tables = store.setdefault(n, {})
    # when every term shares L's roots, the term tables are built to deg L
    # terms only and each point's right side is settled there
    head = min(count, len(rec) - 1) if shared else count
    # the left side to the range's end, built only when a point needs it
    full_lhs = partial(multiset_table, tables, lhs_factors, seqs, count)
    lhs = multiset_table(tables, lhs_factors, seqs, head)
    # weights as reduced integer pairs: 1 / scale^r on the left, each
    # coefficient times its term's inverse scale on the right, kept with the
    # term's table as the product of its factors' scales, inverted: (den, num)
    inv_num, inv_den = _mul_pair(1, 1, scales[C1][1] ** r, scales[C1][0] ** r)
    term_tables = {k: (multiset_table(tables, fs, seqs, head), prod(scales[f][1] for f in fs),
                       prod(scales[f][0] for f in fs)) for k, fs in terms.items()}
    checks = []
    for prefix, cs in points:
        weights = [_mul_pair(c.numerator, c.denominator, *term_tables[k][1:]) for k, c in cs.items()]
        # both sides over one common denominator: the comparison is on integers
        common = lcm(inv_den, *(den for _, den in weights))
        lhs_weight = inv_num * (common // inv_den)
        rhs_weights = [num * (common // den) for num, den in weights]
        lhs_num = [v * lhs_weight for v in lhs[:head]]
        # the right side's head, column m of the term tables at a time
        columns = islice(zip(*(term_tables[k][0] for k in cs)), head)
        rhs = [sum(map(mul, rhs_weights, column)) for column in columns]
        # both sides satisfy L, so the heads decide every m: one record stands
        # for the point's checks, formed when they are read
        checks.append(_FoldPoint(f"{prefix}{index}=", ms, full_lhs, lhs_weight, common, head, rhs, rec,
                                 rhs == lhs_num))
    return checks


def _run_fold(r: int, kind: str, ctx: RunContext) -> RunOutcome:
    """The one evaluator of the r-fold identities: kind "GT" runs GT_r over
    (n, m), "pinned" its printed row at n = 1 over index n, and "family"
    T_(r-1) at its printed point and at GENERIC's point or a seeded draw."""
    if kind == "GT":
        ns, ms = ctx.span("n"), ctx.span("m")
        checks = []
        for n in ns:
            checks += _fold_checks(r, n, ms, "m", [(f"n={n},", PRINTED[r])], ctx.store)
        return RunOutcome(checks=checks)
    ms = ctx.span("n")
    if kind == "pinned":
        return RunOutcome(checks=_fold_checks(r, 1, ms, "n", [("", PRINTED[r])], ctx.store))
    names = FREE[r]
    printed = {k: PRINTED[r].get(k, 0) for k in names}
    points = [printed, GENERIC.get(r) or _draw_point(names, ctx.rng())]
    params_used, coeff_points = [], []
    for point in points:
        params_used.append({k: str(v) for k, v in point.items()})
        tag = ",".join(f"{k}={v}" for k, v in params_used[-1].items())
        coeff_points.append((tag + ",", coeffs(r, point)))
    return RunOutcome(checks=_fold_checks(r, 1, ms, "n", coeff_points, ctx.store), params_used=params_used)


# -- claims: every identity that is not a fold --------------------------------
# P1, P2, T1 and GF compare series coefficients; L-CONST, the power families
# L2..L9 and S1..S3 compare presentations.  A derived presentation is the
# run's row (_row); family_element is only ever the independent side of a
# cross-check.

def _run_claims(rows: Callable, ctx: RunContext, note: str | None = None, proof: Callable | None = None) -> RunOutcome:
    """Checks of the rows (index, lhs, rhs, printed) of rows(ctx), and the one
    place of the known-discrepancy rule: a printed row that disagrees is a
    mismatch, reported and never failed; every other row is a check.  When
    proof(ctx) (rows with none printed) is zero, every row holds, and one
    record stands for the rows, formed when read."""
    outcome = RunOutcome(notes=[] if note is None else [note])
    if proof is not None and not any(proof(ctx)):
        outcome.checks.append(_ProvedRows(partial(rows, ctx)))
        return outcome
    for index, lhs, rhs, printed in rows(ctx):
        check = Check(index, lhs == rhs, lhs, rhs)
        (outcome.mismatches if printed and not check.ok else outcome.checks).append(check)
    return outcome


def _pair(sides: Callable[[], tuple], store: dict) -> tuple:
    """The rational pair sides(), built once per run and kept in its store."""
    if sides not in store:
        store[sides] = sides()
    return store[sides]


def _ogf_proof(sides: Callable[[], tuple], ctx: RunContext) -> list[int]:
    """The cross-multiplied difference of the run's pair sides()."""
    return cross_difference(partial(_pair, sides, ctx.store))


def _ogf_rows(sides: Callable[[], tuple], ctx: RunContext) -> Iterator[tuple]:
    """Coefficient n of both rational sides (P1, P2, T1) for every n in the
    range."""
    ns = ctx.span("n")
    lhs, rhs = (side.coefficients(ns[-1]) for side in _pair(sides, ctx.store))
    for n in ns:
        yield f"n={n}", lhs[n], rhs[n], False


def _gf_rows(ctx: RunContext) -> Iterator[tuple]:
    order = ctx.span("order")[-1]
    t = series_T(order)
    trib = TriboSeq.ordinary().terms(order + 1)
    for k in range(order + 1):
        yield f"coeff k={k}", t[k], trib[k], False
    defining = poly_times(TRIBO_DENOM, t)
    yield "defining-relation", defining == [0, 1] + [0] * (order - 1), True, False
    yield "derivative-relations", series_check_derivatives(order, _pair(t1_rational, ctx.store)), True, False


def _constant_rows(ctx: RunContext) -> Iterator[tuple]:
    """On integers: for c = a / d, trace(x^k c) = trace_triple(a)[k] / d and norm(c) = norm_coeffs(a) / d^3."""
    (a, d), (b, e) = integral_coeffs(c_element()), integral_coeffs(cofactor_element())
    traces = trace_triple(a)
    yield "trace(c)", Fraction(traces[0], d), Fraction(0), False
    yield "trace(x*c)", Fraction(traces[1], d), Fraction(1), False
    yield "trace(x^2*c)", Fraction(traces[2], d), Fraction(1), False
    yield "norm(c)", Fraction(norm_coeffs(a), d**3), Fraction(1, 44), False
    yield "trace(cofactor)", Fraction(trace_triple(b)[0], e), Fraction(-1, 22), False


#: Lemma exponent j -> the lemma's id and the printed (scale, triple) of c^j:
#: trace(x^k c^j) = T_k(triple) / scale.
LEMMAS = {2: ("L2", 22, (2, 3, 10)), 3: ("L7", 44, (3, 3, 5)), 4: ("L8", 484, (2, 14, 21)),
          5: ("L9", 968, (5, 6, 15))}


def _lemma_rows(power: int, ctx: RunContext) -> Iterator[tuple]:
    """The printed c^power against its derivation, then against its traces
    at every k, on integers: with c^power = a / d and scale = num / den,
    T_k(triple) = scale * trace(x^k c^power) exactly when
    T_k(triple) * d * den == num * T_k(trace_triple(a))."""
    _, scale, triple = LEMMAS[power]
    printed = ScaledSeq(Fraction(scale), triple)
    yield "derivation", _row(FamilyKind.CPOWER, power, ctx.store), printed, False
    ks = ctx.span("k")
    a, d = integral_coeffs(family_element(CPower(power)))
    num, den = printed.scale.numerator, printed.scale.denominator
    terms = printed.sequence().terms(ks[-1] + 1)
    traces = TriboSeq(*trace_triple(a)).terms(ks[-1] + 1)
    for k in ks:
        yield f"k={k}", terms[k], _Quotient(num * traces[k], d * den), False


def _s1_rows(ctx: RunContext) -> Iterator[tuple]:
    for n in ctx.span("n"):
        yield (f"n={n}", _row(FamilyKind.SUM_COFACTOR_CONST, n, ctx.store),
               ScaledSeq(Fraction(-22) ** n, (3, 1, 3)), False)


def _s2_rows(ctx: RunContext) -> Iterator[tuple]:
    """The corrected presentation against the derived one, and term 0 of the
    printed one (242 over its scale) against the derived term 0, trace(q_n):
    the printed term is 121/120 times the exact one for every n, so no later
    term is compared."""
    for n in ctx.span("n"):
        derived = _row(FamilyKind.SUM_COFACTOR_SQ_CONST, n, ctx.store)
        yield f"n={n},corrected", derived, ScaledSeq(Fraction(484) ** n, (3, 1, 3)), False
        yield (f"n={n},k=0,printed", derived.triple[0] / derived.scale,
               Fraction(242, 2**6 * 5 * 11**2 * 484 ** (n - 1)), True)


S2_NOTE = ("printed presentation (scale 2^6*5*11^2*(22^2)^(n-1), triple (242,82,245)) "
           "disagrees with the exact trace sequence at the recorded indices; "
           "the corrected presentation (scale 484^n, triple (3,1,3)) passes")

#: Printed presentation of the pair-sum-square family (as published).
PAIRSUMSQ_PRINTED: dict[int, tuple[int, tuple[int, int, int]]] = {
    1: (-22, (-4, 1, 4)),
    2: (22**2, (6, -6, 19)),
    3: (-(22**3) * 2, (-61, -75, 163)),
    4: (22**4 * 2, (-140, -425, 1098)),
    5: (-(22**5) * 2, (-1189, -2567, 6318)),
    6: (22**6 * 4, (-13019, -30411, 75841)),
}

#: Oracle-corrected presentation: exact traces of ((c_j^2+c_k^2) family)^n,
#: cross-checked against independent algebraic-number arithmetic.  The
#: printed scales are all correct; the printed triples are wrong for n >= 2.
PAIRSUMSQ_ORACLE: dict[int, tuple[int, tuple[int, int, int]]] = {
    1: (-22, (-4, 1, 4)),
    2: (22**2, (6, 6, -7)),
    3: (-(22**3) * 2, (13, -51, 37)),
    4: (22**4 * 2, (-140, 151, -50)),
    5: (-(22**5) * 2, (537, -307, -34)),
    6: (22**6 * 4, (-2805, 589, 1031)),
}


def _s3_rows(ctx: RunContext) -> Iterator[tuple]:
    """The derived presentation against the oracle row, or past the table
    against its Binet sums, and the printed row against the derived one."""
    # q_n = power / denom on integers, stepped apart from the run's rows; S3's range starts at 1
    step, d = integral_coeffs(family_element(PairSumSqPower(1)))
    power, denom = step, d
    for n in ctx.span("n"):
        derived = _row(FamilyKind.PAIR_SUM_SQ_POWER, n, ctx.store)
        if n in PAIRSUMSQ_ORACLE:
            scale, triple = PAIRSUMSQ_ORACLE[n]
            yield f"n={n},oracle", derived, ScaledSeq(Fraction(scale), triple), False
        else:
            # T_k(triple) and scale * trace(x^k q_n) are both Tribonacci in k,
            # so agreeing at k = 0..2 they agree at every k
            yield f"n={n},binet", binet_check(derived, (power, denom), 2), True, False
        if n in PAIRSUMSQ_PRINTED:
            scale, triple = PAIRSUMSQ_PRINTED[n]
            yield f"n={n},printed", ScaledSeq(Fraction(scale), triple), derived, True
        power, denom = mul_coeffs(power, step), denom * d


S3_NOTE = ("printed triples for n >= 2 fail the exact oracle (the printed triple/scale "
           "recursion for this family is flawed; replication reproduces the printed "
           "table and flags the mismatch); printed scales are all correct and the "
           "oracle-corrected triples are verified above")


# -- registry ---------------------------------------------------------------

def _rec(id, label, ranges, runner) -> IdentityRecord:
    return IdentityRecord(id, label, tuple(RangeSpec(*r) for r in ranges), runner)


REGISTRY: dict[str, IdentityRecord] = {
    r.id: r
    for r in [
        _rec("P1", "sum T_k(T_{n-k}+T_{n-k-2}+2T_{n-k-3}) = (n-2)T_{n-1} - T_{n-2}",
             [("n", 3, 200)],
             partial(_run_claims, partial(_ogf_rows, p1_rational), proof=partial(_ogf_proof, p1_rational))),
        _rec("P2", "sum T_k T_{n-k} as a weighted single sum (adopted reading of the "
             "half-integer sign exponents)", [("n", 2, 100)],
             partial(_run_claims, partial(_ogf_rows, p2_rational), proof=partial(_ogf_proof, p2_rational))),
        _rec("T1", "(n-1)(n-2)T_{n-1} = weighted triple plain convolutions at shifts "
             "n-5, n-4, n-2, n-1, n", [("n", 5, 120)],
             partial(_run_claims, partial(_ogf_rows, t1_rational), proof=partial(_ogf_proof, t1_rational))),
        _rec("L-CONST", "root-coefficient constants: trace(c)=0, trace(xc)=1, "
             "trace(x^2 c)=1, norm(c)=1/44, trace(cofactor)=-1/22", [],
             partial(_run_claims, _constant_rows)),
        *(_rec(ident, f"c^{j} family equals (1/{scale}) T^({','.join(map(str, triple))})", [("k", 0, 50)],
               partial(_run_claims, partial(_lemma_rows, j))) for j, (ident, scale, triple) in LEMMAS.items()),
        _rec("P3", "binomial pair convolution of T equals "
             "(1/22)(2^n T_n^(2,3,10) + 2 sum C(n,k)(-1)^k T_k^(-1,2,7))",
             [("n", 0, 200)], partial(_run_fold, 2, "pinned")),
        _rec("T2", "triple binomial convolution, one-parameter family in D",
             [("n", 0, 120)], partial(_run_fold, 3, "family")),
        _rec("T2R", "triple binomial convolution, D = 0 special form",
             [("n", 0, 120)], partial(_run_fold, 3, "pinned")),
        _rec("T3", "quadruple binomial convolution, family in (D,E,G,H)",
             [("n", 0, 80)], partial(_run_fold, 4, "family")),
        _rec("T3R", "quadruple binomial convolution, E=F=G=H=0 special form",
             [("n", 0, 80)], partial(_run_fold, 4, "pinned")),
        _rec("T4", "quintuple binomial convolution, family in (D,I,L,N,P,Q,R,S)",
             [("n", 0, 80)], partial(_run_fold, 5, "family")),
        _rec("T4R", "quintuple binomial convolution, B=I=L=N=P=Q=R=S=0 special form",
             [("n", 0, 80)], partial(_run_fold, 5, "pinned")),
        *(_rec(f"GT{r}", f"{word} binomial convolution of the c^n family", [("n", 1, 4), ("m", 0, 60)],
               partial(_run_fold, r, "GT")) for r, word in zip(PRINTED, ("pair", "triple", "quadruple", "quintuple"))),
        _rec("S1", "(sum of pairwise products of c)^n sum-of-exponentials equals "
             "((-1/22)^n) T^(3,1,3)", [("n", 1, 8)], partial(_run_claims, _s1_rows)),
        _rec("S2", "(sum of squared pairwise products)^n sum-of-exponentials, printed "
             "scale 2^6*5*11^2*(22^2)^(n-1) with triple (242,82,245)",
             [("n", 1, 6)], partial(_run_claims, _s2_rows, note=S2_NOTE)),
        _rec("S3", "(c_j^2+c_k^2)^n per-root family against the printed table",
             [("n", 1, 6)], partial(_run_claims, _s3_rows, note=S3_NOTE)),
        _rec("GF", "ordinary generating function derivative identities for "
             "T(x) = x/(1-x-x^2-x^3)", [("order", 40, 40)], partial(_run_claims, _gf_rows)),
    ]
}


def identity_ids() -> list[str]:
    return sorted(REGISTRY)


def verify(
    identity_id: str,
    *,
    nmax: int | None = None,
    mmax: int | None = None,
    seed: int = DEFAULT_SEED,
    _store: dict | None = None,
) -> VerifyReport:
    """Run one identity over its (possibly overridden) range.

    nmax/mmax override the upper end of the record's first/second index
    range; a negative upper end, or a bound for a range the record lacks,
    raises CatalogError.  An upper end below its range's start gives a
    vacuous report: no runner is called.
    _store (private) holds the run's family rows, fold factors, fold plans,
    tables and rational pairs (RunContext's store); verify_all shares one.
    """
    record = REGISTRY.get(identity_id)
    if record is None:
        raise UnknownIdentity(f"no identity registered under id {identity_id!r}")
    if nmax is not None and not record.ranges:
        raise CatalogError(f"{identity_id} has no index range for nmax")
    if mmax is not None and len(record.ranges) < 2:
        raise CatalogError(f"{identity_id} has no second index range for mmax")
    ranges: dict[str, tuple[int, int]] = {}
    for range_spec, bound in zip(record.ranges, (nmax, mmax)):
        hi = range_spec.hi if bound is None else bound
        if hi < 0:
            raise CatalogError(f"{range_spec.name} upper bound {hi} is negative")
        if hi > DEFAULT_RANGE_CAP:
            raise RangeTooLarge(
                f"{range_spec.name} <= {hi} exceeds the configured cap {DEFAULT_RANGE_CAP}"
            )
        ranges[range_spec.name] = (range_spec.lo, hi)
    ctx = RunContext(ranges, partial(random.Random, f"{seed}:{identity_id}"), {} if _store is None else _store)
    empty = any(lo > hi for lo, hi in ranges.values())
    outcome = RunOutcome() if empty else record.runner(ctx)
    range_desc = ", ".join(f"{name}={lo}..{hi}" for name, (lo, hi) in ranges.items())
    return VerifyReport(record.id, record.label, range_desc, outcome.params_used,
                        outcome.checks, outcome.mismatches, "; ".join(outcome.notes))


class SuiteReport(namedtuple("SuiteReport", "seed reports")):
    """A suite run's seed and its VerifyReports, one per identity."""

    __slots__ = ()

    def counts(self) -> dict[str, int]:
        return _tally(r.status for r in self.reports)

    @property
    def verdict(self) -> str:
        return _verdict(self.counts())

    def to_dict(self) -> dict:
        """The report document; each entry's status is read once, and the
        summary is counted from those."""
        entries = [r.to_dict() for r in self.reports]
        counts = _tally(e["status"] for e in entries)
        return {
            "config": {"seed": str(self.seed)},
            "entries": entries,
            "summary": {
                "pass": str(counts["pass"]),
                "fail": str(counts["fail"]),
                "known_discrepancy": str(counts["known-discrepancy"]),
                "vacuous": str(counts["vacuous"]),
                "total": str(len(self.reports)),
                "verdict": _verdict(counts),
            },
        }


def _tally(statuses) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "known-discrepancy": 0, "vacuous": 0}
    for status in statuses:
        out[status] += 1
    return out


def _verdict(counts: dict[str, int]) -> str:
    return "pass" if counts["fail"] == 0 else "fail"


def verify_all(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Run every registered identity at its default range, deterministically
    for a given seed; entries are ordered by id and share one store."""
    store: dict = {}
    reports = [verify(i, seed=seed, _store=store) for i in identity_ids()]
    return SuiteReport(seed=seed, reports=reports)
