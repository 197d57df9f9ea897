"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every comparison is exact (integer or rational equality, zero tolerance).
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.

The published table for the pair-sum-square family is wrong for n >= 2:
its printed triple/scale recursion is flawed and the table inherits the
error.  Criterion 3 therefore checks that table where the program
reproduces it, in the verbatim replay of ``derive pairsumsq
--replicate-paper``, and checks the exact table where the program derives
it, with every n >= 2 row flagged ``match=false``.  The runtime catalog
reports the discrepancy instead of inheriting it.
"""

import json
import random
from fractions import Fraction as F

from triboconv.cli import main
from triboconv.convolution import multinomial_conv_prefix, plain_conv_prefix
from triboconv.derivation import (
    CPower,
    CofactorPower,
    PairSumSqPower,
    SumCofactorSqConst,
    conjecture_check,
    derive,
    family_element,
)
from triboconv.field import (
    FieldElement,
    X,
    c_element,
    cofactor_element,
    norm,
    trace,
)
from triboconv.identity_catalog import PAIRSUMSQ_ORACLE, PAIRSUMSQ_PRINTED, verify
from triboconv.sequences import ScaledSeq, TriboSeq, binet_check
from triboconv.symmetric_identities import verify_sym_identity
from oracles import multinomial_conv_enum, norm_by_newton, plain_conv_enum, random_params_by_fractions
from test_derivation import COFACTOR_TABLE, CPOWER_TABLE


def _line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def test_criterion_1_sequence_ground_truth(capsys):
    assert main(["seq", "0,1,1", "11"]) == 0
    out = capsys.readouterr().out
    ok = out == "0 1 1 2 4 7 13 24 44 81 149\n"
    with capsys.disabled():
        _line("1 sequence ground truth", ok, "seq 0,1,1 11")
    assert ok


def test_criterion_2_constant_lemmas():
    c = c_element()
    ok = (
        trace(c) == 0
        and trace(X * c) == 1
        and trace(X * (X * c)) == 1
        and norm(c) == F(1, 44)
        and trace(cofactor_element()) == F(-1, 22)
    )
    _line("2 constant lemmas", ok, "exact equality")
    assert ok


def test_criterion_3_tables_cpower_and_cofactor():
    ok = all(
        derive(CPower(n)) == ScaledSeq(F(scale), triple)
        for n, (scale, triple) in CPOWER_TABLE.items()
    ) and all(
        derive(CofactorPower(n)) == ScaledSeq(F(scale), triple)
        for n, (scale, triple) in COFACTOR_TABLE.items()
    )
    _line("3 derivation tables, c^n (n=1..10) and cofactor^n (n=1..6) as printed", ok)
    assert ok


def test_criterion_3_tables_pairsumsq_printed_table(capsys):
    """The printed pair-sum-square table (n = 1..6) is what the replay of
    its printed recursion shows: for n = 1 the exact row itself, for
    n >= 2 the ``replicated`` field.  Each exact row is the oracle row,
    so the printed scale appears on both sides, and each n >= 2 row is
    flagged ``match=false``, because the printed triples are wrong there
    and ``derive`` must not inherit them."""
    assert main(["derive", "pairsumsq", "6", "--replicate-paper", "--format", "json"]) == 0
    rows = {int(row["n"]): row for row in json.loads(capsys.readouterr().out)["rows"]}

    def shown(scale, triple):
        return {"A": str(scale), "triple": [str(t) for t in triple]}

    failures = []
    for n, (scale, triple) in PAIRSUMSQ_PRINTED.items():
        row = rows.get(n)
        if row is None:
            failures.append(f"n={n}: no row")
            continue
        exact = {"A": row["A"], "triple": row["triple"]}
        replayed = exact if n == 1 else row.get("replicated")
        if replayed != shown(scale, triple):
            failures.append(f"n={n}: printed (A={scale}, triple={triple}) vs replayed {replayed}")
        if exact != shown(*PAIRSUMSQ_ORACLE[n]):
            failures.append(f"n={n}: exact {exact} vs oracle {PAIRSUMSQ_ORACLE[n]}")
        if n >= 2 and row.get("match") != "false":
            failures.append(f"n={n}: match={row.get('match')}, expected false")
    ok = not failures
    with capsys.disabled():
        _line(
            "3 derivation tables, pair-sum-square printed table (n=1..6)",
            ok,
            "reproduced by replication, flagged match=false for n >= 2",
        )
    assert ok, "pair-sum-square table check failed: " + "; ".join(failures)


def test_criterion_3_tables_pairsumsq_oracle_and_scales():
    table_ok = all(
        derive(PairSumSqPower(n)) == ScaledSeq(F(scale), triple)
        for n, (scale, triple) in PAIRSUMSQ_ORACLE.items()
    )
    scales_ok = all(
        derive(PairSumSqPower(n)).scale == PAIRSUMSQ_PRINTED[n][0] for n in range(1, 7)
    )
    binet_ok = all(
        binet_check(derive(PairSumSqPower(n)), family_element(PairSumSqPower(n)), 50)
        for n in range(1, 7)
    )
    reported = verify("S3").status == "known-discrepancy"
    ok = table_ok and scales_ok and binet_ok and reported
    _line(
        "3 derivation tables, pair-sum-square oracle table + printed scales "
        "(incl. negative scales)",
        ok,
        "discrepancy surfaced in reports",
    )
    assert ok


def test_criterion_4_identity_suite():
    expected = {
        "P1": "pass",      # n = 3..200
        "P2": "pass",      # n = 2..100, cross-checked against brute force
        "T1": "pass",      # n = 5..120
        "P3": "pass",      # n = 0..200
        "T2": "pass",      # D in {0, 1}, n = 0..120
        "T2R": "pass",
        "T3": "pass",      # remark point + one generic point, n = 0..80
        "T3R": "pass",
        "T4": "pass",
        "T4R": "pass",
        "GT2": "pass",     # n = 1..4, m = 0..60
        "GT3": "pass",
        "GT4": "pass",
        "GT5": "pass",
        "S1": "pass",      # n = 1..8
        "GF": "pass",      # series order 40
        "L-CONST": "pass",
        "L2": "pass",
        "L7": "pass",
        "L8": "pass",
        "L9": "pass",
    }
    statuses = {i: verify(i).status for i in expected}
    suite_ok = statuses == expected
    # S3 passes against the exact oracle; its printed-table deviation is
    # reproduced and flagged by criterion 3's pair-sum-square replay test
    s3 = verify("S3")
    s3_ok = s3.status == "known-discrepancy" and all(c.ok for c in s3.checks)
    ok = suite_ok and s3_ok
    _line(
        "4 identity suite at stated ranges",
        ok,
        "S3 exact against oracle; printed-table deviation documented",
    )
    assert statuses == expected
    assert s3_ok


def test_criterion_5_conjecture_to_25():
    report = conjecture_check(25)
    counterexample = report.first_counterexample()
    _line(
        "5 scale conjecture n=1..25",
        report.all_equal,
        "no counterexample" if counterexample is None else str(counterexample),
    )
    assert counterexample is None, f"counterexample: {counterexample}"
    assert report.all_equal


def test_criterion_6_known_discrepancy_handling():
    report = verify("S2")
    both_shown = (
        report.first_failure is not None
        and report.first_failure.lhs == "3/484"
        and report.first_failure.rhs == "1/160"
    )
    corrected_ok = all(
        derive(SumCofactorSqConst(n)) == ScaledSeq(F(484) ** n, (3, 1, 3))
        for n in range(1, 7)
    )
    green = report.status == "known-discrepancy"
    ok = both_shown and corrected_ok and green
    _line("6 known-discrepancy handling (S2)", ok, "both evaluations reported, suite green")
    assert ok


def test_criterion_7_oracle_equivalences():
    t = TriboSeq.ordinary().terms(16)
    multi_ok = all(
        multinomial_conv_prefix([t] * r, n)[n] == multinomial_conv_enum([t] * r, n)
        for r in range(1, 5)
        for n in range(13)
    )
    plain_ok = all(
        plain_conv_prefix([t, t, t], n)[n] == plain_conv_enum([t, t, t], n) for n in range(16)
    )
    rng = random.Random(777)
    norm_ok = True
    for _ in range(200):
        q = FieldElement(
            F(rng.randint(-30, 30), rng.randint(1, 10)),
            F(rng.randint(-30, 30), rng.randint(1, 10)),
            F(rng.randint(-30, 30), rng.randint(1, 10)),
        )
        norm_ok &= norm(q) == norm_by_newton(q)
    ok = multi_ok and plain_ok and norm_ok
    _line(
        "7 oracle equivalences",
        ok,
        "multinomial r<=4 n<=12, plain r=3 n<=15, 200 norm cross-checks",
    )
    assert ok


def test_criterion_8_symmetric_lemmas():
    ok = True
    for degree in (3, 4, 5):
        rng = random.Random(f"acceptance:{degree}")
        ok &= all(
            verify_sym_identity(degree, random_params_by_fractions(degree, rng), 6) for _ in range(20)
        )
    _line("8 symmetric lemmas, grid g=6, 20 fixed-seed draws each", ok)
    assert ok


def test_criterion_9_determinism(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code1 = main(["verify", "all", "--seed", "42", "--format", "json", "--out", str(first)])
    code2 = main(["verify", "all", "--seed", "42", "--format", "json", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    verdict = json.loads(first.read_text())["summary"]["verdict"]
    ok = identical and code1 == code2 == 0 and verdict == "pass"
    with capsys.disabled():
        _line("9 determinism of verify all --seed 42 --format json", ok, "byte-identical")
    assert ok
