"""A checked-in mutation table: faults that the test suite must catch.

Each row names a source file, an exact text that occurs in it exactly once,
the text that replaces it, and the tests that must then fail.  For each row
the script copies src/, tests/ and pyproject.toml to a temporary directory,
applies the edit there and runs the row's tests with pytest.  A row whose
text is missing or occurs more than once breaks the table, so a moved line
is reported instead of silently skipping its mutant.  Before any mutant, the
union of the selections runs once on an unmutated copy and must pass, so
that each failure is the mutant's.  Each pytest run may take TIMEOUT
seconds.  Exits 1 if a row is broken, a mutant survives or a run times out:

    python tests/mutants.py

Standard library only, like check_cli_stdout.py; the selected tests need
pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CATALOG = "src/triboconv/identity_catalog.py"
CONVOLUTION = "src/triboconv/convolution.py"
SYMMETRIC = "src/triboconv/symmetric_identities.py"
DERIVATION = "src/triboconv/derivation.py"
CLI = "src/triboconv/cli.py"
KNOWN_DISCREPANCIES = ("tests/test_catalog.py::TestKnownDiscrepancies",)
SEED42_DIGESTS = ("tests/test_golden.py::test_check_digests[checks_seed42.json]",)
NO_FALLBACK = ("tests/test_catalog.py::TestSharedAnnihilator::test_no_fold_takes_the_fallback",)
INTEGER_STEPS = ("tests/test_derivation.py::TestIntegerSteps",)
SETTLED_POINTS = ("tests/test_catalog.py::TestSettledPoints",)
UNWRITABLE_STDOUT_PROCESS = "tests/test_check_cli_stdout.py::test_exitcodes_mode_passes_the_cli_on_a_full_device"
UNBUFFERED_HELP_PROCESS = "tests/test_check_cli_stdout.py::test_exitcodes_mode_passes_an_unbuffered_help_on_a_full_device"
STREAMED_TABLES = ("tests/test_derivation.py::TestStreamedTables",)
FIELD = "src/triboconv/field.py"
INTEGER_FOLDS = "tests/test_catalog.py::TestIntegerFolds"
CHANGED_GF_CONSTANT = ("tests/test_catalog.py::TestProvedClaims::test_a_changed_constant_compares_every_row",)
SEQUENCES = "src/triboconv/sequences.py"
START_UP_WITHOUT_SITE = (
    "tests/test_records.py::test_cli_start_up_without_site_loads_no_json_typing_dataclasses_or_inspect",)
#: seconds one pytest run may take; the slowest row takes about 12 s
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # the printed power-family claims and their known-discrepancy routing
    Mutant("pairsumsq-printed-row-set-to-oracle", CATALOG,
           "    2: (22**2, (6, -6, 19)),", "    2: (22**2, (6, 6, -7)),", KNOWN_DISCREPANCIES),
    Mutant("pairsumsq-oracle-row-perturbed", CATALOG,
           "    4: (22**4 * 2, (-140, 151, -50)),", "    4: (22**4 * 2, (-140, 151, -49)),",
           KNOWN_DISCREPANCIES),
    Mutant("lemma-triple-changed", CATALOG,
           "LEMMAS = {2: (22, (2, 3, 10)),", "LEMMAS = {2: (22, (3, 4, 11)),", SEED42_DIGESTS),
    Mutant("claims-route-by-verdict-only", CATALOG,
           "outcome.mismatches if printed and not check.ok else", "outcome.mismatches if not check.ok else",
           KNOWN_DISCREPANCIES),
    Mutant("claims-printed-rows-always-mismatches", CATALOG,
           "outcome.mismatches if printed and not check.ok else", "outcome.mismatches if printed else",
           KNOWN_DISCREPANCIES),
    Mutant("s2-printed-scale-off-by-484", CATALOG,
           "Fraction(242, 2**6 * 5 * 11**2 * 484 ** (n - 1))", "Fraction(242, 2**6 * 5 * 11**2 * 484 ** n)",
           KNOWN_DISCREPANCIES),
    Mutant("status-never-known-discrepancy", CATALOG,
           "        if any(not c.ok for c in self.mismatches):", "        if False:", KNOWN_DISCREPANCIES),
    Mutant("s2-printed-row-reads-the-second-entry", CATALOG,
           "derived.triple[0] / derived.scale", "derived.triple[1] / derived.scale", SEED42_DIGESTS),
    # the generating-function rows, read by the claims evaluator
    Mutant("ogf-rows-read-the-right-side-one-early", CATALOG,
           'yield f"n={n}", lhs[n], rhs[n], False', 'yield f"n={n}", lhs[n], rhs[n - 1], False', SEED42_DIGESTS),
    # P1, P2 and T1 proved by the cross-multiplied difference of their
    # rational sides, and compared row by row when it is not zero
    Mutant("gf-proof-forced-true", CATALOG,
           "if proof is not None and not any(proof(ctx)):", "if proof is not None:", CHANGED_GF_CONSTANT),
    Mutant("gf-proof-without-the-highest-coefficient", CATALOG,
           "not any(proof(ctx)):", "not any(proof(ctx)[:-1]):",
           ("tests/test_catalog.py::TestProvedClaims::test_a_difference_in_its_highest_coefficient_alone_fails",)),
    Mutant("gf-nonzero-difference-skips-the-rows", CATALOG,
           "    for index, lhs, rhs, printed in rows(ctx):",
           "    for index, lhs, rhs, printed in rows(ctx) if proof is None else ():", CHANGED_GF_CONSTANT),
    # GT5's printed literal H, T1's 6x^5 and the fold's head comparison
    Mutant("gt5-printed-h-11", CATALOG,
           '5: {"A": -14, "C": 5, "D": 15, "E": 5, "H": 10},', '5: {"A": -14, "C": 5, "D": 15, "E": 5, "H": 11},',
           SEED42_DIGESTS),
    Mutant("t1-6x5-to-7x5", CONVOLUTION,
           "_T1_POLY = (2, 6, 12, 0, 6, 6)", "_T1_POLY = (2, 6, 12, 0, 6, 7)",
           ("tests/test_convolution.py::TestT1",
            "tests/test_convolution.py::TestRationalSides::test_cross_differences_are_zero")),
    # the one statement of P1, P2 and T1: its rows are the expansion of each
    # rational side, and its proof the difference of the two sides
    Mutant("coefficients-one-term-short", CONVOLUTION,
           "[: order + 1], self.den)", "[: order], self.den)",
           ("tests/test_convolution.py::TestRationalSides::test_coefficients_are_the_division_by_definition",
            "tests/test_convolution.py::test_sides_agree_at_every_coefficient")),
    Mutant("cross-difference-of-a-side-with-itself", CONVOLUTION,
           "return (lhs - rhs).num", "return (lhs - lhs).num",
           ("tests/test_convolution.py::TestRationalSides::test_a_changed_constant_gives_a_nonzero_difference",
            *CHANGED_GF_CONSTANT)),
    Mutant("fold-head-comparison-false", CATALOG,
           "rhs == lhs_num))", "False))", NO_FALLBACK),
    # the fold's block map, the printed constraints and the proofs under the folds
    Mutant("block-factors-e2-changed", CATALOG,
           '{"e2": (ALT, ONE), "e3": (NORM,)}', '{"e2": (("cof", 1), ONE), "e3": (NORM,)}', SEED42_DIGESTS),
    Mutant("dependent-3-constant-plus-1", SYMMETRIC,
           '"B": (6, {"D": -3})', '"B": (7, {"D": -3})', ("tests/test_symmetric.py",)),
    # the same edit, seen first by a @given test: a failing Hypothesis test must
    # report a failure (exit 1), not stop pytest with an internal error
    Mutant("dependent-3-constant-plus-1-given-test", SYMMETRIC,
           '"B": (6, {"D": -3})', '"B": (7, {"D": -3})',
           ("tests/test_symmetric.py::TestGridEquations::test_basis_check_is_the_all_points_check",)),
    Mutant("dependent-4-constant-plus-1", SYMMETRIC,
           '"C": (4, {"E": -1, "G": -2, "H": -1})', '"C": (5, {"E": -1, "G": -2, "H": -1})',
           ("tests/test_symmetric.py",)),
    Mutant("dependent-5-constant-plus-1", SYMMETRIC,
           '"E": (5, {"I": -1,', '"E": (6, {"I": -1,', ("tests/test_symmetric.py",)),
    Mutant("grid-equations-last-row-dropped", SYMMETRIC,
           "    return tuple(tuple(b) for _, b in basis)", "    return tuple(tuple(b) for _, b in basis[:-1])",
           ("tests/test_symmetric.py::TestGridEquations",)),
    Mutant("roots-within-always-true", CONVOLUTION,
           "    return not any(power)", "    return True", ("tests/test_convolution.py::TestRootsWithin",)),
    Mutant("roots-within-always-false", CONVOLUTION,
           "    return not any(power)", "    return False", NO_FALLBACK),
    # the fold tables built from sub-products, the lemma rows on integers and
    # the series division's window
    Mutant("multiset-table-extended-from-its-whole-list", CONVOLUTION,
           "table = _extend(table[:deg], rec, length - 1)", "table = _extend(table, rec, length - 1)",
           ("tests/test_catalog.py::TestMultisetTables",)),
    Mutant("lemma-cross-multiplication-without-d", CATALOG,
           "_Quotient(num * traces[k], d * den)", "_Quotient(num * traces[k], den)", SEED42_DIGESTS),
    Mutant("series-divide-window-off-by-one", CONVOLUTION,
           "sum(map(mul, neg_coeffs, out[k:k + d]))", "sum(map(mul, neg_coeffs, out[k + 1:k + d + 1]))",
           ("tests/test_convolution.py::TestSeriesDivide::test_equals_the_division_by_definition",)),
    Mutant("extend-coefficients-reversed", CONVOLUTION,
           "sum(map(mul, neg_coeffs, out[n:n + d]))", "sum(map(mul, neg_coeffs[::-1], out[n:n + d]))",
           ("tests/test_convolution.py::TestExtend",)),
    # a fold point's values, formed when read, and S3's stepped Binet element
    Mutant("settled-value-reads-the-index-before", CATALOG,
           "_Quotient(lhs[m], self.common)", "_Quotient(lhs[m - 1], self.common)", SEED42_DIGESTS),
    Mutant("settled-value-without-its-weight", CATALOG,
           "[v * self.lhs_weight for v in self.full_lhs()[:count]]", "[v for v in self.full_lhs()[:count]]",
           SEED42_DIGESTS),
    # a fold point recorded once, its checks formed when read: a settled one
    # shows its left side on both sides, a failed one its extended right side
    Mutant("settled-point-recorded-as-failed", CATALOG,
           "self.ok = head, rhs, rec, ok", "self.ok = head, rhs, rec, False", SETTLED_POINTS),
    Mutant("settled-check-label-m-shifted", CATALOG,
           'Check(f"{self.prefix}{m}", ', 'Check(f"{self.prefix}{m + 1}", ', SEED42_DIGESTS),
    Mutant("failed-point-right-side-not-extended", CATALOG,
           "_extend(self.rhs, self.rec, count - 1)", "self.rhs + lhs[self.head:]",
           ("tests/test_catalog.py::TestFamilyPoints::test_a_dependent_coefficient_plus_one_fails",)),
    Mutant("settled-count-reads-the-range-not-the-head", CATALOG,
           "sum(p.head for p in points)", "sum(len(p.ms) for p in points)", SETTLED_POINTS),
    Mutant("first-failure-skips-failed-records", CATALOG,
           'checks = self.checks if self.status == "fail" else self.mismatches', "checks = self.mismatches",
           ("tests/test_catalog.py::TestSettledPoints::test_a_failed_record_shows_its_first_check",)),
    Mutant("s3-stepped-denominator-not-times-d", CATALOG,
           "power, denom = mul_coeffs(power, step), denom * d", "power, denom = mul_coeffs(power, step), denom",
           ("tests/test_golden.py::test_check_digests[checks_claims.json]",)),
    # the fold's weights on integer pairs, its term plan kept per run, and the
    # field's power ladder and sign on integer coefficients
    Mutant("fold-weight-denominator-sign-kept", CATALOG,
           "return (a // g, b // g) if b > 0 else (-a // g, -b // g)", "return a // g, b // g",
           (f"{INTEGER_FOLDS}::test_a_weight_is_the_reduced_fraction",)),
    Mutant("fold-term-scale-swapped", CATALOG,
           "_over(c, *term_tables[k][1:])", "_over(c, *term_tables[k][:0:-1])",
           (f"{INTEGER_FOLDS}::test_weights_and_heads_equal_the_fraction_arithmetic",)),
    Mutant("fold-plan-kept-at-module-level", CATALOG,
           'plans = store.setdefault("plans", {})', 'plans = globals().setdefault("_PLANS", {})',
           (f"{INTEGER_FOLDS}::test_a_changed_block_map_gets_its_own_plan",)),
    Mutant("power-ladder-over-d-to-the-n-minus-1", FIELD,
           "denom = d**n", "denom = d**(n - 1)",
           ("tests/test_field.py::TestPower::test_integer_ladder_equals_fraction_products",)),
    Mutant("sign-read-from-a0-alone", FIELD,
           "norm_coeffs(integral_coeffs(q)[0]) > 0", "q.a0 > 0",
           ("tests/test_field.py::TestSignAtRealRoot::test_integer_norm_sign_is_the_fraction_norm_sign",)),
    # the power tables stepped in trace coordinates: the step matrix derived
    # from field, the row's sign from the element's (pairsumsq alternates)
    # and the scale divided by the row's gcd
    Mutant("trace-step-column-from-the-wrong-basis-vector", DERIVATION,
           "for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]", "for e in ((1, 0, 0), (0, 0, 1), (0, 0, 1))]",
           ("tests/test_derivation.py::TestTraceStep::test_derived_matrices",)),
    Mutant("scaled-powers-gcd-without-the-sign", DERIVATION,
           "g = gcd(det, v0, v1, v2) * sign", "g = gcd(det, v0, v1, v2)", STREAMED_TABLES),
    Mutant("scaled-powers-scale-not-divided-by-g", DERIVATION,
           "_mul_pair(num, den, k, g)", "_mul_pair(num, den, k, sign)", STREAMED_TABLES),
    Mutant("scaled-powers-det-loses-a-term", DERIVATION,
           "det = n00 * (n11 * n22 - n12 * n21) - ", "det = n00 * (n11 * n22 + n12 * n21) - ", STREAMED_TABLES),
    # the scale as a reduced integer pair: the stepper's K / g and each
    # printed step's factor x / y reduced first, then cross-cancelled.  On
    # the stepper's rows the reduced K never shared a factor with the
    # scale's denominator (see CHANGES.md); the printed steps from a scale
    # over 22 judge that gcd
    Mutant("pair-product-without-its-gcd-of-x-and-den", DERIVATION,
           "    g2 = gcd(x, den)\n", "    g2 = 1\n", INTEGER_STEPS),
    Mutant("pair-product-without-reducing-x-over-y-first", DERIVATION,
           "g = gcd(x, y) if y > 0 else -gcd(x, y)", "g = 1 if y > 0 else -1", INTEGER_STEPS),
    # the integer steps of the printed triple/scale recursions
    Mutant("signed-triple-gcd-division-dropped", DERIVATION,
           "    g = gcd(*v)", "    g = 1", INTEGER_STEPS),
    Mutant("signed-triple-sign-flip-never", DERIVATION,
           "    if not (scalar > 0 if scalar is not None else _eventually_positive(candidate)):", "    if False:",
           INTEGER_STEPS),
    # the replay's sign from the cpower and cofactor steps' scalar
    Mutant("replay-sign-from-the-scalar-flipped", DERIVATION,
           "scalar > 0 if scalar is not None", "scalar < 0 if scalar is not None",
           ("tests/test_derivation.py::TestReplaySign::test_step_scalar_agrees_with_the_norm_to_the_cap",)),
    Mutant("replay-sign-pairsumsq-skips-the-norm", DERIVATION,
           "else _eventually_positive(candidate)", "else True", INTEGER_STEPS),
    Mutant("cofactor-sign-scalar-negated", DERIVATION,
           "-44 * ah * (s0 + s1 - s2))", "44 * ah * (s0 + s1 - s2))", INTEGER_STEPS),
    Mutant("cpower-denominator-check-dropped", DERIVATION,
           'denom = _printed_denominator(5 * s2 * s1 - 4 * s1 * s0 - 3 * s1 * s1, "5*s2*s1 - 4*s1*s0 - 3*s1^2")',
           "denom = 5 * s2 * s1 - 4 * s1 * s0 - 3 * s1 * s1", INTEGER_STEPS),
    Mutant("pairsumsq-printed-n-numerator-changed", DERIVATION,
           "-7 * s2 + 10 * s1 + 5 * s0))", "-7 * s2 + 10 * s1 + 4 * s0))",
           ("tests/test_derivation.py::TestPaperRecursion::test_pairsumsq_replicates_full_printed_table",)),
    # the report writer: nested indentation, and one string per value only
    # where the values are equal
    Mutant("json-writer-nesting-flattened", CLI,
           'inner = indent + "  "', 'inner = "\\n  "', ("tests/test_cli.py::TestJsonWriter",)),
    Mutant("conjecture-reuses-an-unequal-scale", CLI,
           "cofactor = cpower if row.equal else str(row.cofactor_scale)",
           "cofactor = cpower", ("tests/test_cli.py::TestConjecture::test_an_unequal_row_prints_both_scales",)),
    # one parser per process: each call parses into a new Namespace and
    # leaves the parser's defaults alone; an unwritable stdout, help's
    # included, is a usage error, and a process leaves no unwritten bytes to
    # its exit flush
    Mutant("main-reuses-one-namespace", CLI,
           "args = _parser().parse_args(argv)",
           'args = _parser().parse_args(argv, globals().setdefault("_NAMESPACE", argparse.Namespace()))',
           ("tests/test_cli.py::TestSharedParser",)),
    Mutant("parsed-values-become-the-next-calls-defaults", CLI,
           "args = _parser().parse_args(argv)",
           "args = _parser().parse_args(argv)\n"
           "            _parser()._actions[-1].choices[args.command].set_defaults(**vars(args))",
           ("tests/test_cli.py::TestSharedParser",)),
    Mutant("stdout-write-error-re-raised", CLI,
           'raise UsageError(f"cannot write standard output: {exc.strerror or exc}")', "raise",
           ("tests/test_edges.py::TestUnwritableStdout",)),
    Mutant("stdout-not-flushed-in-render", CLI,
           "        sys.stdout.write(text)\n        sys.stdout.flush()\n", "        sys.stdout.write(text)\n",
           ("tests/test_edges.py::TestUnwritableStdout",)),
    Mutant("process-exit-keeps-the-unwritten-bytes", CLI,
           "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", "pass",
           (UNWRITABLE_STDOUT_PROCESS,)),
    Mutant("process-exit-ignores-an-unwritten-help", CLI,
           "        if message and file is sys.stdout:", "        if False:",
           (UNWRITABLE_STDOUT_PROCESS, UNBUFFERED_HELP_PROCESS)),
    Mutant("derive-reuses-an-unequal-scale", CLI,
           "rep = (scale if r.scale == scaled.scale else str(r.scale),", "rep = (scale,",
           ("tests/test_cli.py::TestDerive::test_a_replayed_value_off_the_direct_one_is_printed",)),
    Mutant("derive-reuses-the-direct-strings-on-a-mismatched-row", CLI,
           "            elif result.match:\n", "            elif True:\n",
           ("tests/test_cli.py::TestDerive::test_a_replayed_value_off_the_direct_one_is_printed",)),
    Mutant("json-string-list-takes-none-as-a-string", CLI,
           "map(_quote, value)", 'map(lambda item: _quote("None" if item is None else item), value)',
           ("tests/test_cli.py::TestJsonWriter",)),
    # a start-up that imports neither the json package nor typing, and tuple
    # records that take no attribute besides their fields
    Mutant("cli-quoter-from-the-json-package", CLI,
           "from _json import encode_basestring_ascii as _quote",
           "from json.encoder import encode_basestring_ascii as _quote", START_UP_WITHOUT_SITE),
    Mutant("scaled-seq-a-typing-named-tuple", SEQUENCES,
           'class ScaledSeq(namedtuple("ScaledSeq", "scale triple")):',
           'class ScaledSeq(__import__("typing").NamedTuple('
           '"ScaledSeq", [("scale", Fraction), ("triple", InitTriple)])):',
           START_UP_WITHOUT_SITE),
    Mutant("scaled-seq-without-slots", SEQUENCES,
           'reports flag those.\n    """\n\n    __slots__ = ()\n', 'reports flag those.\n    """\n',
           ("tests/test_records.py::TestTupleRecords::test_fields_cannot_be_assigned_or_deleted[ScaledSeq]",)),
    # work that no comparison reads, left out: a generator made only for an
    # entry that draws (from the entry's own seed), a one-factor table read
    # as its factor's prefix, the short polynomial products by a double loop
    # and the constants on integer trace triples and norms
    Mutant("generator-seeded-without-the-entry-id", CATALOG,
           'partial(random.Random, f"{seed}:{identity_id}")', 'partial(random.Random, f"{seed}")', SEED42_DIGESTS),
    Mutant("one-factor-prefix-one-term-short", CONVOLUTION,
           "if rest else last\n", "if rest else last[:-1]\n",
           ("tests/test_catalog.py::TestMultisetTables::test_a_one_factor_table_is_the_factor_prefix",)),
    Mutant("poly-product-without-its-last-cross-term", CONVOLUTION,
           "            out[i + j] += x * y\n", "            out[i + j] += x * y if i + j < len(out) - 1 else 0\n",
           ("tests/test_convolution.py::TestPolyProduct",)),
    Mutant("constant-norm-over-d-squared", CATALOG,
           "Fraction(norm_coeffs(a), d**3)", "Fraction(norm_coeffs(a), d**2)",
           ("tests/test_catalog.py::TestSingleIdentities::test_constants_equal_the_field_computation",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _src_first(tree: Path) -> str:
    """The tree's src in front of the caller's PYTHONPATH, which may supply pytest itself."""
    return os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)


def _pytest(tree: Path, tests) -> int | None:
    """pytest's exit code on the tests, or None if the run timed out."""
    env = {**os.environ, "PYTHONPATH": _src_first(tree)}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                             cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def _broken(mutant: Mutant) -> str | None:
    """Why the row cannot be applied, or None."""
    count = (ROOT / mutant.file).read_text().count(mutant.old)
    return None if count == 1 else f"old text occurs {count} times in {mutant.file}"


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        selections = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(clean, selections)
        if code != 0:
            why = f"time out after {TIMEOUT} s" if code is None else "fail"
            print(f"the selected tests {why} on the unmutated tree; no mutant can be judged")
            return 1
        for index, mutant in enumerate(MUTANTS):
            why = _broken(mutant)
            if why is not None:
                print(f"BROKEN    {mutant.name}: {why}")
                problems += 1
                continue
            tree = Path(tmp) / f"mutant{index}"
            _copy_tree(tree)
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code = _pytest(tree, mutant.tests)
            seconds = time.perf_counter() - start
            # pytest exits 1 when tests ran and some failed; any other code
            # (an error in collection, no test selected) shows nothing
            if code == 1:
                print(f"killed    {mutant.name} ({seconds:.1f} s)")
            elif code is None:
                print(f"TIMEOUT   {mutant.name}: no exit within {TIMEOUT} s")
                problems += 1
            else:
                print(f"SURVIVED  {mutant.name}: pytest exit {code} ({seconds:.1f} s)")
                problems += 1
            shutil.rmtree(tree)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
