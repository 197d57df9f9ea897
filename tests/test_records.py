"""Behaviour of the package's record types: constructors, equality, hash,
repr, immutability and pickling; and a start-up that loads neither
dataclasses nor inspect."""

import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from triboconv.derivation import (
    CPower,
    CofactorPower,
    ConjectureReport,
    ConjectureRow,
    FamilyKind,
    PowerFamily,
    PrintedRecursionResult,
)
from triboconv.field import FieldElement, RootInterval
from triboconv.identity_catalog import Check, IdentityRecord, RangeSpec, RunOutcome, VerifyReport
from triboconv.sequences import ScaledSeq


def _scaled() -> ScaledSeq:
    return ScaledSeq(F(22), (2, 3, 10))


class TestRepr:
    def test_scaled_seq(self):
        assert repr(_scaled()) == "ScaledSeq(scale=Fraction(22, 1), triple=(2, 3, 10))"
        assert str(_scaled()) == "(A=22, triple=(2, 3, 10))"

    def test_field_element(self):
        q = FieldElement(1, F(1, 2), -3)
        assert repr(q) == "FieldElement(a0=Fraction(1, 1), a1=Fraction(1, 2), a2=Fraction(-3, 1))"
        assert str(q) == "1 + 1/2*x - 3*x^2"

    def test_power_family_and_check(self):
        assert repr(CPower(2)) == "PowerFamily(kind=<FamilyKind.CPOWER: 'cpower'>, n=2)"
        assert repr(Check("n=1", True, 1, 1)) == "Check(index='n=1', ok=True, lhs_value=1, rhs_value=1)"
        assert repr(RootInterval(F(1), F(2))) == "RootInterval(lower=Fraction(1, 1), upper=Fraction(2, 1))"


#: (record, an equal record built another way, a record differing in one field, its fields)
EQUAL_CASES = {
    "ScaledSeq": (_scaled(), ScaledSeq(scale=F(22), triple=(2, 3, 10)), ScaledSeq(F(22), (2, 3, 11)),
                  (F(22), (2, 3, 10))),
    "FieldElement": (FieldElement(1, F(1, 2)), FieldElement(a0=F(1), a1=F(2, 4), a2=0), FieldElement(1, F(1, 2), 1),
                     (F(1), F(1, 2), F(0))),
    "PowerFamily": (CPower(3), PowerFamily(kind=FamilyKind.CPOWER, n=3), CofactorPower(3),
                    (FamilyKind.CPOWER, 3)),
    "Check": (Check("n=1", True, 1, 1), Check(index="n=1", ok=True, lhs_value=1, rhs_value=1),
              Check("n=1", True, 1, 2), ("n=1", True, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(EQUAL_CASES))
class TestEqualityAndHash:
    def test_equal_records_are_equal_and_hash_alike(self, name):
        record, same, _, fields = EQUAL_CASES[name]
        assert record == same and not record != same
        assert hash(record) == hash(same) == hash(fields)
        assert len({record, same}) == 1

    def test_a_differing_field_breaks_equality(self, name):
        record, _, other, _ = EQUAL_CASES[name]
        assert record != other and not record == other

    def test_pickle_round_trip(self, name):
        record = EQUAL_CASES[name][0]
        assert pickle.loads(pickle.dumps(record)) == record


class TestFieldElementIsNoTuple:
    def test_not_a_tuple_and_not_equal_to_one(self):
        q = FieldElement(1, 2, 3)
        assert not isinstance(q, tuple)
        assert q != (F(1), F(2), F(3))
        assert FieldElement(1) != 1

    def test_coefficients_are_coerced(self):
        q = FieldElement(1, 2)
        assert all(type(v) is F for v in q.coeffs) and q.coeffs == (1, 2, 0)
        with pytest.raises(TypeError):
            FieldElement(1.5)


class TestImmutability:
    @pytest.mark.parametrize("record,field", [
        (_scaled(), "scale"),
        (FieldElement(1, 2, 3), "a0"),
        (CPower(2), "n"),
        (Check("n=1", True, 1, 1), "ok"),
        (RootInterval(F(1), F(2)), "lower"),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before


class TestConstructors:
    def test_power_family_rejects_exponent_below_one(self):
        with pytest.raises(ValueError, match="family exponent must be >= 1"):
            PowerFamily(FamilyKind.CPOWER, 0)

    def test_run_outcomes_share_no_list(self):
        a, b = RunOutcome(), RunOutcome()
        for name in ("checks", "mismatches", "notes", "params_used"):
            assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)
        a.checks.append(Check("n=0", True, 0, 0))
        assert b.checks == []

    def test_run_outcome_keeps_the_lists_it_is_given(self):
        checks = [Check("n=0", True, 0, 0)]
        outcome = RunOutcome(checks, notes=["a"])
        assert outcome.checks is checks and outcome.notes == ["a"] and outcome.params_used == []

    def test_defaults(self):
        fam, scaled = CPower(1), _scaled()
        assert PrintedRecursionResult(fam, scaled, None, False).note == ""

    def test_properties_and_methods(self):
        check = Check("n=1", False, F(1, 2), 3)
        assert (check.lhs, check.rhs) == ("1/2", "3")
        assert _scaled().integral and not ScaledSeq(F(1, 2), (1, 0, 0)).integral
        assert _scaled().sequence().terms(4) == [2, 3, 10, 15]
        rows = (ConjectureRow(1, F(1), F(1), True), ConjectureRow(2, F(1), F(2), False))
        assert ConjectureReport(rows, False).first_counterexample() is rows[1]
        report = VerifyReport(id="X", label="l", range_desc="n=0..1", params=[],
                              checks=[check], mismatches=[], notes="")
        assert report.status == "fail" and report.first_failure is check
        assert RootInterval(F(1), F(3)).width() == 2


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import triboconv.cli as c; c.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_a_value_past_the_int_str_limit_reads_in_a_fresh_process():
    # only cli.main lifts the interpreter's limit for good; a library reader
    # gets the whole value, and the limit is as it was afterwards
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from triboconv import identity_catalog as c; "
            "limit = sys.get_int_max_str_digits(); big = 10 ** (limit + 1); "
            "shown = [c.verify('S2', nmax=2000).checks[-1].lhs, str(c._Quotient(big, 3)), "
            "c.Check('n', True, big, 0).lhs]; "
            "print(limit, [len(s) > limit for s in shown], sys.get_int_max_str_digits())")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "4300 [True, True, True] 4300\n", "")
