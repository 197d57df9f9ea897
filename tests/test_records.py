"""Behaviour of the package's record types: constructors, equality, hash,
repr, immutability and pickling; and a start-up that loads none of
dataclasses, inspect, json and typing."""

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
from triboconv.identity_catalog import (
    Check,
    IdentityRecord,
    RangeSpec,
    RunContext,
    RunOutcome,
    SettledCount,
    SuiteReport,
    VerifyReport,
    _ProvedRows,
)
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


def _row() -> ConjectureRow:
    return ConjectureRow(1, F(1), F(2), False)


_SCALED_REPR = "ScaledSeq(scale=Fraction(22, 1), triple=(2, 3, 10))"
_ROW_REPR = "ConjectureRow(n=1, cpower_scale=Fraction(1, 1), cofactor_scale=Fraction(2, 1), equal=False)"

#: every tuple record: (record, its field names, its field values, its repr,
#: a field and another value for it)
TUPLE_RECORDS = {
    "ScaledSeq": (_scaled(), ("scale", "triple"), (F(22), (2, 3, 10)), _SCALED_REPR, "triple", (2, 3, 11)),
    "RootInterval": (RootInterval(F(1), F(2)), ("lower", "upper"), (F(1), F(2)),
                     "RootInterval(lower=Fraction(1, 1), upper=Fraction(2, 1))", "upper", F(3, 2)),
    "Check": (Check("n=1", True, 1, 1), ("index", "ok", "lhs_value", "rhs_value"), ("n=1", True, 1, 1),
              "Check(index='n=1', ok=True, lhs_value=1, rhs_value=1)", "ok", False),
    "_ProvedRows": (_ProvedRows(tuple), ("rows",), (tuple,), "_ProvedRows(rows=<class 'tuple'>)", "rows", list),
    "RangeSpec": (RangeSpec("n", 0, 5), ("name", "lo", "hi"), ("n", 0, 5), "RangeSpec(name='n', lo=0, hi=5)",
                  "hi", 6),
    "RunContext": (RunContext({"n": (0, 3)}, None, {}), ("ranges", "rng", "store"), ({"n": (0, 3)}, None, {}),
                   "RunContext(ranges={'n': (0, 3)}, rng=None, store={})", "store", {"a": 1}),
    "SettledCount": (SettledCount(2, 42), ("points", "terms"), (2, 42), "SettledCount(points=2, terms=42)",
                     "terms", 43),
    "IdentityRecord": (IdentityRecord("X", "l", (RangeSpec("n", 0, 5),), len), ("id", "label", "ranges", "runner"),
                       ("X", "l", (("n", 0, 5),), len),
                       "IdentityRecord(id='X', label='l', ranges=(RangeSpec(name='n', lo=0, hi=5),), "
                       "runner=<built-in function len>)", "label", "m"),
    "SuiteReport": (SuiteReport(42, ["r"]), ("seed", "reports"), (42, ["r"]), "SuiteReport(seed=42, reports=['r'])",
                    "seed", 7),
    "PrintedRecursionResult": (
        PrintedRecursionResult(CPower(1), _scaled(), None, False), ("family", "direct", "recursive", "match", "note"),
        (CPower(1), _scaled(), None, False, ""),
        "PrintedRecursionResult(family=PowerFamily(kind=<FamilyKind.CPOWER: 'cpower'>, n=1), "
        f"direct={_SCALED_REPR}, recursive=None, match=False, note='')", "note", "vanished"),
    "ConjectureRow": (_row(), ("n", "cpower_scale", "cofactor_scale", "equal"), (1, F(1), F(2), False), _ROW_REPR,
                      "equal", True),
    "ConjectureReport": (ConjectureReport((_row(),), False), ("rows", "all_equal"), ((_row(),), False),
                         f"ConjectureReport(rows=({_ROW_REPR},), all_equal=False)", "all_equal", True),
}


@pytest.mark.parametrize("name", sorted(TUPLE_RECORDS))
class TestTupleRecords:
    """Each tuple record is the tuple of its fields: repr, equality, hash,
    pickling, _replace and immutability as for a named tuple."""

    def test_repr(self, name):
        record, *_, shown, _, _ = TUPLE_RECORDS[name]
        assert repr(record) == shown

    def test_fields_and_constructor(self, name):
        record, names, fields, *_ = TUPLE_RECORDS[name]
        cls = type(record)
        assert cls.__name__ == name and cls._fields == names and tuple(record) == fields
        assert [getattr(record, f) for f in names] == list(fields)
        assert cls(*fields) == cls(**dict(zip(names, fields))) == cls._make(fields) == record

    def test_equal_to_and_hashed_as_its_field_tuple(self, name):
        record, _, fields, *_ = TUPLE_RECORDS[name]
        assert record == fields and not record != fields
        try:
            expected = hash(fields)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_pickle_round_trip(self, name):
        record = TUPLE_RECORDS[name][0]
        loaded = pickle.loads(pickle.dumps(record))
        assert type(loaded) is type(record) and loaded == record

    def test_replace(self, name):
        record, names, fields, _, field, value = TUPLE_RECORDS[name]
        changed = record._replace(**{field: value})
        assert type(changed) is type(record)
        assert tuple(changed) == tuple(value if f == field else v for f, v in zip(names, fields))
        assert tuple(record) == fields
        # namedtuple's _replace raises TypeError for an unknown field from 3.13, ValueError before
        with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError):
            record._replace(no_such_field=0)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record, names, fields, *_ = TUPLE_RECORDS[name]
        for field in names:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = 0
        assert tuple(record) == fields

    def test_only_a_default_field_may_be_left_out(self, name):
        record, _, fields, *_ = TUPLE_RECORDS[name]
        if name == "PrintedRecursionResult":
            assert type(record)(*fields[:-1]).note == ""
        else:
            with pytest.raises(TypeError):
                type(record)(*fields[:-1])


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
        assert _ProvedRows(tuple).ok is True and _ProvedRows(tuple).checks() == []
        assert RunContext({"n": (2, 4)}, None, {}).span("n") == range(2, 5)
        assert SettledCount(2, 42).terms == 42 and SuiteReport(42, []).counts()["pass"] == 0


def _loaded_at_start_up(flags: list[str], names: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a fresh interpreter, run with flags,
    that imports triboconv.cli, builds its parser and prints which of names
    it has loaded."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import triboconv.cli as c; c.build_parser(); "
            "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, *flags, "-c", code, str(src), *names], capture_output=True, text=True,
                         timeout=60)
    return run.returncode, run.stdout, run.stderr


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    assert _loaded_at_start_up(["-I"], ["dataclasses", "inspect"]) == (0, "[]\n", "")


def test_cli_start_up_without_site_loads_no_json_typing_dataclasses_or_inspect():
    # without site, whose start-up hooks (a .pth file) may load typing first
    names = ["dataclasses", "inspect", "json", "typing"]
    assert _loaded_at_start_up(["-I", "-S"], names) == (0, "[]\n", "")


def test_a_value_past_the_int_str_limit_reads_in_a_fresh_process():
    # cli.main lifts the interpreter's limit for its own call only; a library
    # reader gets the whole value, and the limit is as it was afterwards
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from triboconv import identity_catalog as c; "
            "limit = sys.get_int_max_str_digits(); big = 10 ** (limit + 1); "
            "shown = [c.verify('S2', nmax=2000).checks[-1].lhs, str(c._Quotient(big, 3)), "
            "c.Check('n', True, big, 0).lhs]; "
            "print(limit, [len(s) > limit for s in shown], sys.get_int_max_str_digits())")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "4300 [True, True, True] 4300\n", "")
