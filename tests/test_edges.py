"""Edge inputs (negative ranges, an nmax or mmax with no range to bound,
counts and symcheck arguments above their caps, an unwritable output path
or standard output, huge integers) and the agreement of the identities read
from one fold table."""

import errno
import json
import os
import sys

import pytest

from triboconv import identity_catalog, symmetric_identities
from triboconv.cli import main
from triboconv.identity_catalog import CatalogError, verify


class TestNegativeRanges:
    @pytest.mark.parametrize("identity,kwargs", [("T2", {"nmax": -5}), ("GT2", {"mmax": -1})])
    def test_verify_rejects_negative_upper_bound(self, identity, kwargs):
        with pytest.raises(CatalogError, match="negative"):
            verify(identity, **kwargs)

    @pytest.mark.parametrize("flag", ["--nmax", "--mmax"])
    def test_cli_negative_bound_is_usage_error(self, flag, capsys):
        assert main(["verify", "GT3", flag, "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "negative" in captured.err


class TestMmaxWithoutSecondRange:
    def test_verify_rejects_mmax(self):
        with pytest.raises(CatalogError, match="P1 has no second index range"):
            verify("P1", mmax=5)

    def test_cli_mmax_is_usage_error(self, capsys):
        assert main(["verify", "P1", "--mmax", "5"]) == 2
        assert capsys.readouterr() == ("", "error: P1 has no second index range for mmax\n")


class TestNmaxWithoutRange:
    def test_verify_rejects_nmax(self):
        with pytest.raises(CatalogError, match="L-CONST has no index range for nmax"):
            verify("L-CONST", nmax=3)

    def test_cli_nmax_is_usage_error(self, capsys):
        assert main(["verify", "L-CONST", "--nmax", "3"]) == 2
        assert capsys.readouterr() == ("", "error: L-CONST has no index range for nmax\n")


class TestUnwritableOut:
    def test_missing_directory_is_one_line_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        assert main(["verify", "P1", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert not target.exists()


class _Unwritable:
    """A standard output whose ``write`` or ``flush`` raises ``exc``."""

    def __init__(self, exc, on):
        self.exc, self.on = exc, on

    def write(self, text):
        if self.on == "write":
            raise self.exc
        return len(text)

    def flush(self):
        if self.on == "flush":
            raise self.exc


class TestUnwritableStdout:
    @pytest.mark.parametrize("exc,on", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), "write"),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), "flush"),
        (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), "write"),
    ], ids=["enospc-write", "enospc-flush", "broken-pipe"])
    @pytest.mark.parametrize("argv", [["seq", "0,1,1", "5"], ["verify", "P1", "--format", "json"], ["-h"],
                                      ["verify", "-h"]])
    def test_is_one_line_usage_error(self, argv, exc, on, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _Unwritable(exc, on))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write standard output: {exc.strerror}\n"


class TestHugeIntegers:
    def test_seq_with_fifty_thousand_digit_term(self, capsys):
        big = "1" + "0" * 50000  # 10**50000, written out past the int-str limit
        assert main(["seq", f"{big},0,0", "4"]) == 0
        assert capsys.readouterr().out == f"{big} 0 0 {big}\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str limit before Python 3.11")
    def test_main_restores_the_int_str_limit(self, capsys):
        # main lifts the limit for its own call only, on success and on a
        # usage error alike
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            big = "1" + "0" * 6000
            assert main(["seq", f"{big},0,0", "2"]) == 0
            assert capsys.readouterr().out == f"{big} 0\n"
            assert sys.get_int_max_str_digits() == 5000
            assert main(["seq", "0,1", "2"]) == 2
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str limit before Python 3.11")
    def test_main_restores_the_int_str_limit_when_a_subcommand_raises(self, monkeypatch):
        # an error that main does not handle leaves the caller's limit too
        lifted = []

        def broken(seed):
            lifted.append(sys.get_int_max_str_digits())
            raise RuntimeError("broken subcommand")

        monkeypatch.setattr(identity_catalog, "verify_all", broken)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            with pytest.raises(RuntimeError, match="broken subcommand"):
                main(["verify", "all"])
            assert lifted == [0] and sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


class TestRangeCap:
    @pytest.mark.parametrize("identity", ["P3", "T4R"])
    def test_verify_at_the_cap_passes(self, identity, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", identity, "--nmax", "2000", "--format", "json", "--out", str(out)]) == 0
        [entry] = json.loads(out.read_text())["entries"]
        assert entry["range"] == "n=0..2000"
        assert entry["status"] == "pass"

    @pytest.mark.parametrize("identity,nmax,expected_range", [
        ("P1", 1000, "n=3..1000"),
        ("P2", 1000, "n=2..1000"),
        ("T1", 1000, "n=5..1000"),
        ("GF", 300, "order=40..300"),
    ])
    def test_verify_table_identities_at_large_nmax(self, identity, nmax, expected_range, tmp_path):
        out = tmp_path / "report.json"
        argv = ["verify", identity, "--nmax", str(nmax), "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        [entry] = json.loads(out.read_text())["entries"]
        assert entry["range"] == expected_range
        assert entry["status"] == "pass"


class TestCountCap:
    @pytest.mark.parametrize("argv,target", [
        (["seq", "0,1,1", "2001"], "triboconv.cli.TriboSeq"),
        (["derive", "cpower", "2001"], "triboconv.derivation.derive"),
        (["conjecture", "2001"], "triboconv.derivation.conjecture_check"),
        (["derive", "cpower", "2001"], "triboconv.derivation.derive_table"),
    ])
    def test_count_above_cap_is_rejected_before_any_work(self, argv, target, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("computed past the cap")

        monkeypatch.setattr(target, no_work)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith("exceeds the cap 2000\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["--grid", "13"], "grid 13 exceeds the cap 12"),
        (["--grid", "200"], "grid 200 exceeds the cap 12"),
        (["--draws", "2001"], "draws 2001 exceeds the cap 2000"),
        (["--draws", str(10**7)], f"draws {10**7} exceeds the cap 2000"),
    ])
    def test_symcheck_above_cap_is_rejected_before_any_draw(self, argv, message, capsys, monkeypatch):
        def no_check(*args):
            raise AssertionError("checked past the cap")

        monkeypatch.setattr(symmetric_identities, "verify_sym_identity", no_check)
        assert main(["symcheck", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_symcheck_at_the_grid_cap(self, capsys):
        assert main(["symcheck", "--draws", "1", "--grid", "12"]) == 0
        assert "degree 5: pass (1 draws, grid 12)" in capsys.readouterr().out

    def test_seq_at_the_cap(self, capsys):
        assert main(["seq", "0,1,1", "2000", "--format", "tsv"]) == 0
        assert capsys.readouterr().out.count("\n") == 2001


class TestErrorMapping:
    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("arithmetic fault")

        monkeypatch.setattr(identity_catalog, "verify", broken)
        with pytest.raises(ValueError, match="arithmetic fault"):
            main(["verify", "P1"])


class TestFoldTables:
    @pytest.mark.parametrize("pinned,general", [("T2R", "GT3"), ("T3R", "GT4"), ("T4R", "GT5")])
    def test_pinned_rows_match_general_family_at_n_one(self, pinned, general):
        gt = {c.index: (c.lhs, c.rhs) for c in verify(general, nmax=1, mmax=20).checks}
        rows = verify(pinned, nmax=20)
        assert rows.params == []
        assert [(c.lhs, c.rhs) for c in rows.checks] == [gt[f"n=1,m={m}"] for m in range(21)]

    @pytest.mark.parametrize("family,pinned", [("T2", "T2R"), ("T3", "T3R"), ("T4", "T4R")])
    def test_remark_point_reproduces_the_special_form(self, family, pinned):
        remark = verify(family, nmax=15).checks[:16]
        special = verify(pinned, nmax=15).checks
        assert [(c.lhs, c.rhs) for c in remark] == [(c.lhs, c.rhs) for c in special]
