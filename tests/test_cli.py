"""CLI contract: output formats, exit codes, determinism."""

import json

import pytest

from triboconv import derivation, identity_catalog, symmetric_identities
from triboconv.cli import main
from triboconv.identity_catalog import Check, IdentityRecord, RunOutcome


class TestSeq:
    def test_ordinary_listing(self, capsys):
        assert main(["seq", "0,1,1", "11"]) == 0
        assert capsys.readouterr().out == "0 1 1 2 4 7 13 24 44 81 149\n"

    def test_modified_triple(self, capsys):
        assert main(["seq", "2,3,10", "4"]) == 0
        assert capsys.readouterr().out == "2 3 10 15\n"

    def test_all_zero_triple(self, capsys):
        assert main(["seq", "0,0,0", "5"]) == 0
        assert capsys.readouterr().out == "0 0 0 0 0\n"

    def test_malformed_triple_is_usage_error(self, capsys):
        assert main(["seq", "0,1", "5"]) == 2
        assert "triple" in capsys.readouterr().err

    def test_nonnumeric_triple_is_usage_error(self):
        assert main(["seq", "a,b,c", "5"]) == 2

    def test_count_must_be_positive(self):
        assert main(["seq", "0,1,1", "0"]) == 2

    def test_json_format(self, capsys):
        assert main(["seq", "0,1,1", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"triple": ["0", "1", "1"], "terms": ["0", "1", "1", "2"]}


class TestDerive:
    def test_cpower_table_includes_lemma_row(self, capsys):
        assert main(["derive", "cpower", "5"]) == 0
        out = capsys.readouterr().out
        assert "n=3: A=44 triple=(3, 3, 5)" in out

    def test_cofactor_final_row(self, capsys):
        assert main(["derive", "cofactor", "6"]) == 0
        assert "n=6: A=453519616 triple=(235, -217, 291)" in capsys.readouterr().out

    def test_sumcofactor_row(self, capsys):
        assert main(["derive", "sumcofactor", "1"]) == 0
        assert "n=1: A=-22 triple=(3, 1, 3)" in capsys.readouterr().out

    def test_unknown_family(self, capsys):
        assert main(["derive", "nope", "3"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_replicate_paper_match_column(self, capsys):
        assert main(["derive", "pairsumsq", "2", "--replicate-paper"]) == 0
        out = capsys.readouterr().out
        assert "match=false" in out
        assert "triple=(6, -6, 19)" in out  # the replicated printed row

    def test_replicate_paper_unsupported_family(self):
        assert main(["derive", "sumcofactor", "3", "--replicate-paper"]) == 2


class TestDeriveVanishedDenominator:
    """The row whose printed recursion hits a zero denominator: no
    replicated value, match=false and the note last."""

    NOTE = "printed denominator vanished during replication: x"
    ROWS = [
        {"n": "1", "A": "1", "triple": ["0", "1", "1"]},
        {"n": "2", "A": "22", "triple": ["2", "3", "10"],
         "replicated": None, "match": "false", "note": NOTE},
        {"n": "3", "A": "44", "triple": ["3", "3", "5"],
         "replicated": {"A": "44", "triple": ["3", "3", "5"]}, "match": "true"},
    ]
    EXPECTED = {
        "json": json.dumps({"family": "cpower", "rows": ROWS}, indent=2) + "\n",
        "tsv": (
            "n\tA\ts0\ts1\ts2\tA_replicated\tr0\tr1\tr2\tmatch\n"
            "1\t1\t0\t1\t1\t-\t-\t-\t-\t-\n"
            "2\t22\t2\t3\t10\t-\t-\t-\t-\tfalse\n"
            "3\t44\t3\t3\t5\t44\t3\t3\t5\ttrue\n"
        ),
        "text": (
            "n=1: A=1 triple=(0, 1, 1)\n"
            f"n=2: A=22 triple=(2, 3, 10)  [{NOTE}]\n"
            "n=3: A=44 triple=(3, 3, 5)  replicated: A=44 triple=(3, 3, 5) match=true\n"
        ),
    }

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_vanished_row_bytes(self, fmt, capsys, monkeypatch):
        real = derivation.replicate_paper_table

        def vanishing_at_two(kind, direct):
            two, *rest = real(kind, direct)
            return [derivation.PrintedRecursionResult(two.family, two.direct, None, False, note=self.NOTE),
                    *rest]

        monkeypatch.setattr(derivation, "replicate_paper_table", vanishing_at_two)
        assert main(["derive", "cpower", "3", "--replicate-paper", "--format", fmt]) == 0
        assert capsys.readouterr().out == self.EXPECTED[fmt]


class TestVerify:
    def test_single_pass(self, capsys):
        assert main(["verify", "P3", "--nmax", "60", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0]["status"] == "pass"

    def test_s2_known_discrepancy_with_both_values(self, capsys):
        assert main(["verify", "S2", "--format", "json"]) == 0
        entry = json.loads(capsys.readouterr().out)["entries"][0]
        assert entry["status"] == "known-discrepancy"
        assert entry["first_failure"] == {"index": "n=1,k=0,printed", "lhs": "3/484", "rhs": "1/160"}

    def test_unknown_identity(self, capsys):
        assert main(["verify", "NOPE"]) == 2
        assert "no identity registered" in capsys.readouterr().err

    def test_range_cap(self):
        assert main(["verify", "P1", "--nmax", "99999"]) == 2

    def test_nmax_rejected_for_all(self):
        assert main(["verify", "all", "--nmax", "10"]) == 2

    def test_usage_error_on_missing_args(self):
        assert main(["verify"]) == 2

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "all", "--seed", "42", "--format", "json", "--out", str(a)]) == 0
        assert main(["verify", "all", "--seed", "42", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "S1", "--format", "json", "--out", str(out)]) == 0
        raw = out.read_text()
        assert json.dumps(json.loads(raw), indent=2) + "\n" == raw

    def test_tsv_format(self, capsys):
        assert main(["verify", "L-CONST", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[:2] == ["id", "status"]
        assert lines[1].split("\t")[:2] == ["L-CONST", "pass"]

    def test_forced_failure_exit_code(self, capsys, monkeypatch):
        # a deliberately corrupted entry must flip the exit code to 1
        def broken(ctx):
            return RunOutcome(checks=[Check("n=0", False, "0", "1")])

        corrupted = dict(identity_catalog.REGISTRY)
        corrupted["BROKEN"] = IdentityRecord("BROKEN", "forced failure", (), broken)
        monkeypatch.setattr(identity_catalog, "REGISTRY", corrupted)
        assert main(["verify", "BROKEN"]) == 1
        capsys.readouterr()
        assert main(["verify", "all", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["verdict"] == "fail"
        assert doc["summary"]["fail"] == "1"


class TestConjecture:
    def test_five_rows(self, capsys):
        assert main(["conjecture", "5"]) == 0
        out = capsys.readouterr().out
        assert "n=5: 10307264 == 10307264 -> true" in out  # 2^6 * 11^5
        assert "verdict: all-equal" in out

    def test_single_row(self, capsys):
        assert main(["conjecture", "1"]) == 0
        assert "n=1: 22 == 22 -> true" in capsys.readouterr().out

    def test_bound_validation(self):
        assert main(["conjecture", "0"]) == 2


class TestSymcheck:
    def test_default_grid_passes(self, capsys):
        assert main(["symcheck", "--draws", "3"]) == 0
        out = capsys.readouterr().out
        assert "degree 3: pass" in out
        assert "degree 5: pass" in out

    def test_grid_floor(self):
        assert main(["symcheck", "--grid", "4"]) == 2

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_no_draws_is_usage_error(self, draws, capsys, monkeypatch):
        # with no draw nothing is checked, so no degree may read pass
        def no_draw(*args):
            raise AssertionError("drew parameters")

        monkeypatch.setattr(symmetric_identities, "random_params", no_draw)
        assert main(["symcheck", "--draws", draws, "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "error: draws must be >= 1\n")
