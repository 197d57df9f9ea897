"""CLI contract: output formats, exit codes, determinism, the JSON writer
and one rendering per report."""

import hashlib
import json
from fractions import Fraction

import pytest
from golden_runs import CLI_OUTPUTS, CLI_SHA256, GOLDEN
from hypothesis import given, strategies as st

from triboconv import cli, derivation, identity_catalog, symmetric_identities
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

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '"replicated": {\n        "A": "45",\n        "triple": [\n          "2",\n          "3",\n          "11"'),
        ("tsv", "2\t22\t2\t3\t10\t45\t2\t3\t11\tfalse\n"),
        ("text", "n=2: A=22 triple=(2, 3, 10)  replicated: A=45 triple=(2, 3, 11) match=false\n"),
    ])
    def test_a_replayed_value_off_the_direct_one_is_printed(self, fmt, expected, capsys, monkeypatch):
        real = derivation.replicate_paper_table

        def off_at_two(kind, direct):
            two, *rest = real(kind, direct)
            off = derivation.ScaledSeq(Fraction(45), (2, 3, 11))
            return [derivation.PrintedRecursionResult(two.family, two.direct, off, False), *rest]

        monkeypatch.setattr(derivation, "replicate_paper_table", off_at_two)
        assert main(["derive", "cpower", "3", "--replicate-paper", "--format", fmt]) == 0
        assert expected in capsys.readouterr().out


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

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '{\n  "rows": [\n    {\n      "n": "1",\n      "cpower_scale_2n": "22",\n'
                 '      "cofactor_scale_n": "23/2",\n      "equal": "false"\n    }\n  ],\n'
                 '  "verdict": "counterexample-found"\n}\n'),
        ("tsv", "n\tcpower_scale_2n\tcofactor_scale_n\tequal\n1\t22\t23/2\tfalse\n"),
        ("text", "n=1: 22 == 23/2 -> false\nverdict: counterexample-found\n"),
    ])
    def test_an_unequal_row_prints_both_scales(self, fmt, expected, capsys, monkeypatch):
        row = derivation.ConjectureRow(1, Fraction(22), Fraction(23, 2), False)
        monkeypatch.setattr(derivation, "conjecture_check", lambda n_max: derivation.ConjectureReport((row,), False))
        assert main(["conjecture", "1", "--format", fmt]) == 1
        assert capsys.readouterr().out == expected


class TestOneRendering:
    """Each value gets its decimal string once, and only the asked-for
    format is built."""

    @pytest.mark.parametrize("argv,strings", [
        (["conjecture", "200"], 200),
        (["derive", "pairsumsq", "46", "--replicate-paper"], 46),
    ])
    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_one_string_per_scale(self, argv, strings, fmt, tmp_path, monkeypatch):
        # every row's two scales are equal: the second reuses the first's string
        calls, real = [], Fraction.__str__

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__str__", counted)
        assert main([*argv, "--format", fmt, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == strings

    @pytest.mark.parametrize("name", sorted(CLI_OUTPUTS))
    def test_only_the_asked_producer_is_called(self, name, tmp_path, monkeypatch):
        real = cli._render

        def guarded(args, doc, cells, lines):
            def other_format():
                raise AssertionError(f"{args.format} run called another format's producer")

            chosen = {"json": doc, "tsv": cells, "text": lines}
            real(args, *(chosen[f] if f == args.format else other_format for f in ("json", "tsv", "text")))

        monkeypatch.setattr(cli, "_render", guarded)
        out = tmp_path / "out"
        assert main([*CLI_OUTPUTS[name], "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


# keys and strings with quotes, backslashes, control characters and non-ASCII
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZé€\u2028😀') | st.characters(), max_size=6)


def _documents(depth: int):
    leaf = st.none() | _TEXT
    if depth == 0:
        return leaf
    child = _documents(depth - 1)
    return leaf | st.lists(child, max_size=3) | st.dictionaries(_TEXT, child, max_size=3)


class TestJsonWriter:
    @given(_documents(4))
    def test_equals_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        1, 1.5, True, ("a",), {"n": 2}, ["1", [None, 3.0]], {"ok": False}, {1: "a"}, {None: "a"}, {True: "a"},
        {"rows": [{("n",): "1"}]},
    ])
    def test_anything_but_str_none_dict_and_list_is_rejected(self, doc):
        with pytest.raises(TypeError):
            cli._json(doc)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_each_golden_json_rewrites_to_its_bytes(self, path):
        doc = json.loads(path.read_bytes())
        if path.name.startswith("checks_"):
            # the check digests count in JSON integers, which no report holds
            with pytest.raises(TypeError):
                cli._json(doc)
        else:
            assert (cli._json(doc) + "\n").encode() == path.read_bytes()


class TestTableRows:
    """``derive`` and ``conjecture`` write each table row in one pass; the
    bytes are those of json.dumps(indent=2) on the dict document that
    they built before, kept here as the oracle."""

    FAMILIES = sorted(cli._FAMILIES)
    REPLICABLE = sorted(kind.value for kind in derivation.REPLICABLE_KINDS)
    RUNS = [(family, False) for family in FAMILIES] + [(family, True) for family in REPLICABLE]
    # a stopped replay's note, with a quote, a backslash and non-ASCII text
    NOTE = 'printed denominator "d" vanished \\ é'

    @staticmethod
    def derive_doc(family, entries):
        rows = []
        for n, scale, triple, match, rep, note in entries:
            row = {"n": n, "A": scale, "triple": triple}
            if match is not None and rep is None:
                row.update(replicated=None, match=match, note=note)
            else:
                if note is not None:
                    row["note"] = note
                if rep is not None:
                    row.update(replicated={"A": rep[0], "triple": rep[1]}, match=match)
            rows.append(row)
        return {"family": family, "rows": rows}

    def rows_to(self, last, family, replicate, capsys):
        """The rows of the table to ``last`` after checking each table to
        1..``last`` against its dict document."""
        for n_max in range(1, last + 1):
            argv = ["derive", family, str(n_max), "--format", "json", *(["--replicate-paper"] if replicate else [])]
            assert main(argv) == 0
            doc = self.derive_doc(family, cli._derive_entries(cli._FAMILIES[family], n_max, replicate))
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n", n_max
        return doc["rows"]

    @pytest.mark.parametrize("family,replicate", RUNS)
    def test_every_table_to_60_equals_the_dict_document(self, family, replicate, capsys):
        rows = self.rows_to(60, family, replicate, capsys)
        if replicate:
            # the printed pair-sum-square recursion is wrong from n = 2 on
            assert {row["match"] for row in rows[1:]} == {"true" if family != "pairsumsq" else "false"}

    @pytest.mark.parametrize("note", [NOTE, "", None])
    @pytest.mark.parametrize("family", REPLICABLE)
    def test_a_stopped_replay_equals_the_dict_document(self, family, note, capsys, monkeypatch):
        real = derivation.replicate_paper_table

        def stopping_at_odd_n(kind, direct):
            return [derivation.PrintedRecursionResult(r.family, r.direct, None, False, note=note) if n % 2 else r
                    for n, r in enumerate(real(kind, direct), start=2)]

        monkeypatch.setattr(derivation, "replicate_paper_table", stopping_at_odd_n)
        rows = self.rows_to(12, family, True, capsys)
        assert [row["replicated"] is None for row in rows[1:]] == [n % 2 == 1 for n in range(2, 13)]

    @pytest.mark.parametrize("family,replicate", RUNS)
    def test_a_non_integral_scale_equals_the_dict_document(self, family, replicate, capsys, monkeypatch):
        real = derivation.derive_table

        def off_by_a_half_at_odd_n(kind, n_max):
            return [derivation.ScaledSeq(row.scale + Fraction(n % 2, 2), row.triple)
                    for n, row in enumerate(real(kind, n_max), start=1)]

        monkeypatch.setattr(derivation, "derive_table", off_by_a_half_at_odd_n)
        rows = self.rows_to(12, family, replicate, capsys)
        assert [row.get("note") for row in rows] == [None if n % 2 == 0 else "non-integral scale" for n in range(1, 13)]

    def test_every_conjecture_to_60_equals_the_dict_document(self, capsys):
        header = ["n", "cpower_scale_2n", "cofactor_scale_n", "equal"]
        for n_max in range(1, 61):
            assert main(["conjecture", str(n_max), "--format", "json"]) == 0
            report = derivation.conjecture_check(n_max)
            rows = [dict(zip(header, (str(r.n), str(r.cpower_scale), str(r.cofactor_scale),
                                      "true" if r.equal else "false"))) for r in report.rows]
            doc = {"rows": rows, "verdict": "all-equal" if report.all_equal else "counterexample-found"}
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("cell", [1, Fraction(1, 2), None, b"1", ["1"]])
    def test_a_cell_that_is_not_a_str_is_rejected(self, cell):
        values = ["2", "22", "2", "3", "10"]
        values[1] = cell
        with pytest.raises(TypeError):
            cli._json_table({"family": "cpower", "rows": [(cli._derive_layout(False, False, False), values)]})


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

        monkeypatch.setattr(symmetric_identities, "random_pairs", no_draw)
        assert main(["symcheck", "--draws", draws, "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "error: draws must be >= 1\n")

    @pytest.mark.parametrize("ext", ["json", "tsv", "txt"])
    def test_printed_constraints_pass_the_caps_with_no_draw(self, ext, capsys, monkeypatch):
        # the projected equations are zero for the printed constraints, so
        # each degree is decided before a generator is seeded or a draw taken
        def no_draw(*args, **kwargs):
            raise AssertionError("drew parameters")

        monkeypatch.setattr(symmetric_identities, "random_pairs", no_draw)
        monkeypatch.setattr(cli.random, "Random", no_draw)
        name = f"symcheck_seed0_draws2000_grid12.{ext}"
        assert main(CLI_SHA256[name]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == json.loads((GOLDEN / "cli_sha256.json").read_text())[name]


class TestSharedParser:
    """``main`` parses with one parser per process; every call still sees
    only its own arguments and the terminal width of its own moment."""

    # pairs of one value given, then the same command without it; usage
    # errors; help under two widths
    CORPUS = [
        (["verify", "S3", "-vv"], None),
        (["verify", "S3"], None),
        (["symcheck", "--seed", "5", "--draws", "2"], None),
        (["symcheck", "--draws", "2"], None),
        (["symcheck", "--seed", "5", "--draws", "2", "--format", "json"], None),
        (["symcheck", "--draws", "2", "--format", "json"], None),
        (["derive", "cofactor", "6", "--replicate-paper"], None),
        (["derive", "cofactor", "6"], None),
        (["seq", "0,1,1", "5", "--out", "PATH"], None),
        (["seq", "0,1,1", "5"], None),
        (["conjecture", "3", "--format", "json"], None),
        (["conjecture", "3"], None),
        (["bogus"], None),
        (["seq", "0,1,1"], None),
        (["verify", "T2", "--nmax", "x"], None),
        (["-h"], "40"),
        (["verify", "-h"], "120"),
        (["-h"], "120"),
        (["verify", "-h"], "40"),
        (["verify", "S3"], None),
    ]

    def _run(self, argv, columns, out, capsys, monkeypatch):
        """(exit code, stdout, stderr, --out bytes or None) of one call."""
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        code = main([str(out) if a == "PATH" else a for a in argv])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return (code, *capsys.readouterr(), written)

    def test_many_calls_build_the_parser_once(self, capsys, monkeypatch):
        builds, real = [], cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (["seq", "0,1,1", "3"], ["verify", "P1"], ["bogus"], ["symcheck", "--draws", "1"]):
            main(argv)
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_calls_match_a_fresh_parser_per_call(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            expected = [self._run(argv, columns, out, capsys, fresh) for argv, columns in self.CORPUS]
        got = [self._run(argv, columns, out, capsys, monkeypatch) for argv, columns in self.CORPUS]
        for (argv, columns), want, have in zip(self.CORPUS, expected, got):
            assert have == want, (argv, columns)
        # the corpus shows each leak it guards against (text symcheck prints
        # no seed, so its pair reads alike) and each help follows its width
        for a, b in ((0, 1), (4, 5), (6, 7), (8, 9), (10, 11), (15, 17), (16, 18)):
            assert expected[a] != expected[b], (self.CORPUS[a], self.CORPUS[b])

    def test_each_call_parses_into_a_new_namespace(self, capsys, monkeypatch):
        seen, real = [], cli._render

        def spy(args, *producers):
            seen.append(args)
            real(args, *producers)

        monkeypatch.setattr(cli, "_render", spy)
        runs = [["verify", "P1"], ["symcheck", "--draws", "1"], ["seq", "0,1,1", "2"]]
        for argv in runs:
            main(argv)
        assert len({id(args) for args in seen}) == len(runs)
        for argv, args in zip(runs, seen):
            assert vars(args) == vars(cli.build_parser().parse_args(argv))
