"""Byte-identity of `verify` output and of every identity's check list.

The files under tests/golden/ pin the CLI bytes of `verify all --seed 42`
and of one call of each other subcommand in each format, and a sha256
digest of each identity's checks at default
ranges (passing JSON entries carry no values, so the digests are what pin
the evaluators).  checks_deep.json pins T4/T3/T4R/P3 at the large nmax
where the convolution tables are extended by recurrence, P1/P2/T1
at nmax 400 and GT2..GT5 at family indices n up to 40/20/12/12, past
their default ranges, checks_cap.json pins P1, P2, T1, GF and the folds
P3, T2..T4R at the range cap (2000) and GT2..GT5 at mmax 2000,
checks_claims.json pins the printed power-family claims past their
default ranges (S1, S2 and the lemmas L2, L7, L8, L9 at nmax 400, S3 at
nmax 60, where its n > 6 rows are checked against Binet sums), and
cli_sha256.json pins by digest the CLI bytes, too large to check in
whole, of `conjecture` and `derive --replicate-paper` at the sizes of the
scale_audit benchmark in each format, of `conjecture` at the range cap
(2000) in each format, of `derive --replicate-paper` for each replicable
family at the range cap, of `verify P1`, `P2` and `T1` at the range
cap in each format, and of `symcheck` at the grid cap (100 draws in
json, and the draw cap in each format).  Regenerate
them deliberately, after an intended change of output, with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from golden_runs import CLI_OUTPUTS, CLI_SHA256, GOLDEN

from triboconv.cli import main
from triboconv.identity_catalog import identity_ids, verify

#: (file name, seed, {identity id: nmax, or (nmax, mmax), with None for a
#: default bound}) of the per-identity check digests; None in place of the
#: mapping means every identity at its default range.
DIGESTS = [
    ("checks_seed42.json", 42, None),
    ("checks_seed7.json", 7, {"T2": None, "T3": None, "T4": None}),
    ("checks_deep.json", 42,
     {"T4": 205, "T3": 248, "T4R": 280, "P3": 440, "P1": 400, "P2": 400, "T1": 400,
      "GT2": 40, "GT3": 20, "GT4": 12, "GT5": 12}),
    ("checks_cap.json", 42,
     {"P1": 2000, "P2": 2000, "T1": 2000, "GF": 2000}
     | dict.fromkeys(["P3", "T2", "T2R", "T3", "T3R", "T4", "T4R"], 2000)
     | dict.fromkeys(["GT2", "GT3", "GT4", "GT5"], (None, 2000))),
    ("checks_claims.json", 42,
     {"S1": 400, "S2": 400, "S3": 60} | dict.fromkeys(["L2", "L7", "L8", "L9"], 400)),
]


def _cli_bytes(tmp: Path, argv: list[str]) -> bytes:
    out = tmp / "out"
    code = main([*argv, "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def _digest_entry(report) -> dict:
    """The counts and the sha256 of every check's index, verdict and both values."""
    lines = "".join(
        f"{c.index}\t{'true' if c.ok else 'false'}\t{c.lhs}\t{c.rhs}\n"
        for c in report.checks + report.mismatches
    )
    return {
        "checks": len(report.checks),
        "mismatches": len(report.mismatches),
        "sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }


def _digest_doc(seed: int, ids) -> str:
    table = {}
    for identity, bounds in (ids or dict.fromkeys(identity_ids())).items():
        nmax, mmax = bounds if isinstance(bounds, tuple) else (bounds, None)
        table[identity] = _digest_entry(verify(identity, seed=seed, nmax=nmax, mmax=mmax))
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(n for n in CLI_OUTPUTS if CLI_OUTPUTS[n][0] == "verify"))
def test_verify_all_bytes(name, tmp_path):
    assert _cli_bytes(tmp_path, CLI_OUTPUTS[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CLI_OUTPUTS if CLI_OUTPUTS[n][0] != "verify"))
def test_subcommand_bytes(name, tmp_path):
    assert _cli_bytes(tmp_path, CLI_OUTPUTS[name]) == (GOLDEN / name).read_bytes()


def _cli_sha256(tmp: Path, name: str) -> str:
    return hashlib.sha256(_cli_bytes(tmp, CLI_SHA256[name])).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_sha256(name, tmp_path):
    assert _cli_sha256(tmp_path, name) == json.loads((GOLDEN / "cli_sha256.json").read_text())[name]


@pytest.mark.parametrize("name,seed,ids", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_check_digests(name, seed, ids):
    assert _digest_doc(seed, ids) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_OUTPUTS.items():
            (GOLDEN / name).write_bytes(_cli_bytes(Path(tmp), argv))
        digests = {name: _cli_sha256(Path(tmp), name) for name in sorted(CLI_SHA256)}
        (GOLDEN / "cli_sha256.json").write_text(json.dumps(digests, indent=2) + "\n")
    for name, seed, ids in DIGESTS:
        (GOLDEN / name).write_text(_digest_doc(seed, ids))
