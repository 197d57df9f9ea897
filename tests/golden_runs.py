"""The CLI runs that the golden files pin: the argv of each golden file
and of each digest in golden/cli_sha256.json.

Kept apart from test_golden.py, which needs pytest, so that
check_cli_stdout.py runs under a bare interpreter.
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

#: golden file name -> full CLI argv that writes it.
CLI_OUTPUTS = {
    "verify_all_seed42.json": ["verify", "all", "--seed", "42", "--format", "json"],
    "verify_all_seed42.tsv": ["verify", "all", "--seed", "42", "--format", "tsv"],
    "verify_all_seed42.txt": ["verify", "all", "--seed", "42", "--format", "text"],
    "verify_all_seed42_v.txt": ["verify", "all", "--seed", "42", "--format", "text", "-v"],
}
for _stem, _argv in {
    "seq_011_30": ["seq", "0,1,1", "30"],
    "derive_cpower_8": ["derive", "cpower", "8"],
    "derive_pairsumsq_6_replicate": ["derive", "pairsumsq", "6", "--replicate-paper"],
    "conjecture_12": ["conjecture", "12"],
    "symcheck_seed0_draws20": ["symcheck", "--seed", "0", "--draws", "20"],
}.items():
    for _fmt, _ext in (("json", "json"), ("tsv", "tsv"), ("text", "txt")):
        CLI_OUTPUTS[f"{_stem}.{_ext}"] = [*_argv, "--format", _fmt]

#: name -> full CLI argv whose output bytes are pinned by their sha256 in
#: cli_sha256.json.
CLI_SHA256 = {}
# the scale commands at the sizes of the scale_audit benchmark, in every format
for _stem, _argv in {
    "conjecture_200": ["conjecture", "200"],
    "derive_cpower_47_replicate": ["derive", "cpower", "47", "--replicate-paper"],
    "derive_cofactor_45_replicate": ["derive", "cofactor", "45", "--replicate-paper"],
    "derive_pairsumsq_46_replicate": ["derive", "pairsumsq", "46", "--replicate-paper"],
}.items():
    for _fmt, _ext in (("json", "json"), ("tsv", "tsv"), ("text", "txt")):
        CLI_SHA256[f"{_stem}.{_ext}"] = [*_argv, "--format", _fmt]
# P1, P2 and T1 at the range cap, in every format
for _id in ("P1", "P2", "T1"):
    for _fmt, _ext in (("json", "json"), ("tsv", "tsv"), ("text", "txt")):
        CLI_SHA256[f"verify_{_id}_2000.{_ext}"] = ["verify", _id, "--nmax", "2000", "--format", _fmt]
# the conjecture at the range cap, in every format
for _fmt, _ext in (("json", "json"), ("tsv", "tsv"), ("text", "txt")):
    CLI_SHA256[f"conjecture_2000.{_ext}"] = ["conjecture", "2000", "--format", _fmt]
CLI_SHA256 |= {
    "derive_cpower_2000_replicate.json": ["derive", "cpower", "2000", "--replicate-paper", "--format", "json"],
    "derive_cofactor_2000_replicate.json": ["derive", "cofactor", "2000", "--replicate-paper", "--format", "json"],
    "derive_pairsumsq_2000_replicate.json": ["derive", "pairsumsq", "2000", "--replicate-paper", "--format", "json"],
    "symcheck_seed0_draws100_grid12.json": ["symcheck", "--seed", "0", "--draws", "100", "--grid", "12", "--format", "json"],
}
# derive --replicate-paper at the range cap in the other two formats
for _family in ("cpower", "cofactor", "pairsumsq"):
    for _fmt, _ext in (("tsv", "tsv"), ("text", "txt")):
        CLI_SHA256[f"derive_{_family}_2000_replicate.{_ext}"] = [
            "derive", _family, "2000", "--replicate-paper", "--format", _fmt]
# JSON rows without a replay, and conjecture's one-row document
CLI_SHA256 |= {
    "derive_cofactor_2000.json": ["derive", "cofactor", "2000", "--format", "json"],
    "derive_sumcofactor_60.json": ["derive", "sumcofactor", "60", "--format", "json"],
    "derive_sumcofactorsq_60.json": ["derive", "sumcofactorsq", "60", "--format", "json"],
    "conjecture_1.json": ["conjecture", "1", "--format", "json"],
}
# symcheck at the draw and grid caps, in every format
for _fmt, _ext in (("json", "json"), ("tsv", "tsv"), ("text", "txt")):
    CLI_SHA256[f"symcheck_seed0_draws2000_grid12.{_ext}"] = [
        "symcheck", "--seed", "0", "--draws", "2000", "--grid", "12", "--format", _fmt]
