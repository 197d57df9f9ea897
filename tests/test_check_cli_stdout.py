"""The CI stdout checker catches one flipped golden byte, a changed digest
and a run that exits nonzero."""

import hashlib
import json
import shutil

from check_cli_stdout import byte_mismatches, sha256_mismatches
from golden_runs import CLI_OUTPUTS, GOLDEN

NAME = "seq_011_30.txt"
RUN = {NAME: CLI_OUTPUTS[NAME]}


def test_byte_check_flags_a_flipped_byte(tmp_path):
    shutil.copy(GOLDEN / NAME, tmp_path / NAME)
    assert byte_mismatches(RUN, tmp_path) == []
    data = bytearray((GOLDEN / NAME).read_bytes())
    data[0] ^= 1
    (tmp_path / NAME).write_bytes(bytes(data))
    assert byte_mismatches(RUN, tmp_path) == [NAME]


def test_sha256_check_flags_a_changed_digest(tmp_path):
    digest = hashlib.sha256((GOLDEN / NAME).read_bytes()).hexdigest()
    (tmp_path / "cli_sha256.json").write_text(json.dumps({NAME: digest}))
    assert sha256_mismatches(RUN, tmp_path) == []
    changed = ("1" if digest[0] == "0" else "0") + digest[1:]
    (tmp_path / "cli_sha256.json").write_text(json.dumps({NAME: changed}))
    assert sha256_mismatches(RUN, tmp_path) == [NAME]


def test_nonzero_exit_is_a_mismatch(tmp_path):
    (tmp_path / NAME).write_bytes(b"")
    assert byte_mismatches({NAME: ["seq", "0,1,1", "0"]}, tmp_path) == [NAME]
