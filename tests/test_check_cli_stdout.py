"""The CI stdout checker catches one flipped golden byte, a changed digest
and a run that exits nonzero; its exitcodes mode passes the CLI on a full
device and flags any other exit or stderr."""

import hashlib
import json
import os
import shutil

import pytest
from check_cli_stdout import (UNBUFFERED_RUNS, UNWRITABLE_RUNS, byte_mismatches, exitcode_mismatches,
                              sha256_mismatches, unwritable_fault)
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


@pytest.mark.parametrize("code,stderr,fault", [
    (2, b"error: cannot write standard output: No space left on device\n", None),
    (1, b"Traceback (most recent call last):\nOSError: [Errno 28] No space left on device\n", "exit 1"),
    (120, b"Exception ignored in: <stdout>\nOSError: [Errno 28] No space left on device\n", "exit 120"),
    (2, b"error: x\nException ignored in: <stdout>\n", "traceback on stderr"),
    (2, b"error: x\nerror: y\n", "stderr is b'error: x\\nerror: y\\n', not one line"),
    (2, b"error: x", "stderr is b'error: x', not one line"),
    (2, b"", "stderr is b'', not one line"),
])
def test_unwritable_fault(code, stderr, fault):
    assert unwritable_fault(code, stderr) == fault


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exitcodes_mode_passes_the_cli_on_a_full_device():
    # both outputs fit a stream buffer, so they fail first at the flush
    assert exitcode_mismatches({name: UNWRITABLE_RUNS[name] for name in ("conjecture", "help")}) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exitcodes_mode_passes_an_unbuffered_help_on_a_full_device():
    # with no buffer the help's own write fails, which argparse ignores
    assert exitcode_mismatches(UNBUFFERED_RUNS, unbuffered=True) == []


def test_exitcodes_mode_flags_a_written_report(tmp_path):
    assert exitcode_mismatches({"seq": ["seq", "0,1,1", "5"]}, str(tmp_path / "out")) == ["seq: exit 0"]
