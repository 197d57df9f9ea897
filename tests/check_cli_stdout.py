"""Compare the CLI's stdout with the golden files, without regenerating them,
and check that an unwritable stdout is a usage error.

``bytes`` runs ``python -m triboconv.cli`` once per entry of ``CLI_OUTPUTS``
(compare bytes with tests/golden/<name>) and ``sha256`` once per entry of
``CLI_SHA256`` (compare the sha256 digest with tests/golden/cli_sha256.json),
both from tests/golden_runs.py, so CI checks exactly the runs the golden
files pin.  A run that exits nonzero counts as a mismatch.  ``exitcodes``
runs one argv per subcommand and one help (``UNWRITABLE_RUNS``) with stdout
on /dev/full and requires exit 2 with a single stderr line, and no
``Traceback`` or ``Exception ignored``; only a real process shows a failure
in the interpreter's flush at exit.  Those runs drop ``PYTHONUNBUFFERED``,
so stdout is buffered as by default and that flush has bytes to fail on.
``exitcodes`` then runs the helps of ``UNBUFFERED_RUNS`` the same way with
``PYTHONUNBUFFERED=1``, where the write itself fails, inside argparse.
Each mode prints one line per mismatch and exits 1 if there is any:

    PYTHONWARNINGS=error PYTHONPATH=src python tests/check_cli_stdout.py bytes
    PYTHONWARNINGS=error PYTHONPATH=src python tests/check_cli_stdout.py sha256
    PYTHONWARNINGS=error PYTHONPATH=src python tests/check_cli_stdout.py exitcodes

The CLI runs inherit ``PYTHONWARNINGS=error``, so a warning such as a
DeprecationWarning ends a run with a nonzero exit and counts as a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from golden_runs import CLI_OUTPUTS, CLI_SHA256, GOLDEN

#: name -> argv, one per subcommand and one help; ``seq``'s output is
#: larger than a stream buffer, so its write fails before the flush does
UNWRITABLE_RUNS = {
    "seq": ["seq", "0,1,1", "2000"],
    "derive": ["derive", "cofactor", "6", "--replicate-paper"],
    "verify": ["verify", "P1", "--format", "json"],
    "conjecture": ["conjecture", "5", "--format", "tsv"],
    "symcheck": ["symcheck", "--draws", "2"],
    "help": ["verify", "-h"],
}

#: name -> argv, each run with unbuffered stdout
UNBUFFERED_RUNS = {"help-unbuffered": ["-h"], "verify-help-unbuffered": ["verify", "-h"]}


def _cli(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "triboconv.cli", *argv], **kwargs)


def _stdout(argv: list[str]) -> bytes | None:
    """The CLI's stdout for ``argv``, or None if it exits nonzero."""
    run = _cli(argv, capture_output=True)
    return run.stdout if run.returncode == 0 else None


def byte_mismatches(outputs: dict = CLI_OUTPUTS, golden: Path = GOLDEN) -> list[str]:
    """Names in ``outputs`` whose stdout differs from the file in ``golden``."""
    return [name for name, argv in outputs.items()
            if _stdout(argv) != (golden / name).read_bytes()]


def sha256_mismatches(outputs: dict = CLI_SHA256, golden: Path = GOLDEN) -> list[str]:
    """Names in ``outputs`` whose stdout digest differs from the one in
    ``golden``/cli_sha256.json."""
    want = json.loads((golden / "cli_sha256.json").read_text())
    mismatches = []
    for name, argv in outputs.items():
        out = _stdout(argv)
        if out is None or hashlib.sha256(out).hexdigest() != want[name]:
            mismatches.append(name)
    return mismatches


def unwritable_fault(code: int, stderr: bytes) -> str | None:
    """What is wrong with a run whose stdout could not be written, or None
    if it exited 2 with one stderr line and no traceback."""
    if code != 2:
        return f"exit {code}"
    if b"Traceback" in stderr or b"Exception ignored" in stderr:
        return "traceback on stderr"
    lines = stderr.splitlines(keepends=True)
    if len(lines) != 1 or not lines[0].endswith(b"\n"):
        return f"stderr is {stderr!r}, not one line"
    return None


def exitcode_mismatches(runs: dict = UNWRITABLE_RUNS, sink: str = "/dev/full", unbuffered: bool = False) -> list[str]:
    """``name: fault`` for each run in ``runs`` that, with stdout on
    ``sink``, buffered or ``unbuffered``, is not a one-line usage error."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    mismatches = []
    for name, argv in runs.items():
        with open(sink, "wb") as stdout:
            run = _cli(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)
        fault = unwritable_fault(run.returncode, run.stderr)
        if fault is not None:
            mismatches.append(f"{name}: {fault}")
    return mismatches


if __name__ == "__main__":
    checks = {
        "bytes": (byte_mismatches, "stdout differs from golden"),
        "sha256": (sha256_mismatches, "stdout differs from golden"),
        "exitcodes": (lambda: exitcode_mismatches() + exitcode_mismatches(UNBUFFERED_RUNS, unbuffered=True),
                      "unwritable stdout is not one usage-error line:"),
    }
    if len(sys.argv) != 2 or sys.argv[1] not in checks:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(checks)}}}")
    check, message = checks[sys.argv[1]]
    bad = check()
    for name in bad:
        print(f"{message} {name}")
    sys.exit(1 if bad else 0)
