"""Compare the CLI's stdout with the golden files, without regenerating them.

Runs ``python -m triboconv.cli`` once per entry of ``CLI_OUTPUTS`` (compare
bytes with tests/golden/<name>) or of ``CLI_SHA256`` (compare the sha256
digest with tests/golden/cli_sha256.json), both from tests/golden_runs.py,
so CI checks exactly the runs the golden files pin.  A run that exits nonzero
counts as a mismatch.  Prints one line per mismatch and exits 1 if there
is any:

    PYTHONWARNINGS=error PYTHONPATH=src python tests/check_cli_stdout.py bytes
    PYTHONWARNINGS=error PYTHONPATH=src python tests/check_cli_stdout.py sha256

The CLI runs inherit ``PYTHONWARNINGS=error``, so a warning such as a
DeprecationWarning ends a run with a nonzero exit and counts as a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from golden_runs import CLI_OUTPUTS, CLI_SHA256, GOLDEN


def _stdout(argv: list[str]) -> bytes | None:
    """The CLI's stdout for ``argv``, or None if it exits nonzero."""
    run = subprocess.run([sys.executable, "-m", "triboconv.cli", *argv], capture_output=True)
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


if __name__ == "__main__":
    checks = {"bytes": byte_mismatches, "sha256": sha256_mismatches}
    if len(sys.argv) != 2 or sys.argv[1] not in checks:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(checks)}}}")
    bad = checks[sys.argv[1]]()
    for name in bad:
        print(f"stdout differs from golden {name}")
    sys.exit(1 if bad else 0)
