"""Every row of the mutation table in mutants.py still applies: its old text
occurs exactly once in its file, it names tests, and each test it names
collects.  Whether each mutant fails its tests is checked by running
mutants.py, outside tier-1."""

import os
import subprocess
import sys

import pytest
from mutants import MUTANTS, ROOT, _broken, _src_first


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_row_applies(mutant):
    assert _broken(mutant) is None
    assert mutant.tests and mutant.old != mutant.new


def test_every_named_test_collects():
    # a renamed test fails here, not only when the mutants run
    ids = sorted({t for m in MUTANTS for t in m.tests})
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": _src_first(ROOT)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    collected = run.stdout.splitlines()
    for t in ids:
        assert any(line == t or line.startswith((t + "::", t + "[")) for line in collected), t
