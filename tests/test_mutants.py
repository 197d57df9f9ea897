"""Every row of the mutation table in mutants.py still applies: its old text
occurs exactly once in its file and it names tests.  Whether each mutant
fails its tests is checked by running mutants.py, outside tier-1."""

import pytest
from mutants import MUTANTS, _broken


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_row_applies(mutant):
    assert _broken(mutant) is None
    assert mutant.tests and mutant.old != mutant.new
