"""tools/mutants.py keeps its mutants as data: every mutant's old text
occurs exactly once in its file, so a refactor that moves the code must
carry the mutant along.  Killing the mutants is the tool's job, not tier-1's."""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("mutants",
                                               os.path.join(_ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_old_text_occurs_once_in_src(mutant):
    assert mutant.path.startswith("src/") and mutant.tests
    assert mutants.occurrences(mutant) == 1
