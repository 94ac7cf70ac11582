"""The mutant list still applies to the sources: each old text occurs exactly
once in its file, so every mutant edits what it names.

Run with: python -m pytest tools/tests
"""
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TOOLS))

from mutants import MUTANTS, ROOT  # noqa: E402


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert mutant.kind in ("correctness", "performance")
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
