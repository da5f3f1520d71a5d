"""The mutation table of `tools/mutants.py` still applies to the code.

The full mutation run is not part of this suite (`python3 tools/mutants.py`
copies the checkout once per mutant).  This check is cheap: every mutant's
source text occurs exactly once in its file, and every test it names exists,
so an edit that moves the code out from under a mutant fails here instead of
silently dropping the mutant.
"""

import importlib.util
import sys
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("arrowwalk_tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_checkout():
    mutants = load_mutants()
    assert mutants.MUTANTS
    assert mutants.problems() == []
