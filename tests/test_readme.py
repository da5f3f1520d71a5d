"""The README's python blocks run as written, and the package exports
exactly the names the README and the command line use."""

import ast
import re
from pathlib import Path
from types import ModuleType

import arrowwalk

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = [
    "CampaignConfig", "FAMILIES", "STATEMENT_IDS", "UniformField",
    "build_ce1", "build_ce2", "ce1_milestones", "check_pair", "cookie_env",
    "couple_block_family", "couple_swap_chain", "envelope_walk", "lead_sets",
    "load_env", "load_partition", "load_system", "observe_ce1_milestones",
    "orrw_drift_law", "paths_admit_preceq", "run_campaign", "run_walk",
    "sample_system", "scan_identities", "shared_pair",
    "speed_and_recurrence_stats", "write_trajectory_csv",
]


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_python_blocks_run():
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_exports_are_what_the_readme_and_cli_use():
    assert sorted(arrowwalk.__all__) == EXPORTS
    # Besides the exports, only submodules (`cli` once imported) are public.
    public = {
        name for name in dir(arrowwalk)
        if not name.startswith("_") and not isinstance(getattr(arrowwalk, name), ModuleType)
    }
    assert public == set(EXPORTS)
    imported = {
        alias.name
        for block in _python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "arrowwalk"
        for alias in node.names
    }
    assert imported and imported <= set(EXPORTS)
