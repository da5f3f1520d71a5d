"""Self-interacting walks driven by per-site arrow stacks.

An arrow system fixes, for every site and visit number, the direction the
walker takes next; the walk deterministically consumes these arrows.  The
package runs such walks, checks the bookkeeping identities tying a path to
its occupation counts, decides whether two paths admit stack-ordered
systems, verifies the path statements the stack orders imply for coupled
walks, reproduces the two extreme examples that delimit them, couples
randomized systems sampled from cookie environments, and batches
everything into deterministic Monte Carlo campaigns.

The package exports what the README and the command line use; everything
else is imported from its submodule.
"""

from .core import (
    load_system,
    paths_admit_preceq,
    run_walk,
    scan_identities,
    write_trajectory_csv,
)
from .verify import STATEMENT_IDS, check_pair
from .counterexamples import (
    build_ce1,
    build_ce2,
    ce1_milestones,
    lead_sets,
    observe_ce1_milestones,
)
from .couplings import (
    UniformField,
    cookie_env,
    couple_block_family,
    couple_swap_chain,
    envelope_walk,
    load_env,
    load_partition,
    orrw_drift_law,
    sample_system,
    shared_pair,
)
from .campaign import (
    CampaignConfig,
    FAMILIES,
    run_campaign,
    speed_and_recurrence_stats,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig", "FAMILIES", "STATEMENT_IDS", "UniformField",
    "build_ce1", "build_ce2", "ce1_milestones", "check_pair", "cookie_env",
    "couple_block_family", "couple_swap_chain", "envelope_walk", "lead_sets",
    "load_env", "load_partition", "load_system", "observe_ce1_milestones",
    "orrw_drift_law", "paths_admit_preceq", "run_campaign", "run_walk",
    "sample_system", "scan_identities", "shared_pair",
    "speed_and_recurrence_stats", "write_trajectory_csv",
]
