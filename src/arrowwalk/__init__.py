"""Self-interacting walks driven by per-site arrow stacks.

An arrow system fixes, for every site and visit number, the direction the
walker takes next; the walk deterministically consumes these arrows.  The
package runs such walks, checks the bookkeeping identities tying a path to
its occupation counts, compares systems under two stack orders, verifies
the path statements those orders imply for coupled walks, reproduces the
two extreme examples that delimit them, couples randomized systems sampled
from cookie environments, and batches everything into deterministic Monte
Carlo campaigns.
"""

from .core import (
    Arrow,
    ArrowSystem,
    ExplicitSystem,
    IdentityReport,
    IDENTITY_IDS,
    LEFT,
    LocalTimeTable,
    PreceqDecision,
    RelationResult,
    RELATION_MODES,
    RIGHT,
    RuleSystem,
    Trajectory,
    check_identities,
    check_relation,
    constant_system,
    consumed_stacks,
    load_system,
    mirror_system,
    occupation,
    parse_system,
    paths_admit_preceq,
    run_walk,
    scan_identities,
    stack_counts,
    validate_path,
    write_trajectory_csv,
    zero_right_transform,
)
from .verify import (
    CoupledPair,
    PairChecker,
    STATEMENT_IDS,
    VerifyResult,
    check_pair,
    make_pair,
)
from .counterexamples import (
    CE2_LEFT_PATH,
    CE2_RIGHT_PATH,
    Ce1LeftSystem,
    Ce1Milestones,
    Ce1RightSystem,
    build_ce1,
    build_ce2,
    ce1_milestones,
    lead_sets,
    marker_site,
    observe_ce1_milestones,
)
from .couplings import (
    BlockPartition,
    BlockSampledSystem,
    ChainEndSystem,
    CookieEnvironment,
    DriftContractError,
    EnvOrderReport,
    EnvelopeWalkResult,
    EtaSystem,
    FieldStream,
    SampledCookieSystem,
    UniformField,
    WalkView,
    classify_alpha,
    conditional_stack_pmf,
    constant_env,
    cookie_env,
    couple_block_family,
    couple_swap_chain,
    env_leq_pointwise,
    env_order,
    envelope_walk,
    favourable_swaps,
    load_env,
    load_partition,
    orrw_drift_law,
    pair_swap_block,
    parse_env,
    parse_partition,
    poisson_binomial,
    sample_system,
    shared_pair,
    sorted_env,
    stack_chain,
    swap_path,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    FAMILIES,
    run_campaign,
    run_trial,
    speed_and_recurrence_stats,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
