"""The chunk walk loop against the per-arrow loop.

`run_walk` reads a system that defines `chunk(site, q)` eight arrows at a
time, and queries any other system arrow by arrow.  `reference_walk` is
the per-arrow loop, kept here as the slow reference: both must give equal
positions and visit counts for every system that has chunks.  A sampled
system's `arrow_at` reads its chunks, so its reference walk queries
`CellSystem`, the sampling rule applied to one field value at a time.

`zero_right_walk` reuses a walked path's right excursions and walks only
the rest; its reference is the full walk of the transformed system.
"""

import random

import pytest

from arrowwalk import CampaignConfig, UniformField, check_pair, run_walk
from arrowwalk import verify
from arrowwalk.campaign import _build_pair
from arrowwalk.core import (
    LEFT,
    RIGHT,
    ArrowSystem,
    ExplicitSystem,
    Trajectory,
    zero_right_transform,
    zero_right_walk,
)
from arrowwalk.couplings import (
    CookieEnvironment,
    EtaSystem,
    FieldStream,
    SampledCookieSystem,
    cookie_env,
)
from arrowwalk.verify import CoupledPair, make_pair

HORIZONS = (0, 1, 7, 8, 9, 17, 300, 3000)


def reference_walk(system, horizon):
    """The walk, one `arrow_at` query per step."""
    pos = 0
    positions = [0]
    visits = {0: 1}
    for _ in range(horizon):
        pos += system.arrow_at(pos, visits[pos])
        positions.append(pos)
        visits[pos] = visits.get(pos, 0) + 1
    return positions, visits


# Listed sites and a default longer than 8, so chunks q >= 1 read the
# lists and then the tail; the walk drifts left, through the listed sites.
LISTED = CookieEnvironment(
    {
        -3: (0.9,) * 12 + (0.2,) * 5,
        -1: (0.1, 0.8, 0.3, 0.7, 0.2, 0.9, 0.4, 0.6, 0.5, 0.05),
        0: (0.35,) * 9,
        2: (0.95,),
    },
    (0.3, 0.6, 0.2, 0.5, 0.4, 0.1, 0.7, 0.3, 0.45, 0.25, 0.15),
    0.42,
)


class CellSystem(ArrowSystem):
    """A sampled system's definition, cell by cell and with no memo:
    Right at (site, level) iff the field's uniform there is below the
    environment's probability.  It defines no chunk."""

    def __init__(self, env, field, stream):
        self.env = env
        self.field = field
        self.stream = stream

    def arrow_at(self, site, level):
        u = self.field.value(self.stream, site, level)
        return RIGHT if u < self.env.prob(site, level) else LEFT


def sampled(env, seed, stream):
    return SampledCookieSystem(env, FieldStream(UniformField(seed), stream))


def definition(system):
    """The per-cell reference of a sampled system, or of its zero-right
    transform; any other system is its own reference."""
    if isinstance(system, SampledCookieSystem):
        return CellSystem(system.env, system.view.field, system.view.stream)
    base = getattr(system, "base", None)
    if isinstance(base, SampledCookieSystem):
        return zero_right_transform(definition(base))
    return system


def explicit(fill, seed):
    rng = random.Random(seed)
    stacks = {
        site: "".join(rng.choice("LR") for _ in range(rng.randint(9, 20)))
        for site in range(-6, 7)
        if rng.random() < 0.8
    }
    return ExplicitSystem(stacks, fill)


def assert_walks_agree(make_system, horizons=HORIZONS):
    for horizon in horizons:
        # A fresh instance for the reference, which must not read the chunk memo.
        traj = run_walk(make_system(), horizon)
        assert traj._walked
        want_positions, want_visits = reference_walk(definition(make_system()), horizon)
        assert traj.positions == want_positions, horizon
        assert traj.visit_counts == want_visits, horizon


@pytest.mark.parametrize("transformed", [False, True], ids=["plain", "zero-right"])
@pytest.mark.parametrize("env", [LISTED, cookie_env((0.7, 0.7, 0.7), tail=0.5)],
                         ids=["listed", "three-cookies"])
def test_sampled_chunk_walk_matches_the_per_arrow_walk(env, transformed):
    wrap = zero_right_transform if transformed else (lambda system: system)
    for seed in range(4):
        assert_walks_agree(lambda: wrap(sampled(env, seed, ("chunks", seed))))


@pytest.mark.parametrize("transformed", [False, True], ids=["plain", "zero-right"])
@pytest.mark.parametrize("fill", [LEFT, RIGHT], ids=["fill-L", "fill-R"])
def test_explicit_chunk_walk_matches_the_per_arrow_walk(fill, transformed):
    wrap = zero_right_transform if transformed else (lambda system: system)
    for seed in range(6):
        assert_walks_agree(lambda: wrap(explicit(fill, seed)), (0, 1, 8, 9, 40, 400))


def test_independent_control_chunk_walks_match_the_per_arrow_walk():
    config = CampaignConfig("independent-control", trials=3, horizon=2000, seed=5)
    field = UniformField(config.seed)
    for trial in range(3):
        pair, _ = _build_pair(config, trial, field)
        for traj in (pair.traj_l, pair.traj_r):
            cells = definition(traj.system)
            assert (traj.positions, traj.visit_counts) == reference_walk(cells, 2000), trial
            walked = run_walk(zero_right_transform(traj.system), 2000)
            want = reference_walk(zero_right_transform(cells), 2000)
            assert (walked.positions, walked.visit_counts) == want, trial


@pytest.mark.parametrize(
    "system",
    [sampled(LISTED, 3, "c"), explicit(LEFT, 1), explicit(RIGHT, 2),
     zero_right_transform(sampled(LISTED, 4, "z")), zero_right_transform(explicit(LEFT, 3))],
    ids=["sampled", "explicit-L", "explicit-R", "zero-right-sampled", "zero-right-explicit"],
)
def test_chunk_equals_arrow_at_on_its_eight_levels(system):
    cells = definition(system)
    for site in range(-7, 8):
        for q in range(4):
            levels = range(8 * q + 1, 8 * q + 9)
            want = [cells.arrow_at(site, level) for level in levels]
            got = system.chunk(site, q)
            assert len(got) == 8
            assert all(a is b for a, b in zip(got, want)), (site, q)
            assert all(system.arrow_at(site, level) is a for level, a in zip(levels, want)), (site, q)
    with pytest.raises(ValueError):
        system.chunk(0, -1)


class CountingSampled(SampledCookieSystem):
    def __init__(self, env, view):
        super().__init__(env, view)
        self.queries = 0

    def arrow_at(self, site, level):
        self.queries += 1
        return super().arrow_at(site, level)


def test_a_sampled_walk_reads_chunks_only():
    # A fallback to the per-arrow loop would query `arrow_at` on every step.
    system = CountingSampled(LISTED, FieldStream(UniformField(2), "guard"))
    traj = run_walk(system, 2000)
    run_walk(zero_right_transform(system), 2000)
    assert system.queries == 0
    assert (traj.positions, traj.visit_counts) == reference_walk(system, 2000)
    assert system.queries == 2000


class SequentialSystem(ArrowSystem):
    """Order-dependent: each cell takes the next arrow of one sequence when
    first queried.  It defines no chunk, so it is walked arrow by arrow."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cells = {}

    def arrow_at(self, site, level):
        if (site, level) not in self.cells:
            self.cells[(site, level)] = self.rng.choice((LEFT, RIGHT))
        return self.cells[(site, level)]


def test_systems_without_chunks_are_walked_arrow_by_arrow():
    eta = EtaSystem((0.9, 0.9), UniformField(1), "eta")
    assert eta.chunk is None
    assert zero_right_transform(eta).chunk is None
    assert zero_right_transform(SequentialSystem(0)).chunk is None
    for transformed in (False, True):
        wrap = zero_right_transform if transformed else (lambda system: system)
        traj = run_walk(wrap(SequentialSystem(7)), 500)
        assert (traj.positions, traj.visit_counts) == reference_walk(wrap(SequentialSystem(7)), 500)


def test_check_pair_validates_only_paths_it_did_not_walk(monkeypatch):
    calls = []
    validate = verify.validate_path
    monkeypatch.setattr(verify, "validate_path", lambda path: calls.append(path) or validate(path))
    walked = make_pair(explicit(LEFT, 0), explicit(RIGHT, 0), 50)
    check_pair(walked)
    assert calls == []
    imported = CoupledPair(Trajectory.from_positions([0, 1, 0]), Trajectory.from_positions([0, 1, 2]))
    check_pair(imported)
    assert len(calls) == 2
    jump = CoupledPair(Trajectory([0, 2], {0: 1, 2: 1}), Trajectory([0, 1], {0: 1, 1: 1}))
    with pytest.raises(ValueError, match="path step"):
        check_pair(jump)


def assert_reuse_matches_the_full_walk(traj, make_full):
    """`zero_right_walk(traj)` against `make_full()`, the full walk of the
    transformed system; returns the side of 0 where `traj` ends."""
    got = zero_right_walk(traj)
    want = make_full()
    assert got.positions == want.positions
    assert got.visit_counts == want.visit_counts
    assert got.horizon == traj.horizon and got._walked
    end = traj.positions[-1]
    return (end > 0) - (end < 0)


RETURN_FAMILIES = ("shared-uniform", "independent-control", "block-family", "swap-chain",
                   "envelope", "ce1")


@pytest.mark.parametrize("family", RETURN_FAMILIES)
def test_zero_right_walk_matches_the_full_rewalk(family):
    ends = set()
    for seed in (0, 5):
        for horizon in (1, 2, 9, 60, 700):
            config = CampaignConfig(family, trials=3, horizon=horizon, seed=seed,
                                    **({"kmax": 3} if family == "ce1" else {}))
            field = UniformField(seed)
            for trial in range(config.effective_trials()):
                pair, _ = _build_pair(config, trial, field)
                for traj in (pair.traj_l, pair.traj_r):
                    assert traj._walked
                    ends.add(assert_reuse_matches_the_full_walk(
                        traj, lambda: run_walk(zero_right_transform(traj.system), horizon)))
    # ce1's walks drift right at once, and nothing else ends inside a right excursion.
    assert ends == ({0, 1} if family == "ce1" else {-1, 0, 1})


def test_zero_right_walk_reads_a_site_first_past_its_first_chunk():
    # Each visit to 0 alternates a right excursion 0, 1, 0 with a left one
    # 0, -1, 0, so after 4m steps site 1 holds m consumed arrows and the
    # resumed walk reads it first at level m + 1.
    system = ExplicitSystem({0: "RL" * 20, 1: "L" * 20, -1: "R" * 20}, RIGHT)
    ends = set()
    for horizon in (0, 4, 33, 35, 37, 40, 68, 100):
        traj = run_walk(system, horizon)
        ends.add(assert_reuse_matches_the_full_walk(
            traj, lambda: run_walk(zero_right_transform(system), horizon)))
    assert ends == {-1, 0, 1}


def test_zero_right_walk_reuses_in_the_order_cells_were_drawn():
    # An order-dependent system: the reused walk must draw the cells it
    # reads past the pair walk in the order the full re-walk draws them.
    for seed in range(8):
        for horizon in (1, 30, 400):
            system = SequentialSystem(seed)
            traj = run_walk(system, horizon)
            fresh = SequentialSystem(seed)
            run_walk(fresh, horizon)
            assert_reuse_matches_the_full_walk(
                traj, lambda: run_walk(zero_right_transform(fresh), horizon))
            assert system.cells == fresh.cells, (seed, horizon)


def test_zero_right_walk_walks_imported_paths_in_full():
    # The system does not generate this path, so nothing of it is reused.
    system = explicit(LEFT, 4)
    for path in ([0, 1, 2, 1, 0, -1, 0, 1, 2, 3], [0, 1, 0, 1, 0], [0, -1, -2, -1]):
        traj = Trajectory.from_positions(path, system)
        assert not traj._walked
        assert_reuse_matches_the_full_walk(
            traj, lambda: run_walk(zero_right_transform(system), len(path) - 1))


def test_zero_right_walk_of_a_transformed_walk_leaves_its_system_unchanged():
    # The path of a transformed system is all right excursions, so all of it
    # is reused, on a new system: the one the path carries keeps its start.
    system = zero_right_transform(explicit(LEFT, 4))
    traj = run_walk(system, 300)
    got = zero_right_walk(traj)
    assert got.system is not system and system._prefix == (0,)
    assert (got.positions, got.visit_counts) == (traj.positions, traj.visit_counts)
    # A shorter walk of the new system copies only the steps it needs.
    short = run_walk(got.system, 50)
    assert (short.positions, short.visit_counts) == reference_walk(system, 50)
