"""The word walk loop against the per-arrow loop.

`run_walk` reads a system that defines `cell_words(site, q)` eight levels
at a time, a chunk of words and their limits, and steps Right iff the word
of the level it reads is below its limit; it queries any other system arrow
by arrow.  `reference_walk` is the per-arrow loop, kept in `reference.py`
as the slow reference: both must give equal positions and visit counts for every
system that has `cell_words`.  A sampled system's `arrow_at` reads its
`cell_words`, so its reference walk queries `CellSystem`, the sampling rule
applied to one field value at a time.  Only sampled systems and their
zero-right transform hand out words, so the word loop is tested on explicit
stacks through `as_words`: a sampled system whose probabilities are 0 and 1.

`zero_right_walk` reuses a walked path's right excursions and walks only
the rest; its reference is the full walk of the transformed system.  It
hands `run_walk` the excursions and their visit counts as the `_start` of
the call, which the tests record by wrapping `core.run_walk`; the counts
are read off the path's own, and `Counter` of the prefix is their
reference.  The path it reuses is left as it was, and so is every system:
a return walk's start is the call's, not the system's.  On the system a
path forces (`ExplicitSystem.forced`) it walks nothing: the rest is a
closed form, whose reference is the full walk of the eager build
`ExplicitSystem(consumed_stacks(path), LEFT)`.
"""

import itertools
import random
from collections import Counter

import pytest

from arrowwalk import CampaignConfig, UniformField, check_pair, run_walk
from arrowwalk import core, verify
from arrowwalk.campaign import _build_pair
from arrowwalk.core import (
    _ALL_RIGHT,
    _ZERO_WORDS,
    LEFT,
    RIGHT,
    ArrowSystem,
    ExplicitSystem,
    Trajectory,
    _right_excursions,
    consumed_stacks,
    zero_right_transform,
    zero_right_walk,
)
from arrowwalk.couplings import (
    BlockSampledSystem,
    ChainEndSystem,
    CookieEnvironment,
    EtaSystem,
    FieldStream,
    SampledCookieSystem,
    _limit,
    cookie_env,
)
from arrowwalk.verify import CoupledPair, make_pair
from reference import CellSystem, reference_walk

HORIZONS = (0, 1, 7, 8, 9, 17, 300, 3000)


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


def as_words(system, seed=0):
    """The explicit `system` as a system that hands out words: a sampled
    system whose probability is 1 at each Right of its stacks and fill and 0
    at each Left, so that every word decides the explicit arrow."""
    p = {RIGHT: 1.0, LEFT: 0.0}
    env = CookieEnvironment({site: [p[a] for a in stack] for site, stack in system.stacks.items()},
                            (), p[system.default_fill])
    return sampled(env, seed, "explicit")


def assert_walks_agree(make_system, horizons=HORIZONS):
    for horizon in horizons:
        # A fresh instance for the reference, which must not read the memo.
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
    # Stacks of 9 to 20 arrows, so the walk reads a site's second chunk.
    wrap = zero_right_transform if transformed else (lambda system: system)
    for seed in range(6):
        system = explicit(fill, seed)
        for horizon in (0, 1, 8, 9, 40, 400):
            traj = run_walk(wrap(as_words(system, seed)), horizon)
            assert (traj.positions, traj.visit_counts) == reference_walk(wrap(system), horizon)


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
    [sampled(LISTED, 3, "c"), zero_right_transform(sampled(LISTED, 4, "z"))],
    ids=["sampled", "zero-right-sampled"],
)
def test_chunk_equals_arrow_at_on_its_eight_levels(system):
    cells = definition(system)
    for site in range(-7, 8):
        for q in range(4):
            levels = range(8 * q + 1, 8 * q + 9)
            want = [cells.arrow_at(site, level) for level in levels]
            words, limits = system.cell_words(site, q)
            assert len(words) == len(limits) == 8
            got = [RIGHT if a < limit else LEFT for a, limit in zip(words, limits)]
            assert all(a is b for a, b in zip(got, want)), (site, q)
            assert all(system.arrow_at(site, level) is a for level, a in zip(levels, want)), (site, q)
    with pytest.raises(ValueError):
        system.cell_words(0, -1)


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
    first queried.  It defines no `cell_words`, so it is walked arrow by
    arrow."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cells = {}

    def arrow_at(self, site, level):
        if (site, level) not in self.cells:
            self.cells[(site, level)] = self.rng.choice((LEFT, RIGHT))
        return self.cells[(site, level)]


def test_systems_without_chunks_are_walked_arrow_by_arrow():
    # Explicit systems, built or forced by a path, the envelope's, the
    # partition sides (which share one arrow rule) and order-dependent ones.
    path = run_walk(explicit(RIGHT, 5), 300).positions
    explicit_systems = [explicit(LEFT, 4), explicit(RIGHT, 5), ExplicitSystem.forced(path)]
    sides = [_build_pair(CampaignConfig(family, trials=1, horizon=50, seed=2), 0,
                         UniformField(2))[0].traj_l.system
             for family in ("block-family", "swap-chain")]
    assert [type(side) for side in sides] == [BlockSampledSystem, ChainEndSystem]
    assert BlockSampledSystem.arrow_at is ChainEndSystem.arrow_at
    eta = EtaSystem((0.9, 0.9), UniformField(1), "eta")
    for system in [*explicit_systems, *sides, eta, SequentialSystem(0)]:
        assert system.cell_words is None
        assert zero_right_transform(system).cell_words is None
    for transformed in (False, True):
        wrap = zero_right_transform if transformed else (lambda system: system)
        traj = run_walk(wrap(SequentialSystem(7)), 500)
        assert (traj.positions, traj.visit_counts) == reference_walk(wrap(SequentialSystem(7)), 500)
        for system in explicit_systems:
            traj = run_walk(wrap(system), 500)
            assert (traj.positions, traj.visit_counts) == reference_walk(wrap(system), 500)


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
    system = as_words(ExplicitSystem({0: "RL" * 20, 1: "L" * 20, -1: "R" * 20}, RIGHT))
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


def test_zero_right_walk_of_a_transformed_walk_leaves_its_system_unchanged(monkeypatch):
    # The path of a transformed system is all right excursions, so its return
    # walk runs on that same system, reuses every step and equals the walk;
    # the system holds nothing it did not hold before.
    handed = record_handed_over(monkeypatch)
    for system in (zero_right_transform(explicit(LEFT, 4)),
                   zero_right_transform(as_words(explicit(RIGHT, 5)))):
        traj = run_walk(system, 300)
        kept = dict(vars(system))
        got = zero_right_walk(traj)
        assert got.system is system and vars(system) == kept
        assert handed.pop()[0] == traj.positions
        assert (got.positions, got.visit_counts) == (traj.positions, traj.visit_counts)


def forced_walk(path):
    """`path` as `envelope_walk` leaves its adaptive side: walked, and
    carrying the system it forces."""
    traj = Trajectory.from_positions(path)
    traj.system = ExplicitSystem.forced(traj.positions)
    traj._walked = True
    return traj


def eager_return_walk(path, horizon):
    """The slow reference: the forced system built eagerly, then walked."""
    return run_walk(zero_right_transform(ExplicitSystem(consumed_stacks(path), LEFT)), horizon)


def test_zero_right_walk_of_a_forced_system_is_its_closed_form_to_length_twelve(monkeypatch):
    # Every unit-step path of length 0 to 12: the return walk is handed to
    # `run_walk` whole, and the forced system's stacks are never built.
    handed = record_handed_over(monkeypatch)
    paths = 0
    for length in range(13):
        for steps in itertools.product((-1, 1), repeat=length):
            path = list(itertools.accumulate(steps, initial=0))
            traj = forced_walk(path)
            got = zero_right_walk(traj)
            want = eager_return_walk(path, length)
            assert (got.positions, got.visit_counts) == (want.positions, want.visit_counts), path
            assert len(handed.pop()[0]) == length + 1 and got._walked
            assert "stacks" not in vars(traj.system)
            paths += 1
    assert paths == 2**13 - 1


def record_handed_over(monkeypatch):
    """The prefix and the visit counts that each return walk starts from,
    the `_start` of its `run_walk` call (the start at 0 when it has none),
    copied as they are when the walk starts."""
    handed = []
    walk = core.run_walk

    def record(system, horizon, _start=None):
        prefix, visits = _start or ([0], {0: 1})
        handed.append((list(prefix), dict(visits)))
        return walk(system, horizon, _start=_start)

    monkeypatch.setattr(core, "run_walk", record)
    return handed


def test_zero_right_walk_walks_the_rest_on_any_other_system(monkeypatch):
    # Each trajectory below is generated by its system, but the system is
    # not the one its very path forces, so the rest is walked.  The closed
    # form of the path's own forced system would be wrong on the first
    # three kinds; on the last two it happens to be right.
    handed = record_handed_over(monkeypatch)
    rng = random.Random(27)
    closed_form_wrong = Counter()
    walked = Counter()
    for _ in range(300):
        steps = [rng.choice((-1, 1)) for _ in range(rng.randint(1, 40))]
        path = list(itertools.accumulate(steps, initial=0))
        horizon = len(path) - 1
        forced = consumed_stacks(path)
        site = rng.randint(1, max(path) + 1)
        extra = {**forced, site: forced.get(site, []) + [RIGHT]}
        shared = Trajectory(path, dict(Counter(path)), ExplicitSystem.forced(path))
        copied = Trajectory(list(path), dict(Counter(path)), ExplicitSystem.forced(path))
        copied._walked = True
        cases = {
            "extra-right-arrow": run_walk(ExplicitSystem(extra, LEFT), horizon),
            "right-fill": run_walk(ExplicitSystem(forced, RIGHT), horizon),
            "forced-by-a-longer-path": run_walk(ExplicitSystem.forced(path), horizon // 2),
            "not-walked": shared,
            "another-list": copied,
        }
        for kind, traj in cases.items():
            got = zero_right_walk(traj)
            want = run_walk(zero_right_transform(traj.system), traj.horizon)
            assert (got.positions, got.visit_counts) == (want.positions, want.visit_counts), kind
            reused = _right_excursions(traj.positions)[0] if traj._walked else [0]
            assert handed.pop()[0] == reused, kind
            walked[kind] += len(reused) < traj.horizon + 1
            closed = zero_right_walk(forced_walk(traj.positions))
            closed_form_wrong[kind] += closed.positions != want.positions
    assert all(walked[kind] for kind in cases)
    assert all(closed_form_wrong[kind] for kind in list(cases)[:3])
    assert not any(closed_form_wrong[kind] for kind in list(cases)[3:])


@pytest.mark.parametrize("family", ["shared-uniform", "block-family", "swap-chain", "envelope",
                                    "explicit"])
def test_handed_over_counts_are_the_prefix_counts(family, monkeypatch):
    # Sampled, partition-side, eta and explicit systems: the counts each
    # return walk takes over are those `Counter` gives its prefix, and it
    # ends at the full re-walk.  Prefixes end at 0 and inside an excursion.
    handed = record_handed_over(monkeypatch)
    kinds = Counter()
    for seed in (0, 5):
        for horizon in (1, 2, 9, 60, 700):
            if family == "explicit":
                trajs = [run_walk(explicit(fill, seed + horizon), horizon) for fill in (LEFT, RIGHT)]
            else:
                config = CampaignConfig(family, trials=2, horizon=horizon, seed=seed)
                pairs = [_build_pair(config, trial, UniformField(seed))[0] for trial in range(2)]
                trajs = [traj for pair in pairs for traj in (pair.traj_l, pair.traj_r)]
            for traj in trajs:
                got = zero_right_walk(traj)
                prefix, visits = handed.pop()
                assert visits == dict(Counter(prefix))
                want = run_walk(zero_right_transform(traj.system), horizon)
                assert (got.positions, got.visit_counts) == (want.positions, want.visit_counts)
                ends = "at-0" if prefix[-1] == 0 else "mid-excursion"
                kinds[type(traj.system).__name__, ends] += 1
    names = {"shared-uniform": ["SampledCookieSystem"], "block-family": ["BlockSampledSystem"],
             "swap-chain": ["ChainEndSystem"], "envelope": ["ExplicitSystem", "EtaSystem"],
             "explicit": ["ExplicitSystem"]}[family]
    assert set(kinds) == {(name, ends) for name in names for ends in ("at-0", "mid-excursion")}


def test_handed_over_counts_of_the_closed_form_are_the_prefix_counts(monkeypatch):
    # Random paths of up to 40 steps on the system each forces: horizons
    # that cut the descent, that end it, and that cut the alternation at 1
    # and at 0, after prefixes that end at 0 and inside an excursion.
    handed = record_handed_over(monkeypatch)
    rng = random.Random(33)
    kinds = Counter()
    for _ in range(600):
        steps = [rng.choice((-1, 1, 1)) for _ in range(rng.randint(0, 40))]
        path = list(itertools.accumulate(steps, initial=0))
        traj = forced_walk(path)
        excursions = _right_excursions(path)[0]
        got = zero_right_walk(traj)
        prefix, visits = handed.pop()
        assert visits == dict(Counter(prefix)) and prefix == got.positions
        want = eager_return_walk(path, len(path) - 1)
        assert (got.positions, got.visit_counts) == (want.positions, want.visit_counts), path
        end, room = excursions[-1], len(path) - len(excursions)
        if room < end:
            cut = "descent"
        elif room == end:
            cut = "at-0-after-descent"
        else:
            cut = ("at-1", "at-0")[(room - end) % 2 == 0]
        kinds[cut, "at-0" if end == 0 else "mid-excursion"] += 1
    assert set(kinds) == {("descent", "mid-excursion"), ("at-0-after-descent", "mid-excursion"),
                          ("at-1", "mid-excursion"), ("at-0", "mid-excursion"),
                          ("at-0-after-descent", "at-0"), ("at-1", "at-0"), ("at-0", "at-0")}


@pytest.mark.parametrize("family", RETURN_FAMILIES)
def test_zero_right_walk_leaves_the_walk_it_reuses_as_it_was(family):
    # The return walk extends the prefix and the counts it starts from, so
    # those must be its own: on every return family, the envelope's forced
    # side and its closed form among them, the pair walk keeps its positions
    # and its counts, its sites left of 0 and its count at 0 included.
    for seed in (0, 5):
        for horizon in (1, 9, 60, 700):
            config = CampaignConfig(family, trials=2, horizon=horizon, seed=seed,
                                    **({"kmax": 3} if family == "ce1" else {}))
            field = UniformField(seed)
            for trial in range(config.effective_trials()):
                pair, _ = _build_pair(config, trial, field)
                for traj in (pair.traj_l, pair.traj_r):
                    kept = list(traj.positions), dict(traj.visit_counts)
                    got = zero_right_walk(traj)
                    assert (traj.positions, traj.visit_counts) == kept
                    assert got.positions is not traj.positions
                    assert got.visit_counts is not traj.visit_counts


def test_zero_right_walk_of_a_trajectory_without_a_system_is_refused():
    with pytest.raises(ValueError, match="carries no system"):
        zero_right_walk(Trajectory.from_positions([0, 1, 0]))


# A listed site and a default lane with eight different probabilities in
# their first chunk, and a tail of 0.37 from level 13 (listed) and level
# 11 (default) on.
BOUNDARY = CookieEnvironment(
    {3: tuple(0.05 + 0.075 * i for i in range(12))},
    tuple(0.93 - 0.085 * i for i in range(10)),
    0.37,
)


class AtZero(ArrowSystem):
    """The stack of `base` at `site`, placed at 0, where the walk reads it
    one level per visit: site 1 holds Lefts and site -1 Rights, so the walk
    is back at 0 after every second step, and step 2m + 1 takes level
    m + 1 of the stack."""

    def __init__(self, base, site):
        self.base = base
        self.site = site
        self.sides = as_words(ExplicitSystem({1: "L" * 40}, RIGHT))

    def arrow_at(self, site, level):
        if site == 0:
            return self.base.arrow_at(self.site, level)
        return self.sides.arrow_at(site, level)

    def cell_words(self, site, q):
        if site == 0:
            return self.base.cell_words(self.site, q)
        return self.sides.cell_words(site, q)


def walked_arrows(system, site, levels):
    """The arrows `run_walk` takes at `site` on `levels`, read off its steps."""
    positions = run_walk(AtZero(system, site), 2 * max(levels)).positions
    return tuple(RIGHT if positions[2 * level - 1] > 0 else LEFT for level in levels)


class MemoField:
    """The `value` of a field whose blocks are those a view's memo holds."""

    def __init__(self, view):
        self.view = view

    def value(self, stream, site, level):
        return self.view.value(site, level)


@pytest.mark.parametrize("site, q", [(3, 0), (3, 1), (-2, 0), (-2, 1), (-2, 2)],
                         ids=["listed-q0", "listed-q1", "default-q0", "default-q1", "tail-q2"])
def test_sampled_chunk_decides_at_each_limit_as_the_float_rule(site, q):
    # Every one of the eight words at its cell's limit - 1 (Right: u < p) or
    # at its limit (Left), in all 256 patterns, as the walk and `arrow_at`
    # decide them.  Random words never hit a limit exactly, so only words
    # made to do so tell `<` from `<=`, and tell the eight positions apart.
    levels = range(8 * q + 1, 8 * q + 9)
    limits = [_limit(BOUNDARY.prob(site, level)) for level in levels]
    for below in itertools.product((True, False), repeat=8):
        view = FieldStream(UniformField(0), "boundary")
        view._blocks[site, q] = tuple(lim - 1 if b else lim for lim, b in zip(limits, below))
        system = SampledCookieSystem(BOUNDARY, view)
        cells = CellSystem(BOUNDARY, MemoField(view), None)
        want = tuple(cells.arrow_at(site, level) for level in levels)
        assert want == tuple(RIGHT if b else LEFT for b in below)
        assert walked_arrows(system, site, levels) == want, below
        assert tuple(system.arrow_at(site, level) for level in levels) == want, below


class ListChunks(ArrowSystem):
    """A system handing out each chunk's words and limits as two lists that
    it keeps, and counting the chunks read."""

    def __init__(self, base):
        self.base = base
        self.handed = {}
        self.reads = Counter()

    def arrow_at(self, site, level):
        return self.base.arrow_at(site, level)

    def cell_words(self, site, q):
        self.reads[site, q] += 1
        got = self.handed.get((site, q))
        if got is None:
            got = self.handed[site, q] = tuple(map(list, self.base.cell_words(site, q)))
        return got


def test_walks_never_change_a_chunk_they_store():
    all_right, zeros = list(_ALL_RIGHT), list(_ZERO_WORDS)
    bases = [sampled(LISTED, 5, "keep"), sampled(cookie_env((0.5,)), 6, "keep"),
             as_words(explicit(LEFT, 7)), as_words(explicit(RIGHT, 8))]
    for base in bases:
        for wrap in (lambda system: system, zero_right_transform):
            lists = ListChunks(base)
            for system in (wrap(base), wrap(lists)):
                traj = run_walk(system, 3000)
                # Past level 8 at some site, so a stored chunk was run past.
                assert max(traj.visit_counts.values()) > 9
                assert (traj.positions, traj.visit_counts) == reference_walk(
                    definition(wrap(base)), 3000)
            # The walk read each chunk once and left each list it was handed
            # as it was; so does the return walk that resumes on them.
            assert set(lists.reads.values()) == {1}
            again = zero_right_walk(traj)
            assert (again.positions, again.visit_counts) == reference_walk(
                zero_right_transform(definition(base)), 3000)
            assert all(got == tuple(map(list, base.cell_words(site, q)))
                       for (site, q), got in lists.handed.items())
    assert (list(_ALL_RIGHT), list(_ZERO_WORDS)) == (all_right, zeros)
