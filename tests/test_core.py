"""Walk mechanics: arrow stacks, trajectories, occupation tables, the
bookkeeping identities, stack relations, and path admissibility."""

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowwalk import (
    paths_admit_preceq,
    run_walk,
    scan_identities,
    write_trajectory_csv,
)
from arrowwalk.core import (
    LEFT,
    RIGHT,
    Arrow,
    ExplicitSystem,
    RuleSystem,
    Trajectory,
    check_identities,
    check_relation,
    constant_system,
    consumed_stacks,
    mirror_system,
    occupation,
    parse_system,
    stack_counts,
    validate_path,
    zero_right_transform,
)
from arrowwalk.counterexamples import Ce1LeftSystem


# ---------------------------------------------------------------------------
# strategies and helpers

ARROWS = st.sampled_from((LEFT, RIGHT))


@st.composite
def explicit_systems(draw):
    sites = draw(st.lists(st.integers(-4, 4), unique=True, max_size=6))
    stacks = {
        s: tuple(draw(st.lists(ARROWS, min_size=1, max_size=6))) for s in sites
    }
    fill = draw(ARROWS)
    return ExplicitSystem(stacks, default_fill=fill)


@st.composite
def paths(draw, max_len=50):
    steps = draw(st.lists(st.sampled_from((1, -1)), max_size=max_len))
    return [0] + list(itertools.accumulate(steps))


def left_prefix(column):
    return list(itertools.accumulate(1 if a is LEFT else 0 for a in column))


# ---------------------------------------------------------------------------
# arrows and systems

def test_arrow_roundtrip():
    assert Arrow.from_char("L") is LEFT
    assert Arrow.from_char("R") is RIGHT
    assert LEFT.char == "L" and RIGHT.char == "R"
    assert LEFT.flipped() is RIGHT and RIGHT.flipped() is LEFT
    with pytest.raises(ValueError):
        Arrow.from_char("x")


def test_explicit_system_stacks_and_fill():
    sys_ = ExplicitSystem({0: "RRL", 1: "LL"}, default_fill=RIGHT, fill={1: LEFT})
    assert [sys_.arrow_at(0, k) for k in (1, 2, 3, 4)] == [RIGHT, RIGHT, LEFT, RIGHT]
    assert sys_.arrow_at(1, 2) is LEFT
    assert sys_.arrow_at(1, 9) is LEFT  # per-site fill wins over the default
    assert sys_.arrow_at(5, 1) is RIGHT  # untouched site, default fill
    with pytest.raises(ValueError):
        sys_.arrow_at(0, 0)


def test_constant_and_rule_systems():
    assert run_walk(constant_system(RIGHT), 5).positions == [0, 1, 2, 3, 4, 5]
    alternating = RuleSystem(lambda x, k: LEFT if k % 2 == 0 else RIGHT)
    assert alternating.arrow_at(7, 1) is RIGHT
    assert alternating.arrow_at(7, 2) is LEFT


# ---------------------------------------------------------------------------
# stack counts

def test_stack_counts_all_right():
    assert stack_counts(constant_system(RIGHT), 5, 4) == (0, 4)


def test_stack_counts_marker_system_site_one():
    # positive sites hold L at levels 1 and 2, R above
    assert stack_counts(Ce1LeftSystem(), 1, 5) == (2, 3)


def test_stack_counts_depth_zero():
    assert stack_counts(constant_system(LEFT), 0, 0) == (0, 0)


@given(explicit_systems(), st.integers(-4, 4))
def test_stack_counts_increments(sys_, site):
    prev = (0, 0)
    for depth in range(1, 10):
        lefts, rights = stack_counts(sys_, site, depth)
        assert lefts + rights == depth
        assert (lefts - prev[0], rights - prev[1]) in ((0, 1), (1, 0))
        prev = (lefts, rights)


# ---------------------------------------------------------------------------
# walks and trajectories

def test_run_walk_marker_left_prefix():
    got = run_walk(Ce1LeftSystem(), 10).positions
    assert got == [0, 1, 0, 1, 0, 1, 2, 1, 2, 1, 2]


def test_run_walk_marker_left_speed_one_fifth():
    traj = run_walk(Ce1LeftSystem(), 1000)
    for k in range(201):
        assert traj.positions[5 * k] == k


def test_run_walk_rejects_negative_horizon():
    with pytest.raises(ValueError):
        run_walk(constant_system(RIGHT), -1)


def test_trajectory_from_positions_validates():
    traj = Trajectory.from_positions([0, 1, 2, 1])
    assert traj.horizon == 3
    assert traj.visit_counts == {0: 1, 1: 2, 2: 1}
    with pytest.raises(ValueError):
        Trajectory.from_positions([1, 2])
    with pytest.raises(ValueError):
        Trajectory.from_positions([0, 2])
    with pytest.raises(ValueError):
        Trajectory.from_positions([0, 1, 1])


@given(paths())
def test_validate_path_accepts_unit_steps(path):
    validate_path(path)
    counts = Trajectory.from_positions(path).visit_counts
    for site in set(path):
        assert counts[site] == path.count(site)


# ---------------------------------------------------------------------------
# occupation tables

def test_occupation_straight_path():
    table = occupation(Trajectory.from_positions([0, 1, 2, 3]))
    assert table.t == 3
    assert table.node_counts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert table.edge_counts == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_occupation_marker_left_at_ten():
    table = occupation(run_walk(Ce1LeftSystem(), 10), t=10)
    assert table.node_counts[1] == 5
    assert table.node_counts[0] == 3
    assert table.node_counts[2] == 3


def test_occupation_time_out_of_range():
    traj = Trajectory.from_positions([0, 1])
    with pytest.raises(ValueError):
        occupation(traj, t=2)


@given(paths(), st.data())
def test_occupation_totals(path, data):
    traj = Trajectory.from_positions(path)
    t = data.draw(st.integers(0, traj.horizon))
    table = occupation(traj, t)
    assert sum(table.node_counts.values()) == t + 1
    assert sum(table.edge_counts.values()) == t
    assert all(abs(site) <= t for site in table.node_counts)


# ---------------------------------------------------------------------------
# bookkeeping identities

def test_identities_hand_path():
    report = check_identities(Trajectory.from_positions([0, 1, 2]))
    assert report.passed
    assert set(report.ok) == {
        "steps", "arrivals", "departures", "total", "used_right", "used_left",
        "reciprocity",
    }


def test_identities_flag_corrupted_paths():
    bad = Trajectory([0, 1, 1], {0: 1, 1: 2})
    report = check_identities(bad)
    assert not report.passed
    assert report.first_failure() is not None

    jump = Trajectory([0, 1, 3], {0: 1, 1: 1, 3: 1})
    assert not check_identities(jump).passed


def test_identities_expose_system_mismatch():
    # a straight-right walk never consumes Left arrows, so pinning the marker
    # system to it breaks the used-arrow identities
    traj = run_walk(constant_system(RIGHT), 10)
    forged = Trajectory(traj.positions, traj.visit_counts, system=Ce1LeftSystem())
    report = check_identities(forged)
    assert not report.ok["used_right"] or not report.ok["used_left"]


@given(explicit_systems(), st.integers(0, 80), st.data())
def test_identities_hold_on_real_walks(sys_, horizon, data):
    traj = run_walk(sys_, horizon)
    t = data.draw(st.integers(0, horizon))
    assert check_identities(traj, t).passed


@settings(deadline=None)
@given(explicit_systems(), st.integers(0, 60))
def test_scan_matches_full_recompute(sys_, horizon):
    traj = run_walk(sys_, horizon)
    report = scan_identities(traj)
    assert report.passed
    assert report.t == horizon
    for t in range(horizon + 1):
        assert check_identities(traj, t).passed


@given(paths(max_len=40), st.data())
def test_scan_first_failure_time_matches_oracle(path, data):
    # corrupt one position and compare the scan's failure time against a
    # full recompute at every t
    if len(path) < 3:
        return
    i = data.draw(st.integers(1, len(path) - 1))
    bump = data.draw(st.sampled_from((2, 3, -2)))
    corrupted = list(path)
    corrupted[i] += bump
    traj = Trajectory(corrupted, Trajectory.from_positions(path).visit_counts)
    scan = scan_identities(traj)
    full_first = next(
        (t for t in range(len(corrupted)) if not check_identities(traj, t).passed),
        None,
    )
    if full_first is None:
        assert scan.passed
    else:
        assert not scan.passed
        assert scan.t == full_first


# ---------------------------------------------------------------------------
# stack relations

@given(explicit_systems(), st.sampled_from(("preceq", "trileq")))
def test_relation_reflexive(sys_, mode):
    assert check_relation(sys_, sys_, range(-4, 5), 8, mode).holds


def test_relation_witness_is_first_violation():
    sys_r = constant_system(RIGHT)
    sys_l = ExplicitSystem({0: (LEFT,)}, default_fill=RIGHT)
    # sys_l has the extra Left, so it sits on the small side: the reversed
    # comparison violates at the first cell
    assert check_relation(sys_l, sys_r, range(-2, 3), 4, "trileq").holds
    res = check_relation(sys_r, sys_l, range(-2, 3), 4, "trileq")
    assert not res.holds
    assert res.witness == (0, 1)


def test_relation_validates_inputs():
    sys_ = constant_system(RIGHT)
    with pytest.raises(ValueError):
        check_relation(sys_, sys_, range(3), 0)
    with pytest.raises(ValueError):
        check_relation(sys_, sys_, range(3), 4, "weird")


@given(explicit_systems(), st.data())
def test_trileq_implies_preceq(sys_r, data):
    # turning some Rights to Lefts cell by cell lands trileq-below by
    # construction; preceq must follow
    stacks = {}
    for site in range(-3, 4):
        col = []
        for level in range(1, 7):
            a = sys_r.arrow_at(site, level)
            if a is RIGHT and data.draw(st.booleans()):
                a = LEFT
            col.append(a)
        stacks[site] = tuple(col)
    sys_l = ExplicitSystem(stacks, default_fill=LEFT)
    window = range(-3, 4)
    if check_relation(sys_l, sys_r, window, 6, "trileq").holds:
        assert check_relation(sys_l, sys_r, window, 6, "preceq").holds


@given(explicit_systems(), explicit_systems())
def test_mirror_reverses_preceq(sys_a, sys_b):
    window = range(-4, 5)
    if check_relation(sys_a, sys_b, window, 6, "preceq").holds:
        assert check_relation(
            mirror_system(sys_b), mirror_system(sys_a), window, 6, "preceq"
        ).holds


# ---------------------------------------------------------------------------
# transforms

def test_mirror_walk_is_negated():
    assert run_walk(mirror_system(constant_system(RIGHT)), 4).positions == [
        0, -1, -2, -3, -4,
    ]


@given(explicit_systems(), st.integers(0, 60))
def test_mirror_negates_any_walk(sys_, horizon):
    straight = run_walk(sys_, horizon).positions
    flipped = run_walk(mirror_system(sys_), horizon).positions
    assert flipped == [-p for p in straight]


@given(explicit_systems())
def test_mirror_is_an_involution(sys_):
    back = mirror_system(mirror_system(sys_))
    for site in range(-4, 5):
        for level in range(1, 7):
            assert back.arrow_at(site, level) is sys_.arrow_at(site, level)


def test_zero_right_all_left_oscillates():
    transformed = zero_right_transform(constant_system(LEFT))
    assert run_walk(transformed, 6).positions == [0, 1, 0, 1, 0, 1, 0]


def test_zero_right_idempotent():
    once = zero_right_transform(constant_system(LEFT))
    assert zero_right_transform(once) is once


@given(explicit_systems(), st.integers(0, 100))
def test_zero_right_walk_never_negative(sys_, horizon):
    traj = run_walk(zero_right_transform(sys_), horizon)
    assert min(traj.positions) >= 0


@given(explicit_systems())
def test_zero_right_changes_only_the_origin(sys_):
    transformed = zero_right_transform(sys_)
    for site in range(-4, 5):
        for level in range(1, 7):
            if site == 0:
                assert transformed.arrow_at(site, level) is RIGHT
            else:
                assert transformed.arrow_at(site, level) is sys_.arrow_at(site, level)


# ---------------------------------------------------------------------------
# consumed stacks and admissibility

def test_consumed_stacks_orders_departures():
    assert consumed_stacks([0, 1, 0, 1, 2]) == {
        0: [RIGHT, RIGHT],
        1: [LEFT, RIGHT],
    }


def test_paths_admit_preceq_equal_paths():
    path = [0, 1, 2, 1, 0, -1]
    assert paths_admit_preceq(path, path).admits


def test_paths_admit_preceq_simple_violation():
    decision = paths_admit_preceq([0, 1], [0, -1])
    assert not decision.admits
    assert decision.violations == {0: 1}
    assert not decision  # truthiness mirrors .admits


def _site_admits_by_enumeration(forced_l, forced_r, memo):
    """Brute force: try every completion of both forced columns a couple of
    levels past the forced heights and look for one where the left column's
    Left-count prefix dominates."""
    key = (forced_l, forced_r)
    hit = memo.get(key)
    if hit is not None:
        return hit
    height = max(len(forced_l), len(forced_r)) + 2
    free_l = height - len(forced_l)
    free_r = height - len(forced_r)
    found = False
    for bits_l in range(1 << free_l):
        col_l = forced_l + tuple(
            LEFT if bits_l >> i & 1 else RIGHT for i in range(free_l)
        )
        pref_l = left_prefix(col_l)
        for bits_r in range(1 << free_r):
            col_r = forced_r + tuple(
                LEFT if bits_r >> i & 1 else RIGHT for i in range(free_r)
            )
            if all(pl >= pr for pl, pr in zip(pref_l, left_prefix(col_r))):
                found = True
                break
        if found:
            break
    memo[key] = found
    return found


def _all_paths(max_len):
    out = [[0]]
    frontier = [[0]]
    for _ in range(max_len):
        frontier = [p + [p[-1] + s] for p in frontier for s in (1, -1)]
        out.extend(frontier)
    return out


def test_paths_admit_preceq_exhaustive_to_length_eight():
    memo = {}
    all_paths = _all_paths(8)
    forced = [
        {s: tuple(v) for s, v in consumed_stacks(p).items()} for p in all_paths
    ]
    for fl, path_l in zip(forced, all_paths):
        for fr, path_r in zip(forced, all_paths):
            expected = all(
                _site_admits_by_enumeration(fl.get(s, ()), fr.get(s, ()), memo)
                for s in set(fl) | set(fr)
            )
            assert paths_admit_preceq(path_l, path_r).admits == expected, (
                path_l, path_r,
            )


@given(paths(max_len=20), paths(max_len=20))
def test_paths_admit_preceq_matches_enumeration(path_l, path_r):
    memo = {}
    fl = {s: tuple(v) for s, v in consumed_stacks(path_l).items()}
    fr = {s: tuple(v) for s, v in consumed_stacks(path_r).items()}
    expected = all(
        _site_admits_by_enumeration(fl.get(s, ()), fr.get(s, ()), memo)
        for s in set(fl) | set(fr)
    )
    assert paths_admit_preceq(path_l, path_r).admits == expected


# ---------------------------------------------------------------------------
# serialization

def test_parse_system_explicit_roundtrip():
    sys_ = parse_system(
        {"kind": "explicit", "stacks": {"0": "RRL", "-1": "L"}, "fill": "R"}
    )
    assert sys_.arrow_at(0, 3) is LEFT
    assert sys_.arrow_at(-1, 1) is LEFT
    assert sys_.arrow_at(3, 1) is RIGHT


def test_parse_system_named_kinds():
    left = parse_system({"kind": "ce1-L"})
    right = parse_system({"kind": "ce1-R", "N": 3})
    assert run_walk(left, 5).positions == [0, 1, 0, 1, 0, 1]
    assert right.arrow_at(3, 1) is LEFT  # first marker site
    with pytest.raises(ValueError):
        parse_system({"kind": "mystery"})


def test_write_trajectory_csv_format():
    buf = io.StringIO()
    write_trajectory_csv(Trajectory.from_positions([0, 1, 0]), buf)
    assert buf.getvalue() == "n,pos\n0,0\n1,1\n2,0\n"
