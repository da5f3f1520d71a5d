"""Statement checkers on coupled path pairs, validated against a reference
that recomputes every statement from scratch at every time."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowwalk import (
    STATEMENT_IDS,
    UniformField,
    build_ce1,
    build_ce2,
    check_pair,
    cookie_env,
    shared_pair,
)
from arrowwalk.core import (
    LEFT,
    RIGHT,
    ExplicitSystem,
    Trajectory,
    check_relation,
    consumed_stacks,
)
from arrowwalk.verify import CoupledPair, PairChecker, make_pair

# checks whose conclusion never needs a hypothesis, so they are never vacuous
ALWAYS_LIVE = {"envelopes", "max_visits"}


@st.composite
def paths(draw, max_len=50):
    steps = draw(st.lists(st.sampled_from((1, -1)), max_size=max_len))
    return [0] + list(itertools.accumulate(steps))


@st.composite
def path_pairs(draw, max_len=50):
    n = draw(st.integers(0, max_len))
    steps_l = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    steps_r = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return (
        [0] + list(itertools.accumulate(steps_l)),
        [0] + list(itertools.accumulate(steps_r)),
    )


# ---------------------------------------------------------------------------
# reference checker: no incremental state, just brute recomputation

def _counts(pos, t):
    return Counter(pos[: t + 1])


def _diff(pos_l, pos_r, t):
    cl, cr = _counts(pos_l, t), _counts(pos_r, t)
    return {x: cr.get(x, 0) - cl.get(x, 0) for x in set(cl) | set(cr)}


def reference_hitting_order(pos_l, pos_r):
    """(passed, failing_t, hypothesis_fired, failing site) of hitting_order,
    from the first hitting time of every site."""
    first_l, first_r = {}, {}
    hyp = False
    for t, (a, b) in enumerate(zip(pos_l, pos_r)):
        new_l = a not in first_l
        if new_l:
            first_l[a] = t
        new_r = b not in first_r
        if new_r:
            first_r[b] = t
        if new_l and a > 0:
            hyp = True
            if a not in first_r:
                return False, t, hyp, a
        if new_r and b < 0:
            hyp = True
            if b not in first_l:
                return False, t, hyp, b
    return True, None, hyp, None


def reference_results(pos_l, pos_r):
    """Map check id -> (passed, failing_t, hypothesis_fired)."""
    horizon = len(pos_l) - 1
    out = {}

    fail_t = None
    for t in range(horizon + 1):
        if (
            max(pos_r[: t + 1]) < max(pos_l[: t + 1])
            or min(pos_r[: t + 1]) < min(pos_l[: t + 1])
        ):
            fail_t = t
            break
    out["envelopes"] = (fail_t is None, fail_t, True)

    out["hitting_order"] = reference_hitting_order(pos_l, pos_r)[:3]

    fail_t = None
    hyp = False
    for t in range(horizon + 1):
        diff = _diff(pos_l, pos_r, t)
        plus = [x for x, d in diff.items() if d > 0]
        minus = [x for x, d in diff.items() if d < 0]
        if plus:
            hyp = True
        if fail_t is None and plus and minus and min(plus) < max(minus):
            fail_t = t
    out["count_dominance"] = (fail_t is None, fail_t, hyp)

    fail_t = None
    for t in range(horizon + 1):
        cl, cr = _counts(pos_l, t), _counts(pos_r, t)
        top = max(pos_r[: t + 1])
        bottom = min(pos_l[: t + 1])
        if cr.get(top, 0) < cl.get(top, 0) or cl.get(bottom, 0) < cr.get(bottom, 0):
            fail_t = t
            break
    out["max_visits"] = (fail_t is None, fail_t, True)

    fail_t = None
    hyp = False
    for t in range(horizon + 1):
        diff = _diff(pos_l, pos_r, t)
        if any(d > 0 for d in diff.values()):
            hyp = True
        bad = any(
            diff.get(x - 1, 0) > 0 and diff.get(x, 0) < 0
            for x in range(min(diff) - 1, max(diff) + 2)
        )
        a, b = pos_l[t], pos_r[t]
        if not bad and b < a:
            qualifying = [y for y in range(b, a) if diff.get(y, 0) > 0]
            if qualifying:
                hyp = True
                y0 = min(qualifying)
                bad = any(diff.get(z, 0) < 0 for z in range(y0 + 1, a + 1))
        if fail_t is None and bad:
            fail_t = t
    out["neighbour_interval"] = (fail_t is None, fail_t, hyp)

    hyp = False
    visits_l: dict[int, list[int]] = {}
    visits_r: dict[int, list[int]] = {}
    for t, x in enumerate(pos_l):
        visits_l.setdefault(x, []).append(t)
    for t, x in enumerate(pos_r):
        visits_r.setdefault(x, []).append(t)
    failing = []
    for x in set(visits_l) & set(visits_r):
        tl, tr = visits_l[x], visits_r[x]
        for k in range(min(len(tl), len(tr))):
            hyp = True
            saw_l = pos_l[: tl[k] + 1].count(x - 1)
            saw_r = pos_r[: tr[k] + 1].count(x - 1)
            if saw_r > saw_l:
                failing.append(max(tl[k], tr[k]))
    fail_t = min(failing) if failing else None
    out["kth_visit_counts"] = (fail_t is None, fail_t, hyp)

    fail_t = None
    hyp = False
    for t in range(1, horizon + 1):
        a, b = pos_l[t], pos_r[t]
        if b > max(pos_r[:t]):
            hyp = True
            if b < a:
                fail_t = t
                break
        if a < min(pos_l[:t]):
            hyp = True
            if a > b:
                fail_t = t
                break
    out["record_lead"] = (fail_t is None, fail_t, hyp)

    return out


def assert_matches_reference(pos_l, pos_r):
    results = PairChecker(pos_l, pos_r).run()
    reference = reference_results(pos_l, pos_r)
    for name, res in results.items():
        passed, fail_t, hyp = reference[name]
        assert res.passed == passed, (name, res.witness)
        if passed:
            expect_vacuous = False if name in ALWAYS_LIVE else not hyp
            assert res.vacuous == expect_vacuous, name
        else:
            assert res.witness["t"] == fail_t, (name, res.witness)


# ---------------------------------------------------------------------------
# hand-built pairs where a single statement must fail

BROKEN_PAIRS = {
    "envelopes": ([0, 1], [0, -1]),
    "hitting_order": ([0, 1], [0, -1]),
    "count_dominance": ([0, 1, 2, 1, 2], [0, -1, 0, -1, 0]),
    "max_visits": ([0, 1, 0, 1], [0, 1, 0, -1]),
    "neighbour_interval": ([0, 1, 2, 3, 2], [0, -1, 0, -1, 0]),
    "kth_visit_counts": ([0, 1, 0, 1], [0, -1, 0, 1]),
    "record_lead": ([0, 1, 2, 3, 4], [0, -1, 0, 1, 2]),
}


@pytest.mark.parametrize("check", sorted(BROKEN_PAIRS))
def test_broken_pair_fails_its_check(check):
    pos_l, pos_r = BROKEN_PAIRS[check]
    res = PairChecker(pos_l, pos_r, checks=(check,)).run()[check]
    assert not res.passed
    assert not res.vacuous
    assert res.witness is not None and "t" in res.witness
    assert_matches_reference(pos_l, pos_r)


def test_all_statement_ids_have_a_broken_pair():
    assert set(BROKEN_PAIRS) == set(STATEMENT_IDS)


# ---------------------------------------------------------------------------
# agreement with the reference on arbitrary pairs

@settings(deadline=None, max_examples=300)
@given(path_pairs())
def test_checker_matches_reference_on_random_pairs(pair):
    assert_matches_reference(*pair)


def all_paths(length):
    """Every unit-step path from 0 with `length` steps."""
    for steps in itertools.product((1, -1), repeat=length):
        yield [0, *itertools.accumulate(steps)]


def all_path_pairs(max_len):
    """Every pair of equal-length paths with at most `max_len` steps."""
    for length in range(max_len + 1):
        paths_n = list(all_paths(length))
        yield from itertools.product(paths_n, repeat=2)


def test_checker_matches_reference_on_every_pair_to_length_six():
    count = 0
    for pos_l, pos_r in all_path_pairs(6):
        assert_matches_reference(pos_l, pos_r)
        count += 1
    assert count == 5461


def test_hitting_order_and_envelopes_fail_together_to_length_eight():
    # On unit-step paths from 0 the sites hit are those between the running
    # extremes, so "L hits a positive site first" is "L's running max pulls
    # ahead of R's", and likewise at the minimum: the checker reads
    # hitting_order off the envelope comparison, and the first hitting
    # times of every site must agree with it.
    count = 0
    for pos_l, pos_r in all_path_pairs(8):
        res = PairChecker(pos_l, pos_r, ("envelopes", "hitting_order")).run()
        env, hit = res["envelopes"], res["hitting_order"]
        passed, fail_t, hyp, x = reference_hitting_order(pos_l, pos_r)
        assert env.passed == hit.passed == passed, (pos_l, pos_r)
        if passed:
            assert hit.vacuous == (not hyp), (pos_l, pos_r)
        else:
            assert env.witness["t"] == hit.witness["t"] == fail_t, (pos_l, pos_r)
            assert hit.witness["x"] == x, (pos_l, pos_r)
        count += 1
    assert count == 87381


def test_every_order_admitted_pair_passes_every_check_to_length_eight():
    # A pair is admitted when some systems in the order generate its two
    # paths: the relation holds on the paths' favourable completions, the
    # decision of `paths_admit_preceq` (pinned against enumeration in
    # test_core), here with each path's completions built once.  A blind
    # spot is a pair no preceq-ordered systems generate that still passes
    # all seven checks.
    blind_spots = []
    for length in range(1, 9):
        paths_n = list(all_paths(length))
        completions = []
        for path in paths_n:
            forced = consumed_stacks(path)
            completions.append((ExplicitSystem(forced, LEFT), ExplicitSystem(forced, RIGHT), set(forced)))
        blind = preceq_count = trileq_count = 0
        for (pos_l, (sys_l, _, sites_l)), (pos_r, (_, sys_r, sites_r)) in itertools.product(
            zip(paths_n, completions), repeat=2
        ):
            preceq, trileq = (
                check_relation(sys_l, sys_r, sites_l | sites_r, length, mode).holds
                for mode in ("preceq", "trileq")
            )
            assert preceq or not trileq, (pos_l, pos_r)
            passes = all(r.passed for r in PairChecker(pos_l, pos_r).run().values())
            assert passes or not preceq, (pos_l, pos_r)
            preceq_count += preceq
            trileq_count += trileq
            blind += passes and not preceq
        blind_spots.append(blind)
    assert (preceq_count, trileq_count) == (24563, 23200)
    assert blind_spots == [0, 0, 0, 1, 4, 28, 112, 573]


@settings(deadline=None, max_examples=300)
@given(path_pairs())
def test_single_check_matches_full_run(pair):
    # a statement run alone keeps only its own state, yet must give its
    # result in the full run, witness and vacuity included
    full = PairChecker(*pair).run()
    for name in STATEMENT_IDS:
        assert PairChecker(*pair, (name,)).run()[name] == full[name]


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 1.0),
    st.floats(0.0, 0.5),
    st.integers(10, 120),
)
def test_checker_matches_reference_on_coupled_pairs(seed, hi, gap, horizon):
    lo = max(hi - gap, 0.0)
    pair = shared_pair(
        cookie_env((lo, lo)), cookie_env((hi, hi)), UniformField(seed), horizon
    )
    results = check_pair(pair)
    assert all(r.passed for r in results.values())
    assert_matches_reference(pair.traj_l.positions, pair.traj_r.positions)


def test_identical_paths_pass_with_expected_vacuity():
    path = [0, 1, 2, 1, 2, 3]
    results = PairChecker(path, path).run()
    assert all(r.passed for r in results.values())
    assert not results["envelopes"].vacuous
    assert not results["max_visits"].vacuous
    assert not results["hitting_order"].vacuous  # both walks reach site 1
    assert not results["kth_visit_counts"].vacuous
    assert not results["record_lead"].vacuous  # every new max is a record
    assert results["count_dominance"].vacuous  # counts never differ
    assert results["neighbour_interval"].vacuous


def test_vacuous_hitting_order():
    res = PairChecker([0, -1, 0], [0, 1, 0], checks=("hitting_order",)).run()
    assert res["hitting_order"].passed
    assert res["hitting_order"].vacuous


def test_vacuous_record_lead():
    res = PairChecker([0, 1, 2], [0, -1, -2], checks=("record_lead",)).run()
    assert res["record_lead"].passed
    assert res["record_lead"].vacuous


# ---------------------------------------------------------------------------
# pair construction and the checker surface

def test_coupled_pair_validates_shapes():
    short = Trajectory.from_positions([0, 1])
    longer = Trajectory.from_positions([0, 1, 2])
    with pytest.raises(ValueError):
        CoupledPair(short, longer)
    with pytest.raises(ValueError):
        CoupledPair(
            Trajectory([1, 2], {1: 1, 2: 1}),
            Trajectory([1, 2], {1: 1, 2: 1}),
        )
    with pytest.raises(ValueError):
        CoupledPair(short, short, relation_mode="nope")


def test_pair_checker_validates_inputs():
    with pytest.raises(ValueError):
        PairChecker([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        PairChecker([0, 1], [0, 1], checks=("envelopes", "imaginary"))
    with pytest.raises(ValueError):
        PairChecker([0, 2], [0, 1])


def test_check_subset_returns_only_requested():
    res = PairChecker([0, 1], [0, 1], checks=("envelopes", "record_lead")).run()
    assert set(res) == {"envelopes", "record_lead"}


def test_make_pair_runs_both_walks():
    pair = make_pair(ExplicitSystem({}, "L"), ExplicitSystem({}, "R"), 6)
    assert pair.traj_l.positions[-1] == -6
    assert pair.traj_r.positions[-1] == 6
    assert pair.horizon == 6


def test_verify_result_to_dict():
    pair = make_pair(ExplicitSystem({}, "R"), ExplicitSystem({}, "R"), 4)
    d = check_pair(pair, ("envelopes",))["envelopes"].to_dict()
    assert d == {
        "statement": "envelopes",
        "passed": True,
        "vacuous": False,
        "witness": None,
    }


def test_single_verifier_wrappers_agree_with_checker():
    pair = make_pair(*build_ce1(), 400, relation_mode="trileq")
    combined = check_pair(pair)
    for name in STATEMENT_IDS:
        res = check_pair(pair, (name,))[name]
        assert res.statement == name
        assert res.passed == combined[name].passed
        assert res.passed


# ---------------------------------------------------------------------------
# the two constructed pairs from the counterexample module

def test_marker_pair_hitting_times_and_checks():
    sys_l, sys_r = build_ce1()
    pair = make_pair(sys_l, sys_r, 600, relation_mode="trileq")
    assert pair.traj_r.positions.index(3) == 3
    assert pair.traj_l.positions.index(3) == 11
    assert all(r.passed for r in check_pair(pair).values())
    assert_matches_reference(pair.traj_l.positions, pair.traj_r.positions)


def test_trailing_pair_checks_pass():
    pair = build_ce2()
    assert all(r.passed for r in check_pair(pair).values())
    assert_matches_reference(pair.traj_l.positions, pair.traj_r.positions)
