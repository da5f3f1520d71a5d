"""The two hand-built extreme pairs: exact milestone values for the marker
systems and exact lead counts for the trailing pair."""

import io
from fractions import Fraction
from itertools import islice

import pytest

from arrowwalk import (
    build_ce1,
    build_ce2,
    ce1_milestones,
    lead_sets,
    observe_ce1_milestones,
    paths_admit_preceq,
)
from arrowwalk.core import LEFT, RIGHT
from arrowwalk.counterexamples import (
    CE2_LEFT_PATH,
    CE2_RIGHT_PATH,
    Ce1LeftSystem,
    Ce1RightSystem,
    marker_sites,
)
from reference import check_relation, occupation

# closed forms for n=3: x_k, first-hit t_k = x_k + 2 x_{k-1}, last-exit
# s_k = 2 x_k + x_{k-1}
X3 = [3, 10, 30, 91, 273, 820, 2460, 7381]
T3 = [3, 16, 50, 151, 455, 1366, 4100, 12301]
S3 = [6, 23, 70, 212, 637, 1913, 5740, 17222]


# ---------------------------------------------------------------------------
# marker pair

def reference_marker_site(n, k):
    """x_k as a double sum: sum_{m=1..k} n^m minus
    sum_{m=1..k-1} sum_{r=0..m} (-1)^(m-r) n^r."""
    total = sum(n**m for m in range(1, k + 1))
    for m in range(1, k):
        total -= sum((-1) ** (m - r) * n**r for r in range(m + 1))
    return total


def test_marker_site_table():
    assert list(islice(marker_sites(3), 8)) == X3
    assert next(marker_sites(4)) == 4
    assert next(marker_sites(2)) == 2


@pytest.mark.parametrize("n", [*range(2, 13), 10**6])
def test_marker_sites_match_the_double_sum(n):
    assert list(islice(marker_sites(n), 30)) == [
        reference_marker_site(n, k) for k in range(1, 31)
    ]


def test_left_system_stack_shape():
    sys_l = Ce1LeftSystem()
    for site in (1, 2, 3, 17):
        assert sys_l.arrow_at(site, 1) is LEFT
        assert sys_l.arrow_at(site, 2) is LEFT
        assert sys_l.arrow_at(site, 3) is RIGHT
    assert sys_l.arrow_at(0, 1) is RIGHT
    assert sys_l.arrow_at(-2, 1) is RIGHT


def test_right_system_marks_only_marker_sites():
    sys_r = Ce1RightSystem(3)
    assert sys_r.arrow_at(3, 1) is LEFT
    assert sys_r.arrow_at(3, 2) is RIGHT
    assert sys_r.arrow_at(4, 1) is RIGHT
    assert sys_r.arrow_at(4, 2) is LEFT
    assert sys_r.arrow_at(-1, 1) is RIGHT


def test_build_ce1_rejects_tiny_spacing():
    with pytest.raises(ValueError):
        build_ce1(2)
    assert Ce1RightSystem(2).arrow_at(2, 1) is LEFT
    with pytest.raises(ValueError):
        Ce1RightSystem(1)


def test_marker_pair_is_cellwise_ordered():
    sys_l, sys_r = build_ce1()
    assert check_relation(sys_l, sys_r, range(-5, 40), 12, "trileq").holds


def test_milestone_closed_forms():
    miles = ce1_milestones(3, 8)
    assert miles.sites == X3
    assert miles.first_hits == T3
    assert miles.last_exits == S3
    assert miles.kmax == 8
    assert miles.first_hits[0] == miles.sites[0] == 3
    for seq in (miles.sites, miles.first_hits, miles.last_exits):
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_milestone_ratio_limits():
    miles = ce1_milestones(3, 8)
    assert miles.limit_hi == pytest.approx(3 / 5)
    assert miles.limit_lo == pytest.approx(1 / 7)
    assert miles.ratio_hi[-1] == pytest.approx(3 / 5, abs=0.05)
    assert miles.ratio_lo[-1] == pytest.approx(1 / 7, abs=0.05)
    assert miles.ratio_hi == [x / t for x, t in zip(X3, T3)]
    assert miles.ratio_lo == [x / s for x, s in zip([0] + X3, S3)]


def test_milestones_match_simulation():
    miles = ce1_milestones(3, 6)
    observed = observe_ce1_milestones(3, 6, horizon=miles.pass_time)
    assert observed.sites == miles.sites
    assert observed.first_hits == miles.first_hits
    assert observed.last_exits == miles.last_exits


def test_observe_requires_walk_past_last_marker():
    with pytest.raises(ValueError):
        observe_ce1_milestones(3, 6, horizon=ce1_milestones(3, 6).first_hits[-1])


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("kmax", [1, 3, 5])
def test_pass_time_is_the_shortest_horizon_the_simulation_accepts(n, kmax):
    miles = ce1_milestones(n, kmax)
    assert miles.pass_time == 3 * miles.sites[-1] + 1
    with pytest.raises(ValueError):
        observe_ce1_milestones(n, kmax, horizon=miles.pass_time - 1)
    assert observe_ce1_milestones(n, kmax, horizon=miles.pass_time) == miles


def test_milestone_validation():
    with pytest.raises(ValueError):
        ce1_milestones(3, 0)


def test_milestone_csv():
    buf = io.StringIO()
    ce1_milestones(3, 2).write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,x_k,t_k,s_k,ratio_hi,ratio_lo"
    assert lines[1].startswith("1,3,3,6,")
    assert lines[2].startswith("2,10,16,23,")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# trailing pair

def test_trailing_paths_shape():
    assert len(CE2_RIGHT_PATH) == len(CE2_LEFT_PATH) == 29
    assert CE2_RIGHT_PATH[0] == CE2_LEFT_PATH[0] == 0
    assert CE2_RIGHT_PATH[-1] == CE2_LEFT_PATH[-1] == 0
    for path in (CE2_RIGHT_PATH, CE2_LEFT_PATH):
        assert all(abs(b - a) == 1 for a, b in zip(path, path[1:]))


def test_trailing_pair_primed():
    pair = build_ce2("primed")
    assert pair.horizon == 28
    assert pair.provenance == "ce2-primed"
    assert lead_sets(pair) == (7, 10)
    assert lead_sets(pair, t=7) == (7, 0)
    assert paths_admit_preceq(pair.traj_l.positions, pair.traj_r.positions).holds
    left = occupation(pair.traj_l).node_counts
    right = occupation(pair.traj_r).node_counts
    assert left == right


def test_trailing_pair_loose_lead_counts():
    # Published lead counts of the looser variant of this pair at its two
    # checkpoints (times 25 and 26): (times R leads, times L leads).
    loose_lead_counts = {25: (7, 8), 26: (7, 9)}
    pair = build_ce2("primed")
    for t, expected in loose_lead_counts.items():
        assert lead_sets(pair, t) == expected


@pytest.mark.parametrize("cycles", range(1, 11))
def test_trailing_pair_periodic_slope(cycles):
    pair = build_ce2("periodic", cycles)
    assert pair.horizon == 28 * cycles
    ahead, behind = lead_sets(pair)
    assert behind - ahead == 3 * cycles
    assert Fraction(behind - ahead, pair.horizon) == Fraction(3, 28)
    assert paths_admit_preceq(pair.traj_l.positions, pair.traj_r.positions).holds


def test_trailing_pair_validation():
    with pytest.raises(ValueError):
        build_ce2("weird")
    with pytest.raises(ValueError):
        build_ce2("periodic", 0)
    # the primed variant is the fixed pair: a cycle count other than 1 is refused
    with pytest.raises(ValueError, match="cycles must be 1"):
        build_ce2("primed", cycles=5)


def test_lead_sets_identical_paths():
    pair = build_ce2("primed")
    same = type(pair)(pair.traj_l, pair.traj_l, relation_mode="preceq")
    assert lead_sets(same) == (0, 0)
    with pytest.raises(ValueError):
        lead_sets(pair, t=29)
