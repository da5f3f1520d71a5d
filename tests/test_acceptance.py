"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Criterion 2 asks for a monotone approach to both milestone ratio limits
over k = 4..8; the even-k ratios land exactly on the limits, so the
deviation sequence alternates with zeros and the monotone clause is
false.  The test states the criterion faithfully and is expected to fail.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from arrowwalk import (
    CampaignConfig,
    STATEMENT_IDS,
    UniformField,
    build_ce1,
    build_ce2,
    ce1_milestones,
    cookie_env,
    couple_block_family,
    envelope_walk,
    lead_sets,
    observe_ce1_milestones,
    orrw_drift_law,
    paths_admit_preceq,
    run_campaign,
    run_walk,
    sample_system,
    scan_identities,
    speed_and_recurrence_stats,
)
from arrowwalk.core import LEFT, RIGHT, ExplicitSystem
from arrowwalk.couplings import (
    BlockPartition,
    DriftContractError,
    conditional_stack_pmf,
    poisson_binomial,
    stack_chain,
)
from arrowwalk.verify import PairChecker
from reference import occupation

LIMIT_HI = 3.0 / 5.0
LIMIT_LO = 1.0 / 7.0


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def prefix_lefts(stack):
    return list(itertools.accumulate(1 if a is LEFT else 0 for a in stack))


def test_criterion_01_ce1_exact_milestones(capsys):
    started = time.perf_counter()
    sys_l, _ = build_ce1(3)
    traj = run_walk(sys_l, 10_000)
    marks_ok = all(traj.positions[5 * k] == k for k in range(2001))
    miles = ce1_milestones(3, 8)
    observed = observe_ce1_milestones(3, 8, horizon=2 * miles.first_hits[-1] + 10)
    hits_ok = observed.first_hits[:7] == miles.first_hits[:7]
    exits_ok = observed.last_exits[:7] == miles.last_exits[:7]
    ints_ok = all(
        isinstance(v, int)
        for v in observed.first_hits[:7] + observed.last_exits[:7]
    )
    elapsed = time.perf_counter() - started
    ok = marks_ok and hits_ok and exits_ok and ints_ok and elapsed < 1.0
    announce(capsys, 1, ok, f"ce1 exact marker and milestone times ({elapsed:.2f} s)")
    assert marks_ok, "marker walk misses L(5k) = k"
    assert hits_ok, f"first hits {observed.first_hits[:7]} != {miles.first_hits[:7]}"
    assert exits_ok, f"last exits {observed.last_exits[:7]} != {miles.last_exits[:7]}"
    assert ints_ok
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_02_ce1_ratio_trend(capsys):
    miles = ce1_milestones(3, 8)
    hi_dev = [abs(miles.ratio_hi[k - 1] - LIMIT_HI) for k in range(4, 9)]
    lo_dev = [abs(miles.ratio_lo[k - 1] - LIMIT_LO) for k in range(4, 9)]
    close_ok = hi_dev[-1] <= 0.05 and lo_dev[-1] <= 0.05
    hi_mono = all(a >= b for a, b in zip(hi_dev, hi_dev[1:]))
    lo_mono = all(a >= b for a, b in zip(lo_dev, lo_dev[1:]))
    ok = close_ok and hi_mono and lo_mono
    announce(
        capsys, 2, ok,
        "ce1 ratio limits within 0.05 and monotone over k=4..8"
        + ("" if ok else f" (deviations hi={hi_dev} lo={lo_dev})"),
    )
    assert close_ok
    assert hi_mono, f"|ratio_hi - {LIMIT_HI}| not nonincreasing: {hi_dev}"
    assert lo_mono, f"|ratio_lo - {LIMIT_LO}| not nonincreasing: {lo_dev}"


def test_criterion_03_ce2_exact(capsys):
    pair = build_ce2("primed")
    ahead, behind = lead_sets(pair)
    leads_ok = (ahead, behind) == (7, 10)
    ends_ok = pair.traj_l.positions[-1] == 0 and pair.traj_r.positions[-1] == 0
    counts_ok = (
        occupation(pair.traj_l).node_counts == occupation(pair.traj_r).node_counts
    )
    admits_ok = paths_admit_preceq(pair.traj_l.positions, pair.traj_r.positions).holds
    slope_ok = True
    for cycles in range(1, 11):
        a, b = lead_sets(build_ce2("periodic", cycles=cycles))
        if Fraction(b - a, 28 * cycles) != Fraction(3, 28):
            slope_ok = False
            break
    ok = leads_ok and ends_ok and counts_ok and admits_ok and slope_ok
    announce(capsys, 3, ok, "ce2 lead sets (7, 10), equal local times, slope 3/28")
    assert leads_ok, f"lead sets ({ahead}, {behind})"
    assert ends_ok and counts_ok and admits_ok and slope_ok


def test_criterion_04_identity_suite(capsys):
    failures = 0
    for i in range(1000):
        rng = random.Random(i)
        if i % 2 == 0:
            stacks = {
                site: "".join(rng.choice("LR") for _ in range(rng.randint(0, 10)))
                for site in range(-30, 31)
            }
            system = ExplicitSystem(stacks, default_fill=rng.choice("LR"))
        else:
            depth = rng.randint(1, 3)
            env = cookie_env(
                tuple(rng.uniform(0.0, 1.0) for _ in range(depth)),
                tail=rng.uniform(0.0, 1.0),
            )
            system = sample_system(env, UniformField(i), ("crit4", i))
        report = scan_identities(run_walk(system, 1000))
        if not report.passed:
            failures += 1
    ok = failures == 0
    announce(capsys, 4, ok, f"bookkeeping identities on 1000 random walks ({failures} failures)")
    assert ok


def test_criterion_05_coupled_pair_suite(capsys):
    started = time.perf_counter()
    report = run_campaign(
        CampaignConfig(
            "shared-uniform",
            trials=1000,
            horizon=2000,
            collect_returns=False,
            include_timestamp=False,
        )
    )
    elapsed = time.perf_counter() - started
    fails = {name: s["fail"] for name, s in report.check_summary.items()}
    ok = report.passed and elapsed < 30.0
    announce(capsys, 5, ok, f"1000 coupled pairs, zero check failures ({elapsed:.1f} s)")
    assert report.passed, f"failures: {fails}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


BROKEN_PAIRS = {
    "envelopes": ([0, 1], [0, -1]),
    "hitting_order": ([0, 1], [0, -1]),
    "count_dominance": ([0, 1, 2, 1, 2], [0, -1, 0, -1, 0]),
    "max_visits": ([0, 1, 0, 1], [0, 1, 0, -1]),
    "neighbour_interval": ([0, 1, 2, 3, 2], [0, -1, 0, -1, 0]),
    "kth_visit_counts": ([0, 1, 0, 1], [0, -1, 0, 1]),
    "record_lead": ([0, 1, 2, 3, 4], [0, -1, 0, 1, 2]),
}


def test_criterion_06_sensitivity_controls(capsys):
    missed = [
        name
        for name, (pos_l, pos_r) in BROKEN_PAIRS.items()
        if PairChecker(pos_l, pos_r, checks=(name,)).run()[name].passed
    ]
    report = run_campaign(
        CampaignConfig(
            "independent-control",
            trials=1000,
            horizon=250,
            collect_returns=False,
            include_timestamp=False,
        )
    )
    first = report.first_failure()
    witnessed = not report.passed and first is not None and first["witness"] is not None
    ok = not missed and witnessed
    announce(capsys, 6, ok, "every check rejects its broken fixture; control campaign witnessed")
    assert not missed, f"checks passing their broken fixture: {missed}"
    assert witnessed
    assert set(BROKEN_PAIRS) == set(STATEMENT_IDS)


def test_criterion_07_block_machinery(capsys):
    battery = [
        (),
        (0.25,),
        (0.5, 0.5),
        (0.2, 0.5, 0.7),
        (1.0, 1.0, 1.0),
        (0.1, 0.9, 0.4),
        (0.3, 0.3, 0.3),
    ]
    pmf_ok = True
    for probs in battery:
        got = poisson_binomial(probs)
        want = [0.0] * (len(probs) + 1)
        for bits in itertools.product((0, 1), repeat=len(probs)):
            w = 1.0
            for p, b in zip(probs, bits):
                w *= p if b else (1.0 - p)
            want[sum(bits)] += w
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            pmf_ok = False
    pinned = poisson_binomial((0.2, 0.5, 0.7))
    pmf_ok = pmf_ok and all(
        abs(g - w) <= 1e-12 for g, w in zip(pinned, (0.12, 0.43, 0.38, 0.07))
    )

    chain_ok = True
    for n in range(4):
        for y in range(n + 1):
            chain = stack_chain(n, y)
            combos = {
                s
                for s in itertools.product((LEFT, RIGHT), repeat=n)
                if sum(a is RIGHT for a in s) == y
            }
            if set(chain) != combos:
                chain_ok = False
            for earlier, later in itertools.combinations(chain, 2):
                if not all(a <= b for a, b in zip(prefix_lefts(earlier), prefix_lefts(later))):
                    chain_ok = False

    # inverse-CDF picks under a shared u: the ascending block must sit
    # below the descending one in prefix-left order for every Right count
    asc, desc = (0.2, 0.5, 0.7), (0.7, 0.5, 0.2)
    grid_ok = True
    for y in range(4):
        chain = stack_chain(3, y)
        cum_a = list(itertools.accumulate(conditional_stack_pmf(asc, y)))
        cum_d = list(itertools.accumulate(conditional_stack_pmf(desc, y)))
        for i in range(1000):
            u = (i + 0.5) / 1000
            pick_a = next(j for j, c in enumerate(cum_a) if c >= u)
            pick_d = next(j for j, c in enumerate(cum_d) if c >= u)
            pa, pd = prefix_lefts(chain[pick_a]), prefix_lefts(chain[pick_d])
            if not all(a >= d for a, d in zip(pa, pd)):
                grid_ok = False

    field = UniformField(29)
    partition = BlockPartition(((1, 2, 3),))
    base = cookie_env(asc)
    members = couple_block_family(base, partition, [base, cookie_env(desc)], field, "crit7")
    combos = list(itertools.product((LEFT, RIGHT), repeat=3))
    chi_ok = True
    n_samples = 100_000
    for member, probs in zip(members, (asc, desc)):
        counts = Counter(
            tuple(member.arrow_at(site, lv) for lv in (1, 2, 3))
            for site in range(1, n_samples + 1)
        )
        expected = []
        for combo in combos:
            w = 1.0
            for p, a in zip(probs, combo):
                w *= p if a is RIGHT else (1.0 - p)
            expected.append(w * n_samples)
        if chisquare([counts[c] for c in combos], expected).pvalue <= 1e-3:
            chi_ok = False

    ok = pmf_ok and chain_ok and grid_ok and chi_ok
    announce(capsys, 7, ok, "block pmf, chain order, grid domination, product law")
    assert pmf_ok and chain_ok and grid_ok and chi_ok


def test_criterion_08_drift_envelope(capsys):
    law = orrw_drift_law(1.0)
    field = UniformField(0)
    for trial in range(1000):
        envelope_walk(law, (0.9, 0.9), field, 10_000, stream=("ew", trial))
    with pytest.raises(DriftContractError):
        envelope_walk(lambda view, k: 0.95, (0.9,), field, 10, stream="hot")
    announce(capsys, 8, True, "envelope containment held over 1000 walks; violation trips")


def test_criterion_09_directional_monte_carlo(capsys):
    sticky = speed_and_recurrence_stats(
        cookie_env((0.6, 0.6)), trials=200, horizon=100_000, seed=0, after=1000
    )
    fleet = speed_and_recurrence_stats(
        cookie_env((0.9, 0.9)), trials=200, horizon=100_000, seed=0, after=1000
    )
    lo, hi = fleet["returns_after"]["mean"], sticky["returns_after"]["mean"]
    ok = lo < hi
    announce(capsys, 9, ok, f"late returns: p=0.9 mean {lo:.2f} < p=0.6 mean {hi:.2f}")
    assert ok


def test_criterion_10_determinism(capsys):
    config = dict(trials=50, horizon=500, seed=7, include_timestamp=False)
    once = run_campaign(CampaignConfig("shared-uniform", **config)).to_json()
    again = run_campaign(CampaignConfig("shared-uniform", **config)).to_json()
    spread = run_campaign(CampaignConfig("shared-uniform", workers=2, **config)).to_json()
    reports_ok = once == again == spread

    queries = [(site, level) for site in range(1000) for level in range(1, 101)]
    shuffled = list(queries)
    random.Random(0).shuffle(shuffled)
    ordered = UniformField(42)
    scrambled = UniformField(42)
    got_a = {q: ordered.value("det", *q) for q in queries}
    got_b = {q: scrambled.value("det", *q) for q in shuffled}
    field_ok = got_a == got_b

    ok = reports_ok and field_ok
    announce(capsys, 10, ok, "byte-identical reports; field order independence on 1e5 queries")
    assert reports_ok
    assert field_ok
