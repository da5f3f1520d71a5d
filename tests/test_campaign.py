"""Campaign orchestration: trial construction per family, aggregation,
report stability, and the directional walk statistics."""

import dataclasses
import functools
import io
import json
import os
import subprocess
import sys

import pytest

from arrowwalk import campaign
from arrowwalk import (
    FAMILIES,
    STATEMENT_IDS,
    CampaignConfig,
    ce1_milestones,
    cookie_env,
    run_campaign,
    speed_and_recurrence_stats,
)
from arrowwalk.campaign import run_trial
from arrowwalk.verify import check_pair
from arrowwalk.couplings import (
    BlockPartition,
    CookieEnvironment,
    UniformField,
    _limit,
    _word_limits,
    constant_env,
    shared_pair,
)
from reference import reference_stats, reference_trial, reference_walk_stats

CHECK_ORDER = sorted(STATEMENT_IDS)


def quiet(family, **kw):
    kw.setdefault("include_timestamp", False)
    return CampaignConfig(family, **kw)


# --------------------------------------------------------- configuration


def test_a_string_of_checks_is_refused_whole():
    # the same message as check_pair's, naming the id, not its letters
    with pytest.raises(ValueError) as refused:
        CampaignConfig("shared-uniform", checks="envelopes")
    message = str(refused.value)
    assert "not the string 'envelopes'" in message
    pair = shared_pair(constant_env(0.5), constant_env(0.5), UniformField(0), 4)
    with pytest.raises(ValueError) as refused_by_check_pair:
        check_pair(pair, "envelopes")
    assert str(refused_by_check_pair.value) == message


def test_an_empty_selection_of_checks_is_refused():
    # None selects every check; an empty selection is refused, not read as
    # None, and with the same message by the config and by check_pair
    with pytest.raises(ValueError, match="selection of checks is empty") as refused:
        CampaignConfig("shared-uniform", checks=())
    pair = shared_pair(constant_env(0.5), constant_env(0.5), UniformField(0), 4)
    with pytest.raises(ValueError) as refused_by_check_pair:
        check_pair(pair, ())
    assert str(refused_by_check_pair.value) == str(refused.value)
    assert list(check_pair(pair)) == list(STATEMENT_IDS)


def test_config_validation():
    with pytest.raises(ValueError, match="family"):
        CampaignConfig("nonsense")
    with pytest.raises(ValueError, match="trials"):
        CampaignConfig("ce2", trials=0)
    with pytest.raises(ValueError, match="horizon"):
        CampaignConfig("ce2", horizon=0)
    with pytest.raises(ValueError, match="unknown checks"):
        CampaignConfig("ce2", checks=("envelopes", "bogus"))
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig("ce2", workers=0)
    with pytest.raises(ValueError, match="cycles must be 1"):
        CampaignConfig("ce2", variant="primed", cycles=3)
    CampaignConfig("ce2", variant="periodic", cycles=3)
    for family in ("shared-uniform", "swap-chain"):
        with pytest.raises(ValueError, match="needs both env and env2"):
            CampaignConfig(family, env=cookie_env((0.2,)))
        with pytest.raises(ValueError, match="needs both env and env2"):
            CampaignConfig(family, env2=cookie_env((0.2,)))
    CampaignConfig("block-family", env=cookie_env((0.2, 0.5, 0.7)))


FAMILY_READS = {
    "shared-uniform": {"horizon", "env", "env2"},
    "block-family": {"horizon", "env", "partition"},
    "swap-chain": {"horizon", "env", "env2", "partition"},
    "envelope": {"horizon", "eta", "beta"},
    "ce1": {"horizon", "n", "kmax"},
    "ce2": {"variant", "cycles"},
    "independent-control": {"horizon", "env"},
}
OFF_DEFAULT = {
    "horizon": 5,
    "env": cookie_env((0.2,)),
    "env2": cookie_env((0.3,)),
    "partition": BlockPartition(((1, 2),)),
    "eta": (0.8, 0.8),
    "beta": 2.0,
    "n": 4,
    "kmax": 3,
    "variant": "periodic",
    "cycles": 2,
}
DEFAULTS = {"horizon": 1000, "env": None, "env2": None, "partition": None, "eta": (0.9, 0.9),
            "beta": 1.0, "n": 3, "kmax": 8, "variant": "primed", "cycles": 1}


@pytest.mark.parametrize("family", sorted(FAMILY_READS))
def test_config_refuses_options_the_family_does_not_read(family):
    assert set(FAMILY_READS) == set(FAMILIES)
    for option in sorted(set(OFF_DEFAULT) - FAMILY_READS[family]):
        with pytest.raises(ValueError, match=f"family {family} does not read {option}$"):
            CampaignConfig(family, **{option: OFF_DEFAULT[option]})
    # Defaults passed explicitly, as the CLI passes them, are accepted.
    CampaignConfig(family, **DEFAULTS)


def test_config_effective_trials():
    assert CampaignConfig("ce1", trials=50).effective_trials() == 1
    assert CampaignConfig("ce2", trials=50).effective_trials() == 1
    assert CampaignConfig("shared-uniform", trials=50).effective_trials() == 50


def test_config_json_excludes_execution_details():
    obj = quiet("shared-uniform", workers=4).to_json_obj()
    assert "workers" not in obj
    assert "include_timestamp" not in obj
    assert obj["checks"] == list(STATEMENT_IDS)
    assert obj["trials_effective"] == 100


@pytest.mark.parametrize("family", FAMILIES)
def test_config_json_echoes_every_field_but_execution_details(family):
    names = {f.name for f in dataclasses.fields(CampaignConfig)}
    expected = names - {"workers", "include_timestamp"} | {"trials_effective"}
    assert set(CampaignConfig(family).to_json_obj()) == expected


def test_config_coerces_eta():
    config = CampaignConfig("envelope", eta=[0.9, 0.8])
    assert config.eta == (0.9, 0.8)


# ------------------------------------------------------------- families


def test_shared_uniform_campaign_passes():
    report = run_campaign(quiet("shared-uniform", trials=20, horizon=300))
    assert report.passed
    assert report.schema == "arrowwalk-campaign-v1"
    assert len(report.trials) == 20
    assert report.first_failure() is None
    for name in STATEMENT_IDS:
        summary = report.check_summary[name]
        assert summary["fail"] == 0
        assert summary["pass"] + summary["vacuous"] == 20
    assert report.aggregates["speed_l"]["count"] == 20
    assert report.aggregates["returns_l"]["count"] == 20
    assert report.extra["errors"] == 0
    assert report.wall_clock is None


def test_fixed_env_shared_campaign():
    report = run_campaign(
        quiet(
            "shared-uniform",
            trials=5,
            horizon=200,
            env=cookie_env((0.2, 0.4)),
            env2=cookie_env((0.3, 0.4)),
        )
    )
    assert report.passed
    assert report.to_json_obj()["config"]["env"]["default"] == [0.2, 0.4]


def test_block_family_campaign_passes():
    report = run_campaign(quiet("block-family", trials=10, horizon=200))
    assert report.passed
    assert report.extra["errors"] == 0


def test_swap_chain_campaign_passes():
    report = run_campaign(quiet("swap-chain", trials=10, horizon=200))
    assert report.passed


def test_envelope_campaign_reports_drift_mass():
    report = run_campaign(quiet("envelope", trials=5, horizon=400))
    assert report.passed
    assert report.extra["alpha"] == pytest.approx(1.6)
    assert report.extra["alpha_labels"] == ["upper-speed-nonpositive"]


def test_ce1_campaign_embeds_milestones():
    report = run_campaign(quiet("ce1", trials=9, horizon=500, kmax=6))
    assert report.passed
    assert len(report.trials) == 1
    miles = ce1_milestones(3, 6)
    assert report.extra["milestones"]["sites"] == miles.sites
    assert report.extra["milestones"]["first_hits"] == miles.first_hits
    assert report.extra["milestones"]["last_exits"] == miles.last_exits
    assert report.extra["milestones"]["limit_hi"] == miles.limit_hi
    assert report.extra["milestones"]["limit_lo"] == miles.limit_lo


def test_ce2_campaign_reports_lead_counts():
    report = run_campaign(quiet("ce2", trials=3))
    assert report.passed
    assert len(report.trials) == 1
    assert report.extra["lead_ahead"] == 7
    assert report.extra["lead_behind"] == 10
    # the fixed pair ends at the origin and sets its own horizon
    assert report.trials[0]["speed_l"] == 0.0
    assert report.trials[0]["speed_r"] == 0.0
    # trajectories carry no generating systems, so no return counts
    assert report.aggregates["returns_l"] == {"count": 0}
    assert report.aggregates["returns_r"] == {"count": 0}


def test_independent_control_campaign_fails():
    report = run_campaign(quiet("independent-control", trials=40, horizon=250))
    assert not report.passed
    for name in STATEMENT_IDS:
        assert report.check_summary[name]["fail"] > 0
    first = report.first_failure()
    assert first["trial"] == 0
    assert first["check"] == "count_dominance"
    assert first["witness"]["t"] == 3


def test_check_subset():
    config = quiet("shared-uniform", trials=4, horizon=150, checks=("envelopes", "record_lead"))
    report = run_campaign(config)
    assert set(report.check_summary) == {"envelopes", "record_lead"}
    assert set(report.trials[0]["checks"]) == {"envelopes", "record_lead"}
    assert report.to_json_obj()["config"]["checks"] == ["envelopes", "record_lead"]


def test_collect_returns_off():
    report = run_campaign(quiet("shared-uniform", trials=3, horizon=150, collect_returns=False))
    assert "returns_l" not in report.trials[0]
    assert report.aggregates["returns_l"] == {"count": 0}


# The zero-right transform forces Right at 0 on both sides, so it keeps an
# ordered pair ordered, and both transformed walks have running minimum 0:
# the max_visits statement then reads returns_l >= returns_r.
@pytest.mark.parametrize("family", ["shared-uniform", "block-family", "swap-chain", "envelope"])
def test_ordered_pairs_return_to_zero_in_order(family):
    rows = run_campaign(quiet(family, trials=60, horizon=1000, seed=5)).trials
    assert len(rows) == 60
    for row in rows:
        assert row["returns_l"] >= row["returns_r"], row["trial"]


def test_shared_pairs_of_the_directional_criterion_return_in_order():
    # Criterion 9's two environments, coupled through one field.
    field = UniformField(0)
    for i in range(20):
        pair = shared_pair(cookie_env((0.6, 0.6)), cookie_env((0.9, 0.9)), field, 10_000, ("ret", i))
        returns_l, returns_r = campaign._returns_to_zero(pair)
        assert returns_l >= returns_r, i


def test_independent_control_breaks_the_returns_order():
    rows = run_campaign(quiet("independent-control", trials=60, horizon=1000, seed=5)).trials
    assert any(row["returns_l"] < row["returns_r"] for row in rows)


def test_run_trial_row_shape():
    row = run_trial(quiet("shared-uniform", trials=1, horizon=150), 0)
    assert set(row) == {"trial", "checks", "speed_l", "speed_r", "max_r", "returns_l", "returns_r"}
    assert set(row["checks"]) == set(STATEMENT_IDS)
    for status in row["checks"].values():
        assert status["status"] in ("pass", "vacuous", "fail")


# ------------------------------------------------------------ error rows


def test_drift_violation_becomes_error_rows():
    report = run_campaign(quiet("envelope", trials=4, horizon=100, eta=(0.1,)))
    assert not report.passed
    assert report.extra["errors"] == 4
    assert "alpha" not in report.extra
    for name in STATEMENT_IDS:
        assert report.check_summary[name]["fail"] == 4
    first = report.first_failure()
    assert first["trial"] == 0
    assert first["check"] == "count_dominance"
    assert "error" in first["witness"]
    assert report.aggregates["speed_l"] == {"count": 0}


def test_failing_trial_is_named(monkeypatch):
    real = campaign._build_pair

    def build(config, trial, field):
        if trial == 2:
            raise KeyError("lost cell")
        return real(config, trial, field)

    monkeypatch.setattr(campaign, "_build_pair", build)
    with pytest.raises(RuntimeError, match="shared-uniform campaign, seed 5, trial 2: KeyError") as exc:
        run_campaign(quiet("shared-uniform", trials=4, horizon=50, seed=5, workers=1))
    assert isinstance(exc.value.__cause__, KeyError)


def test_bad_input_in_a_trial_stays_a_value_error():
    config = quiet("shared-uniform", trials=2, horizon=50,
                   env=cookie_env((0.9,)), env2=cookie_env((0.2,)))
    with pytest.raises(ValueError, match="trial 0: ValueError: env_l exceeds env_r"):
        run_campaign(config)


# ---------------------------------------------------------- determinism


def test_report_is_byte_stable():
    config = quiet("shared-uniform", trials=10, horizon=200, seed=5)
    once = run_campaign(config).to_json()
    again = run_campaign(quiet("shared-uniform", trials=10, horizon=200, seed=5)).to_json()
    assert once == again


def test_workers_do_not_change_the_report():
    serial = run_campaign(quiet("shared-uniform", trials=25, horizon=150))
    parallel = run_campaign(quiet("shared-uniform", trials=25, horizon=150, workers=3))
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize(
    "env",
    [cookie_env((0.6, 0.6)), CookieEnvironment({-2: (0.9, 0.1), 1: (0.3,)}, (0.55, 0.7), 0.45)],
    ids=["two-cookies", "listed"],
)
def test_workers_do_not_change_the_stats_payload(env):
    serial = speed_and_recurrence_stats(env, trials=9, horizon=2000, seed=3, after=100)
    parallel = speed_and_recurrence_stats(env, trials=9, horizon=2000, seed=3, after=100, workers=2)
    assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_the_trial_pool_merges_stats_trials_in_trial_order():
    # The summaries of a payload do not show the order; the trials do.
    limits = _word_limits(cookie_env((0.6, 0.6)), _limit)
    trial = functools.partial(campaign._stats_trial, limits, 3, 500, 50)
    serial = [trial(i) for i in range(9)]
    assert len(set(serial)) == 9
    assert campaign._map_trials(trial, 9, 2) == serial


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs batches in-process and
    records the worker count it was asked for."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, **kwargs):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cpus, trials, expected",
    [(64, 2, 25, 2), (64, None, 25, None), (8, 16, 3, 3), (4, 16, 25, 4)],
)
def test_workers_are_clamped(monkeypatch, workers, cpus, trials, expected):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    # run_campaign imports the pool only when it uses one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = quiet("shared-uniform", trials=trials, horizon=50, workers=workers)
    report = run_campaign(config)
    assert _RecordingPool.max_workers == ([] if expected is None else [expected])
    serial = run_campaign(quiet("shared-uniform", trials=trials, horizon=50))
    assert report.to_json() == serial.to_json()


def test_a_serial_campaign_imports_no_process_pool():
    # the pool's import pulls in multiprocessing, which only workers need; a
    # serial stats run shares the campaign's pool helper
    code = (
        "import sys, arrowwalk.cli; from arrowwalk import CampaignConfig, run_campaign; "
        "run_campaign(CampaignConfig('shared-uniform', trials=2, horizon=20)); "
        "from arrowwalk import cookie_env, speed_and_recurrence_stats; "
        "speed_and_recurrence_stats(cookie_env((0.6,)), trials=2, horizon=20); "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(campaign.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_seed_changes_the_trials():
    a = run_campaign(quiet("shared-uniform", trials=5, horizon=200, seed=1))
    b = run_campaign(quiet("shared-uniform", trials=5, horizon=200, seed=2))
    assert a.trials != b.trials


# -------------------------------------------------------------- reports


def test_trials_csv_bytes():
    report = run_campaign(quiet("ce2"))
    buf = io.StringIO()
    report.write_trials_csv(buf)
    want = "trial,check,status\n" + "".join(f"0,{name},pass\n" for name in CHECK_ORDER)
    assert buf.getvalue() == want


def test_report_json_shape():
    report = run_campaign(quiet("ce2"))
    obj = json.loads(report.to_json())
    assert obj["schema"] == "arrowwalk-campaign-v1"
    assert obj["passed"] is True
    assert obj["wall_clock"] is None
    assert set(obj["checks"]) == set(STATEMENT_IDS)
    assert obj["config"]["family"] == "ce2"


def test_timestamp_switch():
    report = run_campaign(CampaignConfig("ce2", include_timestamp=True))
    assert set(report.wall_clock) == {"timestamp", "seconds"}


def test_single_trial_quantiles():
    report = run_campaign(quiet("shared-uniform", trials=1, horizon=150))
    agg = report.aggregates["speed_l"]
    assert agg["count"] == 1
    assert agg["q25"] == agg["median"] == agg["q75"] == agg["mean"]


# ------------------------------------------------------ walk statistics


def test_stats_sure_cookies_exact():
    stats = speed_and_recurrence_stats(constant_env(1.0), trials=3, horizon=50)
    assert stats["schema"] == "arrowwalk-stats-v1"
    assert stats["speed"] == {
        "count": 3, "mean": 1.0, "min": 1.0, "max": 1.0,
        "q25": 1.0, "median": 1.0, "q75": 1.0,
    }
    assert stats["max_ratio"]["mean"] == 1.0
    assert stats["returns"]["max"] == 0
    assert stats["returns_histogram"] == {0: 3}


@pytest.mark.parametrize("horizon", [1, 2, 51])
def test_stats_sure_left_cookies_reach_the_far_end(horizon):
    # The raw walk ends at -horizon, the farthest left visit count it
    # keeps; the transformed walk bounces between 0 and 1.
    stats = speed_and_recurrence_stats(constant_env(0.0), trials=2, horizon=horizon)
    assert stats["speed"]["min"] == stats["speed"]["max"] == -1.0
    assert stats["max_ratio"]["max"] == 0.0
    assert stats["returns"]["min"] == stats["returns"]["max"] == horizon // 2


def test_stats_symmetric_env_centred():
    stats = speed_and_recurrence_stats(constant_env(0.5), trials=50, horizon=2000, seed=3)
    # raw endpoint speed of a symmetric walk: 3 standard errors around zero
    assert abs(stats["speed"]["mean"]) < 3.0 / (50 * 2000) ** 0.5
    assert 0.0 < stats["max_ratio"]["mean"] < 1.0
    assert stats["returns"]["mean"] > 0.0


def test_stats_histogram_is_consistent():
    stats = speed_and_recurrence_stats(cookie_env((0.7, 0.7)), trials=30, horizon=1000, seed=2)
    hist = stats["returns_histogram"]
    assert sum(hist.values()) == 30
    mean = sum(k * v for k, v in hist.items()) / 30
    assert mean == pytest.approx(stats["returns"]["mean"])


def test_stats_direction():
    sticky = speed_and_recurrence_stats(cookie_env((0.6, 0.6)), trials=20, horizon=5000, seed=1, after=500)
    fleet = speed_and_recurrence_stats(cookie_env((0.9, 0.9)), trials=20, horizon=5000, seed=1, after=500)
    assert fleet["returns_after"]["mean"] < sticky["returns_after"]["mean"]
    assert fleet["speed"]["mean"] > sticky["speed"]["mean"]


def test_stats_deterministic():
    a = speed_and_recurrence_stats(cookie_env((0.7,)), trials=5, horizon=500, seed=4)
    b = speed_and_recurrence_stats(cookie_env((0.7,)), trials=5, horizon=500, seed=4)
    assert a == b


def test_stats_validation():
    env = constant_env(0.5)
    with pytest.raises(ValueError, match="trials"):
        speed_and_recurrence_stats(env, trials=0, horizon=10)
    with pytest.raises(ValueError, match="horizon"):
        speed_and_recurrence_stats(env, trials=1, horizon=0)
    with pytest.raises(ValueError, match="after"):
        speed_and_recurrence_stats(env, trials=1, horizon=10, after=11)
    with pytest.raises(ValueError, match="after"):
        speed_and_recurrence_stats(env, trials=1, horizon=10, after=-1)


def assert_stats_walks_match(env, field, limits, i, horizon, after):
    """Trial i's raw and zero-right walks equal the reference's fields for them."""
    stream = ("stats", i, "raw")
    end, top = campaign._raw_walk(limits, field, stream, horizon)
    want = reference_walk_stats(env, field, stream, horizon, after, False)
    assert (end / horizon, top) == (want["speed"], want["max_pos"]), (after, i, "raw")
    stream = ("stats", i, "plus")
    got = campaign._zero_right_returns(limits, field, stream, horizon, after)
    want = reference_walk_stats(env, field, stream, horizon, after, True)
    assert got == (want["returns"], want["returns_after"]), (after, i, "plus")


@pytest.mark.parametrize(
    "env",
    [
        cookie_env((0.6, 0.6)),
        cookie_env((0.9, 0.3, 0.75), tail=0.4),
        CookieEnvironment({-3: (0.2, 0.9), 5: (0.1,)}, (0.55,), 0.5),
        CookieEnvironment({2: (0.8, 0.8)}, (), 0.45),  # listed sites over an empty default
        cookie_env((), tail=0.52),
        cookie_env((0.0, 0.0), tail=0.0),
        cookie_env((1.0, 1.0), tail=1.0),
    ],
    ids=["two-cookies", "three-cookies", "listed", "listed-empty-default", "empty-default",
         "all-left", "all-right"],
)
def test_stats_walks_match_the_sequential_reference(env):
    # The fast path compares words with integer limits; the reference
    # compares uniforms with probabilities through `run_walk`.
    field = UniformField(11)
    limits = _word_limits(env, _limit)
    for i in range(20):
        assert_stats_walks_match(env, field, limits, i, 3000, 100)


@pytest.mark.parametrize(
    "env",
    [
        cookie_env((0.0, 0.0), tail=0.0),
        cookie_env((1.0, 1.0), tail=1.0),
        cookie_env((), tail=0.5),
        CookieEnvironment({-1: (0.9, 0.1), 0: (1.0, 0.0, 1.0), 3: (0.0,)}, (0.6, 0.4), 0.5),
    ],
    ids=["all-left", "all-right", "empty-default", "listed"],
)
@pytest.mark.parametrize("horizon", [1, 2, 7, 50])
def test_stats_walks_match_the_sequential_reference_at_the_edges(env, horizon):
    # The maximum is read off the final visit counts: the all-Right raw walk
    # ends at +horizon, in the last slot before the spare one.  The all-Left
    # transformed walk returns to 0 on every second step, the last of them
    # at the horizon when it is even.
    field = UniformField(5)
    limits = _word_limits(env, _limit)
    for after in sorted({0, 1, horizon}):
        for i in range(4):
            assert_stats_walks_match(env, field, limits, i, horizon, after)


@pytest.mark.parametrize("depth", [254, 255, 300])
def test_stats_walks_match_the_sequential_reference_on_deep_environments(depth):
    # Site 0 sends the walk Right and site 1 sends it Left for `depth`
    # levels, so both are left hundreds of times: a count of 255 still fits
    # a byte, one of 256, which a depth of 255 reaches, does not.
    env = CookieEnvironment({0: (1.0,) * depth, 1: (0.0,) * depth}, (0.7, 0.3), 0.5)
    field = UniformField(2)
    limits = _word_limits(env, _limit)
    for i in range(3):
        assert_stats_walks_match(env, field, limits, i, 3000, 700)
    deep = cookie_env((1.0, 0.0) * (depth // 2) + (0.6,) * (depth % 2), tail=0.4)
    for i in range(3):
        assert_stats_walks_match(deep, field, _word_limits(deep, _limit), i, 2000, 100)


# ------------------------------------------------ whole trials from references
#
# Each layer has its own differential test; these hold where the layers meet
# (a memo shared by a pair, a return walk resuming a pair walk, a check
# decided late) to a trial rebuilt from the references alone.

TRIAL_SUBSET = ("record_lead", "kth_visit_counts", "envelopes")
LISTED_LO = CookieEnvironment({-1: (0.2, 0.4), 2: (0.1,)}, (0.3, 0.5), 0.45)
LISTED_HI = CookieEnvironment({-1: (0.6, 0.4), 2: (0.5,)}, (0.3, 0.7), 0.5)
SPLIT = BlockPartition(((1, 2), (4, 5, 6)))  # level 3 and those above 6 are singletons
# Per family, a default trial at horizon 300, then one with other options at
# horizon 61 (ce2 does not read the horizon: its pair is 28 steps a cycle).
TRIAL_CASES = {
    "shared-uniform": {"env": LISTED_LO, "env2": LISTED_HI},
    "block-family": {"partition": SPLIT},
    "swap-chain": {"partition": SPLIT},
    "envelope": {"eta": (0.9, 0.7, 0.6), "beta": 0.5},
    "ce1": {"n": 4},
    "ce2": {"variant": "periodic", "cycles": 2},
    "independent-control": {"env": LISTED_LO},
}


@pytest.mark.parametrize("checks", [None, TRIAL_SUBSET], ids=["all", "subset"])
@pytest.mark.parametrize("family", FAMILIES)
def test_trial_rows_match_the_reference_trial(family, checks):
    for seed, horizon, kw in ((3, 300, {}), (8, 61, TRIAL_CASES[family])):
        if family != "ce2":
            kw = {**kw, "horizon": horizon}
        config = quiet(family, seed=seed, checks=checks, **kw)
        for trial in (0, 1, 2):
            assert run_trial(config, trial) == reference_trial(config, trial), (seed, trial)


@pytest.mark.parametrize(
    "env",
    [cookie_env((0.6, 0.6)), CookieEnvironment({-2: (0.9, 0.1), 1: (0.3,)}, (0.55, 0.7), 0.45)],
    ids=["two-cookies", "listed"],
)
def test_stats_payloads_match_the_reference_stats(env):
    for seed, horizon, after in ((3, 300, 40), (8, 61, 0)):
        got = speed_and_recurrence_stats(env, trials=5, horizon=horizon, seed=seed, after=after)
        assert got == reference_stats(env, 5, horizon, seed, after), seed
