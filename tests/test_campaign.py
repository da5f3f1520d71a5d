"""Campaign orchestration: trial construction per family, aggregation,
report stability, and the directional walk statistics."""

import io
import json
import os

import pytest

from arrowwalk import campaign
from arrowwalk import (
    STATEMENT_IDS,
    CampaignConfig,
    ce1_milestones,
    cookie_env,
    run_campaign,
    speed_and_recurrence_stats,
)
from arrowwalk.campaign import run_trial
from arrowwalk.couplings import constant_env

CHECK_ORDER = sorted(STATEMENT_IDS)


def quiet(family, **kw):
    kw.setdefault("include_timestamp", False)
    return CampaignConfig(family, **kw)


# --------------------------------------------------------- configuration


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
    for family in ("shared-uniform", "swap-chain"):
        with pytest.raises(ValueError, match="needs both env and env2"):
            CampaignConfig(family, env=cookie_env((0.2,)))
        with pytest.raises(ValueError, match="needs both env and env2"):
            CampaignConfig(family, env2=cookie_env((0.2,)))
    CampaignConfig("block-family", env=cookie_env((0.2, 0.5, 0.7)))


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

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cpus, trials, expected",
    [(64, 2, 25, 2), (64, None, 25, None), (8, 16, 3, 3), (4, 16, 25, 4)],
)
def test_workers_are_clamped(monkeypatch, workers, cpus, trials, expected):
    from arrowwalk import campaign

    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = quiet("shared-uniform", trials=trials, horizon=50, workers=workers)
    report = run_campaign(config)
    assert _RecordingPool.max_workers == ([] if expected is None else [expected])
    serial = run_campaign(quiet("shared-uniform", trials=trials, horizon=50))
    assert report.to_json() == serial.to_json()


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
