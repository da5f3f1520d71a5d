"""Command line surface: each subcommand's happy path, output formats,
and the exit-code contract (0 pass, 1 check failure, 2 usage error)."""

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import arrowwalk
from arrowwalk import campaign, cli
from arrowwalk.cli import MAX_CYCLES, MAX_KMAX, MAX_N, MAX_STEPS, MAX_TRIALS, main
from arrowwalk.counterexamples import ce1_milestones
from arrowwalk.couplings import MAX_PARTITION_LEVEL


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return {
        "sys_right": write("sys_right.json", {"kind": "explicit", "default_fill": "R", "stacks": {}}),
        "sys_ce1l": write("sys_ce1l.json", {"kind": "ce1-L"}),
        "env_lo": write("env_lo.json", {"sites": {}, "default": [0.2, 0.4], "tail": 0.5}),
        "env_hi": write("env_hi.json", {"sites": {}, "default": [0.3, 0.4], "tail": 0.5}),
        "env_asc": write("env_asc.json", {"sites": {}, "default": [0.2, 0.5, 0.7], "tail": 0.5}),
        "env_desc": write("env_desc.json", {"sites": {}, "default": [0.7, 0.5, 0.2], "tail": 0.5}),
        "part": write("part.json", {"cap": 3, "blocks": [[1, 2, 3]]}),
        "bad": str(bad),
        "dir": str(tmp_path),
    }


# ------------------------------------------------------------------ run


def test_run_csv(runner, files):
    result = runner.invoke(main, ["run", "--system", files["sys_right"], "--horizon", "4"])
    assert result.exit_code == 0
    assert result.output == "n,pos\n0,0\n1,1\n2,2\n3,3\n4,4\n"


def test_run_json(runner, files):
    result = runner.invoke(main, ["run", "--system", files["sys_right"], "--horizon", "3", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [
        {"n": 0, "pos": 0},
        {"n": 1, "pos": 1},
        {"n": 2, "pos": 2},
        {"n": 3, "pos": 3},
    ]


def test_run_to_file(runner, files, tmp_path):
    out = tmp_path / "walk.csv"
    result = runner.invoke(main, ["run", "--system", files["sys_ce1l"], "--horizon", "2", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == "n,pos\n0,0\n1,1\n2,0\n"


def test_run_missing_file(runner, files):
    result = runner.invoke(main, ["run", "--system", files["dir"] + "/absent.json"])
    assert result.exit_code == 2


def test_run_unparseable_file(runner, files):
    result = runner.invoke(main, ["run", "--system", files["bad"]])
    assert result.exit_code == 2
    assert "cannot load system" in result.output


@pytest.mark.parametrize("command, obj, what", [
    (["run", "--system", "{path}"], {"kind": "explicit", "stacks": {}, "fill": "L"}, "explicit system"),
    (["run", "--system", "{path}"], {"kind": "ce1-R", "n": 7}, "ce1-R system"),
    (["stats", "--env", "{path}"], {"default": [0.2], "tial": 0.4}, "environment"),
    (["couple", "--family", "swap-chain", "--env", "{env_asc}", "--env2", "{env_desc}",
      "--partition", "{path}"], {"blocks": [[1, 2, 3]], "cpa": 2}, "partition"),
])
def test_unknown_keys_in_input_files_are_refused(runner, files, tmp_path, command, obj, what):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, [a.format(path=path, **files) for a in command])
    assert result.exit_code == 2
    assert f"unknown {what} keys" in result.output


@pytest.mark.parametrize("command, obj, message", [
    (["campaign", "--family", "block-family", "--partition", "{path}", "--trials", "1",
      "--horizon", "10", "--no-timestamp"], {"blocks": [[1.9, 2.2]]}, "a level in blocks must be an integer, got 1.9"),
    (["campaign", "--family", "block-family", "--partition", "{path}", "--trials", "1",
      "--horizon", "10", "--no-timestamp"], {"blocks": [[1, 2]], "cap": 2.5}, "cap must be an integer, got 2.5"),
    (["couple", "--family", "swap-chain", "--env", "{env_asc}", "--env2", "{env_desc}",
      "--partition", "{path}"], {"blocks": [[1, True]]}, "a level in blocks must be an integer, got True"),
    (["couple", "--family", "swap-chain", "--env", "{env_asc}", "--env2", "{env_desc}",
      "--partition", "{path}"], {"blocks": [[1, 2]], "cap": True}, "cap must be an integer, got True"),
    (["run", "--system", "{path}"], {"kind": "ce1-R", "N": 3.7}, "N must be an integer, got 3.7"),
    (["run", "--system", "{path}"], {"kind": "ce1-R", "N": "4"}, "N must be an integer, got '4'"),
    (["run", "--system", "{path}"], {"kind": "ce1-R", "N": 3.0}, "N must be an integer, got 3.0"),
    (["run", "--system", "{path}"], {"kind": "ce1-R", "N": False}, "N must be an integer, got False"),
])
def test_non_integer_numbers_in_input_files_are_refused(runner, files, tmp_path, command, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, [a.format(path=path, **files) for a in command])
    assert result.exit_code == 2
    assert message in result.output


# Each refused before any walk; the short runs bound the cost of a refusal missed.
STATS = ["stats", "--env", "{path}", "--trials", "1", "--horizon", "10"]
RUN = ["run", "--system", "{path}", "--horizon", "5"]
PARTITION = ["couple", "--family", "swap-chain", "--env", "{env_asc}", "--env2", "{env_desc}",
             "--partition", "{path}", "--horizon", "10"]


@pytest.mark.parametrize("command, obj, message", [
    (STATS, {"default": [True, 0.5]}, "a probability in default must be a number, got True"),
    (STATS, {"default": [None]}, "a probability in default must be a number, got None"),
    (STATS, {"default": [1.5]}, "a probability in default out of range [0, 1], got 1.5"),
    (STATS, {"tail": "0.5"}, "tail must be a number, got '0.5'"),
    (STATS, {"sites": {"1": ["0.5"]}}, "a probability in sites['1'] must be a number, got '0.5'"),
    (STATS, {"sites": {"1": "0.5"}},
     "sites['1'] must be a JSON array of probabilities, got '0.5'"),
    (STATS, {"default": "0.5"}, "default must be a JSON array of probabilities, got '0.5'"),
    # Two keys that would name one site, and the second would drop the first.
    (STATS, {"sites": {"1": [0.1], "01": [0.9]}},
     'a site in sites must be an integer written as "3" or "-2", got \'01\''),
    (STATS, {"sites": {" 2 ": [0.1]}},
     'a site in sites must be an integer written as "3" or "-2", got \' 2 \''),
    (RUN, {"kind": "explicit", "stacks": {"1": "R", "01": "L"}},
     'a site in stacks must be an integer written as "3" or "-2", got \'01\''),
    # An object of another kind, which would otherwise raise a traceback.
    (STATS, {"sites": [1]}, "sites must be a JSON object of probability arrays, got [1]"),
    (RUN, {"kind": "explicit", "stacks": [1]}, "stacks must be a JSON object of arrow stacks, got [1]"),
    (PARTITION, {"blocks": [5]}, "a block in blocks must be a JSON array of levels, got 5"),
    (PARTITION, {"blocks": 5}, "blocks must be a JSON array of blocks, got 5"),
    # Arrows other than "L" and "R", which `Arrow(a)` would take.
    (RUN, {"kind": "explicit", "stacks": {"1": [True, 1]}},
     'an arrow in stacks[\'1\'] must be "L" or "R", got True'),
    (RUN, {"kind": "explicit", "stacks": {"1": ["R", -1]}},
     'an arrow in stacks[\'1\'] must be "L" or "R", got -1'),
    (RUN, {"kind": "explicit", "stacks": {"1": "RxL"}},
     'an arrow in stacks[\'1\'] must be "L" or "R", got \'x\''),
    (RUN, {"kind": "explicit", "stacks": {"1": 5}},
     'stacks[\'1\'] must be a string or array of "L" and "R", got 5'),
    (RUN, {"kind": "explicit", "stacks": {}, "default_fill": 1},
     'default_fill must be "L" or "R", got 1'),
    (RUN, {"kind": "explicit", "stacks": {}, "default_fill": "RIGHT"},
     'default_fill must be "L" or "R", got \'RIGHT\''),
])
def test_environment_and_stack_entries_of_another_kind_are_refused(runner, files, tmp_path, command, obj,
                                                                    message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, [a.format(path=path, **files) for a in command])
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("command, text, key", [
    (STATS, '{"default": [0.2], "tail": 0.4, "tail": 0.6}', "tail"),
    (STATS, '{"sites": {"1": [0.1], "1": [0.9]}}', "1"),
    (RUN, '{"kind": "explicit", "stacks": {"0": "R", "0": "L"}}', "0"),
    (RUN, '{"kind": "ce1-R", "N": 3, "N": 4}', "N"),
    (PARTITION, '{"blocks": [[1, 2]], "cap": 3, "cap": 2}', "cap"),
])
def test_a_key_repeated_in_one_object_is_refused(runner, files, tmp_path, command, text, key):
    # `json.load` alone keeps the last copy without a word.
    path = tmp_path / "input.json"
    path.write_text(text)
    result = runner.invoke(main, [a.format(path=path, **files) for a in command])
    assert result.exit_code == 2
    assert f"key {key!r} repeated in one JSON object" in result.output


@pytest.mark.parametrize("stacks, fill, output", [
    ({"0": "RRL"}, "L", "n,pos\n0,0\n1,1\n2,0\n3,1\n4,0\n5,-1\n"),
    ({"0": ["R", "R", "L"]}, "L", "n,pos\n0,0\n1,1\n2,0\n3,1\n4,0\n5,-1\n"),
    ({"-1": "R"}, "L", "n,pos\n0,0\n1,-1\n2,0\n3,-1\n4,-2\n5,-3\n"),
])
def test_system_files_take_arrows_as_l_and_r(runner, tmp_path, stacks, fill, output):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"kind": "explicit", "stacks": stacks, "default_fill": fill}))
    result = runner.invoke(main, ["run", "--system", str(path), "--horizon", "5"])
    assert result.exit_code == 0
    assert result.output == output


@pytest.mark.parametrize("blocks", [[[10**7]], [[1, 2], [10**9]]])
def test_partition_levels_above_the_bound_are_refused(runner, files, tmp_path, blocks):
    path = tmp_path / "part.json"
    path.write_text(json.dumps({"blocks": blocks}))
    result = runner.invoke(main, ["campaign", "--family", "swap-chain", "--partition", str(path),
                                  "--trials", "1", "--horizon", "10", "--no-timestamp"])
    assert result.exit_code == 2
    assert f"levels must be <= {MAX_PARTITION_LEVEL}" in result.output


# ---------------------------------------------------------------- verify


def test_verify_system_mode(runner, files):
    result = runner.invoke(main, ["verify", "--system", files["sys_ce1l"], "--horizon", "200"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert payload["t"] == 200
    assert all(payload["ok"].values())


@pytest.mark.parametrize("args, flags", [
    (["--checks", "bogus"], "--checks"),
    (["--seed", "0"], "--seed"),
    (["--seed", "5", "--checks", "envelopes"], "--seed, --checks"),
])
def test_verify_system_mode_refuses_the_pair_mode_options(runner, files, args, flags):
    # verify has no pair mode: click refuses the first option it does not know.
    result = runner.invoke(main, ["verify", "--system", files["sys_ce1l"], "--horizon", "20", *args])
    assert result.exit_code == 2
    assert f"No such option '{flags.split(', ')[0]}'" in result.output


# --------------------------------------------------------- counterexample


def test_ce1_csv(runner):
    result = runner.invoke(main, ["counterexample", "ce1", "--kmax", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "k,x_k,t_k,s_k,ratio_hi,ratio_lo"
    assert lines[1] == "1,3,3,6,1.0,0.0"
    assert len(lines) == 5


def test_ce1_json(runner):
    result = runner.invoke(main, ["counterexample", "ce1", "--kmax", "3", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert rows[0] == {"k": 1, "x_k": 3, "t_k": 3, "s_k": 6, "ratio_hi": 1.0, "ratio_lo": 0.0}
    assert [r["x_k"] for r in rows] == [3, 10, 30]
    assert [r["t_k"] for r in rows] == [3, 16, 50]


@pytest.mark.parametrize("n, kmax", [(5, 3), (6, 3), (7, 3), (7, 6)])
def test_ce1_cross_check_passes_for_wide_spacings(runner, n, kmax):
    result = runner.invoke(main, ["counterexample", "ce1", "--N", str(n), "--kmax", str(kmax)])
    assert result.exit_code == 0, result.output
    miles = ce1_milestones(n, kmax)
    buf = io.StringIO()
    miles.write_csv(buf)
    assert result.output == buf.getvalue()


# The horizon each over-budget ce1 run asks for: the first time its walk
# passes x_kmax.
OVER_BUDGET = {("--kmax", "20"): 11_767_897_354, ("--N", "10", "--kmax", "8"): 303_030_304}


@pytest.mark.parametrize("args", [list(args) for args in OVER_BUDGET])
def test_ce1_rejects_a_simulation_over_the_step_budget(runner, monkeypatch, args):
    def never(*a, **k):
        raise AssertionError("the simulation must not start")

    monkeypatch.setattr(cli, "observe_ce1_milestones", never)
    result = runner.invoke(main, ["counterexample", "ce1", *args])
    assert result.exit_code == 2
    assert f"needs a {OVER_BUDGET[tuple(args)]}-step simulation" in result.output
    assert f"over the budget of {MAX_STEPS} steps" in result.output


def test_ce2_primed(runner):
    result = runner.invoke(main, ["counterexample", "ce2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["horizon"] == 28
    assert payload["lead_ahead"] == 7
    assert payload["lead_behind"] == 10
    assert payload["paths_admit_order"] is True
    assert payload["final_l"] == 0 and payload["final_r"] == 0
    assert all(c["passed"] for c in payload["checks"].values())


@pytest.mark.parametrize("command", [["counterexample", "ce2"], ["campaign", "--family", "ce2"]])
def test_ce2_primed_refuses_a_cycle_count(runner, command):
    result = runner.invoke(main, [*command, "--variant", "primed", "--cycles", "3"])
    assert result.exit_code == 2
    assert "cycles must be 1 for the primed variant" in result.output


def test_ce2_periodic(runner):
    result = runner.invoke(main, ["counterexample", "ce2", "--variant", "periodic", "--cycles", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["horizon"] == 84
    assert payload["lead_behind"] - payload["lead_ahead"] == 9


# ---------------------------------------------------------------- couple


def test_couple_shared(runner, files):
    result = runner.invoke(
        main, ["couple", "--env", files["env_lo"], "--env2", files["env_hi"], "--horizon", "200"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["provenance"] == "shared-uniform"
    assert payload["relation"] == "trileq"
    assert all(c["status"] != "fail" for c in payload["row"]["checks"].values())


def test_couple_block_family(runner, files):
    # The members are the sorted and reversed base: (0.2, 0.5, 0.7) and (0.7, 0.5, 0.2).
    result = runner.invoke(
        main,
        ["couple", "--family", "block-family", "--env", files["env_asc"],
         "--partition", files["part"], "--horizon", "200"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["provenance"] == "block-family"
    assert payload["relation"] == "preceq"
    assert all(c["status"] != "fail" for c in payload["row"]["checks"].values())


def test_couple_swap_chain(runner, files, tmp_path):
    out = tmp_path / "pair.csv"
    result = runner.invoke(
        main,
        ["couple", "--family", "swap-chain", "--env", files["env_asc"], "--env2", files["env_desc"],
         "--partition", files["part"], "--horizon", "100", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,pos_l,pos_r"
    assert len(lines) == 102
    assert lines[1] == "0,0,0"


def test_couple_shared_refuses_a_partition(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_lo"], "--env2", files["env_hi"],
         "--partition", files["part"], "--horizon", "50"],
    )
    assert result.exit_code == 2
    assert "family shared-uniform does not read --partition\n" in result.output


def test_couple_rejects_unreachable_chain(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--family", "swap-chain", "--env", files["env_desc"], "--env2", files["env_asc"],
         "--partition", files["part"]],
    )
    assert result.exit_code == 2
    assert "not favourable-swap reachable" in result.output


def test_couple_rejects_unordered_pair(runner, files):
    result = runner.invoke(main, ["couple", "--env", files["env_hi"], "--env2", files["env_lo"]])
    assert result.exit_code == 2
    assert "env_l exceeds env_r" in result.output


def test_couple_checks_subset(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_lo"], "--env2", files["env_hi"],
         "--horizon", "100", "--checks", "envelopes,record_lead"],
    )
    assert result.exit_code == 0
    assert set(json.loads(result.output)["row"]["checks"]) == {"envelopes", "record_lead"}


# Trials 0 and 2 of every family, where the family has them: ce1 and ce2
# have only trial 0.
REPLAYS = [
    (family, trial)
    for family in campaign.FAMILIES
    for trial in ((0,) if family in ("ce1", "ce2") else (0, 2))
]


@pytest.mark.parametrize("family, trial", REPLAYS)
def test_couple_replays_the_campaign_trial(runner, tmp_path, family, trial):
    # ce2 does not read the horizon: its case runs at the default.
    horizon = 1000 if family == "ce2" else 60
    options = ["--family", family, "--seed", "7", "--horizon", str(horizon)]
    dump = tmp_path / "trials.csv"
    ran = runner.invoke(main, ["campaign", *options, "--trials", "3", "--no-timestamp",
                               "--out", str(tmp_path / "report.json"), "--dump-trials", str(dump)])
    config = campaign.CampaignConfig(family, trials=3, horizon=horizon, seed=7, include_timestamp=False)
    expected = campaign.run_campaign(config).trials[trial]

    result = runner.invoke(main, ["couple", *options, "--trial", str(trial)])
    assert result.exit_code == ran.exit_code == (1 if family == "independent-control" else 0)
    payload = json.loads(result.output)
    assert payload["row"] == json.loads(json.dumps(expected))
    assert payload["provenance"] and payload["relation"]
    dumped = {
        check: status
        for t, check, status in (line.split(",") for line in dump.read_text().splitlines()[1:])
        if t == str(trial)
    }
    assert dumped == {check: s["status"] for check, s in payload["row"]["checks"].items()}


def test_couple_replays_an_error_row(runner):
    options = ["--family", "envelope", "--eta", "0.1", "--horizon", "50"]
    result = runner.invoke(main, ["couple", *options, "--trial", "1"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    config = campaign.CampaignConfig("envelope", trials=2, horizon=50, eta=(0.1,))
    assert payload["row"] == campaign.run_campaign(config).trials[1]
    assert payload["provenance"] is None and "error" in payload["row"]


@pytest.mark.parametrize("args", [
    ["--trial", str(MAX_TRIALS)],
    ["--family", "ce1", "--trial", "1"],
    ["--family", "ce2", "--trial", "2"],
])
def test_couple_refuses_a_trial_out_of_range(runner, monkeypatch, args):
    def never(*a, **k):
        raise AssertionError("no pair may be built")

    monkeypatch.setattr(campaign, "_build_pair", never)
    result = runner.invoke(main, ["couple", *args])
    assert result.exit_code == 2
    assert "--trial" in result.output


@pytest.mark.parametrize("command", ["campaign", "couple"])
def test_unknown_checks_are_refused(runner, command):
    result = runner.invoke(main, [command, "--checks", "envelopes,bogus"])
    assert result.exit_code == 2
    assert "unknown checks ['bogus']" in result.output
    assert "valid: envelopes, " in result.output


def test_equal_selections_of_checks_print_the_same_report(runner):
    # a selection is kept in STATEMENT_IDS order, each id once
    def report(checks):
        result = runner.invoke(main, ["campaign", "--trials", "2", "--horizon", "60", "--no-timestamp",
                                      "--checks", checks])
        assert result.exit_code == 0, result.output
        return result.output

    both = report("envelopes,record_lead")
    assert '"envelopes",\n      "record_lead"' in both
    assert report("record_lead,envelopes") == both
    assert report("envelopes,record_lead,envelopes") == both
    assert report("envelopes,envelopes") == report("envelopes")


@pytest.mark.parametrize("command", ["campaign", "couple"])
@pytest.mark.parametrize("text", [",", ""])
def test_an_empty_selection_of_checks_is_refused(runner, monkeypatch, command, text):
    def never(*a, **k):
        raise AssertionError("no pair may be built")

    monkeypatch.setattr(campaign, "_build_pair", never)
    result = runner.invoke(main, [command, "--checks", text])
    assert result.exit_code == 2
    assert "selection of checks is empty" in result.output


# -------------------------------------------------------------- campaign


def test_campaign_default_family(runner):
    result = runner.invoke(main, ["campaign", "--trials", "5", "--horizon", "150", "--no-timestamp"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == "arrowwalk-campaign-v1"
    assert payload["config"]["family"] == "shared-uniform"
    assert payload["passed"] is True
    assert payload["wall_clock"] is None


def test_campaign_control_family_fails(runner):
    result = runner.invoke(
        main, ["campaign", "--family", "independent-control", "--trials", "30", "--horizon", "250"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["passed"] is False


def test_campaign_dump_trials(runner, tmp_path):
    report = tmp_path / "report.json"
    dump = tmp_path / "trials.csv"
    result = runner.invoke(
        main,
        ["campaign", "--trials", "4", "--horizon", "150",
         "--out", str(report), "--dump-trials", str(dump)],
    )
    assert result.exit_code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "trial,check,status"
    assert len(lines) == 1 + 4 * 7
    assert json.loads(report.read_text())["passed"] is True


def test_campaign_byte_stable(runner):
    args = ["campaign", "--trials", "6", "--horizon", "150", "--seed", "9", "--no-timestamp"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_campaign_ce1_family(runner):
    result = runner.invoke(
        main, ["campaign", "--family", "ce1", "--horizon", "300", "--kmax", "4", "--no-timestamp"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["extra"]["milestones"]["sites"] == [3, 10, 30, 91]


def test_campaign_rejects_unknown_check(runner):
    result = runner.invoke(main, ["campaign", "--checks", "bogus"])
    assert result.exit_code == 2


def test_campaign_rejects_unordered_shared_envs(runner, files):
    result = runner.invoke(
        main, ["campaign", "--env", files["env_hi"], "--env2", files["env_lo"],
               "--trials", "2", "--horizon", "50"]
    )
    assert result.exit_code == 2
    assert "env_l exceeds env_r" in result.output


def test_campaign_rejects_unreachable_swap_chain(runner, files):
    result = runner.invoke(
        main, ["campaign", "--family", "swap-chain", "--env", files["env_desc"],
               "--env2", files["env_asc"], "--partition", files["part"],
               "--trials", "2", "--horizon", "50"]
    )
    assert result.exit_code == 2
    assert "not favourable-swap reachable" in result.output


@pytest.mark.parametrize("family", ["shared-uniform", "swap-chain"])
@pytest.mark.parametrize("flag", ["--env", "--env2"])
def test_campaign_rejects_a_lone_env(runner, files, family, flag):
    result = runner.invoke(
        main, ["campaign", "--family", family, flag, files["env_asc"],
               "--trials", "2", "--horizon", "50", "--no-timestamp"]
    )
    assert result.exit_code == 2
    assert f"family {family} needs both env and env2" in result.output


@pytest.mark.parametrize("family", ["block-family", "independent-control"])
def test_campaign_env_alone_is_enough(runner, files, family):
    result = runner.invoke(
        main, ["campaign", "--family", family, "--env", files["env_asc"],
               "--trials", "2", "--horizon", "50", "--no-timestamp"]
    )
    assert result.exit_code in (0, 1), result.output
    assert json.loads(result.output)["config"]["env"]["default"] == [0.2, 0.5, 0.7]


@pytest.mark.parametrize("family, args, unread", [
    ("shared-uniform", ["--cycles", "5", "--kmax", "3", "--variant", "periodic"], "kmax, variant, cycles"),
    ("block-family", ["--env2", "{env_hi}"], "env2"),
    ("independent-control", ["--env2", "{env_hi}"], "env2"),
    ("swap-chain", ["--N", "4"], "n"),
    ("envelope", ["--partition", "{part}"], "partition"),
    ("ce1", ["--eta", "0.8,0.8", "--beta", "2"], "eta, beta"),
    ("ce2", ["--env", "{env_lo}"], "env"),
])
def test_campaign_refuses_options_the_family_does_not_read(runner, files, monkeypatch, family, args, unread):
    def never(*a, **k):
        raise AssertionError("no trial may run")

    monkeypatch.setattr(cli, "run_campaign", never)
    # No `--horizon`: ce2 does not read one, and no trial runs.
    result = runner.invoke(main, ["campaign", "--family", family, "--trials", "1",
                                  *(a.format(**files) for a in args)])
    assert result.exit_code == 2
    # The CLI names each option by its flag, `--N` for the config field `n`.
    flags = ", ".join("--N" if o == "n" else f"--{o}" for o in unread.split(", "))
    assert f"family {family} does not read {flags}\n" in result.output


@pytest.mark.parametrize("command", ["campaign", "couple"])
def test_ce2_refuses_a_horizon(runner, monkeypatch, command):
    # The ce2 pair is 28 x cycles steps long, whatever a horizon says.
    def never(*a, **k):
        raise AssertionError("no pair may be built")

    monkeypatch.setattr(campaign, "_build_pair", never)
    result = runner.invoke(main, [command, "--family", "ce2", "--horizon", "5"])
    assert result.exit_code == 2
    assert "family ce2 does not read --horizon\n" in result.output


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_campaign_envelope_refuses_a_beta_out_of_range(runner, beta):
    result = runner.invoke(main, ["campaign", "--family", "envelope", "--beta", beta,
                                  "--trials", "1", "--horizon", "20", "--no-timestamp"])
    assert result.exit_code == 2
    assert "beta must be a finite number >= 0" in result.output


# ----------------------------------------------------------------- stats


def test_stats_payload(runner, files):
    result = runner.invoke(
        main, ["stats", "--env", files["env_hi"], "--trials", "5", "--horizon", "500"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == "arrowwalk-stats-v1"
    for key in ("speed", "max_ratio", "returns", "returns_after", "returns_histogram"):
        assert key in payload
    assert payload["trials"] == 5


def test_stats_to_file(runner, files, tmp_path):
    out = tmp_path / "stats.json"
    result = runner.invoke(
        main,
        ["stats", "--env", files["env_lo"], "--trials", "3", "--horizon", "200", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["trials"] == 3


@pytest.mark.parametrize("command", [["campaign"], ["stats", "--env", "{env_lo}"]])
def test_zero_workers_are_refused(runner, files, command):
    result = runner.invoke(main, [*(a.format(**files) for a in command), "--workers", "0"])
    assert result.exit_code == 2
    assert "--workers" in result.output and "x>=1" in result.output


def test_stats_after_beyond_horizon(runner, files):
    result = runner.invoke(
        main, ["stats", "--env", files["env_lo"], "--horizon", "100", "--after", "200"]
    )
    assert result.exit_code == 2
    assert "--after" in result.output


# ------------------------------------------------------------ step budget


@pytest.mark.parametrize("command", [
    ["run", "--system", "{sys_right}"],
    ["verify", "--system", "{sys_right}"],
    ["couple", "--family", "shared-uniform"],
    ["campaign"],
    ["stats", "--env", "{env_lo}"],
])
def test_horizon_over_the_step_budget_is_refused(runner, files, command):
    args = [a.format(**files) for a in command]
    result = runner.invoke(main, [*args, "--horizon", str(MAX_STEPS + 1)])
    assert result.exit_code == 2
    assert "--horizon" in result.output


@pytest.mark.parametrize("command, option, bound", [
    (["counterexample", "ce1"], "--kmax", MAX_KMAX),
    (["campaign", "--family", "ce1"], "--kmax", MAX_KMAX),
    (["counterexample", "ce2", "--variant", "periodic"], "--cycles", MAX_CYCLES),
    (["campaign", "--family", "ce2", "--variant", "periodic"], "--cycles", MAX_CYCLES),
])
def test_kmax_and_cycles_over_their_bounds_are_refused(runner, monkeypatch, command, option, bound):
    def never(*a, **k):
        raise AssertionError("the work must not start")

    for module in (cli, campaign):
        monkeypatch.setattr(module, "ce1_milestones", never)
        monkeypatch.setattr(module, "build_ce2", never)
    result = runner.invoke(main, [*command, option, str(bound + 1)])
    assert result.exit_code == 2
    assert option in result.output and f"1<=x<={bound}" in result.output


@pytest.mark.parametrize("command", [["campaign"], ["stats", "--env", "{env_lo}"]])
def test_trials_over_their_bound_are_refused(runner, files, monkeypatch, command):
    def never(*a, **k):
        raise AssertionError("no trial may run")

    monkeypatch.setattr(cli, "run_campaign", never)
    monkeypatch.setattr(cli, "speed_and_recurrence_stats", never)
    args = [a.format(**files) for a in command]
    result = runner.invoke(main, [*args, "--trials", str(MAX_TRIALS + 1)])
    assert result.exit_code == 2
    assert "--trials" in result.output and f"1<=x<={MAX_TRIALS}" in result.output


@pytest.mark.parametrize("command", [["counterexample", "ce1"], ["campaign", "--family", "ce1"]])
@pytest.mark.parametrize("n", [str(MAX_N + 1), "1" + "0" * 600])
def test_n_over_its_bound_is_refused(runner, monkeypatch, command, n):
    def never(*a, **k):
        raise AssertionError("the milestone table must not be built")

    for module in (cli, campaign):
        monkeypatch.setattr(module, "ce1_milestones", never)
    result = runner.invoke(main, [*command, "--N", n])
    assert result.exit_code == 2
    assert "--N" in result.output and f"3<=x<={MAX_N}" in result.output


def test_campaign_at_the_n_and_kmax_bounds_reports(runner):
    result = runner.invoke(main, [
        "campaign", "--family", "ce1", "--N", str(MAX_N), "--kmax", str(MAX_KMAX),
        "--trials", "1", "--horizon", "10", "--no-timestamp",
    ])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["config"]["n"] == MAX_N
    assert len(report["extra"]["milestones"]["sites"]) == MAX_KMAX


# CPU seconds a child run of the command line may take.  A campaign on the
# long environment below took 44-63 s on a 2-core Xeon when each environment
# comparison padded every lane to the longest list, and takes about 0.5 s.
CHILD_CPU_S = 20


# Address space a child `stats` run at STATS_HORIZON steps may take.  On a
# 2-core Xeon with Python 3.11 the run needs about 32 MB with its walks'
# counts in bytes, and about 72 MB with them in lists of ints (8 bytes a slot).
CHILD_AS_MB = 56
STATS_HORIZON = 3 * 10**6
# Address space a child shared-uniform `campaign` trial at CAMPAIGN_HORIZON
# steps may take.  On a 2-core Xeon with Python 3.11 the trial needs about
# 72 MB with the field memo's words in arrays of 8-byte words, and about
# 120 MB with them as Python ints in tuples and lists.
CHILD_CAMPAIGN_AS_MB = 96
CAMPAIGN_HORIZON = 3 * 10**5


def run_cpu_limited(args, address_space_mb=None):
    """The command line run in a child process, with its CPU time, and only
    its own, limited to CHILD_CPU_S seconds, and its address space to
    `address_space_mb` MB when given."""

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S + 5))
        if address_space_mb is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space_mb << 20, address_space_mb << 20))

    src = str(Path(arrowwalk.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "arrowwalk.cli", *args],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=10 * CHILD_CPU_S,
    )


@pytest.mark.parametrize("family, flags", [
    ("block-family", ["--env"]),
    ("swap-chain", ["--env", "--env2"]),
])
def test_a_long_environment_file_runs_within_the_cpu_limit(tmp_path, family, flags):
    # 199 KB: sites 1 .. 9,999 list one level each, site 0 lists 10,000.
    sites = {str(s): [0.5] for s in range(1, 10_000)}
    sites["0"] = [0.5] * 10_000
    path = tmp_path / "long_env.json"
    path.write_text(json.dumps({"sites": sites, "default": [], "tail": 0.5}))
    env_args = [arg for flag in flags for arg in (flag, str(path))]
    done = run_cpu_limited([
        "campaign", "--family", family, *env_args, "--trials", "1", "--horizon", "10", "--no-timestamp",
    ])
    assert done.returncode == 0, done.stderr[-500:]
    assert json.loads(done.stdout)["passed"] is True


def test_stats_at_a_long_horizon_runs_within_the_address_space_limit(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"default": [0.6, 0.6], "tail": 0.5}))
    done = run_cpu_limited(
        ["stats", "--env", str(path), "--trials", "1", "--horizon", str(STATS_HORIZON)],
        address_space_mb=CHILD_AS_MB,
    )
    assert done.returncode == 0, done.stderr[-500:]
    payload = json.loads(done.stdout)
    assert payload["horizon"] == STATS_HORIZON and payload["returns"]["count"] == 1


def test_a_campaign_trial_at_a_long_horizon_runs_within_the_address_space_limit():
    done = run_cpu_limited(
        ["campaign", "--family", "shared-uniform", "--trials", "1", "--horizon", str(CAMPAIGN_HORIZON),
         "--seed", "1", "--no-timestamp"],
        address_space_mb=CHILD_CAMPAIGN_AS_MB,
    )
    assert done.returncode == 0, done.stderr[-500:]
    report = json.loads(done.stdout)
    assert report["passed"] is True and report["config"]["horizon"] == CAMPAIGN_HORIZON


def test_importing_the_cli_leaves_the_array_module_unloaded():
    # `array` is a shared library, loaded by the first field digester built,
    # so a CLI call that hashes nothing does not pay for loading it.
    code = (
        "import sys, arrowwalk.cli; print('array' in sys.modules); "
        "from arrowwalk.couplings import FieldStream, UniformField; "
        "FieldStream(UniformField(0), 0); print('array' in sys.modules)"
    )
    src = str(Path(arrowwalk.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]
