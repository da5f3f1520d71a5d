"""Command line surface: each subcommand's happy path, output formats,
and the exit-code contract (0 pass, 1 check failure, 2 usage error)."""

import json

import pytest
from click.testing import CliRunner

from arrowwalk import campaign, cli
from arrowwalk.cli import MAX_CYCLES, MAX_KMAX, MAX_N, MAX_STEPS, main


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


# ---------------------------------------------------------------- verify


def test_verify_system_mode(runner, files):
    result = runner.invoke(main, ["verify", "--system", files["sys_ce1l"], "--horizon", "200"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert payload["t"] == 200
    assert all(payload["ok"].values())


def test_verify_pair_mode(runner, files):
    result = runner.invoke(
        main,
        ["verify", "--env", files["env_lo"], "--env2", files["env_hi"], "--horizon", "300"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 7
    assert all(entry["passed"] for entry in payload)


def test_verify_checks_subset(runner, files):
    result = runner.invoke(
        main,
        ["verify", "--env", files["env_lo"], "--env2", files["env_hi"],
         "--horizon", "100", "--checks", "envelopes,record_lead"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert {entry["statement"] for entry in payload} == {"envelopes", "record_lead"}


def test_verify_mode_flags(runner, files):
    both = runner.invoke(
        main, ["verify", "--system", files["sys_ce1l"], "--env", files["env_lo"], "--env2", files["env_hi"]]
    )
    assert both.exit_code == 2
    neither = runner.invoke(main, ["verify"])
    assert neither.exit_code == 2
    half = runner.invoke(main, ["verify", "--env", files["env_lo"]])
    assert half.exit_code == 2


def test_verify_rejects_unordered_pair(runner, files):
    result = runner.invoke(main, ["verify", "--env", files["env_hi"], "--env2", files["env_lo"]])
    assert result.exit_code == 2
    assert "exceeds" in result.output


def test_verify_rejects_unknown_check(runner, files):
    result = runner.invoke(
        main, ["verify", "--env", files["env_lo"], "--env2", files["env_hi"], "--checks", "bogus"]
    )
    assert result.exit_code == 2
    assert "unknown checks" in result.output


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


@pytest.mark.parametrize("args", [["--kmax", "20"], ["--N", "10", "--kmax", "8"]])
def test_ce1_rejects_a_simulation_over_the_step_budget(runner, monkeypatch, args):
    def never(*a, **k):
        raise AssertionError("the simulation must not start")

    monkeypatch.setattr(cli, "observe_ce1_milestones", never)
    result = runner.invoke(main, ["counterexample", "ce1", *args])
    assert result.exit_code == 2
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
    assert all(c["passed"] for c in payload["checks"].values())


def test_couple_block_family(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_asc"], "--env2", files["env_desc"],
         "--partition", files["part"], "--mode", "block-family", "--horizon", "200"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["provenance"] == "block-family"
    assert payload["relation"] == "preceq"
    assert all(c["passed"] for c in payload["checks"].values())


def test_couple_swap_chain(runner, files, tmp_path):
    out = tmp_path / "pair.csv"
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_asc"], "--env2", files["env_desc"],
         "--partition", files["part"], "--mode", "swap-chain",
         "--horizon", "100", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,pos_l,pos_r"
    assert len(lines) == 102
    assert lines[1] == "0,0,0"


def test_couple_needs_partition(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_asc"], "--env2", files["env_desc"], "--mode", "swap-chain"],
    )
    assert result.exit_code == 2
    assert "--partition" in result.output


def test_couple_rejects_unreachable_chain(runner, files):
    result = runner.invoke(
        main,
        ["couple", "--env", files["env_desc"], "--env2", files["env_asc"],
         "--partition", files["part"], "--mode", "swap-chain"],
    )
    assert result.exit_code == 2


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
    ["couple", "--env", "{env_lo}", "--env2", "{env_hi}"],
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
