"""Command line interface.

Exit codes: 0 when everything asked for passed, 1 when a check failed,
2 for usage or input errors (click's default for bad invocations).
"""

from __future__ import annotations

import json
from typing import Optional

import click

from .campaign import (
    FAMILIES,
    CampaignConfig,
    UnreadOptionError,
    replay_trial,
    run_campaign,
    speed_and_recurrence_stats,
)
from .core import (
    load_system,
    run_walk,
    scan_identities,
    write_trajectory_csv,
    paths_admit_preceq,
)
from .counterexamples import (
    build_ce2,
    ce1_milestones,
    lead_sets,
    observe_ce1_milestones,
)
from .couplings import load_env, load_partition
from .verify import check_pair

# Step budget of every --horizon and of the `counterexample ce1` simulation:
# ten million steps take minutes.  A campaign trial's peak RSS grows by 155-185
# bytes per step (one shared-uniform and one envelope trial, each in a child
# process, from 10**5 to 10**6 steps), so a trial at the bound needs about
# 1.9 GB in each worker.  A stats trial's grows by about 2 bytes per step, one
# byte of counts per position its walks reach, so 20 MB at the bound.
MAX_STEPS = 10**7
# Largest --kmax and --N: together they keep every milestone a report prints
# in decimal under Python's 4300-digit limit.  At kmax 64 and N = 10**6 the
# largest milestone has 385 digits.
MAX_KMAX = 64
MAX_N = 10**6
# Largest --cycles: ce2 builds 28 positions per cycle on each path.
MAX_CYCLES = MAX_STEPS // 28
# Largest --trials of `campaign` and `stats`; `couple --trial` stays below
# it.  A campaign keeps one row of 3.0 to 3.4 KB per trial (tracemalloc,
# 200-trial runs at horizon 50 of the shared-uniform, envelope and
# independent-control families), so 10**5 trials hold up to about 0.35 GB
# of rows.
MAX_TRIALS = 10**5


def _load(loader, path: str, what: str):
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise click.UsageError(f"cannot load {what} from {path}: {err}")


def _parse_checks(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if text is None:
        return None
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _parse_eta(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as err:
        raise click.UsageError(f"bad eta list {text!r}: {err}")


def _emit(text: str, out: Optional[str]) -> None:
    with click.open_file(out or "-", "w") as fh:
        fh.write(text)


@click.group()
def main() -> None:
    """Self-interacting walks on explicit arrow stacks: run them, verify
    coupling statements, reproduce the extreme examples, and batch trials
    into deterministic campaigns."""


@main.command(name="run")
@click.option("--system", "system_path", required=True, type=click.Path(exists=True, dir_okay=False), help="System JSON file.")
@click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=0, max=MAX_STEPS))
@click.option("--out", default=None, help="Output path ('-' for stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def run_cmd(system_path: str, horizon: int, out: Optional[str], fmt: str) -> None:
    """Walk a system and write the trajectory."""
    system = _load(load_system, system_path, "system")
    traj = run_walk(system, horizon)
    if fmt == "csv":
        with click.open_file(out or "-", "w") as fh:
            write_trajectory_csv(traj, fh)
    else:
        rows = [{"n": i, "pos": p} for i, p in enumerate(traj.positions)]
        _emit(json.dumps(rows, sort_keys=True) + "\n", out)


@main.command()
@click.option("--system", "system_path", required=True, type=click.Path(exists=True, dir_okay=False), help="System JSON file.")
@click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--out", default=None)
@click.pass_context
def verify(ctx, system_path, horizon, out) -> None:
    """Walk a system and check the bookkeeping identities at every time."""
    system = _load(load_system, system_path, "system")
    report = scan_identities(run_walk(system, horizon))
    payload = {
        "t": report.t,
        "passed": report.passed,
        "ok": report.ok,
        "witnesses": {k: list(v) for k, v in report.witnesses.items()},
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    if not report.passed:
        ctx.exit(1)


@main.group()
def counterexample() -> None:
    """Reproduce the two extreme examples and verify their exact values."""


@counterexample.command()
@click.option("--N", "n", default=3, show_default=True, type=click.IntRange(min=3, max=MAX_N), help="Marker spacing parameter.")
@click.option("--kmax", default=8, show_default=True, type=click.IntRange(min=1, max=MAX_KMAX))
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.pass_context
def ce1(ctx, n: int, kmax: int, out: Optional[str], fmt: str) -> None:
    """Milestone table of the marker system pair: closed forms checked
    against a fresh simulation."""
    miles = ce1_milestones(n, kmax)
    if miles.pass_time > MAX_STEPS:
        raise click.UsageError(
            f"--N {n} --kmax {kmax} needs a {miles.pass_time}-step simulation, "
            f"over the budget of {MAX_STEPS} steps; lower --kmax or --N"
        )
    match = observe_ce1_milestones(n, kmax, horizon=miles.pass_time) == miles
    if fmt == "csv":
        with click.open_file(out or "-", "w") as fh:
            miles.write_csv(fh)
    else:
        _emit(json.dumps(miles.rows(), sort_keys=True, indent=2) + "\n", out)
    if not match:
        click.echo("simulation disagrees with the closed forms", err=True)
        ctx.exit(1)


@counterexample.command()
@click.option("--variant", type=click.Choice(["primed", "periodic"]), default="primed", show_default=True)
@click.option("--cycles", default=1, show_default=True, type=click.IntRange(min=1, max=MAX_CYCLES))
@click.option("--out", default=None)
@click.pass_context
def ce2(ctx, variant: str, cycles: int, out: Optional[str]) -> None:
    """The hand-built ordered pair whose R walk trails at many times:
    statement checks plus its lead-time counts."""
    try:
        pair = build_ce2(variant, cycles)
    except ValueError as err:
        raise click.UsageError(str(err))
    results = check_pair(pair)
    ahead, behind = lead_sets(pair)
    admitted = paths_admit_preceq(pair.traj_l.positions, pair.traj_r.positions).holds
    payload = {
        "variant": variant,
        "cycles": cycles,
        "horizon": pair.horizon,
        "lead_ahead": ahead,
        "lead_behind": behind,
        "paths_admit_order": admitted,
        "final_l": pair.traj_l.positions[-1],
        "final_r": pair.traj_r.positions[-1],
        "checks": {name: res.to_dict() for name, res in results.items()},
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    if not (admitted and all(r.passed for r in results.values())):
        ctx.exit(1)


# The options that fix one campaign trial, shared by `campaign` and `couple`.
_TRIAL_OPTIONS = (
    click.option("--family", type=click.Choice(FAMILIES), default="shared-uniform", show_default=True),
    click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS)),
    click.option("--seed", default=0, show_default=True, type=int),
    click.option("--env", "env_path", default=None, type=click.Path(exists=True, dir_okay=False)),
    click.option("--env2", "env2_path", default=None, type=click.Path(exists=True, dir_okay=False)),
    click.option("--partition", "partition_path", default=None, type=click.Path(exists=True, dir_okay=False)),
    click.option("--eta", default="0.9,0.9", show_default=True, help="Comma-separated envelope thresholds."),
    click.option("--beta", default=1.0, show_default=True, type=float),
    click.option("--checks", default=None, help="Comma-separated statement ids (default: all)."),
    click.option("--N", "n", default=3, show_default=True, type=click.IntRange(min=3, max=MAX_N)),
    click.option("--kmax", default=8, show_default=True, type=click.IntRange(min=1, max=MAX_KMAX)),
    click.option("--variant", type=click.Choice(["primed", "periodic"]), default="primed", show_default=True),
    click.option("--cycles", default=1, show_default=True, type=click.IntRange(min=1, max=MAX_CYCLES)),
    click.option("--no-returns", is_flag=True, help="Skip the transformed-walk return counts."),
)


def _trial_options(command):
    for option in reversed(_TRIAL_OPTIONS):
        command = option(command)
    return command


def _config(ctx, family, env_path, env2_path, partition_path, eta, checks, no_returns,
            **options) -> CampaignConfig:
    """The campaign configuration of the trial options, loading their files.
    A refused option is named by its flag, as typed."""
    try:
        return CampaignConfig(
            family=family,
            env=_load(load_env, env_path, "environment") if env_path else None,
            env2=_load(load_env, env2_path, "environment") if env2_path else None,
            partition=_load(load_partition, partition_path, "partition") if partition_path else None,
            eta=_parse_eta(eta),
            checks=_parse_checks(checks),
            collect_returns=not no_returns,
            **options,
        )
    except UnreadOptionError as err:
        # Each option as typed: its parameter is the field, or the field's file.
        flags = {p.name.removesuffix("_path"): p.opts[0] for p in ctx.command.params}
        raise click.UsageError(
            f"family {family} does not read {', '.join(flags[o] for o in err.options)}"
        )
    except ValueError as err:
        raise click.UsageError(str(err))


@main.command()
@_trial_options
@click.option("--trial", default=0, show_default=True, type=click.IntRange(min=0, max=MAX_TRIALS - 1), help="The campaign trial to replay.")
@click.option("--out", default=None, help="Write the coupled paths as CSV (n,pos_l,pos_r); an error row has none.")
@click.pass_context
def couple(ctx, trial, out, **trial_options) -> None:
    """Replay one campaign trial: build its coupled pair, run the statement
    checks, and print the trial's report row with the pair's provenance and
    relation."""
    config = _config(ctx, trials=trial + 1, **trial_options)
    if trial >= config.effective_trials():
        raise click.UsageError(
            f"family {config.family} has only trial 0, got --trial {trial}"
        )
    try:
        row, pair = replay_trial(config, trial)
    except ValueError as err:
        raise click.UsageError(str(err))
    if out and pair is not None:
        with click.open_file(out, "w") as fh:
            fh.write("n,pos_l,pos_r\n")
            for i, (a, b) in enumerate(zip(pair.traj_l.positions, pair.traj_r.positions)):
                fh.write(f"{i},{a},{b}\n")
    payload = {
        "provenance": pair.provenance if pair else None,
        "relation": pair.relation_mode if pair else None,
        "row": row,
    }
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    if any(c["status"] == "fail" for c in row["checks"].values()):
        ctx.exit(1)


@main.command()
@_trial_options
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1, max=MAX_TRIALS))
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--no-timestamp", is_flag=True, help="Omit wall-clock info for byte-stable reports.")
@click.option("--out", default=None, help="Report JSON path ('-' for stdout).")
@click.option("--dump-trials", "dump_trials", default=None, help="Also write per-trial statuses as CSV.")
@click.pass_context
def campaign(ctx, trials, workers, no_timestamp, out, dump_trials, **trial_options) -> None:
    """Run a Monte Carlo campaign and write its aggregate report."""
    config = _config(ctx, trials=trials, workers=workers, include_timestamp=not no_timestamp,
                     **trial_options)
    try:
        report = run_campaign(config)
    except ValueError as err:
        raise click.UsageError(str(err))
    _emit(report.to_json(), out)
    if dump_trials:
        with click.open_file(dump_trials, "w") as fh:
            report.write_trials_csv(fh)
    if not report.passed:
        ctx.exit(1)


@main.command()
@click.option("--env", "env_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1, max=MAX_TRIALS))
@click.option("--horizon", default=10000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--after", default=0, show_default=True, type=click.IntRange(min=0), help="Burn-in time for the late-return count.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--out", default=None)
def stats(env_path, trials, horizon, seed, after, workers, out) -> None:
    """Speed and running-maximum statistics of sampled walks, plus return
    counts of their zero-right transforms."""
    env = _load(load_env, env_path, "environment")
    if after > horizon:
        raise click.UsageError(f"--after must be <= --horizon, got {after} > {horizon}")
    payload = speed_and_recurrence_stats(env, trials, horizon, seed, after, workers)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


if __name__ == "__main__":
    main()
