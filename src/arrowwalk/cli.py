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
from .couplings import (
    UniformField,
    couple_swap_chain,
    couple_block_family,
    load_env,
    load_partition,
    shared_pair,
    sorted_env,
)
from .verify import STATEMENT_IDS, check_pair, make_pair

# Step budget of every --horizon and of the `counterexample ce1` simulation:
# ten million steps take minutes and about a gigabyte of positions.
MAX_STEPS = 10**7
# Largest --kmax: the exact ce1 milestone table costs about kmax^3 big-integer
# steps (2-core Xeon: 0.02 s at 64, 0.8 s at 200, 170 s at 1000).
MAX_KMAX = 64
# Largest --N: the milestone table's cost grows with the digits of N, and a
# report prints each milestone in decimal (at most 4300 digits in Python).
# At kmax 64 and N = 10**6 the largest milestone has 385 digits and the
# table takes about 0.03 s (2-core Xeon).
MAX_N = 10**6
# Largest --cycles: ce2 builds 28 positions per cycle on each path.
MAX_CYCLES = MAX_STEPS // 28


def _load(loader, path: str, what: str):
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise click.UsageError(f"cannot load {what} from {path}: {err}")


def _parse_checks(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if not text:
        return None
    names = tuple(c.strip() for c in text.split(",") if c.strip())
    bad = [c for c in names if c not in STATEMENT_IDS]
    if bad:
        raise click.UsageError(f"unknown checks {bad}; valid: {', '.join(STATEMENT_IDS)}")
    return names


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
@click.option("--system", "system_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Walk this system and check the bookkeeping identities.")
@click.option("--env", "env_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Low environment for a shared-uniform coupled pair.")
@click.option("--env2", "env2_path", default=None, type=click.Path(exists=True, dir_okay=False), help="High environment for a shared-uniform coupled pair.")
@click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--checks", default=None, help="Comma-separated statement ids (default: all).")
@click.option("--out", default=None)
@click.pass_context
def verify(ctx, system_path, env_path, env2_path, horizon, seed, checks, out) -> None:
    """Check identities on one walk, or coupling statements on a pair.

    With --system, runs the walk and scans every bookkeeping identity at
    every time.  With --env and --env2, samples both systems through shared
    uniforms and runs the statement checks on the coupled walks.
    """
    pair_mode = env_path is not None or env2_path is not None
    if pair_mode == (system_path is not None):
        raise click.UsageError("give either --system, or both --env and --env2")
    if pair_mode:
        if env_path is None or env2_path is None:
            raise click.UsageError("pair mode needs both --env and --env2")
        env_l = _load(load_env, env_path, "environment")
        env_r = _load(load_env, env2_path, "environment")
        try:
            pair = shared_pair(env_l, env_r, UniformField(seed), horizon)
        except ValueError as err:
            raise click.UsageError(str(err))
        results = check_pair(pair, _parse_checks(checks))
        payload = [results[name].to_dict() for name in results]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
        if not all(r.passed for r in results.values()):
            ctx.exit(1)
    else:
        system = _load(load_system, system_path, "system")
        traj = run_walk(system, horizon)
        report = scan_identities(traj)
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
    horizon = 2 * miles.first_hits[-1] + 10
    if horizon > MAX_STEPS:
        raise click.UsageError(
            f"--N {n} --kmax {kmax} needs a {horizon}-step simulation, "
            f"over the budget of {MAX_STEPS} steps; lower --kmax or --N"
        )
    observed = observe_ce1_milestones(n, kmax, horizon=horizon)
    match = (
        observed.sites == miles.sites
        and observed.first_hits == miles.first_hits
        and observed.last_exits[:-1] == miles.last_exits[:-1]
    )
    if fmt == "csv":
        with click.open_file(out or "-", "w") as fh:
            miles.write_csv(fh)
    else:
        rows = [
            {
                "k": k + 1,
                "x_k": miles.sites[k],
                "t_k": miles.first_hits[k],
                "s_k": miles.last_exits[k],
                "ratio_hi": miles.ratio_hi[k],
                "ratio_lo": miles.ratio_lo[k],
            }
            for k in range(len(miles.sites))
        ]
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", out)
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
    pair = build_ce2(variant, cycles)
    results = check_pair(pair)
    ahead, behind = lead_sets(pair)
    admitted = paths_admit_preceq(pair.traj_l.positions, pair.traj_r.positions).admits
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


@main.command()
@click.option("--env", "env_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--env2", "env2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--partition", "partition_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["shared", "block-family", "swap-chain"]), default="shared", show_default=True)
@click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, help="Write the coupled paths as CSV (n,pos_l,pos_r).")
@click.pass_context
def couple(ctx, env_path, env2_path, partition_path, mode, horizon, seed, out) -> None:
    """Build one coupled pair of walks and run the statement checks."""
    env_l = _load(load_env, env_path, "environment")
    env_r = _load(load_env, env2_path, "environment")
    field = UniformField(seed)
    try:
        if mode == "shared":
            pair = shared_pair(env_l, env_r, field, horizon)
        else:
            if partition_path is None:
                raise click.UsageError(f"--mode {mode} needs --partition")
            partition = _load(load_partition, partition_path, "partition")
            if mode == "swap-chain":
                pair = couple_swap_chain(env_l, env_r, partition, field, horizon)
            else:
                base = sorted_env(env_l, partition)
                systems = couple_block_family(base, partition, [env_l, env_r], field)
                pair = make_pair(*systems, horizon, relation_mode="preceq", provenance="block-family")
    except ValueError as err:
        raise click.UsageError(str(err))
    results = check_pair(pair)
    if out:
        with click.open_file(out, "w") as fh:
            fh.write("n,pos_l,pos_r\n")
            for i, (a, b) in enumerate(zip(pair.traj_l.positions, pair.traj_r.positions)):
                fh.write(f"{i},{a},{b}\n")
    payload = {
        "provenance": pair.provenance,
        "relation": pair.relation_mode,
        "checks": {name: res.to_dict() for name, res in results.items()},
    }
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    if not all(r.passed for r in results.values()):
        ctx.exit(1)


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), default="shared-uniform", show_default=True)
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--horizon", default=1000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--env", "env_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--env2", "env2_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--partition", "partition_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--eta", default="0.9,0.9", show_default=True, help="Comma-separated envelope thresholds.")
@click.option("--beta", default=1.0, show_default=True, type=float)
@click.option("--checks", default=None, help="Comma-separated statement ids (default: all).")
@click.option("--N", "n", default=3, show_default=True, type=click.IntRange(min=3, max=MAX_N))
@click.option("--kmax", default=8, show_default=True, type=click.IntRange(min=1, max=MAX_KMAX))
@click.option("--variant", type=click.Choice(["primed", "periodic"]), default="primed", show_default=True)
@click.option("--cycles", default=1, show_default=True, type=click.IntRange(min=1, max=MAX_CYCLES))
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--no-returns", is_flag=True, help="Skip the transformed-walk return counts.")
@click.option("--no-timestamp", is_flag=True, help="Omit wall-clock info for byte-stable reports.")
@click.option("--out", default=None, help="Report JSON path ('-' for stdout).")
@click.option("--dump-trials", "dump_trials", default=None, help="Also write per-trial statuses as CSV.")
@click.pass_context
def campaign(ctx, family, trials, horizon, seed, env_path, env2_path, partition_path,
             eta, beta, checks, n, kmax, variant, cycles, workers,
             no_returns, no_timestamp, out, dump_trials) -> None:
    """Run a Monte Carlo campaign and write its aggregate report."""
    try:
        config = CampaignConfig(
            family=family,
            trials=trials,
            horizon=horizon,
            seed=seed,
            env=_load(load_env, env_path, "environment") if env_path else None,
            env2=_load(load_env, env2_path, "environment") if env2_path else None,
            partition=_load(load_partition, partition_path, "partition") if partition_path else None,
            eta=_parse_eta(eta),
            beta=beta,
            checks=_parse_checks(checks),
            n=n,
            kmax=kmax,
            variant=variant,
            cycles=cycles,
            workers=workers,
            collect_returns=not no_returns,
            include_timestamp=not no_timestamp,
        )
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
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--horizon", default=10000, show_default=True, type=click.IntRange(min=1, max=MAX_STEPS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--after", default=0, show_default=True, type=click.IntRange(min=0), help="Burn-in time for the late-return count.")
@click.option("--out", default=None)
def stats(env_path, trials, horizon, seed, after, out) -> None:
    """Speed and running-maximum statistics of sampled walks, plus return
    counts of their zero-right transforms."""
    env = _load(load_env, env_path, "environment")
    if after > horizon:
        raise click.UsageError(f"--after must be <= --horizon, got {after} > {horizon}")
    payload = speed_and_recurrence_stats(env, trials, horizon, seed, after)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


if __name__ == "__main__":
    main()
