"""Monte Carlo campaigns: many coupled trials, statement checks on each,
deterministic aggregate reports.

A campaign fixes a coupling family, a trial count, a horizon, and a seed,
runs every trial through the verifier suite, and aggregates pass, vacuous
and fail counts per statement together with walk statistics.  Reports are
reproducible byte for byte for a given configuration: all randomness is
drawn from `UniformField(seed)` under trial-indexed streams, results are
merged in trial order regardless of worker scheduling, and JSON output
sorts its keys.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import IO, Optional, Sequence

from .core import zero_right_walk
from .counterexamples import build_ce1, build_ce2, ce1_milestones, lead_sets
from .couplings import (
    BlockPartition,
    CookieEnvironment,
    DriftContractError,
    UniformField,
    _limit,
    constant_env,
    cookie_env,
    couple_block_family,
    couple_swap_chain,
    envelope_walk,
    classify_alpha,
    orrw_drift_law,
    sample_system,
    shared_pair,
    sorted_env,
)
from .verify import STATEMENT_IDS, CoupledPair, check_pair, make_pair

# Each family and the options it reads.  Every other option must stay at its
# default, or the report would echo a setting the run never used.
_READS = {
    "shared-uniform": ("env", "env2"),
    "block-family": ("env", "partition"),
    "swap-chain": ("env", "env2", "partition"),
    "envelope": ("eta", "beta"),
    "ce1": ("n", "kmax"),
    "ce2": ("variant", "cycles"),
    "independent-control": ("env",),
}
FAMILIES = tuple(_READS)
_OPTIONS = frozenset().union(*_READS.values())

SCHEMA = "arrowwalk-campaign-v1"


@dataclass
class CampaignConfig:
    """Everything a campaign needs; unset environment fields fall back to
    per-trial randomized defaults where the family allows it.  A family
    refuses a non-default value of an option it does not read."""

    family: str
    trials: int = 100
    horizon: int = 1000
    seed: int = 0
    env: Optional[CookieEnvironment] = None
    env2: Optional[CookieEnvironment] = None
    partition: Optional[BlockPartition] = None
    eta: tuple[float, ...] = (0.9, 0.9)
    beta: float = 1.0
    checks: Optional[tuple[str, ...]] = None
    n: int = 3
    kmax: int = 8
    variant: str = "primed"
    cycles: int = 1
    workers: int = 1
    collect_returns: bool = True
    include_timestamp: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.checks is not None:
            self.checks = tuple(self.checks)
            bad = [c for c in self.checks if c not in STATEMENT_IDS]
            if bad:
                raise ValueError(f"unknown checks {bad}; valid: {', '.join(STATEMENT_IDS)}")
        if self.family in ("shared-uniform", "swap-chain") and (self.env is None) != (self.env2 is None):
            raise ValueError(
                f"family {self.family} needs both env and env2, or neither for random ones"
            )
        if self.family == "ce2" and self.variant == "primed" and self.cycles != 1:
            raise ValueError(f"cycles must be 1 for the primed variant, got {self.cycles}")
        self.eta = tuple(float(e) for e in self.eta)
        unread = [
            f.name for f in fields(self)
            if f.name in _OPTIONS and f.name not in _READS[self.family]
            and getattr(self, f.name) != f.default
        ]
        if unread:
            raise UnreadOptionError(self.family, unread)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def effective_trials(self) -> int:
        """The deterministic families have nothing to vary across trials."""
        return 1 if self.family in ("ce1", "ce2") else self.trials

    def to_json_obj(self) -> dict:
        """Configuration as stable JSON: every field, plus the effective
        trial count.  Execution details (workers, timestamp switch) are
        excluded: they must not affect the report."""
        obj = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name not in ("workers", "include_timestamp")
        }
        for name in ("env", "env2", "partition"):
            if obj[name] is not None:
                obj[name] = obj[name].to_json_obj()
        obj["eta"] = list(self.eta)
        obj["checks"] = list(self.checks or STATEMENT_IDS)
        obj["trials_effective"] = self.effective_trials()
        return obj


class UnreadOptionError(ValueError):
    """A family was given a non-default value of options it does not read,
    named in `options` by their config fields."""

    def __init__(self, family: str, options: Sequence[str]):
        super().__init__(f"family {family} does not read {', '.join(options)}")
        self.options = tuple(options)


def _uniforms(field: UniformField, stream: tuple, count: int) -> list[float]:
    """The uniforms of levels 1 .. count at site 0 of `stream`."""
    return list(itertools.islice(field.uniforms(stream, 0), count))


def _random_ordered_envs(field: UniformField, trial: int) -> tuple[CookieEnvironment, CookieEnvironment]:
    """A random dominated pair: the high environment has three uniform
    excitement levels, the low one shrinks each by an independent factor."""
    hi_vals = _uniforms(field, ("envhi", trial), 3)
    shrink = _uniforms(field, ("envlo", trial), 3)
    hi = cookie_env(tuple(hi_vals))
    lo = cookie_env(tuple(h * s for h, s in zip(hi_vals, shrink)))
    return lo, hi


def _default_partition() -> BlockPartition:
    return BlockPartition(((1, 2, 3),))


def _reversed_env(env: CookieEnvironment, partition: BlockPartition) -> CookieEnvironment:
    """Each block's values sorted descending: the swap-maximal member.
    `sorted_env` pads every lane to cover the partition."""
    asc = sorted_env(env, partition)

    def rev_lane(probs: tuple[float, ...]) -> tuple[float, ...]:
        lst = list(probs)
        for block in partition.blocks:
            vals = sorted((lst[l - 1] for l in block), reverse=True)
            for l, v in zip(block, vals):
                lst[l - 1] = v
        return tuple(lst)

    return CookieEnvironment(
        {s: rev_lane(lst) for s, lst in asc.sites.items()},
        rev_lane(asc.default),
        asc.tail,
    )


def _build_pair(config: CampaignConfig, trial: int, field: UniformField) -> tuple[CoupledPair, dict]:
    """One coupled pair for the given trial, plus family-specific extras."""
    fam = config.family
    h = config.horizon
    extra: dict = {}
    if fam == "shared-uniform":
        if config.env is not None:
            lo, hi = config.env, config.env2
        else:
            lo, hi = _random_ordered_envs(field, trial)
        pair = shared_pair(lo, hi, field, h, stream=("trial", trial))
    elif fam == "independent-control":
        env = config.env or constant_env(0.5)
        pair = make_pair(
            sample_system(env, field, ("ctl", trial, "L")),
            sample_system(env, field, ("ctl", trial, "R")),
            h,
            relation_mode="trileq",
            provenance="independent-control",
        )
    elif fam == "block-family":
        partition = config.partition or _default_partition()
        if config.env is not None:
            base = config.env
        else:
            vals = _uniforms(field, ("envbf", trial), partition.depth())
            base = cookie_env(tuple(vals))
        slow = sorted_env(base, partition)
        fast = _reversed_env(base, partition)
        systems = couple_block_family(base, partition, [slow, fast], field, ("bf", trial))
        pair = make_pair(*systems, h, relation_mode="preceq", provenance="block-family")
    elif fam == "swap-chain":
        partition = config.partition or _default_partition()
        if config.env is not None:
            lo, hi = config.env, config.env2
        else:
            vals = _uniforms(field, ("envsc", trial), partition.depth())
            base = cookie_env(tuple(vals))
            lo = sorted_env(base, partition)
            hi = _reversed_env(base, partition)
        pair = couple_swap_chain(lo, hi, partition, field, h, stream=("sc", trial))
    elif fam == "envelope":
        pair = envelope_walk(orrw_drift_law(config.beta), config.eta, field, h, stream=("ew", trial))
        alpha = sum(2.0 * e - 1.0 for e in config.eta)  # the total excitement mass
        extra["alpha"] = alpha
        extra["alpha_labels"] = classify_alpha(alpha)
    elif fam == "ce1":
        pair = make_pair(*build_ce1(config.n), h, relation_mode="trileq", provenance=f"ce1-{config.n}")
        miles = ce1_milestones(config.n, config.kmax)
        extra["milestones"] = {
            "sites": miles.sites,
            "first_hits": miles.first_hits,
            "last_exits": miles.last_exits,
            "limit_hi": miles.limit_hi,
            "limit_lo": miles.limit_lo,
        }
    elif fam == "ce2":
        pair = build_ce2(config.variant, config.cycles)
        ahead, behind = lead_sets(pair)
        extra["lead_ahead"] = ahead
        extra["lead_behind"] = behind
    else:
        raise ValueError(f"unknown family {fam!r}")
    return pair, extra


def _returns_to_zero(pair: CoupledPair) -> tuple[Optional[int], Optional[int]]:
    """Returns to the origin of the zero-right transformed walks over the
    pair's horizon, when the pair carries its generating systems."""
    out = []
    for traj in (pair.traj_l, pair.traj_r):
        if traj.system is None:
            out.append(None)
            continue
        out.append(zero_right_walk(traj).visit_counts[0] - 1)
    return out[0], out[1]


def replay_trial(config: CampaignConfig, trial: int) -> tuple[dict, Optional[CoupledPair]]:
    """Run one trial end to end: build the pair, check the statements,
    collect walk statistics.  Returns the trial's report row and its
    coupled pair, None when the row is an error row.  A family's extras
    (envelope alpha, ce1 milestones, ce2 lead sets) sit under "extra",
    present only when there are some; the campaign report copies the first
    row's.

    A drift contract violation becomes an error row.  Any other exception
    is raised again naming the family, seed and trial, chained from the
    original.  A ValueError (bad input, such as unordered environments)
    stays a ValueError, so the CLI still reports it as a usage error.
    """
    field = UniformField(config.seed)
    checks = config.checks or STATEMENT_IDS
    try:
        pair, extra = _build_pair(config, trial, field)
        results = check_pair(pair, checks)
        statuses = {}
        for name, res in results.items():
            if not res.passed:
                statuses[name] = {"status": "fail", "witness": res.witness}
            elif res.vacuous:
                statuses[name] = {"status": "vacuous", "witness": None}
            else:
                statuses[name] = {"status": "pass", "witness": None}
        t = pair.horizon
        row = {
            "trial": trial,
            "checks": statuses,
            "speed_l": pair.traj_l.positions[-1] / t,
            "speed_r": pair.traj_r.positions[-1] / t,
            "max_r": max(pair.traj_r.positions),
        }
        if config.collect_returns:
            row["returns_l"], row["returns_r"] = _returns_to_zero(pair)
    except DriftContractError as err:
        return {
            "trial": trial,
            "error": str(err),
            "checks": {c: {"status": "fail", "witness": {"error": str(err)}} for c in checks},
        }, None
    except Exception as err:
        kind = ValueError if isinstance(err, ValueError) else RuntimeError
        raise kind(
            f"{config.family} campaign, seed {config.seed}, trial {trial}: "
            f"{type(err).__name__}: {err}"
        ) from err
    if extra:
        row["extra"] = extra
    return row, pair


def run_trial(config: CampaignConfig, trial: int) -> dict:
    """The report row of one trial, as `replay_trial` computes it."""
    return replay_trial(config, trial)[0]


def _summary(values: Sequence[float]) -> dict:
    vals = [v for v in values if v is not None]
    if not vals:
        return {"count": 0}
    out = {
        "count": len(vals),
        "mean": statistics.fmean(vals),
        "min": min(vals),
        "max": max(vals),
    }
    if len(vals) >= 2:
        q = statistics.quantiles(vals, n=4, method="inclusive")
        out["q25"], out["median"], out["q75"] = q
    else:
        out["q25"] = out["median"] = out["q75"] = vals[0]
    return out


@dataclass
class CampaignReport:
    """Aggregated campaign outcome plus the per-trial rows that fed it."""

    config: CampaignConfig
    check_summary: dict[str, dict]
    aggregates: dict[str, dict]
    extra: dict
    trials: list[dict]
    wall_clock: Optional[dict] = None
    schema: str = SCHEMA

    @property
    def passed(self) -> bool:
        return all(s["fail"] == 0 for s in self.check_summary.values())

    def first_failure(self) -> Optional[dict]:
        candidates = [
            {"check": name, **s["first_failure"]}
            for name, s in self.check_summary.items()
            if s["first_failure"] is not None
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: (c["trial"], c["check"]))

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config.to_json_obj(),
            "checks": self.check_summary,
            "aggregates": self.aggregates,
            "extra": self.extra,
            "passed": self.passed,
            "wall_clock": self.wall_clock,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def write_trials_csv(self, fh: IO[str]) -> None:
        """One row per (trial, check): trial,check,status."""
        fh.write("trial,check,status\n")
        for row in self.trials:
            for name in sorted(row["checks"]):
                fh.write(f"{row['trial']},{name},{row['checks'][name]['status']}\n")


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run every trial of a campaign and aggregate the results.

    Trials are independent given their index, so they may be farmed out to
    worker processes, at most one per CPU and per trial, in about four
    batches per worker; the pool yields rows in trial order either way,
    making the report identical for any worker count.
    """
    started = time.perf_counter()
    trials_n = config.effective_trials()
    workers = min(config.workers, os.cpu_count() or 1, trials_n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                functools.partial(run_trial, config),
                range(trials_n),
                chunksize=-(-trials_n // (workers * 4)),
            ))
    else:
        rows = [run_trial(config, i) for i in range(trials_n)]

    checks = config.checks or STATEMENT_IDS
    check_summary: dict[str, dict] = {}
    for name in checks:
        counts = {"pass": 0, "vacuous": 0, "fail": 0}
        first_failure = None
        for row in rows:
            status = row["checks"][name]["status"]
            counts[status] += 1
            if status == "fail" and first_failure is None:
                first_failure = {
                    "trial": row["trial"],
                    "witness": row["checks"][name]["witness"],
                }
        counts["first_failure"] = first_failure
        check_summary[name] = counts

    aggregates = {
        stat: _summary([row.get(stat) for row in rows])
        for stat in ("speed_l", "speed_r", "max_r", "returns_l", "returns_r")
    }

    extra: dict = {"errors": sum(1 for row in rows if "error" in row)}
    if rows:
        extra.update(rows[0].get("extra", {}))

    wall_clock = None
    if config.include_timestamp:
        wall_clock = {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seconds": round(time.perf_counter() - started, 3),
        }
    return CampaignReport(config, check_summary, aggregates, extra, rows, wall_clock)


# ---------------------------------------------------------------------------
# directional statistics for transformed walks


def _word_limits(env: CookieEnvironment) -> tuple[dict, tuple[int, ...], int]:
    """`env` with each probability p replaced by its word limit `_limit(p)`:
    (listed sites, default, tail)."""
    return (
        {site: tuple(map(_limit, lst)) for site, lst in env.sites.items()},
        tuple(map(_limit, env.default)),
        _limit(env.tail),
    )


def _cookie_walk_stats(
    limits: tuple[dict, tuple[int, ...], int],
    field: UniformField,
    stream: object,
    horizon: int,
    after: int,
    transformed: bool,
) -> dict:
    """One walk of a system sampled from the environment whose word limits
    are `limits` (see `_word_limits`), driven by sequential words.  With
    `transformed` set, steps from the origin and below are forced Right, as
    under the zero-right transform.

    Each cell is consumed at most once, so feeding fresh uniforms in step
    order draws from the same law as sampling the system cell by cell; it
    just skips the per-site bookkeeping and runs much faster.  A step goes
    Right when its word is below the cell's limit, which is exactly when
    its uniform is below the cell's probability.
    """
    pos = 0
    # Visit counts by position.  The raw walk stays in [-horizon, horizon]
    # and a negative position indexes from the end of the list; the
    # transformed walk never goes below 0.
    visits = [0] * (horizon + 1 if transformed else 2 * horizon + 1)
    visits[0] = 1
    sites, dflt, tail = limits
    homogeneous = not sites
    nd = len(dflt)
    words = field.words(stream, 0)
    returns = 0
    returns_after = 0
    max_pos = 0
    for n in range(1, horizon + 1):
        if transformed and pos <= 0:
            pos += 1
        else:
            a = next(words)
            k = visits[pos]
            if homogeneous:
                limit = dflt[k - 1] if k <= nd else tail
            else:  # as `env.prob`: the site's list or the default, then the tail
                lst = sites.get(pos, dflt)
                limit = lst[k - 1] if k <= len(lst) else tail
            if a < limit:
                pos += 1
            else:
                pos -= 1
        visits[pos] += 1
        if pos > max_pos:
            max_pos = pos
        if pos == 0:
            returns += 1
            if n > after:
                returns_after += 1
    return {
        "speed": pos / horizon,
        "max_pos": max_pos,
        "returns": returns,
        "returns_after": returns_after,
    }


def speed_and_recurrence_stats(
    env: CookieEnvironment,
    trials: int,
    horizon: int,
    seed: int = 0,
    after: int = 0,
) -> dict:
    """Directional summary of walks in systems sampled from `env`: endpoint
    speed and running maximum of the plain walk, and returns to the origin
    (total, after the burn-in time `after`, and as a histogram) of the
    zero-right transformed walk."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= after <= horizon:
        raise ValueError(f"after must be in [0, {horizon}], got {after}")
    field = UniformField(seed)
    limits = _word_limits(env)
    raw = [
        _cookie_walk_stats(limits, field, ("stats", i, "raw"), horizon, after, False)
        for i in range(trials)
    ]
    plus = [
        _cookie_walk_stats(limits, field, ("stats", i, "plus"), horizon, after, True)
        for i in range(trials)
    ]
    histogram = Counter(r["returns"] for r in plus)
    return {
        "schema": "arrowwalk-stats-v1",
        "env": env.to_json_obj(),
        "trials": trials,
        "horizon": horizon,
        "seed": seed,
        "after": after,
        "speed": _summary([r["speed"] for r in raw]),
        "max_ratio": _summary([r["max_pos"] / horizon for r in raw]),
        "returns": _summary([r["returns"] for r in plus]),
        "returns_after": _summary([r["returns_after"] for r in plus]),
        "returns_histogram": {k: histogram[k] for k in sorted(histogram)},
    }
