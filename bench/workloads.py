"""The four benchmark workloads and the correctness checks on their outputs.

A workload turns a seed into a sequence of chunks.  A chunk is a short list
of jobs, each one call into the library's public entry points
(`run_campaign` or `speed_and_recurrence_stats`) that takes 0.2 to 0.4 s on
a 2-core Xeon at full size.  The runner times chunks one by one, so a
run's figures are medians over chunks.  Chunk `c` of seed `s` uses the
library seed `s * 1000 + c`; chunk 0 of the default seed is the golden
chunk whose reports are pinned by SHA-256 in `golden.json`.

Every job returns its report as canonical text: a campaign report with the
wall clock off, or a stats payload as sorted JSON.  Those texts are what the
golden digests and the traced-versus-untraced comparison hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Union

from arrowwalk import campaign
from arrowwalk.campaign import CampaignConfig
from arrowwalk.couplings import cookie_env

DEFAULT_SEED = 0

# Walks per campaign trial: the coupled pair plus, with returns on, the two
# zero-right return walks.
_PAIR_WALKS = 2
_RETURN_WALKS = 2


@dataclass(frozen=True)
class CampaignJob:
    config: CampaignConfig

    @property
    def trials(self) -> int:
        return self.config.effective_trials()

    @property
    def steps(self) -> int:
        walks = _PAIR_WALKS + (_RETURN_WALKS if self.config.collect_returns else 0)
        return self.trials * walks * self.config.horizon

    def run(self) -> tuple[str, int]:
        """The report text and the number of failed trials: a trial fails
        if its row carries an error or any statement check reports fail."""
        # Looked up on the module at call time, so the tracer's wrapper runs.
        report = campaign.run_campaign(self.config)
        failed = sum(
            1 for row in report.trials
            if "error" in row or any(c["status"] == "fail" for c in row["checks"].values())
        )
        return report.to_json(), failed

    def problems(self, text: str) -> list[str]:
        """Everything wrong with a report, at any seed."""
        report = json.loads(text)
        label = f"{self.config.family} seed {self.config.seed}"
        out = []
        if report["extra"]["errors"]:
            out.append(f"{label}: {report['extra']['errors']} trial(s) raised errors")
        for name, summary in report["checks"].items():
            tallied = summary["pass"] + summary["vacuous"] + summary["fail"]
            if tallied != self.trials:
                out.append(f"{label}: check {name} tallied {tallied} of {self.trials} trials")
            if summary["fail"]:
                out.append(f"{label}: check {name} failed in {summary['fail']} trial(s), "
                           f"first {summary['first_failure']}")
        for stat in ("speed_l", "speed_r", "returns_l", "returns_r"):
            agg = report["aggregates"][stat]
            if agg["count"] != self.trials:
                out.append(f"{label}: aggregate {stat} counted {agg['count']} of {self.trials}")
        for stat in ("speed_l", "speed_r"):
            agg = report["aggregates"][stat]
            if agg["count"] and not -1.0 <= agg["min"] <= agg["max"] <= 1.0:
                out.append(f"{label}: {stat} outside [-1, 1]")
        if not report["passed"] or report["wall_clock"] is not None:
            out.append(f"{label}: passed={report['passed']} wall_clock={report['wall_clock']}")
        return out


@dataclass(frozen=True)
class StatsJob:
    probs: tuple[float, ...]
    trials: int
    horizon: int
    seed: int
    after: int

    @property
    def steps(self) -> int:
        # The raw walk and the zero-right transformed walk of every trial.
        return 2 * self.trials * self.horizon

    def run(self) -> tuple[str, int]:
        payload = campaign.speed_and_recurrence_stats(
            cookie_env(self.probs), self.trials, self.horizon, seed=self.seed, after=self.after
        )
        return json.dumps(payload, sort_keys=True, indent=2) + "\n", 0

    def problems(self, text: str) -> list[str]:
        stats = json.loads(text)
        label = f"stats {self.probs} seed {self.seed}"
        out = []
        n = self.trials
        for key in ("speed", "max_ratio", "returns", "returns_after"):
            if stats[key]["count"] != n:
                out.append(f"{label}: {key} counted {stats[key]['count']} of {n}")
        if sum(stats["returns_histogram"].values()) != n:
            out.append(f"{label}: returns histogram does not sum to {n}")
        if not -1.0 <= stats["speed"]["min"] <= stats["speed"]["max"] <= 1.0:
            out.append(f"{label}: speed outside [-1, 1]")
        if not 0.0 <= stats["max_ratio"]["min"] <= stats["max_ratio"]["max"] <= 1.0:
            out.append(f"{label}: max_ratio outside [0, 1]")
        if stats["returns_after"]["max"] > stats["returns"]["max"]:
            out.append(f"{label}: more late returns than returns")
        if stats["horizon"] != self.horizon or stats["after"] != self.after:
            out.append(f"{label}: payload echoes the wrong configuration")
        return out


Job = Union[CampaignJob, StatsJob]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    chunk: Callable[[int, bool], list[Job]]
    trace_chunks: int

    def jobs(self, seed: int, index: int, tiny: bool = False) -> list[Job]:
        return self.chunk(seed * 1000 + index, tiny)


def _campaign(family: str, trials: int, horizon: int, seed: int, **kw) -> CampaignJob:
    return CampaignJob(
        CampaignConfig(family, trials=trials, horizon=horizon, seed=seed,
                       include_timestamp=False, **kw)
    )


def _shared(seed: int, tiny: bool) -> list[Job]:
    return [_campaign("shared-uniform", *((2, 200) if tiny else (4, 2000)), seed)]


def _envelope(seed: int, tiny: bool) -> list[Job]:
    return [_campaign("envelope", 1, 1000 if tiny else 10_000, seed,
                      eta=(0.9, 0.9), beta=1.0)]


def _blocks(seed: int, tiny: bool) -> list[Job]:
    horizon = 200 if tiny else 2000
    return [
        _campaign("block-family", 1, horizon, seed),
        _campaign("swap-chain", 1 if tiny else 2, horizon, seed),
    ]


def _stats(seed: int, tiny: bool) -> list[Job]:
    horizon, after = (5000, 100) if tiny else (100_000, 1000)
    return [StatsJob(probs, 1, horizon, seed, after) for probs in ((0.6, 0.6), (0.9, 0.9))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shared-campaign",
            "run_campaign(shared-uniform, trials=4, horizon=2000, random ordered envs, returns on)",
            _shared,
            10,
        ),
        Workload(
            "envelope-campaign",
            "run_campaign(envelope, orrw_drift_law(1.0), eta=(0.9, 0.9), trials=1, horizon=10000)",
            _envelope,
            10,
        ),
        Workload(
            "block-couplings",
            "run_campaign(block-family, trials=1) + run_campaign(swap-chain, trials=2), "
            "horizon=2000, default partition",
            _blocks,
            4,
        ),
        Workload(
            "stats-stream",
            "speed_and_recurrence_stats(cookie_env((p, p)), trials=1, horizon=100000, after=1000) "
            "for p = 0.6 and 0.9",
            _stats,
            2,
        ),
    )
}


def digest(texts: list[str]) -> str:
    """SHA-256 over a chunk's report texts, in job order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()
