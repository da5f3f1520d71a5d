"""Two explicit system pairs that separate the stack orders from naive
path-by-path comparisons.

The first pair (ce1) is stack-ordered in the strong cell-by-cell sense yet
the dominated walk is eventually far ahead of the dominating one at
matching times.  The second pair (ce2) consists of two fixed finite paths
admitting stack-ordered generators although the supposedly faster walk
trails at most intermediate times; repeating the pattern makes the deficit
grow linearly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, TextIO

from .core import (
    LEFT,
    RIGHT,
    Arrow,
    ArrowSystem,
    Trajectory,
    run_walk,
)
from .verify import CoupledPair


class Ce1LeftSystem(ArrowSystem):
    """Slow member of the ce1 pair.

    Site 0 holds only Right arrows.  Every positive site holds two Lefts
    and then Rights.  Negative sites hold Rights (never reached).  The walk
    grinds forward one site per five steps: position at time 5k is k.
    """

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if site > 0 and level <= 2:
            return LEFT
        return RIGHT


class Ce1RightSystem(ArrowSystem):
    """Fast member of the ce1 pair, parameterized by n >= 2 (the pair
    built by `build_ce1` needs n >= 3).

    Site 0 holds only Rights.  A sparse increasing set of marker sites
    x_1 < x_2 < ... holds one Left then Rights; every other positive site
    holds Right, Left, then Rights.  Negative sites hold Rights.

    The walk shoots from one marker to the next, then backtracks to the
    previous marker before shooting again, giving long runs at full speed
    separated by retreats.  Between consecutive markers each site is
    visited exactly three times.

    Cell by cell, every Right in `Ce1LeftSystem` is matched by a Right
    here, yet for n >= 3 this walk is eventually behind at the slow walk's
    pace and ahead only in bursts.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        self._sites = marker_sites(n)
        self._last = next(self._sites)
        self._markers = {self._last}

    def _is_marker(self, site: int) -> bool:
        while self._last < site:
            self._last = next(self._sites)
            self._markers.add(self._last)
        return site in self._markers

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if site <= 0:
            return RIGHT
        if self._is_marker(site):
            return LEFT if level == 1 else RIGHT
        return LEFT if level == 2 else RIGHT


def marker_sites(n: int) -> Iterator[int]:
    """The marker sites x_1 < x_2 < ... of the ce1 fast walk, without end.

    x_k = 1 + a_1 + ... + a_k, where a_0 = 1 and a_m = n^m - a_(m-1), so
    each marker costs one multiplication and two additions of exact
    integers.
    """
    power = gap = site = 1
    while True:
        power *= n
        gap = power - gap
        site += gap
        yield site


def build_ce1(n: int = 3) -> tuple[ArrowSystem, ArrowSystem]:
    """The ce1 pair (slow system, fast system) for a given n >= 3."""
    if n < 3:
        raise ValueError(f"n must be >= 3 for the speed inversion to occur, got {n}")
    return Ce1LeftSystem(), Ce1RightSystem(n)


@dataclass
class Ce1Milestones:
    """Exact milestone table of the ce1 fast walk.

    For k = 1..kmax:
      sites[k-1]       x_k, the k-th marker site
      first_hits[k-1]  t_k, the time the walk first reaches x_k
      last_exits[k-1]  s_k, the time of the final visit to x_{k-1}
      ratio_hi[k-1]    x_k / t_k          (position per unit time at peaks)
      ratio_lo[k-1]    x_{k-1} / s_k      (position per unit time at troughs)

    The ratios converge to n/(n+2) and 1/(2n+1) respectively.  `pass_time`
    is the time the walk first passes x_kmax, when every milestone above
    is in the past.
    """

    n: int
    sites: list[int]
    first_hits: list[int]
    last_exits: list[int]

    @property
    def kmax(self) -> int:
        return len(self.sites)

    @property
    def pass_time(self) -> int:
        """s_kmax, then x_kmax - x_(kmax-1) steps back out, then one more."""
        return 3 * self.sites[-1] + 1

    @property
    def ratio_hi(self) -> list[float]:
        return [x / t for x, t in zip(self.sites, self.first_hits)]

    @property
    def ratio_lo(self) -> list[float]:
        return [p / s for p, s in zip([0] + self.sites[:-1], self.last_exits)]

    @property
    def limit_hi(self) -> float:
        return self.n / (self.n + 2)

    @property
    def limit_lo(self) -> float:
        return 1 / (2 * self.n + 1)

    def rows(self) -> list[dict]:
        """The table, one row per k, keyed by column name."""
        columns = zip(self.sites, self.first_hits, self.last_exits, self.ratio_hi, self.ratio_lo)
        return [
            {"k": k, "x_k": x, "t_k": t, "s_k": s, "ratio_hi": hi, "ratio_lo": lo}
            for k, (x, t, s, hi, lo) in enumerate(columns, start=1)
        ]

    def write_csv(self, fh: TextIO) -> None:
        """The rows as CSV; floats are written by their repr."""
        writer = csv.DictWriter(
            fh, ["k", "x_k", "t_k", "s_k", "ratio_hi", "ratio_lo"], lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(self.rows())


def ce1_milestones(n: int = 3, kmax: int = 8) -> Ce1Milestones:
    """Closed-form milestones of the ce1 fast walk, exact in integers.

    Between markers the walk crosses each site three times (out, back,
    out), so the k-th first-hit and last-exit times satisfy
        t_k = x_k + 2 x_{k-1},
        s_k = 2 x_k + x_{k-1},
    with x_0 = 0.  Python integers are arbitrary precision, so no overflow
    guard is needed even though the milestones grow like n^k.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    sites = list(islice(marker_sites(n), kmax))
    prev = [0] + sites[:-1]
    first_hits = [x + 2 * p for x, p in zip(sites, prev)]
    last_exits = [2 * x + p for x, p in zip(sites, prev)]
    return Ce1Milestones(n, sites, first_hits, last_exits)


def observe_ce1_milestones(n: int, kmax: int, horizon: int) -> Ce1Milestones:
    """Milestones read off a simulated ce1 fast walk, for cross-validation.

    Simulates the walk for `horizon` steps and records the observed
    first-hit time of each marker and the observed final visit time of the
    previous marker.  Raises unless the walk has passed x_kmax, which it
    first does at `Ce1Milestones.pass_time`: from then on it never comes
    back below x_kmax, so every final visit is in the past.
    """
    traj = run_walk(Ce1RightSystem(n), horizon)
    sites = list(islice(marker_sites(n), kmax))
    if max(traj.positions) <= sites[-1]:
        raise ValueError(
            f"horizon {horizon} too short: walk only reached "
            f"{max(traj.positions)}, needs to pass {sites[-1]}"
        )
    watched = {0, *sites}
    first_hit = {}
    last_seen = {}
    for t, p in enumerate(traj.positions):
        if p in watched:
            first_hit.setdefault(p, t)
            last_seen[p] = t
    first_hits = [first_hit[x] for x in sites]
    last_exits = [last_seen[p] for p in [0] + sites[:-1]]
    return Ce1Milestones(n, sites, first_hits, last_exits)


# ---------------------------------------------------------------------------
# ce2: a fixed finite path pair


CE2_RIGHT_PATH = (
    0, 1, 2, 1, 0, -1, -2, -3, -4, -5, -6, -5, -4, -3, -4,
    -5, -4, -3, -2, -3, -4, -3, -2, -1, -2, -3, -2, -1, 0,
)

CE2_LEFT_PATH = (
    0, -1, -2, -3, -4, -5, -6, -5, -4, -3, -4, -5, -4, -3, -2,
    -3, -4, -3, -2, -1, -2, -3, -2, -1, 0, 1, 2, 1, 0,
)

def build_ce2(variant: str = "primed", cycles: int = 1) -> CoupledPair:
    """A coupled path pair admitting stack-ordered generators where the
    dominated path leads at most intermediate times.

    variant "primed": the fixed 28-step pair.  Both paths end at 0, visit
    every site equally often overall, and `paths_admit_preceq` accepts
    them, yet the nominally slower path holds the lead at 10 of the first
    28 times against 7.

    variant "periodic": the same pair repeated `cycles` times.  Both paths
    return to 0 at the end of each cycle, so the repetition is again a
    valid path pair, and the dominated path's cumulative lead-count excess
    grows by 3 per 28-step cycle.  The primed variant takes only cycles=1.
    """
    if variant == "primed":
        if cycles != 1:
            raise ValueError(f"cycles must be 1 for the primed variant, got {cycles}")
    elif variant == "periodic":
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
    else:
        raise ValueError(f"variant must be 'primed' or 'periodic', got {variant!r}")
    path_r = list(CE2_RIGHT_PATH)
    path_l = list(CE2_LEFT_PATH)
    for _ in range(cycles - 1):
        path_r.extend(CE2_RIGHT_PATH[1:])
        path_l.extend(CE2_LEFT_PATH[1:])
    return CoupledPair(
        Trajectory.from_positions(path_l),
        Trajectory.from_positions(path_r),
        relation_mode="preceq",
        provenance=f"ce2-{variant}" + (f"-x{cycles}" if variant == "periodic" else ""),
    )


def lead_sets(pair: CoupledPair, t: Optional[int] = None) -> tuple[int, int]:
    """Count times n <= t when the R path strictly leads and when it trails."""
    if t is None:
        t = pair.horizon
    if not 0 <= t <= pair.horizon:
        raise ValueError(f"t must be in [0, {pair.horizon}], got {t}")
    ahead = 0
    behind = 0
    pl = pair.traj_l.positions
    pr = pair.traj_r.positions
    for n in range(t + 1):
        if pr[n] > pl[n]:
            ahead += 1
        elif pr[n] < pl[n]:
            behind += 1
    return ahead, behind
