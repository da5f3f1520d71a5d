"""Finite-horizon checkers for the path consequences of stack order.

Each checker consumes a coupled pair of equal-length paths (L, R), where R
is the walk whose system dominates, and decides one falsifiable statement
about the pair up to the common horizon.  All checkers are pure path
predicates: they never look at the generating systems, only at positions
and the counts derived from them.

A statement whose hypothesis never fires within the horizon is reported as
passed with `vacuous=True` so that downstream aggregation can tell the two
apart.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import RELATION_MODES, ArrowSystem, Trajectory, run_walk, validate_path

STATEMENT_IDS = (
    "envelopes",
    "hitting_order",
    "count_dominance",
    "max_visits",
    "neighbour_interval",
    "kth_visit_counts",
    "record_lead",
)


@dataclass
class VerifyResult:
    """Outcome of one statement check over a coupled pair."""

    statement: str
    passed: bool
    vacuous: bool = False
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "witness": self.witness,
        }


@dataclass
class CoupledPair:
    """Two equal-horizon paths tied together by how they were built.

    `relation_mode` names the stack order claimed for the generating
    systems ("preceq" or "trileq"); `provenance` records the construction.
    """

    traj_l: Trajectory
    traj_r: Trajectory
    relation_mode: str = "preceq"
    provenance: str = ""

    def __post_init__(self):
        if self.traj_l.horizon != self.traj_r.horizon:
            raise ValueError(
                f"coupled pair horizons differ: {self.traj_l.horizon} "
                f"vs {self.traj_r.horizon}"
            )
        if self.traj_l.positions[0] != 0 or self.traj_r.positions[0] != 0:
            raise ValueError("both paths of a coupled pair must start at 0")
        if self.relation_mode not in RELATION_MODES:
            raise ValueError(
                f"relation_mode must be one of {RELATION_MODES}, "
                f"got {self.relation_mode!r}"
            )

    @property
    def horizon(self) -> int:
        return self.traj_l.horizon


def make_pair(
    sys_l: ArrowSystem,
    sys_r: ArrowSystem,
    horizon: int,
    relation_mode: str = "preceq",
    provenance: str = "",
) -> CoupledPair:
    """Run both systems' walks to a common horizon and bundle them."""
    return CoupledPair(
        run_walk(sys_l, horizon),
        run_walk(sys_r, horizon),
        relation_mode=relation_mode,
        provenance=provenance,
    )


class PairChecker:
    """Single-pass incremental evaluator of all pair statements.

    Walks both paths once, maintaining per-site visit counts, their
    difference profile, running extremes and per-visit neighbour counts,
    so that every enabled statement is checked at every time step at
    amortized O(1) cost per step.  Only the statements not yet failed are
    checked, the state only failed statements read is no longer kept, and
    the pass ends once every statement has failed.
    """

    def __init__(
        self,
        positions_l: Sequence[int],
        positions_r: Sequence[int],
        checks: Optional[Iterable[str]] = None,
        *,
        _walked: bool = False,
    ):
        if checks is None:
            checks = STATEMENT_IDS
        checks = tuple(checks)
        unknown = set(checks) - set(STATEMENT_IDS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if len(positions_l) != len(positions_r):
            raise ValueError("paths must have equal length")
        if not _walked:  # a walk's own paths are unit-step paths from 0
            validate_path(positions_l)
            validate_path(positions_r)
        self.positions_l = positions_l
        self.positions_r = positions_r
        self.checks = tuple(c for c in STATEMENT_IDS if c in checks)

    def run(self) -> dict[str, VerifyResult]:
        pos_l = self.positions_l
        pos_r = self.positions_r
        horizon = len(pos_l) - 1

        # One site of margin on each side, so i - 1 and i + 1 index the
        # arrays for every visited site's index i.
        lo = min(min(pos_l), min(pos_r)) - 1
        hi = max(max(pos_l), max(pos_r)) + 1
        off = -lo
        width = hi - lo + 1
        nl = [0] * width
        nr = [0] * width
        diff = [0] * width  # nr - nl per site
        plus: list[int] = []  # sites with diff > 0, sorted
        minus: list[int] = []  # sites with diff < 0, sorted

        # One flag per statement not yet failed; envelopes and hitting_order
        # fail together, so they share one.  `live` counts the flags set.
        checks = self.checks
        on_env = "envelopes" in checks or "hitting_order" in checks
        on_count = "count_dominance" in checks
        on_max = "max_visits" in checks
        on_nbr = "neighbour_interval" in checks
        on_kth = "kth_visit_counts" in checks
        on_rec = "record_lead" in checks
        live = on_env + on_count + on_max + on_nbr + on_kth + on_rec
        failures: dict[str, dict] = {}

        def fail(check: str, witness: dict) -> bool:
            """Record the witness; the new value of the check's flag."""
            nonlocal live
            failures[check] = witness
            live -= 1
            return False

        # per site index: the left neighbour's count at each visit
        kth_l: list[list[int]] = [[] for _ in range(width)] if on_kth else []
        kth_r: list[list[int]] = [[] for _ in range(width)] if on_kth else []

        max_l = max_r = min_l = min_r = 0
        hyp_plus = False  # some site ever had nr > nl
        hyp_rec = False
        hyp_kth = False

        for t in range(horizon + 1):
            a = pos_l[t]
            b = pos_r[t]

            if t and on_rec:
                if b > max_r:
                    hyp_rec = True
                    if b < a:
                        on_rec = fail("record_lead", {"t": t, "detail": f"R={b} < L={a} at R max record"})
                if a < min_l and on_rec:
                    hyp_rec = True
                    if a > b:
                        on_rec = fail("record_lead", {"t": t, "detail": f"L={a} > R={b} at L min record"})

            # count updates for time t
            ia = a + off
            nl[ia] += 1
            ib = b + off
            nr[ib] += 1
            if on_count or on_nbr:
                d = diff[ia]
                diff[ia] = d - 1
                if d == 1:
                    plus.pop(bisect_left(plus, a))
                elif d == 0:
                    insort(minus, a)
                d = diff[ib]
                diff[ib] = d + 1
                if d == -1:
                    minus.pop(bisect_left(minus, b))
                elif d == 0:
                    insort(plus, b)
                    hyp_plus = True

            if t:
                if a > max_l:
                    max_l = a
                elif a < min_l:
                    min_l = a
                if b > max_r:
                    max_r = b
                elif b < min_r:
                    min_r = b

            # A unit-step path from 0 has hit exactly the sites between its
            # running extremes, so R trails L's envelope exactly when L has
            # reached a positive site (or R a negative one) first.
            if on_env:
                if max_r < max_l:
                    failures["hitting_order"] = {"t": t, "x": max_l, "detail": "L reached a positive site before R"}
                    on_env = fail("envelopes", {"t": t, "detail": f"running max R={max_r} < L={max_l}"})
                elif min_r < min_l:
                    failures["hitting_order"] = {"t": t, "x": min_r, "detail": "R reached a negative site before L"}
                    on_env = fail("envelopes", {"t": t, "detail": f"running min R={min_r} < L={min_l}"})

            if on_count and plus and minus:
                x = plus[0]
                y = minus[-1]
                if x < y:
                    on_count = fail("count_dominance", {"t": t, "x": x, "detail": f"R leads visits at {x} but trails at {y}"})

            if on_max:
                i = max_r + off
                if nr[i] < nl[i]:
                    on_max = fail("max_visits", {"t": t, "x": max_r, "detail": "R visits its running max less than L does"})
                else:
                    i = min_l + off
                    if nl[i] < nr[i]:
                        on_max = fail("max_visits", {"t": t, "x": min_l, "detail": "L visits its running min less than R does"})

            if on_nbr:
                # at L's site, then at R's: R trails right of where it leads
                x = None
                d = diff[ia]
                if d < 0:
                    if diff[ia - 1] > 0:
                        x = a
                elif d > 0 and diff[ia + 1] < 0:
                    x = a + 1
                if x is None:
                    d = diff[ib]
                    if d < 0:
                        if diff[ib - 1] > 0:
                            x = b
                    elif d > 0 and diff[ib + 1] < 0:
                        x = b + 1
                if x is not None:
                    on_nbr = fail("neighbour_interval", {"t": t, "x": x, "detail": "R leads at left neighbour but trails here"})
                elif b < a and plus:
                    i = bisect_left(plus, b)
                    if i < len(plus) and plus[i] < a:
                        y0 = plus[i]
                        j = bisect_right(minus, a) - 1
                        if j >= 0 and minus[j] > y0:
                            on_nbr = fail("neighbour_interval", {
                                "t": t, "x": minus[j],
                                "detail": f"R trails at {minus[j]} inside lead interval [{y0}, {a}]",
                            })

            if on_kth:
                k = nl[ia]
                c = nl[ia - 1]
                kth_l[ia].append(c)
                other = kth_r[ia]
                if len(other) >= k:
                    hyp_kth = True
                    if other[k - 1] > c:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": a, "k": k,
                            "detail": f"R saw left neighbour {other[k - 1]} times vs L {c}",
                        })
                k = nr[ib]
                c = nr[ib - 1]
                kth_r[ib].append(c)
                other = kth_l[ib]
                if len(other) >= k:
                    hyp_kth = True
                    if on_kth and c > other[k - 1]:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": b, "k": k,
                            "detail": f"R saw left neighbour {c} times vs L {other[k - 1]}",
                        })

            if not live:
                break

        vacuous = {
            "envelopes": False,
            "max_visits": False,
            "hitting_order": max_l <= 0 and min_r >= 0,
            "count_dominance": not hyp_plus,
            "neighbour_interval": not hyp_plus,
            "kth_visit_counts": not hyp_kth,
            "record_lead": not hyp_rec,
        }
        results = {}
        for check in self.checks:
            witness = failures.get(check)
            results[check] = VerifyResult(
                statement=check,
                passed=witness is None,
                vacuous=witness is None and vacuous[check],
                witness=witness,
            )
        return results


def check_pair(
    pair: CoupledPair, checks: Optional[Iterable[str]] = None
) -> dict[str, VerifyResult]:
    """Run the selected statement checks (default: all) over a coupled pair.
    Paths that `run_walk` or `envelope_walk` built are not validated again."""
    traj_l, traj_r = pair.traj_l, pair.traj_r
    return PairChecker(
        traj_l.positions, traj_r.positions, checks, _walked=traj_l._walked and traj_r._walked
    ).run()

