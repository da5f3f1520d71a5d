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
from collections import defaultdict
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
    amortized O(1) cost per step.  `active` holds the statements not yet
    failed: only those are checked, the state only failed statements read
    is no longer kept, and the pass ends once `active` is empty.
    """

    def __init__(
        self,
        positions_l: Sequence[int],
        positions_r: Sequence[int],
        checks: Optional[Iterable[str]] = None,
    ):
        if checks is None:
            checks = STATEMENT_IDS
        checks = tuple(checks)
        unknown = set(checks) - set(STATEMENT_IDS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if len(positions_l) != len(positions_r):
            raise ValueError("paths must have equal length")
        validate_path(positions_l)
        validate_path(positions_r)
        self.positions_l = positions_l
        self.positions_r = positions_r
        self.checks = tuple(c for c in STATEMENT_IDS if c in checks)

    def run(self) -> dict[str, VerifyResult]:
        pos_l = self.positions_l
        pos_r = self.positions_r
        horizon = len(pos_l) - 1

        lo = min(min(pos_l), min(pos_r)) - 1
        hi = max(max(pos_l), max(pos_r)) + 1
        off = -lo
        width = hi - lo + 1
        nl = [0] * width
        nr = [0] * width
        diff = [0] * width  # nr - nl per site
        plus: list[int] = []  # sites with diff > 0, sorted
        minus: list[int] = []  # sites with diff < 0, sorted

        active = set(self.checks)
        failures: dict[str, dict] = {}

        def fail(check: str, witness: dict) -> None:
            failures[check] = witness
            active.discard(check)

        kth_l: dict[int, list[int]] = defaultdict(list)  # left-neighbour count per visit
        kth_r: dict[int, list[int]] = defaultdict(list)

        max_l = max_r = min_l = min_r = 0
        hyp_plus = False  # some site ever had nr > nl
        hyp_rec = False
        hyp_kth = False

        for t in range(horizon + 1):
            a = pos_l[t]
            b = pos_r[t]

            if t and "record_lead" in active:
                if b > max_r:
                    hyp_rec = True
                    if b < a:
                        fail("record_lead", {"t": t, "detail": f"R={b} < L={a} at R max record"})
                if a < min_l and "record_lead" in active:
                    hyp_rec = True
                    if a > b:
                        fail("record_lead", {"t": t, "detail": f"L={a} > R={b} at L min record"})

            # count updates for time t
            ia = a + off
            nl[ia] += 1
            ib = b + off
            nr[ib] += 1
            if "count_dominance" in active or "neighbour_interval" in active:
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
            if "envelopes" in active or "hitting_order" in active:
                if max_r < max_l:
                    fail("envelopes", {"t": t, "detail": f"running max R={max_r} < L={max_l}"})
                    fail("hitting_order", {"t": t, "x": max_l, "detail": "L reached a positive site before R"})
                elif min_r < min_l:
                    fail("envelopes", {"t": t, "detail": f"running min R={min_r} < L={min_l}"})
                    fail("hitting_order", {"t": t, "x": min_r, "detail": "R reached a negative site before L"})

            if "count_dominance" in active and plus and minus:
                x = plus[0]
                y = minus[-1]
                if x < y:
                    fail(
                        "count_dominance",
                        {"t": t, "x": x, "detail": f"R leads visits at {x} but trails at {y}"},
                    )

            if "max_visits" in active:
                i = max_r + off
                if nr[i] < nl[i]:
                    fail("max_visits", {"t": t, "x": max_r, "detail": "R visits its running max less than L does"})
                else:
                    i = min_l + off
                    if nl[i] < nr[i]:
                        fail("max_visits", {"t": t, "x": min_l, "detail": "L visits its running min less than R does"})

            if "neighbour_interval" in active:
                for s in (a, b):
                    i = s + off
                    if diff[i] < 0:
                        if i > 0 and diff[i - 1] > 0:
                            fail("neighbour_interval", {"t": t, "x": s, "detail": "R leads at left neighbour but trails here"})
                            break
                    elif diff[i] > 0:
                        if i + 1 < width and diff[i + 1] < 0:
                            fail("neighbour_interval", {"t": t, "x": s + 1, "detail": "R leads at left neighbour but trails here"})
                            break
                if "neighbour_interval" in active and b < a and plus:
                    i = bisect_left(plus, b)
                    if i < len(plus) and plus[i] < a:
                        y0 = plus[i]
                        j = bisect_right(minus, a) - 1
                        if j >= 0 and minus[j] > y0:
                            fail(
                                "neighbour_interval",
                                {"t": t, "x": minus[j], "detail": f"R trails at {minus[j]} inside lead interval [{y0}, {a}]"},
                            )

            if "kth_visit_counts" in active:
                k = nl[ia]
                c = nl[ia - 1]
                kth_l[a].append(c)
                other = kth_r.get(a)
                if other is not None and len(other) >= k:
                    hyp_kth = True
                    if other[k - 1] > c:
                        fail(
                            "kth_visit_counts",
                            {"t": t, "x": a, "k": k, "detail": f"R saw left neighbour {other[k - 1]} times vs L {c}"},
                        )
                k = nr[ib]
                c = nr[ib - 1]
                kth_r[b].append(c)
                other = kth_l.get(b)
                if other is not None and len(other) >= k:
                    hyp_kth = True
                    if "kth_visit_counts" in active and c > other[k - 1]:
                        fail(
                            "kth_visit_counts",
                            {"t": t, "x": b, "k": k, "detail": f"R saw left neighbour {c} times vs L {other[k - 1]}"},
                        )

            if not active:
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
    """Run the selected statement checks (default: all) over a coupled pair."""
    return PairChecker(pair.traj_l.positions, pair.traj_r.positions, checks).run()

