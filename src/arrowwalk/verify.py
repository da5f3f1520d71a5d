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


def _check_ids(checks) -> tuple:
    """A selection of check ids in `STATEMENT_IDS` order, each once, so
    equal selections are equal tuples.  A bare string is not a collection
    of check ids, though it iterates, an empty selection would decide
    nothing, and an unknown id decides nothing either: all are refused."""
    if isinstance(checks, str):
        raise ValueError(
            f"checks must be a collection of check ids, not the string {checks!r}; "
            f"for that one check, pass ({checks!r},)"
        )
    checks = tuple(checks)
    if not checks:
        raise ValueError(
            f"the selection of checks is empty; name at least one of {', '.join(STATEMENT_IDS)}"
        )
    bad = [c for c in dict.fromkeys(checks) if c not in STATEMENT_IDS]
    if bad:
        raise ValueError(f"unknown checks {bad}; valid: {', '.join(STATEMENT_IDS)}")
    return tuple(c for c in STATEMENT_IDS if c in checks)


class PairChecker:
    """Single-pass incremental evaluator of all pair statements.

    Let d(x) = n_R(x) - n_L(x) be R's visit lead at x.  The pass keeps the
    visit counts per site, the sorted sites where d > 0 and where d < 0,
    one list per site of the left neighbour's count at each k-th visit
    there, recorded by whichever path makes that visit first, and, once
    the five statements below are decided, the running extremes.

    Count dominance implies five of the statements: `envelopes`,
    `hitting_order`, `max_visits`, `neighbour_interval` and `record_lead`.
    d sums to 0 at every time, and a failure of any of the five at time t
    shows a site with d > 0 left of a site with d < 0 at t.  So the five
    are decided only from the step where `count_dominance` fails; until
    then a step updates the counts, tests `count_dominance` when d changes
    sign at L's or R's site, and tests `kth_visit_counts`.

    A step is two half-steps, L's and R's.  A half-step at a site the
    other walk never reaches within the horizon is skipped, R's right of
    L's maximum and L's left of R's minimum, since no statement reads it.
    At such an R site L's count is 0, as it is one site further right, so
    d > 0 there, right of every site where d < 0.  The site can neither
    make `count_dominance` fail nor form a `neighbour_interval` pair, nor
    lie in one of its lead intervals, which end at L's site; `max_visits`
    compares R's count there with L's 0, and no `kth_visit_counts` record
    there would ever be compared, so none is kept.  The mirror image holds
    for L.  R's first visit there would have set d > 0, so that hypothesis
    is read off the paths' extremes.  A half-step that is not skipped costs
    O(1), plus an insertion into or removal from a sorted list where d
    changes sign; once the five are decided, a step adds a bisection for
    `neighbour_interval`.  The pass always runs to the horizon and decides
    every statement; the selection of checks only picks the results.

    Raw paths are validated and scanned for their extremes.  `check_pair`
    passes the visit counts of paths a walk built, `_visits`: those are
    unit-step paths from 0 by construction, and their extremes are the
    smallest and largest sites their counts hold, so neither scan is made.
    """

    def __init__(
        self,
        positions_l: Sequence[int],
        positions_r: Sequence[int],
        checks: Optional[Iterable[str]] = None,
        *,
        _visits: Optional[tuple[dict[int, int], dict[int, int]]] = None,
    ):
        self.checks = STATEMENT_IDS if checks is None else _check_ids(checks)
        if len(positions_l) != len(positions_r):
            raise ValueError("paths must have equal length")
        if _visits is None:
            validate_path(positions_l)
            validate_path(positions_r)
        self.positions_l = positions_l
        self.positions_r = positions_r
        # the sites each path visits, scanned for its extremes: the keys of
        # its visit counts when passed, else its positions
        self._sites = _visits or (positions_l, positions_r)

    def run(self) -> dict[str, VerifyResult]:
        pos_l = self.positions_l
        pos_r = self.positions_r
        horizon = len(pos_l) - 1
        sites_l, sites_r = self._sites
        low_l, top_l = min(sites_l), max(sites_l)
        low_r, top_r = min(sites_r), max(sites_r)

        # One site of margin on each side, so i - 1 and i + 1 index the
        # arrays for every visited site's index i.
        lo = min(low_l, low_r) - 1
        hi = max(top_l, top_r) + 1
        off = -lo
        width = hi - lo + 1
        nl = [0] * width
        nr = [0] * width
        plus: list[int] = []  # sites with d > 0, sorted
        minus: list[int] = []  # sites with d < 0, sorted

        # One flag per statement not yet failed, whatever the selection;
        # envelopes and hitting_order fail together, so they share one.
        on_env = on_count = on_max = on_nbr = on_kth = on_rec = True
        failures: dict[str, dict] = {}

        def fail(check: str, witness: dict) -> bool:
            """Record the witness; the new value of the check's flag."""
            failures[check] = witness
            return False

        # per site index: the left neighbour's count at each visit, kept
        # only where both walks reach, since elsewhere half-steps are skipped
        kth: list = [None] * width
        for i in range(low_r + off, top_l + off + 1):
            kth[i] = []

        # some site ever had d > 0; R's skipped first visit right of top_l did
        hyp_plus = top_r > top_l

        for t in range(horizon + 1):
            a = pos_l[t]
            b = pos_r[t]
            flip = False

            # L's half-step, then R's: each updates its walk's count,
            # the sign of d at its site, and its k-th visit record.  d
            # falls at L's site and rises at R's, so only there can its
            # sign change, and nowhere when they share a site.  A
            # half-step at a site the other walk never reaches is
            # skipped: no statement reads it (see the class docstring).
            if a >= low_r:
                ia = a + off
                ka = nl[ia] + 1
                nl[ia] = ka
                if a != b and (on_count or on_nbr):
                    d = nr[ia] - ka
                    if d == 0:
                        plus.pop(bisect_left(plus, a))
                        flip = True
                    elif d == -1:
                        insort(minus, a)
                        flip = True
                if on_kth:
                    # The first path to make its k-th visit to a site
                    # records the left neighbour's count; the other
                    # compares.
                    seen = kth[ia]
                    c = nl[ia - 1]
                    if len(seen) < ka:
                        seen.append(c)
                    elif seen[ka - 1] > c:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": a, "k": ka,
                            "detail": f"R saw left neighbour {seen[ka - 1]} times vs L {c}",
                        })
            if b <= top_l:
                ib = b + off
                kb = nr[ib] + 1
                nr[ib] = kb
                if a != b and (on_count or on_nbr):
                    d = kb - nl[ib]
                    if d == 0:
                        minus.pop(bisect_left(minus, b))
                        flip = True
                    elif d == 1:
                        insort(plus, b)
                        hyp_plus = flip = True
                if on_kth:
                    seen = kth[ib]
                    c = nr[ib - 1]
                    if nl[ib] < kb:  # L has made fewer than kb visits here
                        seen.append(c)
                    elif c > seen[kb - 1]:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": b, "k": kb,
                            "detail": f"R saw left neighbour {c} times vs L {seen[kb - 1]}",
                        })

            if flip and on_count and plus and minus and plus[0] < minus[-1]:
                x = plus[0]
                on_count = fail("count_dominance", {"t": t, "x": x, "detail": f"R leads visits at {x} but trails at {minus[-1]}"})
                # Count dominance held up to t - 1, and so did the five:
                # decide them from step t on, keeping the running extremes.
                max_l, min_l = max(pos_l[:t]), min(pos_l[:t])
                max_r, min_r = max(pos_r[:t]), min(pos_r[:t])

            if not on_count:
                # Records and envelopes change only where an extreme
                # moves.  A unit-step path from 0 has hit exactly the
                # sites between its running extremes, so R trails L's
                # envelope exactly when L has reached a positive site
                # (or R a negative one) first.
                if b > max_r:
                    if on_rec and b < a:
                        on_rec = fail("record_lead", {"t": t, "detail": f"R={b} < L={a} at R max record"})
                    max_r = b
                if a > max_l:
                    max_l = a
                    if on_env and max_r < a:
                        failures["hitting_order"] = {"t": t, "x": a, "detail": "L reached a positive site before R"}
                        on_env = fail("envelopes", {"t": t, "detail": f"running max R={max_r} < L={a}"})
                elif a < min_l:
                    if on_rec and a > b:
                        on_rec = fail("record_lead", {"t": t, "detail": f"L={a} > R={b} at L min record"})
                    min_l = a
                if b < min_r:
                    min_r = b
                    if on_env and b < min_l:
                        failures["hitting_order"] = {"t": t, "x": b, "detail": "R reached a negative site before L"}
                        on_env = fail("envelopes", {"t": t, "detail": f"running min R={b} < L={min_l}"})

                if on_max:
                    i = max_r + off
                    if nr[i] < nl[i]:
                        on_max = fail("max_visits", {"t": t, "x": max_r, "detail": "R visits its running max less than L does"})
                    else:
                        i = min_l + off
                        if nl[i] < nr[i]:
                            on_max = fail("max_visits", {"t": t, "x": min_l, "detail": "L visits its running min less than R does"})

                if on_nbr:
                    # R trails right of where it leads: a pair of such
                    # neighbours appears only where d changes sign, at
                    # L's site, then at R's.  The counts are read from
                    # the arrays, not the half-steps: a skipped one left
                    # its walk's count stale at a site where the other
                    # walk's count is 0, as it is one site further out,
                    # so neither test there can fire.
                    x = None
                    if flip:
                        i = a + off
                        d = nr[i] - nl[i]
                        if d < 0:
                            if nr[i - 1] > nl[i - 1]:
                                x = a
                        elif d > 0 and nr[i + 1] < nl[i + 1]:
                            x = a + 1
                        if x is None:
                            i = b + off
                            d = nr[i] - nl[i]
                            if d < 0:
                                if nr[i - 1] > nl[i - 1]:
                                    x = b
                            elif d > 0 and nr[i + 1] < nl[i + 1]:
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

        # The pass ran to the horizon, so a check that passed saw the
        # paths' extremes.  Both paths make their first visit to 0
        # at t = 0, so kth_visit_counts's hypothesis always fires.
        vacuous = {
            "envelopes": False,
            "max_visits": False,
            "hitting_order": top_l <= 0 and low_r >= 0,
            "count_dominance": not hyp_plus,
            "neighbour_interval": not hyp_plus,
            "kth_visit_counts": False,
            "record_lead": top_r <= 0 and low_l >= 0,
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
    Paths that `run_walk` or `envelope_walk` built are not validated again,
    and their extremes are read off their visit counts."""
    traj_l, traj_r = pair.traj_l, pair.traj_r
    walked = traj_l._walked and traj_r._walked
    return PairChecker(
        traj_l.positions, traj_r.positions, checks,
        _visits=(traj_l.visit_counts, traj_r.visit_counts) if walked else None,
    ).run()

