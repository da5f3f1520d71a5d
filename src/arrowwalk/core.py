"""Arrow systems on the integer line and the deterministic walks they drive.

An arrow system assigns to every site x (an integer) an infinite stack of
arrows, each pointing Left or Right.  The walk starts at 0 and, on its k-th
visit to a site, consumes the k-th arrow of that site's stack and steps in
the arrow's direction.  Everything else in this package (order relations,
verifiers, couplings, campaigns) is built on top of this single rule.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, TextIO, Union


class Arrow(enum.IntEnum):
    """A stack entry: the direction of one step.

    The integer values are the displacements, so a walk position can be
    advanced with plain addition.
    """

    LEFT = -1
    RIGHT = 1

    @classmethod
    def from_char(cls, c: str) -> "Arrow":
        if c == "L":
            return cls.LEFT
        if c == "R":
            return cls.RIGHT
        raise ValueError(f"arrow char must be 'L' or 'R', got {c!r}")

    @property
    def char(self) -> str:
        return "R" if self is Arrow.RIGHT else "L"

    def flipped(self) -> "Arrow":
        return Arrow.LEFT if self is Arrow.RIGHT else Arrow.RIGHT


LEFT = Arrow.LEFT
RIGHT = Arrow.RIGHT


def _coerce_arrow(a: Union[Arrow, str, int]) -> Arrow:
    if isinstance(a, Arrow):
        return a
    if isinstance(a, str):
        return Arrow.from_char(a)
    return Arrow(a)


class ArrowSystem:
    """Deterministic map (site, level) -> Arrow.

    Levels are 1-based: level k is the arrow consumed on the k-th visit.
    Implementations must be pure: repeated queries of the same cell return
    the same arrow, and queries have no observable side effects beyond
    internal memoization.
    """

    def arrow_at(self, site: int, level: int) -> Arrow:
        raise NotImplementedError


class ExplicitSystem(ArrowSystem):
    """Arrow system given by finite per-site stacks plus a fill direction.

    `stacks` maps a site to its explicit bottom portion (strings like "RRL"
    are accepted).  Levels above the explicit portion fall back to the
    per-site fill if one is given, else to `default_fill`.  Sites absent
    from `stacks` use the fill for every level.
    """

    def __init__(
        self,
        stacks: Mapping[int, Union[str, Sequence[Union[Arrow, str, int]]]],
        default_fill: Union[Arrow, str] = RIGHT,
        fill: Optional[Mapping[int, Union[Arrow, str]]] = None,
    ):
        self.stacks = {
            int(site): tuple(_coerce_arrow(a) for a in prefix)
            for site, prefix in stacks.items()
        }
        self.default_fill = _coerce_arrow(default_fill)
        self.fill = {int(s): _coerce_arrow(a) for s, a in (fill or {}).items()}

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        prefix = self.stacks.get(site)
        if prefix is not None and level <= len(prefix):
            return prefix[level - 1]
        return self.fill.get(site, self.default_fill)


class RuleSystem(ArrowSystem):
    """Arrow system computed by a pure rule (site, level) -> Arrow."""

    def __init__(self, rule: Callable[[int, int], Arrow], name: str = "rule"):
        self._rule = rule
        self.name = name

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        return self._rule(site, level)


def constant_system(arrow: Union[Arrow, str]) -> RuleSystem:
    a = _coerce_arrow(arrow)
    return RuleSystem(lambda site, level: a, name=f"constant-{a.char}")


class _MirrorSystem(ArrowSystem):
    """Reflection through 0: arrow at (site, level) is the flip of the base
    system's arrow at (-site, level)."""

    def __init__(self, base: ArrowSystem):
        self.base = base

    def arrow_at(self, site: int, level: int) -> Arrow:
        return self.base.arrow_at(-site, level).flipped()


class _ZeroRightSystem(ArrowSystem):
    """The base system with every arrow at site 0 replaced by Right.

    The walk of the transformed system never goes below 0, so its returns
    to 0 count how often the original stack at 0 would have been re-read.
    """

    def __init__(self, base: ArrowSystem):
        self.base = base

    def arrow_at(self, site: int, level: int) -> Arrow:
        if site == 0:
            if level < 1:
                raise ValueError(f"level must be >= 1, got {level}")
            return RIGHT
        return self.base.arrow_at(site, level)


def mirror_system(system: ArrowSystem) -> ArrowSystem:
    """The reflection of `system` through the origin.

    Applying it twice gives back a system equal to the original cell by
    cell (the double wrapper is unwrapped for convenience).
    """
    if isinstance(system, _MirrorSystem):
        return system.base
    return _MirrorSystem(system)


def zero_right_transform(system: ArrowSystem) -> ArrowSystem:
    """Force every arrow at site 0 to Right, leaving other sites untouched.

    Idempotent: transforming an already transformed system returns it
    unchanged.
    """
    if isinstance(system, _ZeroRightSystem):
        return system
    return _ZeroRightSystem(system)


def stack_counts(system: ArrowSystem, site: int, depth: int) -> tuple[int, int]:
    """Count (lefts, rights) among the first `depth` arrows at `site`."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    lefts = 0
    for level in range(1, depth + 1):
        if system.arrow_at(site, level) is LEFT:
            lefts += 1
    return lefts, depth - lefts


@dataclass
class Trajectory:
    """A finite walk path with its per-site visit counters.

    `positions[n]` is the walk position at time n; `visit_counts[x]` is the
    number of times x appears in `positions`.  `system` references the
    generating arrow system when the path was produced by `run_walk`; paths
    imported from elsewhere carry None.
    """

    positions: list[int]
    visit_counts: dict[int, int]
    system: Optional[ArrowSystem] = None

    @property
    def horizon(self) -> int:
        return len(self.positions) - 1

    @classmethod
    def from_positions(
        cls, positions: Sequence[int], system: Optional[ArrowSystem] = None
    ) -> "Trajectory":
        """Wrap an externally supplied path, validating start and step sizes."""
        positions = [int(p) for p in positions]
        validate_path(positions)
        counts: dict[int, int] = {}
        for p in positions:
            counts[p] = counts.get(p, 0) + 1
        return cls(positions, counts, system)


def validate_path(positions: Sequence[int]) -> None:
    """Raise ValueError unless the path starts at 0 and moves one unit per step."""
    if not positions:
        raise ValueError("path must contain at least the starting position")
    if positions[0] != 0:
        raise ValueError(f"path must start at 0, got {positions[0]}")
    for n in range(1, len(positions)):
        if abs(positions[n] - positions[n - 1]) != 1:
            raise ValueError(
                f"path step at n={n} is {positions[n] - positions[n - 1]}, "
                "expected +1 or -1"
            )


def run_walk(system: ArrowSystem, horizon: int) -> Trajectory:
    """Run the arrow walk for `horizon` steps from 0.

    On each step the walk, sitting at `pos` for the k-th time, consumes the
    level-k arrow at `pos` and moves one unit in its direction.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    arrow_at = system.arrow_at
    pos = 0
    positions = [0] * (horizon + 1)
    visits = {0: 1}
    for n in range(1, horizon + 1):
        pos += arrow_at(pos, visits[pos])
        positions[n] = pos
        visits[pos] = visits.get(pos, 0) + 1
    return Trajectory(positions, visits, system)


@dataclass
class LocalTimeTable:
    """Occupation counts of a path up to a fixed time.

    node_counts[x]  = number of n <= t with position x
    edge_counts[(x, y)] = number of steps from x to its neighbour y
    """

    t: int
    node_counts: dict[int, int]
    edge_counts: dict[tuple[int, int], int]


def occupation(traj: Trajectory, t: Optional[int] = None) -> LocalTimeTable:
    """Tabulate node and directed-edge visit counts of `traj` up to time t."""
    if t is None:
        t = traj.horizon
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"t must be in [0, {traj.horizon}], got {t}")
    pos = traj.positions
    nodes: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    prev = pos[0]
    nodes[prev] = 1
    for n in range(1, t + 1):
        cur = pos[n]
        e = (prev, cur)
        edges[e] = edges.get(e, 0) + 1
        nodes[cur] = nodes.get(cur, 0) + 1
        prev = cur
    return LocalTimeTable(t, nodes, edges)


IDENTITY_IDS = (
    "steps",
    "arrivals",
    "departures",
    "total",
    "used_right",
    "used_left",
    "reciprocity",
)


@dataclass
class IdentityReport:
    """Outcome of the bookkeeping identity suite at one time point.

    `ok` maps each identity id to a boolean; `witnesses` holds, for each
    failed identity, the first site (with context) where it broke.
    """

    t: int
    ok: dict[str, bool]
    witnesses: dict[str, tuple]

    @property
    def passed(self) -> bool:
        return all(self.ok.values())

    def first_failure(self) -> Optional[tuple[str, tuple]]:
        for name in IDENTITY_IDS:
            if not self.ok.get(name, True):
                return name, self.witnesses[name]
        return None


def _consumed_arrow_seqs(positions: Sequence[int], t: int) -> dict[int, list[Arrow]]:
    """Arrows consumed at each site by the path up to time t, in visit order."""
    seqs: dict[int, list[Arrow]] = {}
    for n in range(t):
        seqs.setdefault(positions[n], []).append(
            RIGHT if positions[n + 1] > positions[n] else LEFT
        )
    return seqs


def check_identities(traj: Trajectory, t: Optional[int] = None) -> IdentityReport:
    """Check the conservation identities tying a path to its occupation table.

    At time t, with E the position process, n(x) node counts and n(x, y)
    directed edge counts up to t, the suite checks for every site x in the
    visited window:

      steps        the path is a valid unit-step path from 0
      arrivals     n(x) = [x == 0] + n(x-1, x) + n(x+1, x)
      departures   n(x) = [E_t == x] + n(x, x+1) + n(x, x-1)
      total        sum_x n(x) = t + 1
      used_right   n(x, x+1) equals the Right count of the first
                   n(x) - [E_t == x] arrows at x
      used_left    n(x, x-1) equals the Left count of those arrows
      reciprocity  n(x, x+1) + [x+1 <= 0][E_t <= x]
                     = n(x+1, x) + [x >= 0][E_t >= x+1]

    used_right and used_left compare against the generating system when the
    trajectory carries one; otherwise they compare against the arrow
    sequence forced by the path itself, which degrades them to an internal
    consistency check of the counting.
    """
    if t is None:
        t = traj.horizon
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"t must be in [0, {traj.horizon}], got {t}")
    ok = {name: True for name in IDENTITY_IDS}
    witnesses: dict[str, tuple] = {}

    def fail(name: str, witness: tuple) -> None:
        if ok[name]:
            ok[name] = False
            witnesses[name] = witness

    pos = traj.positions
    if pos[0] != 0:
        fail("steps", (0, pos[0]))
    for n in range(1, t + 1):
        if abs(pos[n] - pos[n - 1]) != 1:
            fail("steps", (n, pos[n] - pos[n - 1]))
            break

    table = occupation(traj, t)
    nodes, edges = table.node_counts, table.edge_counts
    e_t = pos[t]

    if sum(nodes.values()) != t + 1:
        fail("total", (sum(nodes.values()), t + 1))

    if traj.system is not None:
        arrows_at = None
        system = traj.system
    else:
        arrows_at = _consumed_arrow_seqs(pos, t)
        system = None

    lo = min(nodes) - 1
    hi = max(nodes) + 1
    for x in range(lo, hi + 1):
        n_x = nodes.get(x, 0)
        in_left = edges.get((x - 1, x), 0)
        in_right = edges.get((x + 1, x), 0)
        out_right = edges.get((x, x + 1), 0)
        out_left = edges.get((x, x - 1), 0)
        here = 1 if e_t == x else 0

        if n_x != (1 if x == 0 else 0) + in_left + in_right:
            fail("arrivals", (x, n_x, in_left, in_right))
        if n_x != here + out_right + out_left:
            fail("departures", (x, n_x, out_right, out_left))

        consumed = n_x - here
        if consumed:
            if system is not None:
                lefts, rights = stack_counts(system, x, consumed)
            else:
                seq = arrows_at.get(x, [])[:consumed]
                lefts = sum(1 for a in seq if a is LEFT)
                rights = len(seq) - lefts
            if out_right != rights:
                fail("used_right", (x, out_right, rights))
            if out_left != lefts:
                fail("used_left", (x, out_left, lefts))

        lhs = out_right + (1 if (x + 1 <= 0 and e_t <= x) else 0)
        rhs = edges.get((x + 1, x), 0) + (1 if (x >= 0 and e_t >= x + 1) else 0)
        if lhs != rhs:
            fail("reciprocity", (x, lhs, rhs))

    return IdentityReport(t, ok, witnesses)


def scan_identities(traj: Trajectory, t_max: Optional[int] = None) -> IdentityReport:
    """Check the full identity suite at *every* time up to t_max in one pass.

    Equivalent to calling `check_identities` for each t but runs in time
    linear in the horizon: each step can only disturb the identities at the
    sites and the edge it touches, so the scan re-verifies exactly those and
    carries the rest forward by induction.  Returns the report of the first
    failing time, or a passing report at t_max.
    """
    if t_max is None:
        t_max = traj.horizon
    if not 0 <= t_max <= traj.horizon:
        raise ValueError(f"t_max must be in [0, {traj.horizon}], got {t_max}")
    pos = traj.positions
    if pos[0] != 0:
        return IdentityReport(0, {**{n: True for n in IDENTITY_IDS}, "steps": False}, {"steps": (0, pos[0])})

    system = traj.system
    nodes: dict[int, int] = {0: 1}
    out_r: dict[int, int] = {}
    out_l: dict[int, int] = {}

    def report_fail(t: int, name: str, witness: tuple) -> IdentityReport:
        ok = {n: True for n in IDENTITY_IDS}
        ok[name] = False
        return IdentityReport(t, ok, {name: witness})

    for t in range(1, t_max + 1):
        prev, cur = pos[t - 1], pos[t]
        step = cur - prev
        if step not in (-1, 1):
            return report_fail(t, "steps", (t, step))
        level = out_r.get(prev, 0) + out_l.get(prev, 0) + 1
        arrow = RIGHT if step == 1 else LEFT
        if system is not None and system.arrow_at(prev, level) is not arrow:
            name = "used_right" if arrow is RIGHT else "used_left"
            return report_fail(t, name, (prev, level, arrow.char))
        if arrow is RIGHT:
            out_r[prev] = out_r.get(prev, 0) + 1
        else:
            out_l[prev] = out_l.get(prev, 0) + 1
        nodes[cur] = nodes.get(cur, 0) + 1

        n_cur = nodes[cur]
        if n_cur != (1 if cur == 0 else 0) + out_r.get(cur - 1, 0) + out_l.get(cur + 1, 0):
            return report_fail(t, "arrivals", (cur, n_cur, out_r.get(cur - 1, 0), out_l.get(cur + 1, 0)))
        for x in (prev, cur):
            here = 1 if cur == x else 0
            if nodes[x] != here + out_r.get(x, 0) + out_l.get(x, 0):
                return report_fail(t, "departures", (x, nodes[x], out_r.get(x, 0), out_l.get(x, 0)))
        edge = min(prev, cur)
        diff = out_r.get(edge, 0) - out_l.get(edge + 1, 0)
        target = (1 if 0 <= edge < cur else 0) - (1 if cur <= edge < 0 else 0)
        if diff != target:
            lhs = out_r.get(edge, 0) + (1 if (edge + 1 <= 0 and cur <= edge) else 0)
            rhs = out_l.get(edge + 1, 0) + (1 if (edge >= 0 and cur >= edge + 1) else 0)
            return report_fail(t, "reciprocity", (edge, lhs, rhs))

    ok = {name: True for name in IDENTITY_IDS}
    ok["total"] = sum(nodes.values()) == t_max + 1
    witnesses: dict[str, tuple] = {}
    if not ok["total"]:
        witnesses["total"] = (sum(nodes.values()), t_max + 1)
    return IdentityReport(t_max, ok, witnesses)


@dataclass
class RelationResult:
    """Outcome of a stack-order comparison over a finite window."""

    holds: bool
    mode: str
    witness: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.holds


RELATION_MODES = ("preceq", "trileq")


def check_relation(
    sys_l: ArrowSystem,
    sys_r: ArrowSystem,
    sites: Iterable[int],
    max_level: int,
    mode: str = "preceq",
) -> RelationResult:
    """Compare two arrow systems over a finite window of cells.

    mode "preceq": at every site in `sites` and every depth r <= max_level,
    the left system's stack must hold at least as many Left arrows among its
    first r entries as the right system's stack.

    mode "trileq": cell by cell, a Right arrow in the left system forces a
    Right arrow in the right system at the same cell.  This is the stronger
    comparison: whenever it holds on a window, so does preceq.

    Returns the first violating (site, level) as witness.
    """
    if mode not in RELATION_MODES:
        raise ValueError(f"mode must be one of {RELATION_MODES}, got {mode!r}")
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    for site in sites:
        if mode == "trileq":
            for level in range(1, max_level + 1):
                if sys_l.arrow_at(site, level) is RIGHT and (
                    sys_r.arrow_at(site, level) is not RIGHT
                ):
                    return RelationResult(False, mode, (site, level))
        else:
            lefts_l = 0
            lefts_r = 0
            for level in range(1, max_level + 1):
                if sys_l.arrow_at(site, level) is LEFT:
                    lefts_l += 1
                if sys_r.arrow_at(site, level) is LEFT:
                    lefts_r += 1
                if lefts_l < lefts_r:
                    return RelationResult(False, mode, (site, level))
    return RelationResult(True, mode)


@dataclass
class PreceqDecision:
    """Answer of `paths_admit_preceq`, with per-site first violations."""

    admits: bool
    violations: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.admits


def consumed_stacks(positions: Sequence[int]) -> dict[int, list[Arrow]]:
    """The per-site arrow prefixes a path forces on any system generating it.

    Every step of the path consumes one arrow; the prefix at a site is the
    sequence of step directions taken from that site, in visit order.  The
    final position consumes nothing.
    """
    validate_path(list(positions))
    return _consumed_arrow_seqs(positions, len(positions) - 1)


def paths_admit_preceq(path_l: Sequence[int], path_r: Sequence[int]) -> PreceqDecision:
    """Decide whether two paths can be generated by stack-ordered systems.

    The question: do there exist arrow systems, one generating `path_l` and
    one generating `path_r`, with the left system's stacks dominating the
    right system's in Left-arrow prefix counts at every cell?

    Each path pins exactly the arrows it consumed; all higher levels are
    free.  Filling the left system's free levels with Left and the right
    system's with Right is the most favourable completion, and the
    prefix-count comparison decomposes site by site, so checking that
    completion on the touched window decides the question exactly.

    Returns per-site first violating depths for failures.
    """
    forced_l = consumed_stacks(path_l)
    forced_r = consumed_stacks(path_r)
    violations: dict[int, int] = {}
    for site in sorted(set(forced_l) | set(forced_r)):
        fl = forced_l.get(site, [])
        fr = forced_r.get(site, [])
        depth = max(len(fl), len(fr))
        lefts_l = 0
        lefts_r = 0
        for r in range(1, depth + 1):
            # free levels: Left for the L system, Right for the R system
            if r > len(fl) or fl[r - 1] is LEFT:
                lefts_l += 1
            if r <= len(fr) and fr[r - 1] is LEFT:
                lefts_r += 1
            if lefts_l < lefts_r and site not in violations:
                violations[site] = r
        # beyond `depth` the L side only gains Lefts and the R side none
    return PreceqDecision(not violations, violations)


# ---------------------------------------------------------------------------
# file formats


def parse_system(obj: Mapping) -> ArrowSystem:
    """Build an arrow system from its JSON object form.

    Explicit form:
        {"kind": "explicit", "default_fill": "L"|"R",
         "stacks": {"<site>": "RRLRL..."}}
    Built-ins:
        {"kind": "ce1-L"}
        {"kind": "ce1-R", "N": 3}
    """
    kind = obj.get("kind")
    if kind == "explicit":
        stacks = obj.get("stacks", {})
        return ExplicitSystem(
            {int(site): prefix for site, prefix in stacks.items()},
            default_fill=obj.get("default_fill", "R"),
        )
    if kind == "ce1-L":
        from .counterexamples import Ce1LeftSystem

        return Ce1LeftSystem()
    if kind == "ce1-R":
        from .counterexamples import Ce1RightSystem

        return Ce1RightSystem(int(obj.get("N", 3)))
    raise ValueError(f"unknown system kind {kind!r}")


def load_system(path: str) -> ArrowSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(json.load(fh))


def write_trajectory_csv(traj: Trajectory, fh: TextIO) -> None:
    """Write the path as CSV rows `n,pos` for n = 0..horizon."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["n", "pos"])
    for n, p in enumerate(traj.positions):
        writer.writerow([n, p])
