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
import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Mapping, Optional, Sequence, TextIO, Union


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
    internal memoization.  A walk only reads its system and leaves it
    unchanged: where a walk starts is given to `run_walk`, not held here.

    A system may also define `cell_words(site, q)`: the words and the limits
    of levels 8q+1 .. 8q+8 at `site`, two sequences of eight, with the arrow
    at level 8q+r+1 Right iff words[r] < limits[r].  `run_walk` then reads a
    stack eight levels at a time, never changing what it is given, so both
    may be shared.  Only systems whose walks measured faster that way define
    it: the sampled systems and their zero-right transform.  Every other
    system leaves it None and is walked one `arrow_at` per step, which
    measured faster or no slower for explicit and forced systems,
    `EtaSystem` and the partition sides.  A system whose arrows depend on
    the order its cells are first queried must leave it None, since it
    would hand out eight cells at once; such systems stay supported.
    """

    cell_words: Optional[Callable[[int, int], tuple[Sequence[int], Sequence[int]]]] = None

    def arrow_at(self, site: int, level: int) -> Arrow:
        raise NotImplementedError


class ExplicitSystem(ArrowSystem):
    """Arrow system given by finite per-site stacks plus a fill direction.

    `stacks` maps a site to its explicit bottom portion (strings like "RRL"
    are accepted).  Levels above the explicit portion, and every level of a
    site absent from `stacks`, hold `default_fill`.

    `ExplicitSystem.forced(positions)` is the system a path forces: the
    arrows it consumed, then Left fill.  It builds its `stacks` only when
    something first reads them.
    """

    # The path whose consumed arrows the system holds, when built by `forced`.
    _forced_by: Optional[list[int]] = None

    def __init__(
        self,
        stacks: Mapping[int, Union[str, Sequence[Union[Arrow, str, int]]]],
        default_fill: Union[Arrow, str] = RIGHT,
    ):
        self.stacks = {int(site): tuple(map(_coerce_arrow, prefix))
                       for site, prefix in stacks.items()}
        self.default_fill = _coerce_arrow(default_fill)

    @classmethod
    def forced(cls, positions: list[int]) -> "ExplicitSystem":
        """`ExplicitSystem(consumed_stacks(positions), LEFT)`, its stacks
        built on first read.  The path must not change afterwards."""
        system = cls.__new__(cls)
        system._forced_by = positions
        system.default_fill = LEFT
        return system

    @functools.cached_property
    def stacks(self) -> dict[int, tuple[Arrow, ...]]:
        # Read only on a forced system: `__init__` sets `stacks` itself.
        return {site: tuple(arrows) for site, arrows in consumed_stacks(self._forced_by).items()}

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        prefix = self.stacks.get(site)
        if prefix is not None and level <= len(prefix):
            return prefix[level - 1]
        return self.default_fill


# Site 0 of a zero-right transform, as words: zero words against Rights as
# limits, since arrows are ±1 and 0 < RIGHT.
_ZERO_WORDS = (0,) * 8
_ALL_RIGHT = (RIGHT,) * 8


class _ZeroRightSystem(ArrowSystem):
    """The base system with every arrow at site 0 replaced by Right.

    The walk of the transformed system never goes below 0, so its returns
    to 0 count how often the original stack at 0 would have been re-read.
    """

    def __init__(self, base: ArrowSystem):
        self.base = base
        if base.cell_words is None:
            self.cell_words = None  # nothing to delegate to: walked arrow by arrow

    def arrow_at(self, site: int, level: int) -> Arrow:
        if site == 0:
            if level < 1:
                raise ValueError(f"level must be >= 1, got {level}")
            return RIGHT
        return self.base.arrow_at(site, level)

    def cell_words(self, site: int, q: int) -> tuple[Sequence[int], Sequence[int]]:
        if site == 0:
            if q < 0:
                raise ValueError(f"block index must be >= 0, got {q}")
            return _ZERO_WORDS, _ALL_RIGHT
        return self.base.cell_words(site, q)


def zero_right_transform(system: ArrowSystem) -> ArrowSystem:
    """Force every arrow at site 0 to Right, leaving other sites untouched.

    Idempotent: transforming an already transformed system returns it
    unchanged.
    """
    if isinstance(system, _ZeroRightSystem):
        return system
    return _ZeroRightSystem(system)


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
    # Not a field: set on the paths `run_walk` and `envelope_walk` build.
    # They are unit-step paths from 0 by construction, counted as they are
    # walked, which the checker trusts, and `system` generates them, which
    # `zero_right_walk` trusts.
    _walked = False

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


def run_walk(system: ArrowSystem, horizon: int,
             _start: Optional[tuple[list[int], dict[int, int]]] = None) -> Trajectory:
    """Run the arrow walk for `horizon` steps from 0.

    On each step the walk, sitting at `pos` for the k-th time, consumes the
    level-k arrow at `pos` and moves one unit in its direction.  A system
    with `cell_words` is read eight levels at a time: the walk keeps the
    words and limits read so far at each site, reads the next ones up to
    level k when it runs past them, and steps Right iff word k - 1 is below
    limit k - 1.  It keeps a site's first block as handed out, and copies it
    into lists of its own only when it runs past it, so what the system
    hands out is never changed.  Any other system is queried arrow by arrow.

    `_start` is `(positions, visits)` of a walk of `system` already begun,
    at most `horizon + 1` positions from 0 and their visit counts (see
    `zero_right_walk`).  The walk extends both in place and returns them,
    walking only the steps after the last position: it resumes mid-path
    and can first read a site's stack above its first block.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    positions, visits = _start or ([0], {0: 1})
    cell_words = system.cell_words
    start = len(positions)
    pos = positions[-1]
    positions += [0] * (horizon + 1 - start)
    if cell_words is None:
        arrow_at = system.arrow_at
        for n in range(start, horizon + 1):
            pos += arrow_at(pos, visits[pos])
            positions[n] = pos
            visits[pos] = visits.get(pos, 0) + 1
    else:
        # site -> its words and limits read so far: its first block as handed
        # out, never changed, then two lists of its own once the walk runs past it
        stacks: dict[int, tuple[Sequence[int], Sequence[int]]] = {}
        unread = ((), ())
        for n in range(start, horizon + 1):
            k = visits[pos]
            words, limits = stacks.get(pos, unread)
            if k > len(words):  # past the blocks read: the next ones
                if not words:  # the site's first read: its first block
                    words, limits = stacks[pos] = cell_words(pos, 0)
                if k > len(words):
                    if len(words) == 8:  # the first block as handed out: copied, once
                        words, limits = stacks[pos] = list(words), list(limits)
                    while k > len(words):
                        more, more_limits = cell_words(pos, len(words) >> 3)
                        words += more
                        limits += more_limits
            pos += 1 if words[k - 1] < limits[k - 1] else -1
            positions[n] = pos
            visits[pos] = visits.get(pos, 0) + 1
    traj = Trajectory(positions, visits, system)
    traj._walked = True
    return traj


def zero_right_walk(traj: Trajectory) -> Trajectory:
    """The walk of `zero_right_transform(traj.system)` to `traj.horizon`:
    equal to `run_walk` on the transformed system, positions and visit
    counts, but the steps `traj` already took are not walked again.

    The walk reads arrows at sites x >= 1 only on its right excursions from
    0, and reads them in the same order whatever happens at 0 and to its
    left.  The transformed walk steps Right at every visit to 0, so it is
    the pair walk's right excursions placed end to end, the last one cut
    where the pair walk ends, followed by the steps the pair walk never
    took.  That prefix visits each site x >= 1 as often as `traj` does, 0 at
    its start and at the end of each completed excursion, and no site left
    of 0, so its visit counts are read off `traj.visit_counts` without a
    scan.  `run_walk` is handed the prefix and its counts as its start, and
    walks only the rest.  The reuse needs `traj.system` to generate `traj`,
    which `_walked` marks; any other trajectory is walked in full.

    When `traj.system` is the one `traj` forces (`ExplicitSystem.forced` on
    this very path), the rest is known too: every arrow it reads at a site
    x >= 1 lies above the ones `traj` consumed there, so it is the Left
    fill, and site 0 is Right.  The walk descends from the prefix's last
    site to 0 and then alternates 1, 0 up to the horizon, which adds one
    visit to each site of the descent the horizon keeps, then the
    alternation's visits to 1 and 0; `run_walk` gets all of it as the
    prefix and walks no step.  Every other system, Left-filled explicit
    ones included, has the rest walked.

    The return walk runs on `zero_right_transform(traj.system)`, so on that
    very system when `traj` is a transformed walk, and leaves `traj` as it
    was.  Raises ValueError when `traj` carries no system.
    """
    base = traj.system
    if base is None:
        raise ValueError("the trajectory carries no system, so it has no zero-right walk")
    system = zero_right_transform(base)
    if not traj._walked:
        return run_walk(system, traj.horizon)
    prefix, returns = _right_excursions(traj.positions)
    visits = dict(traj.visit_counts)
    x = -1
    while x in visits:  # a unit-step path from 0 visits every site down to its minimum
        del visits[x]
        x -= 1
    visits[0] = 1 + returns
    if isinstance(base, ExplicitSystem) and base._forced_by is traj.positions:
        room = traj.horizon + 1 - len(prefix)  # the steps past the excursions
        end = prefix[-1]
        prefix += range(end - 1, -1, -1)
        prefix += (1, 0) * ((traj.horizon + 2 - len(prefix)) // 2)
        del prefix[traj.horizon + 1 :]
        for x in range(end - 1, end - 1 - min(end, room), -1):
            visits[x] += 1
        bounce = room - end  # the steps the alternation keeps
        if bounce > 0:
            visits[1] = visits.get(1, 0) + (bounce + 1) // 2
            visits[0] += bounce // 2
    return run_walk(system, traj.horizon, _start=(prefix, visits))


def _right_excursions(positions: list[int]) -> tuple[list[int], int]:
    """0 followed by the path's right excursions from 0, end to end: the
    steps n with positions[n - 1] + positions[n] > 0, in order; and how many
    of those excursions end back at 0.  One list search and one slice per
    return to 0."""
    prefix = [0]
    returns = 0
    last = len(positions) - 1
    i = 0  # a time at 0
    try:
        while i < last:
            j = positions.index(0, i + 1)
            if positions[i + 1] > 0:
                prefix += positions[i + 1 : j + 1]
                returns += 1
            i = j
    except ValueError:  # no return after time i: the path ends in this excursion
        if positions[i + 1] > 0:
            prefix += positions[i + 1 :]
    return prefix, returns


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


def scan_identities(traj: Trajectory) -> IdentityReport:
    """Check the full identity suite at *every* time in one pass.

    Equivalent to calling `check_identities` for each t, the per-time
    suite kept as its test reference in `tests/reference.py` (with the
    occupation table it counts on), but runs in time linear in the
    horizon.  Only `steps`, `used_right` and `used_left` can
    fail.  The other four hold for every unit-step path from 0: `total`
    counts its t + 1 positions, `arrivals` and `departures` count each visit
    once as the end of the step into it or the start of the step out of it,
    and `reciprocity` pairs each crossing of an edge with the crossing back,
    bar the last one when E_t lies beyond the edge.  So per step the scan
    checks the step and, when the trajectory carries a system, that the
    step took the arrow the system holds at (site, k), where k counts the
    arrows consumed at the site so far, this one included.  Returns the
    report of the first failing time, or a passing report at the horizon.
    """
    ok = {name: True for name in IDENTITY_IDS}
    pos = traj.positions
    if pos[0] != 0:
        ok["steps"] = False
        return IdentityReport(0, ok, {"steps": (0, pos[0])})

    system = traj.system
    departures: dict[int, int] = {}
    for t in range(1, len(pos)):
        prev = pos[t - 1]
        step = pos[t] - prev
        if step not in (-1, 1):
            ok["steps"] = False
            return IdentityReport(t, ok, {"steps": (t, step)})
        if system is not None:
            level = departures[prev] = departures.get(prev, 0) + 1
            arrow = RIGHT if step == 1 else LEFT
            if system.arrow_at(prev, level) is not arrow:
                name = "used_right" if arrow is RIGHT else "used_left"
                ok[name] = False
                return IdentityReport(t, ok, {name: (prev, level, arrow.char)})
    return IdentityReport(traj.horizon, ok, {})


@dataclass
class RelationResult:
    """Outcome of a stack-order comparison over a finite window."""

    holds: bool
    mode: str
    witness: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.holds


# The two stack orders.  "preceq": at every site and depth r, the left
# system's first r arrows hold at least as many Lefts as the right one's.
# "trileq": cell by cell, a Right on the left forces a Right on the right,
# which implies preceq.
RELATION_MODES = ("preceq", "trileq")


def consumed_stacks(positions: Sequence[int]) -> dict[int, list[Arrow]]:
    """The per-site arrow prefixes a path forces on any system generating it.

    Every step of the path consumes one arrow; the prefix at a site is the
    sequence of step directions taken from that site, in visit order.  The
    final position consumes nothing.  The path is not validated: a step
    that is not a unit step counts by its sign, Right when the position
    rises and Left otherwise.
    """
    stacks: defaultdict[int, list[Arrow]] = defaultdict(list)
    for here, after in zip(positions, positions[1:]):
        stacks[here].append(RIGHT if after > here else LEFT)
    return dict(stacks)


def paths_admit_preceq(path_l: Sequence[int], path_r: Sequence[int]) -> RelationResult:
    """Decide whether two paths can be generated by stack-ordered systems.

    The question: do there exist arrow systems, one generating `path_l` and
    one generating `path_r`, with the left system's stacks dominating the
    right system's in Left-arrow prefix counts at every cell?

    Each path pins exactly the arrows it consumed; all higher levels are
    free.  Filling the left system's free levels with Left and the right
    system's with Right is the most favourable completion, and the
    prefix-count comparison decomposes site by site, so comparing that
    completion's prefix counts decides the question exactly.  At a site
    only up to the larger of its two forced depths: above it the left side
    only gains Lefts and the right side none.  So a site forced on one
    side only never fails.  The witness is the first violating (site,
    level), sites in increasing order, as `check_relation` on the two
    completions would give: that window comparison is the test reference,
    kept in `tests/reference.py`.  Raises ValueError unless both paths are
    unit-step paths from 0.
    """
    validate_path(path_l)
    validate_path(path_r)
    forced_l = consumed_stacks(path_l)
    forced_r = consumed_stacks(path_r)
    for site in sorted(forced_l.keys() & forced_r.keys()):
        lead = 0  # Lefts of the left completion minus those of the right one
        for level, (a_l, a_r) in enumerate(zip_longest(forced_l[site], forced_r[site]), 1):
            lead += (a_l is not RIGHT) - (a_r is LEFT)  # a free level is None
            if lead < 0:
                return RelationResult(False, "preceq", (site, level))
    return RelationResult(True, "preceq")


# ---------------------------------------------------------------------------
# file formats


def check_keys(obj: Mapping, allowed: Sequence[str], what: str) -> None:
    """Raise ValueError unless `obj` is a JSON object whose keys are all in
    `allowed`: a misspelt key would otherwise be dropped without a word."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {list(allowed)}")


def json_int(value: object, name: str) -> int:
    """`value` if it is a JSON integer, and not a bool, float or string;
    else ValueError naming `name` and the value."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_prob(value: object, name: str) -> float:
    """`value` as a float if it is a JSON number in [0, 1], and not a bool or
    a string; else ValueError naming `name` and the value."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} out of range [0, 1], got {value!r}")
    return float(value)


def json_array(value: object, name: str, items: str) -> list:
    """`value` if it is a JSON array; else ValueError naming `name`, what
    the array holds, and the value."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array of {items}, got {value!r}")
    return value


def json_object(value: object, name: str, items: str) -> Mapping:
    """`value` if it is a JSON object; else ValueError naming `name`, what
    the object holds, and the value."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a JSON object of {items}, got {value!r}")
    return value


def json_arrow(value: object, name: str) -> Arrow:
    """The arrow of "L" or "R"; else ValueError naming `name` and the value."""
    if value not in ("L", "R"):
        raise ValueError(f'{name} must be "L" or "R", got {value!r}')
    return Arrow.from_char(value)


def json_site(key: str, name: str) -> int:
    """The site an object key names, if the key is an integer as `str`
    writes it ("-2", not "-02", "+2" or " 2"), so that no two keys name one
    site; else ValueError naming `name` and the key."""
    try:
        site = int(key)
    except ValueError:
        site = None
    if site is None or str(site) != key:
        raise ValueError(f'{name} must be an integer written as "3" or "-2", got {key!r}')
    return site


_SYSTEM_KEYS = {
    "explicit": ("kind", "stacks", "default_fill"),
    "ce1-L": ("kind",),
    "ce1-R": ("kind", "N"),
}


def parse_system(obj: Mapping) -> ArrowSystem:
    """Build an arrow system from its JSON object form.

    Explicit form:
        {"kind": "explicit", "default_fill": "L"|"R",
         "stacks": {"<site>": "RRLRL..."}}
    Built-ins:
        {"kind": "ce1-L"}
        {"kind": "ce1-R", "N": 3}
    Any other key, `stacks` not an object, a site key not written as `str`
    writes its integer, a stack not a string or array of "L" and "R", a
    `default_fill` other than "L" or "R", or an `N` that is not an integer
    raises ValueError.
    """
    kind = obj.get("kind") if isinstance(obj, Mapping) else None
    if kind not in _SYSTEM_KEYS:
        raise ValueError(f"unknown system kind {kind!r}")
    check_keys(obj, _SYSTEM_KEYS[kind], f"{kind} system")
    if kind == "explicit":

        def stack(value: object, name: str) -> tuple[Arrow, ...]:
            if not isinstance(value, (str, list)):
                raise ValueError(f'{name} must be a string or array of "L" and "R", got {value!r}')
            return tuple(json_arrow(a, f"an arrow in {name}") for a in value)

        stacks = json_object(obj.get("stacks", {}), "stacks", "arrow stacks")
        return ExplicitSystem(
            {json_site(site, "a site in stacks"): stack(prefix, f"stacks[{site!r}]")
             for site, prefix in stacks.items()},
            default_fill=json_arrow(obj.get("default_fill", "R"), "default_fill"),
        )
    if kind == "ce1-L":
        from .counterexamples import Ce1LeftSystem

        return Ce1LeftSystem()
    from .counterexamples import Ce1RightSystem

    return Ce1RightSystem(json_int(obj.get("N", 3), "N"))


def _unrepeated(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of `pairs`, refusing a key it holds twice, of which
    `json.load` would keep the last without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeated in one JSON object")
        obj[key] = value
    return obj


def load_json(path: str) -> object:
    """The JSON document in the file at `path`, whose objects each name a
    key once."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unrepeated)


def load_system(path: str) -> ArrowSystem:
    return parse_system(load_json(path))


def write_trajectory_csv(traj: Trajectory, fh: TextIO) -> None:
    """Write the path as CSV rows `n,pos` for n = 0..horizon."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["n", "pos"])
    for n, p in enumerate(traj.positions):
        writer.writerow([n, p])
