"""Slow references for the fast paths in `src/`, kept on the test side.

Each reference is the straightforward form of a fast path, kept unchanged so
that differential tests can hold the fast path to it.  The references, and
what each guards:

- `check_identities`, with `occupation` (its `LocalTimeTable`) and
  `stack_counts`: the bookkeeping identity suite at one time, from the
  occupation table.  It guards `core.scan_identities`, the one-pass scan;
  `first_failure` names the identity a report flags first.
- `check_relation`: two systems compared cell by cell over a window, in
  either stack order.  On the favourable completions of two paths it guards
  `core.paths_admit_preceq`; on sampled systems, the couplings' order.
- `reference_walk`: the walk, one `arrow_at` query per step.  It guards
  `core.run_walk`'s word loop and `core.zero_right_walk`'s reuse of a
  walked path's right excursions.
- `CellSystem`: a sampled system cell by cell from `UniformField.value`,
  Right iff u < p.  It guards `SampledCookieSystem`: the view memo, the
  word limits and the padded lanes.
- `SequentialCookieSystem` and `reference_walk_stats`: the stats walks'
  law, cell by cell through `run_walk`.  They guard `campaign._raw_walk`
  (speed and maximum) and `campaign._zero_right_returns` (returns and late
  returns).
- `reference_block`: the field's definition, one keyed blake2b of the whole
  packed message.  It guards `UniformField._hasher`, its packed-int table
  and the sequential reader `words`.
- `reference_env_leq_pointwise`, `reference_env_order` and
  `reference_reversed_env`: the environment comparisons with every lane
  padded to the depth of both environments and the partition, and the
  descending block sort as a second sort over the ascending one.  They
  guard `couplings._lane_pairs`, which stops each lane at its own depth, and
  `sorted_env(..., descending=True)`.
- `reference_pick`, `reference_chain`, `reference_block_family_cell` and
  `reference_swap_chain_cell`: partition-coupled cells from field values,
  with stack chains enumerated afresh and each level's block (`block_of`)
  found by a scan of the partition's blocks.  They guard
  `BlockSampledSystem` and `ChainEndSystem`: their plans, rows, realized
  blocks and word cells.
- `ReferencePairChecker`: the flag-driven one-pass checker that
  `PairChecker.run` replaced.  It decides every requested statement at
  every step, keeps the difference profile d = n_R - n_L in an array, and
  keeps the left neighbour's count at each k-th visit in one list per site
  and path.  It guards `PairChecker.run`.
- `reference_trial` and `reference_stats`: a campaign trial's report row and
  a whole stats payload, built from the references above only.  They guard
  `campaign.run_trial` and `campaign.speed_and_recurrence_stats` where the
  layers meet: a memo shared by a pair, a return walk resuming a pair walk,
  a check decided late.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, Optional

from arrowwalk.campaign import CampaignConfig, _summary
from arrowwalk.core import (
    IDENTITY_IDS,
    LEFT,
    RELATION_MODES,
    RIGHT,
    ArrowSystem,
    ExplicitSystem,
    IdentityReport,
    RelationResult,
    Trajectory,
    consumed_stacks,
    run_walk,
    zero_right_transform,
)
from arrowwalk.counterexamples import (
    CE2_LEFT_PATH,
    CE2_RIGHT_PATH,
    Ce1LeftSystem,
    Ce1RightSystem,
    ce1_milestones,
)
from arrowwalk.couplings import (
    BlockPartition,
    CookieEnvironment,
    DriftContractError,
    EnvOrderReport,
    UniformField,
    _apply_swap,
    _glue_pair,
    _pack,
    classify_alpha,
    constant_env,
    cookie_env,
    orrw_drift_law,
    pair_swap_block,
    poisson_binomial,
    sorted_env,
    swap_path,
)
from arrowwalk.verify import PairChecker, VerifyResult

# ---------------------------------------------------------------------------
# walk bookkeeping and stack order


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
    trajectory carries one; otherwise against the system the path itself
    forces, whose fill is never read, which degrades them to an internal
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

    system = traj.system
    if system is None:
        system = ExplicitSystem(consumed_stacks(pos[: t + 1]), LEFT)

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
            lefts, rights = stack_counts(system, x, consumed)
            if out_right != rights:
                fail("used_right", (x, out_right, rights))
            if out_left != lefts:
                fail("used_left", (x, out_left, lefts))

        lhs = out_right + (1 if (x + 1 <= 0 and e_t <= x) else 0)
        rhs = edges.get((x + 1, x), 0) + (1 if (x >= 0 and e_t >= x + 1) else 0)
        if lhs != rhs:
            fail("reciprocity", (x, lhs, rhs))

    return IdentityReport(t, ok, witnesses)


def first_failure(report: IdentityReport) -> Optional[tuple[str, tuple]]:
    """The first identity `report` flags, in `IDENTITY_IDS` order, with its
    witness; None when every identity holds."""
    for name in IDENTITY_IDS:
        if not report.ok.get(name, True):
            return name, report.witnesses[name]
    return None


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


# ---------------------------------------------------------------------------
# walks, sampled cells and the field


def reference_walk(system, horizon):
    """The walk, one `arrow_at` query per step."""
    pos = 0
    positions = [0]
    visits = {0: 1}
    for _ in range(horizon):
        pos += system.arrow_at(pos, visits[pos])
        positions.append(pos)
        visits[pos] = visits.get(pos, 0) + 1
    return positions, visits


class CellSystem(ArrowSystem):
    """A sampled system's definition, cell by cell and with no memo:
    Right at (site, level) iff the field's uniform there is below the
    environment's probability.  It defines no `cell_words`."""

    def __init__(self, env, field, stream):
        self.env = env
        self.field = field
        self.stream = stream

    def arrow_at(self, site, level):
        u = self.field.value(self.stream, site, level)
        return RIGHT if u < self.env.prob(site, level) else LEFT


class SequentialCookieSystem(ArrowSystem):
    """The stats walks' law, cell by cell: each cell takes the uniform of the
    next word of `field.words(stream, 0)` the first time it is queried, and
    holds Right when that uniform is below the environment's probability."""

    def __init__(self, env, field, stream):
        self.env = env
        self.words = field.words(stream, 0)
        self.cells = {}

    def arrow_at(self, site, level):
        arrow = self.cells.get((site, level))
        if arrow is None:
            u = (next(self.words) >> 11) * 2.0**-53
            arrow = self.cells[(site, level)] = RIGHT if u < self.env.prob(site, level) else LEFT
        return arrow


def reference_walk_stats(env, field, stream, horizon, after, transformed):
    system = SequentialCookieSystem(env, field, stream)
    if transformed:
        system = zero_right_transform(system)
    positions = run_walk(system, horizon).positions
    return {
        "speed": positions[-1] / horizon,
        "max_pos": max(positions),
        "returns": sum(1 for x in positions[1:] if x == 0),
        "returns_after": sum(1 for x in positions[after + 1:] if x == 0),
    }


def reference_block(field, stream, site, index):
    """The field's definition: a keyed blake2b of the whole packed message."""
    digest = blake2b(_pack((stream, site, index)), key=field._key, digest_size=64).digest()
    return tuple((u >> 11) * 2.0**-53 for u in struct.unpack(">8Q", digest))


# ---------------------------------------------------------------------------
# environment order
#
# Every lane is padded to one global depth, one level above every list of
# both environments and every block of the partition.


def _reference_lanes(*envs):
    """Explicit sites of any environment, plus None for the default lane."""
    sites = set()
    for env in envs:
        sites.update(env.sites)
    return sorted(sites) + [None]


def _reference_lane_probs(env, lane, depth):
    lst = env.sites.get(lane, env.default)  # lane None: no site key is None
    return tuple(lst[k] if k < len(lst) else env.tail for k in range(depth))


def reference_env_leq_pointwise(env_a, env_b):
    depth = max(env_a.depth(), env_b.depth()) + 1
    for lane in _reference_lanes(env_a, env_b):
        pa = _reference_lane_probs(env_a, lane, depth)
        pb = _reference_lane_probs(env_b, lane, depth)
        for k, (x, y) in enumerate(zip(pa, pb), start=1):
            if x > y:
                return (lane, k)
        if env_a.tail > env_b.tail:
            return (lane, depth + 1)
    return None


def reference_env_order(env_a, env_b, partition):
    depth = max(env_a.depth(), env_b.depth(), partition.depth()) + 1
    is_perm = True
    reachable = True
    witness = None
    covered = {l for b in partition.blocks for l in b}
    for lane in _reference_lanes(env_a, env_b):
        pa = _reference_lane_probs(env_a, lane, depth)
        pb = _reference_lane_probs(env_b, lane, depth)
        for level in range(1, depth + 1):
            if level not in covered and pa[level - 1] != pb[level - 1]:
                is_perm = False
                reachable = False
                witness = witness or {"lane": lane, "level": level, "reason": "values differ outside blocks"}
        if env_a.tail != env_b.tail:
            is_perm = False
            reachable = False
            witness = witness or {"lane": lane, "reason": "tails differ"}
        for block in partition.blocks:
            va = tuple(pa[l - 1] for l in block)
            vb = tuple(pb[l - 1] for l in block)
            if sorted(va) != sorted(vb):
                is_perm = False
                reachable = False
                witness = witness or {"lane": lane, "block": block, "reason": "value multisets differ"}
            elif reachable and swap_path(va, vb) is None:
                reachable = False
                witness = witness or {"lane": lane, "block": block, "reason": "not reachable by favourable swaps"}
    return EnvOrderReport(is_perm, reachable, witness)


def reference_reversed_env(env, partition):
    """Each block's values sorted descending, over the ascending sort, which
    pads every lane to cover the partition."""
    asc = sorted_env(env, partition)

    def rev_lane(probs):
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


# ---------------------------------------------------------------------------
# reference realizations, per cell
#
# These realize block-coupled cells as the field-value reference would: one
# `UniformField.value` call per uniform, no memo of raw blocks and stack
# chains enumerated afresh.  The systems under test must agree cell by cell.


def block_of(partition, level):
    """The block of `partition` that holds `level`: a listed block, else the
    singleton (level,)."""
    return next((b for b in partition.blocks if level in b), (level,))


def prefix_lefts(stack):
    return list(itertools.accumulate(1 if a is LEFT else 0 for a in stack))


def reference_chain(n, y):
    stacks = [s for s in itertools.product((LEFT, RIGHT), repeat=n) if s.count(RIGHT) == y]
    return sorted(stacks, key=lambda s: tuple(prefix_lefts(s)))


def reference_pick(probs, u):
    cums = list(itertools.accumulate(probs))
    return min(bisect_left(cums, u), len(cums) - 1)


def reference_block_family_cell(env, base_env, partition, field, stream, site, level):
    block = block_of(partition, level)
    slot = partition.block_index(block)
    u_total = field.value((stream, "total"), site, slot)
    y = reference_pick(poisson_binomial([base_env.prob(site, l) for l in block]), u_total)
    chain = reference_chain(len(block), y)
    weights = []
    for stack in chain:
        w = 1.0
        for l, a in zip(block, stack):
            p = env.prob(site, l)
            w *= p if a is RIGHT else 1.0 - p
        weights.append(w)
    u_pick = field.value((stream, "pick"), site, slot)
    stack = chain[reference_pick([w / sum(weights) for w in weights], u_pick)]
    return dict(zip(block, stack))[level]


def reference_swap_chain_cell(env, env2, partition, field, stream, site, level, side):
    block = block_of(partition, level)
    if len(block) == 1 and block[0] > partition.depth():
        u = field.value((stream, "cell"), site, level)
        return RIGHT if u < env.prob(site, level) else LEFT
    n = len(block)
    slot = partition.block_index(block)
    probs0 = tuple(env.prob(site, l) for l in block)
    probs1 = tuple(env2.prob(site, l) for l in block)
    path = swap_path(probs0, probs1)
    states = [probs0]
    for i, j in path:
        states.append(_apply_swap(states[-1], i, j))
    link = (stream, "link", slot)
    if not path:
        arrows = [RIGHT if field.value(link, site, pos + 1) < probs0[pos] else LEFT for pos in range(n)]
        return dict(zip(block, arrows))[level]
    i0, j0 = path[0]
    start = [None] * n
    for pos in range(n):
        if pos not in (i0, j0):
            u = field.value(link, site, pos + 1)
            start[pos] = RIGHT if u < probs0[pos] else LEFT
    u_pair = field.value(link, site, n + 1)
    start[i0], start[j0] = pair_swap_block(probs0[i0], probs0[j0], u_pair)
    current = list(start)
    current[i0], current[j0] = pair_swap_block(states[1][i0], states[1][j0], u_pair)
    for m in range(1, len(path)):
        i, j = path[m]
        v = field.value((stream, "glue", slot, m), site, 1)
        current[i], current[j] = _glue_pair(states[m][i], states[m][j], (current[i], current[j]), v)
    return dict(zip(block, (start, current)[side]))[level]


# ---------------------------------------------------------------------------
# the pair checker


class ReferencePairChecker(PairChecker):
    """`PairChecker` with the per-step loop it had before the five
    statements count dominance implies were deferred."""

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


# ---------------------------------------------------------------------------
# a whole trial, and a whole stats payload


class FunctionSystem(ArrowSystem):
    """The arrow system whose arrow at (site, level) is `arrow(site, level)`:
    no memo and no `cell_words`, so a walk queries it once per step."""

    def __init__(self, arrow):
        self.arrow_at = arrow


def _eta_threshold(eta, level):
    """The envelope's threshold at visit `level`: 1/2 above its window."""
    return eta[level - 1] if level <= len(eta) else 0.5


def _field_values(field, stream, count):
    """`field.value` at levels 1 .. count of site 0."""
    return [field.value(stream, 0, level) for level in range(1, count + 1)]


def _adaptive_walk(config, field, stream):
    """The envelope's adaptive walk, one `field.value` per step: Right iff
    u <= p for the drift law's p, which must lie in [0, eta_k]."""
    law = orrw_drift_law(config.beta)
    traj = Trajectory([0], {0: 1})
    pos = 0
    for n in range(1, config.horizon + 1):
        k = traj.visit_counts[pos]
        p = float(law(traj, k))
        bound = _eta_threshold(config.eta, k)
        if not 0.0 <= p <= bound:
            raise DriftContractError(n - 1, pos, k, p, bound)
        pos += 1 if field.value(stream, pos, k) <= p else -1
        traj.positions.append(pos)
        traj.visit_counts[pos] = traj.visit_counts.get(pos, 0) + 1
    return traj.positions


def _reference_pair(config, trial, field):
    """The trial's two systems (None for a path given without one), their
    walks' positions, and the family's extras, from references only.

    The environments' descending sort is `reference_reversed_env`; their
    ascending sort (`sorted_env`) and the extras (`ce1_milestones`,
    `classify_alpha`) are the package's own: they have no faster path to
    hold to a slower one."""
    fam, h = config.family, config.horizon
    extra = {}
    if fam == "shared-uniform":
        if config.env is not None:
            lo, hi = config.env, config.env2
        else:
            hi_vals = _field_values(field, ("envhi", trial), 3)
            shrink = _field_values(field, ("envlo", trial), 3)
            lo, hi = cookie_env(tuple(x * s for x, s in zip(hi_vals, shrink))), cookie_env(tuple(hi_vals))
        systems = (CellSystem(lo, field, ("trial", trial)), CellSystem(hi, field, ("trial", trial)))
    elif fam == "independent-control":
        env = config.env or constant_env(0.5)
        systems = (CellSystem(env, field, ("ctl", trial, "L")), CellSystem(env, field, ("ctl", trial, "R")))
    elif fam == "block-family":
        partition = config.partition or BlockPartition(((1, 2, 3),))
        base = config.env or cookie_env(tuple(_field_values(field, ("envbf", trial), partition.depth())))
        systems = tuple(
            FunctionSystem(lambda site, level, env=env: reference_block_family_cell(
                env, base, partition, field, ("bf", trial), site, level))
            for env in (sorted_env(base, partition), reference_reversed_env(base, partition))
        )
    elif fam == "swap-chain":
        partition = config.partition or BlockPartition(((1, 2, 3),))
        if config.env is not None:
            lo, hi = config.env, config.env2
        else:
            base = cookie_env(tuple(_field_values(field, ("envsc", trial), partition.depth())))
            lo, hi = sorted_env(base, partition), reference_reversed_env(base, partition)
        systems = tuple(
            FunctionSystem(lambda site, level, side=side: reference_swap_chain_cell(
                lo, hi, partition, field, ("sc", trial), site, level, side))
            for side in (0, 1)
        )
    elif fam == "envelope":
        stream = ("ew", trial)
        positions = _adaptive_walk(config, field, stream)
        eta_system = FunctionSystem(lambda site, level: (
            RIGHT if field.value(stream, site, level) <= _eta_threshold(config.eta, level) else LEFT))
        alpha = sum(2.0 * e - 1.0 for e in config.eta)
        extra = {"alpha": alpha, "alpha_labels": classify_alpha(alpha)}
        systems = (ExplicitSystem(consumed_stacks(positions), LEFT), eta_system)
        return systems, (positions, reference_walk(eta_system, h)[0]), extra
    elif fam == "ce1":
        systems = (Ce1LeftSystem(), Ce1RightSystem(config.n))
        miles = ce1_milestones(config.n, config.kmax)
        extra = {"milestones": {
            "sites": miles.sites,
            "first_hits": miles.first_hits,
            "last_exits": miles.last_exits,
            "limit_hi": miles.limit_hi,
            "limit_lo": miles.limit_lo,
        }}
    else:  # ce2: two fixed paths, repeated, with no systems
        pos_l = list(CE2_LEFT_PATH) + list(CE2_LEFT_PATH[1:]) * (config.cycles - 1)
        pos_r = list(CE2_RIGHT_PATH) + list(CE2_RIGHT_PATH[1:]) * (config.cycles - 1)
        extra = {
            "lead_ahead": sum(r > l for l, r in zip(pos_l, pos_r)),
            "lead_behind": sum(r < l for l, r in zip(pos_l, pos_r)),
        }
        return (None, None), (pos_l, pos_r), extra
    return systems, tuple(reference_walk(system, h)[0] for system in systems), extra


def reference_trial(config: CampaignConfig, trial: int) -> dict:
    """The report row `campaign.run_trial` gives, from references only.

    Cells are field values under the float rules: u < p for a sampled
    system, u <= eta_k for the envelope, and the partition reference cells
    for the block family and the swap chain.  Random environments take
    field values at site 0.  Walks are `reference_walk`s, the envelope's
    adaptive walk a per-step loop over field values, and checks are
    `ReferencePairChecker`'s.  Returns to 0 are counted on per-arrow walks
    of each system's zero-right transform, the adaptive side's system being
    the one its path forces.  A drift contract violation raises."""
    systems, (pos_l, pos_r), extra = _reference_pair(config, trial, UniformField(config.seed))
    statuses = {}
    for name, res in ReferencePairChecker(pos_l, pos_r, config.checks).run().items():
        status = "fail" if not res.passed else "vacuous" if res.vacuous else "pass"
        statuses[name] = {"status": status, "witness": res.witness}
    t = len(pos_l) - 1
    row = {
        "trial": trial,
        "checks": statuses,
        "speed_l": pos_l[-1] / t,
        "speed_r": pos_r[-1] / t,
        "max_r": max(pos_r),
    }
    if config.collect_returns:
        row["returns_l"], row["returns_r"] = (
            None if system is None else reference_walk(zero_right_transform(system), t)[1][0] - 1
            for system in systems
        )
    if extra:
        row["extra"] = extra
    return row


def reference_stats(env: CookieEnvironment, trials: int, horizon: int, seed: int = 0, after: int = 0) -> dict:
    """The payload `campaign.speed_and_recurrence_stats` gives, its walks
    by `reference_walk_stats`: the raw walks' speed and maximum, and the
    zero-right walks' returns.  The summaries are the package's own
    `_summary`, which has no faster path."""
    field = UniformField(seed)
    raw = [reference_walk_stats(env, field, ("stats", i, "raw"), horizon, after, False) for i in range(trials)]
    plus = [reference_walk_stats(env, field, ("stats", i, "plus"), horizon, after, True) for i in range(trials)]
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
