"""Randomized arrow systems driven by cookie environments, and couplings
that realize stack order between systems with ordered environments.

A cookie environment assigns each cell (site, level) a probability; a
sampled system draws its arrow Right with that probability.  All
randomness flows through `UniformField`, a pure counter-based map from
(seed, stream, site, level) to [0, 1), so any two systems built on the
same field with the same stream tags share their uniforms cell by cell.
That sharing is what turns environment inequalities into almost-sure
stack order between the sampled systems.
"""

from __future__ import annotations

import itertools
import json
import struct
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field as dc_field
from hashlib import blake2b
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import (
    LEFT,
    RIGHT,
    Arrow,
    ArrowSystem,
    ExplicitSystem,
    Trajectory,
    run_walk,
)
from .verify import CoupledPair, make_pair

StreamTag = Union[int, str, tuple]

_U64_SCALE = 2.0**-53
_UNPACK_8Q = struct.Struct(">8Q").unpack
# Length prefixes in `_pack` are two bytes wide.
_PACK_LIMIT = 0xFFFF
# Keyed hashers kept per field; at this many the memo starts over.  Each
# holds about 450 bytes of hash state.
_HEAD_CAP = 1024


def _pack(obj: StreamTag) -> bytes:
    """Canonical byte encoding of a stream token (int, str, or nested tuple)."""
    if isinstance(obj, int):
        n = (obj.bit_length() + 8) // 8
        if n > _PACK_LIMIT:
            raise ValueError(f"int stream tokens are limited to {_PACK_LIMIT} bytes, got {n}")
        return b"i" + n.to_bytes(2, "big") + obj.to_bytes(n, "big", signed=True)
    if isinstance(obj, str):
        b = obj.encode("utf-8")
        if len(b) > _PACK_LIMIT:
            raise ValueError(
                f"string stream tokens are limited to {_PACK_LIMIT} UTF-8 bytes, got {len(b)}"
            )
        return b"s" + len(b).to_bytes(2, "big") + b
    if isinstance(obj, (tuple, list)):
        if len(obj) > _PACK_LIMIT:
            raise ValueError(f"stream tuples are limited to {_PACK_LIMIT} items, got {len(obj)}")
        return b"t" + len(obj).to_bytes(2, "big") + b"".join(_pack(x) for x in obj)
    raise TypeError(f"stream tokens must be ints, strings, or tuples, got {type(obj)!r}")


class UniformField:
    """Pure map (stream, site, level) -> uniform in [0, 1), keyed by a seed.

    Values come from keyed blake2b digests, eight 53-bit uniforms per
    digest, so the field is replay-safe: any query order, any interleaving
    across systems, gives identical values.  Stream tags namespace
    independent uses of the same cells.

    The digest of block (stream, site, index) is that of the message
    `_pack((stream, site, index))`.  Its stream part is the same on every
    call, so it is absorbed once into a keyed hasher that each call copies
    (counter-based generation in the style of Salmon et al., SC'11).
    """

    __slots__ = ("seed", "_key", "_heads")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = blake2b(_pack(self.seed), digest_size=32).digest()
        # stream tag -> (the tag object cached, hasher holding its prefix)
        self._heads: dict = {}

    def _head(self, stream: StreamTag):
        """Keyed hasher that has absorbed the stream's share of the message:
        the 3-tuple header and `_pack(stream)`."""
        return blake2b(b"t\x00\x03" + _pack(stream), key=self._key, digest_size=64)

    def block(self, stream: StreamTag, site: int, index: int) -> tuple[float, ...]:
        """Eight consecutive uniforms: levels 8*index+1 .. 8*index+8."""
        heads = self._heads
        try:
            tag, head = heads[stream]
        except KeyError:
            tag = None
        except TypeError:  # a list tag: unhashable, never cached
            tag, head = stream, self._head(stream)
        if tag is not stream:
            # A hit counts only on the very object cached, so a tag that
            # is equal but of another type (1.0 for 1) is packed, and
            # rejected, like any new tag.
            head = self._head(stream)
            if len(heads) >= _HEAD_CAP:
                heads.clear()
            heads[stream] = (stream, head)
        h = head.copy()
        h.update(_pack(site) + _pack(index))
        a, b, c, d, e, f, g, k = _UNPACK_8Q(h.digest())
        s = _U64_SCALE
        # Written out: a generator over the eight words costs twice as much.
        return ((a >> 11) * s, (b >> 11) * s, (c >> 11) * s, (d >> 11) * s,
                (e >> 11) * s, (f >> 11) * s, (g >> 11) * s, (k >> 11) * s)

    def value(self, stream: StreamTag, site: int, level: int) -> float:
        """One uniform, hashed afresh: the reference that `FieldStream`
        memoizes."""
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        q, r = divmod(level - 1, 8)
        return self.block(stream, site, q)[r]


class FieldStream:
    """One stream of a field, with a memo of its raw blocks by (site, q).

    Systems coupled through shared uniforms share one view, so each block
    is hashed once per pair or family.  The memo is never on the field,
    which serves many streams: it goes away with the systems holding it.
    """

    __slots__ = ("field", "stream", "_blocks")

    def __init__(self, field: UniformField, stream: StreamTag):
        self.field = field
        self.stream = stream
        self._blocks: dict[tuple[int, int], tuple[float, ...]] = {}

    def block(self, site: int, q: int) -> tuple[float, ...]:
        """Uniforms of levels 8*q+1 .. 8*q+8 at `site`."""
        key = (site, q)
        blk = self._blocks.get(key)
        if blk is None:
            blk = self._blocks[key] = self.field.block(self.stream, site, q)
        return blk

    def value(self, site: int, level: int) -> float:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        q, r = divmod(level - 1, 8)
        key = (site, q)  # `block`, inline: the envelope walk's every step
        blk = self._blocks.get(key)
        if blk is None:
            blk = self._blocks[key] = self.field.block(self.stream, site, q)
        return blk[r]


# ---------------------------------------------------------------------------
# cookie environments


@dataclass(frozen=True)
class CookieEnvironment:
    """Per-cell Right probabilities: explicit per-site lists, a default
    list for unlisted sites, and a constant tail above the lists."""

    sites: Mapping[int, tuple[float, ...]] = dc_field(default_factory=dict)
    default: tuple[float, ...] = ()
    tail: float = 0.5

    def __post_init__(self):
        object.__setattr__(
            self,
            "sites",
            {int(s): tuple(float(p) for p in lst) for s, lst in self.sites.items()},
        )
        object.__setattr__(self, "default", tuple(float(p) for p in self.default))
        object.__setattr__(self, "tail", float(self.tail))
        for lst in list(self.sites.values()) + [self.default]:
            for p in lst:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"probability out of range: {p}")
        if not 0.0 <= self.tail <= 1.0:
            raise ValueError(f"tail probability out of range: {self.tail}")

    def prob(self, site: int, level: int) -> float:
        lst = self.sites.get(site, self.default)
        if level <= len(lst):
            return lst[level - 1]
        return self.tail

    def depth(self) -> int:
        """Length of the longest explicit list."""
        lengths = [len(lst) for lst in self.sites.values()]
        lengths.append(len(self.default))
        return max(lengths)

    def to_json_obj(self) -> dict:
        return {
            "sites": {str(s): list(lst) for s, lst in sorted(self.sites.items())},
            "default": list(self.default),
            "tail": self.tail,
        }


def cookie_env(probs: Sequence[float], tail: float = 0.5) -> CookieEnvironment:
    """Environment with the same excitement profile at every site."""
    return CookieEnvironment({}, tuple(probs), tail)


def constant_env(p: float) -> CookieEnvironment:
    """Environment with probability p at every cell."""
    return CookieEnvironment({}, (), p)


def parse_env(obj: Mapping) -> CookieEnvironment:
    """JSON form: {"sites": {"<x>": [p, ...]}, "default": [p, ...], "tail": 0.5}"""
    return CookieEnvironment(
        {int(s): tuple(lst) for s, lst in obj.get("sites", {}).items()},
        tuple(obj.get("default", ())),
        obj.get("tail", 0.5),
    )


def load_env(path: str) -> CookieEnvironment:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_env(json.load(fh))


def _lanes(*envs: CookieEnvironment) -> list[Optional[int]]:
    """Distinct site behaviours across environments: explicit sites plus
    None for the shared default lane."""
    sites: set[int] = set()
    for env in envs:
        sites.update(env.sites)
    return sorted(sites) + [None]


def _lane_probs(env: CookieEnvironment, lane: Optional[int], depth: int) -> tuple[float, ...]:
    lst = env.sites.get(lane, env.default)  # lane None: no site key is None
    return tuple(lst[k] if k < len(lst) else env.tail for k in range(depth))


def env_leq_pointwise(
    env_a: CookieEnvironment, env_b: CookieEnvironment
) -> Optional[tuple[Optional[int], int]]:
    """First cell (lane, level) where env_a exceeds env_b, or None if
    env_a <= env_b everywhere.  Lane None stands for all unlisted sites."""
    depth = max(env_a.depth(), env_b.depth()) + 1
    for lane in _lanes(env_a, env_b):
        pa = _lane_probs(env_a, lane, depth)
        pb = _lane_probs(env_b, lane, depth)
        for k, (x, y) in enumerate(zip(pa, pb), start=1):
            if x > y:
                return (lane, k)
        if env_a.tail > env_b.tail:
            return (lane, depth + 1)
    return None


# ---------------------------------------------------------------------------
# sampled systems


class SampledCookieSystem(ArrowSystem):
    """Arrow at (x, n) is Right iff U(x, n) < env.prob(x, n).

    Arrows are memoized in blocks of eight, so queries are consistent and
    re-walking the same instance replays the same walk.  Two instances on
    views of the same field and stream share every uniform cell by cell;
    on one view, they also hash each raw block of uniforms once.
    """

    def __init__(self, env: CookieEnvironment, view: FieldStream):
        self.env = env
        self.view = view
        self._chunks: dict[tuple[int, int], tuple[Arrow, ...]] = {}

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        q, r = divmod(level - 1, 8)
        key = (site, q)
        chunk = self._chunks.get(key)
        if chunk is None:
            raw = self.view.block(site, q)
            env = self.env
            probs = env.sites.get(site, env.default)[q * 8 : q * 8 + 8]
            if len(probs) < 8:
                probs += (env.tail,) * (8 - len(probs))
            chunk = tuple(RIGHT if u < p else LEFT for u, p in zip(raw, probs))
            self._chunks[key] = chunk
        return chunk[r]


def sample_system(
    env: CookieEnvironment, field: UniformField, stream: StreamTag = 0
) -> SampledCookieSystem:
    """Sample an arrow system from a cookie environment via the field."""
    return SampledCookieSystem(env, FieldStream(field, stream))


def shared_pair(
    env_l: CookieEnvironment,
    env_r: CookieEnvironment,
    field: UniformField,
    horizon: int,
    stream: StreamTag = 0,
) -> CoupledPair:
    """Walks of two systems sampled from pointwise-ordered environments
    through the *same* uniforms, so a Right in the low system forces a
    Right in the high system at every cell.  The two systems read one
    view of the field, so each block is hashed once per pair."""
    bad = env_leq_pointwise(env_l, env_r)
    if bad is not None:
        raise ValueError(f"env_l exceeds env_r at (site lane, level) = {bad}")
    view = FieldStream(field, stream)
    return make_pair(
        SampledCookieSystem(env_l, view),
        SampledCookieSystem(env_r, view),
        horizon,
        relation_mode="trileq",
        provenance="shared-uniform",
    )


# ---------------------------------------------------------------------------
# block partitions and environment order


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint finite blocks of stack levels, identical at every site.

    Levels not covered by any block behave as singletons.  `cap` bounds
    the block sizes accepted by the block-family coupling (the stack
    chains it relies on exist only up to height 3).
    """

    blocks: tuple[tuple[int, ...], ...]
    cap: int = 3

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(l) for l in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if b[0] < 1:
                raise ValueError(f"levels must be >= 1, got {b[0]}")
            if len(b) > self.cap:
                raise ValueError(f"block {b} exceeds cap {self.cap}")
            if seen & set(b):
                raise ValueError(f"blocks are not disjoint at {sorted(seen & set(b))}")
            seen.update(b)
        # Not fields, so equality and hashing ignore them.  level -> (block, position)
        object.__setattr__(self, "_places", {l: (b, i) for b in blocks for i, l in enumerate(b)})
        object.__setattr__(self, "_depth", max((b[-1] for b in blocks), default=0))

    def depth(self) -> int:
        return self._depth

    def block_of(self, level: int) -> tuple[int, ...]:
        place = self._places.get(level)
        return (level,) if place is None else place[0]

    def block_index(self, block: tuple[int, ...]) -> int:
        """Stable 1-based randomness slot for a block (singletons included)."""
        try:
            return 1 + self.blocks.index(block)
        except ValueError:
            return len(self.blocks) + 1 + block[0]

    def to_json_obj(self) -> dict:
        return {"cap": self.cap, "blocks": [list(b) for b in self.blocks]}


def parse_partition(obj: Mapping) -> BlockPartition:
    """JSON form: {"cap": 3, "blocks": [[1,2],[3,4,5]]}"""
    return BlockPartition(
        tuple(tuple(b) for b in obj.get("blocks", ())), obj.get("cap", 3)
    )


def load_partition(path: str) -> BlockPartition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partition(json.load(fh))


def favourable_swaps(values: Sequence[float]) -> list[tuple[int, int]]:
    """Position pairs (i, j), i < j, whose swap moves a value that is at
    least as large down the stack: allowed iff values[i] <= values[j]."""
    n = len(values)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if values[i] <= values[j]]


def _apply_swap(values: tuple, i: int, j: int) -> tuple:
    lst = list(values)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


def swap_path(src: Sequence[float], dst: Sequence[float]) -> Optional[list[tuple[int, int]]]:
    """Shortest favourable-swap sequence turning `src` into `dst`, or None.

    Breadth-first search over permutations of the block, deterministic
    tie-breaking by position order.  Block sizes stay tiny (file formats
    cap them), so the state space is bounded by size factorial.
    """
    src = tuple(src)
    dst = tuple(dst)
    if sorted(src) != sorted(dst):
        return None
    if src == dst:
        return []
    if len(src) > 8:
        raise ValueError(f"block too large for swap search: {len(src)}")
    frontier = deque([src])
    parent: dict[tuple, tuple[tuple, tuple[int, int]]] = {src: (src, (0, 0))}
    while frontier:
        state = frontier.popleft()
        for i, j in favourable_swaps(state):
            nxt = _apply_swap(state, i, j)
            if nxt in parent:
                continue
            parent[nxt] = (state, (i, j))
            if nxt == dst:
                path = [(i, j)]
                cur = state
                while cur != src:
                    cur, move = parent[cur]
                    path.append(move)
                path.reverse()
                return path
            frontier.append(nxt)
    return None


@dataclass
class EnvOrderReport:
    """How two environments compare under a block partition."""

    is_block_permutation: bool
    swap_reachable: bool
    witness: Optional[dict] = None


def env_order(
    env_a: CookieEnvironment,
    env_b: CookieEnvironment,
    partition: BlockPartition,
) -> EnvOrderReport:
    """Compare env_a against env_b lane by lane.

    is_block_permutation: within each block the two value multisets agree,
                          and outside all blocks the values agree exactly
                          (tails included).
    swap_reachable:       env_b is reachable from env_a by favourable
                          swaps inside each block (implies the sampled
                          systems can be coupled in stack order).
    """
    depth = max(env_a.depth(), env_b.depth(), partition.depth()) + 1
    is_perm = True
    reachable = True
    witness = None
    covered = {l for b in partition.blocks for l in b}
    for lane in _lanes(env_a, env_b):
        pa = _lane_probs(env_a, lane, depth)
        pb = _lane_probs(env_b, lane, depth)
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


def sorted_env(env: CookieEnvironment, partition: BlockPartition) -> CookieEnvironment:
    """Sort each block's values ascending by level, at every lane.

    The result is the swap-minimal member of the block-permutation class:
    every other member is reachable from it by favourable swaps.
    """
    depth = max(env.depth(), partition.depth())

    def sort_lane(probs: tuple[float, ...], tail: float) -> tuple[float, ...]:
        padded = list(probs) + [tail] * (depth - len(probs))
        for block in partition.blocks:
            vals = sorted(padded[l - 1] for l in block)
            for l, v in zip(block, vals):
                padded[l - 1] = v
        return tuple(padded)

    return CookieEnvironment(
        {s: sort_lane(lst, env.tail) for s, lst in env.sites.items()},
        sort_lane(env.default, env.tail),
        env.tail,
    )


# ---------------------------------------------------------------------------
# exact block distributions


def poisson_binomial(probs: Sequence[float]) -> list[float]:
    """Distribution of the number of successes among independent Bernoulli
    trials with the given probabilities, by direct convolution."""
    pmf = [1.0]
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        nxt = [0.0] * (len(pmf) + 1)
        for i, m in enumerate(pmf):
            nxt[i] += m * (1.0 - p)
            nxt[i + 1] += m * p
        pmf = nxt
    return pmf


# (n, y) -> every stack of n arrows with y Rights, by Left-prefix counts.
_STACK_CHAINS = {
    (n, y): tuple(sorted(
        (s for s in itertools.product((LEFT, RIGHT), repeat=n) if s.count(RIGHT) == y),
        key=lambda s: tuple(itertools.accumulate(a is LEFT for a in s)),
    ))
    for n in range(4)
    for y in range(n + 1)
}


def stack_chain(n: int, y: int) -> list[tuple[Arrow, ...]]:
    """All stacks of n arrows holding exactly y Rights, listed so that
    Left-prefix counts increase along the list.

    The first stack has all y Rights at the bottom; each later stack holds
    at least as many Lefts in every prefix.  Such a totally ordered listing
    exists only for n <= 3: for n = 4 the stacks RLLR and LRRL are already
    incomparable, so larger heights are refused.
    """
    if not 0 <= y <= n:
        raise ValueError(f"y must be in [0, {n}], got {y}")
    if n > 3:
        raise ValueError(
            "stacks taller than 3 with a fixed Right count are not totally "
            "ordered by Left-prefix counts (RLLR vs LRRL); split the block"
        )
    return list(_STACK_CHAINS[(n, y)])


def conditional_stack_pmf(probs: Sequence[float], y: int) -> list[float]:
    """Probabilities of the stacks in `stack_chain(len(probs), y)` when a
    block with independent Right-probabilities `probs` is conditioned on
    holding exactly y Rights.  Raises when that event has probability 0."""
    chain = stack_chain(len(probs), y)
    weights = []
    for stack in chain:
        w = 1.0
        for p, a in zip(probs, stack):
            w *= p if a is RIGHT else 1.0 - p
        weights.append(w)
    total = sum(weights)
    if total == 0.0:
        raise ValueError(f"conditioning on zero-probability Right count y={y}")
    return [w / total for w in weights]


# ---------------------------------------------------------------------------
# block-family coupling: shared block totals, shared selector


def _cum(probs: Sequence[float]) -> list[float]:
    out = []
    acc = 0.0
    for p in probs:
        acc += p
        out.append(acc)
    return out


def _pick(cums: Sequence[float], u: float) -> int:
    i = bisect_left(cums, u)
    return min(i, len(cums) - 1)


class BlockSampledSystem(ArrowSystem):
    """Member of a block-coupled family.

    Per (site, block), one shared uniform draws the block's Right count
    from the partition-invariant total distribution, and a second shared
    uniform selects a stack from this member's conditional distribution
    through its cumulative weights.  Members reading the same two views
    (totals and picks) therefore agree on the Right count everywhere and
    pick comparable stacks whenever their conditional cumulatives dominate.

    Besides its two uniforms, a draw needs only what its block and lane fix
    (the lane is the site if `env` or `base_env` lists it, else the default
    lane): that is planned once per (lane, block), from laws built once per
    block probabilities.
    """

    def __init__(
        self,
        env: CookieEnvironment,
        base_env: CookieEnvironment,
        partition: BlockPartition,
        totals: FieldStream,
        picks: FieldStream,
    ):
        self.env = env
        self.base_env = base_env
        self.partition = partition
        self.totals = totals
        self.picks = picks
        self._places = partition._places
        self._listed = set(env.sites) | set(base_env.sites)
        # (site, first level of the block) -> realized stack
        self._cells: dict[tuple[int, int], tuple[Arrow, ...]] = {}
        # (lane, block) -> (slot, total cumulative, block probabilities, rows by y)
        self._plans: dict[tuple, tuple] = {}
        # (base probabilities, probabilities) -> the same entry less the slot
        self._laws: dict[tuple, tuple] = {}

    def _plan(self, site: int, block: tuple[int, ...]) -> tuple:
        probs_base = tuple(self.base_env.prob(site, l) for l in block)
        probs = tuple(self.env.prob(site, l) for l in block)
        law = self._laws.get((probs_base, probs))
        if law is None:
            law = self._laws[(probs_base, probs)] = (_cum(poisson_binomial(probs_base)), probs, {})
        return (self.partition.block_index(block),) + law

    def _realize(self, site: int, block: tuple[int, ...]) -> tuple[Arrow, ...]:
        key = (site if site in self._listed else None, block)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(site, block)
        slot, total_cum, probs, rows = plan
        y = _pick(total_cum, self.totals.value(site, slot))
        row = rows.get(y)
        if row is None:
            # Built when first drawn, so a zero-mass y raises only then.
            row = rows[y] = (stack_chain(len(block), y), _cum(conditional_stack_pmf(probs, y)))
        chain, cum = row
        # A chain of one stack leaves nothing to pick: its uniform goes unread.
        return chain[_pick(cum, self.picks.value(site, slot))] if len(chain) > 1 else chain[0]

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        block, pos = self._places.get(level) or ((level,), 0)
        key = (site, block[0])
        stack = self._cells.get(key)
        if stack is None:
            stack = self._cells[key] = self._realize(site, block)
        return stack[pos]


def couple_block_family(
    base_env: CookieEnvironment,
    partition: BlockPartition,
    envs: Sequence[CookieEnvironment],
    field: UniformField,
    stream: StreamTag = 0,
) -> list[BlockSampledSystem]:
    """One sampled system per environment, all sharing block totals and
    stack selectors through one view of each.

    Every member must be a block permutation of `base_env` (same value
    multiset in each block at each lane, equal values elsewhere), so the
    total distribution used for the shared count is family-invariant.
    Whenever one member's environment is favourable-swap reachable from
    another's, the reachable member's system dominates cell for cell in
    Left-prefix counts, surely.
    """
    if max((len(b) for b in partition.blocks), default=1) > 3:
        raise ValueError("block-family coupling requires blocks of size <= 3")
    for env in envs:
        report = env_order(base_env, env, partition)
        if not report.is_block_permutation:
            raise ValueError(f"environment is not a block permutation of the base: {report.witness}")
    totals = FieldStream(field, (stream, "total"))
    picks = FieldStream(field, (stream, "pick"))
    return [BlockSampledSystem(env, base_env, partition, totals, picks) for env in envs]


# ---------------------------------------------------------------------------
# pair-swap coupling and chained gluing


def pair_swap_block(p_bottom: float, p_top: float, u: float) -> tuple[Arrow, Arrow]:
    """Joint draw of a two-level stack from a single uniform.

    Marginals: bottom arrow Right with probability p_bottom, top arrow
    Right with probability p_top.  The interval layout is arranged so that
    evaluating the same u with the two probabilities exchanged yields a
    stack whose Left-prefix counts never exceed this one's when
    p_bottom <= p_top.
    """
    for p in (p_bottom, p_top):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    both = p_bottom * p_top
    if u < both:
        return (RIGHT, RIGHT)
    if u < p_bottom:
        return (RIGHT, LEFT)
    if u < p_bottom + p_top * (1.0 - p_bottom):
        return (LEFT, RIGHT)
    return (LEFT, LEFT)


def _glue_segments(p: float, q: float) -> list[tuple[float, float, tuple, tuple]]:
    """Common refinement of the two pair-swap layouts for one favourable
    swap link: probabilities (p, q) before, (q, p) after, p <= q.  Each
    segment carries (lo, hi, before-pair, after-pair)."""
    both = p * q
    third = p + q - p * q
    return [
        (0.0, both, (RIGHT, RIGHT), (RIGHT, RIGHT)),
        (both, p, (RIGHT, LEFT), (RIGHT, LEFT)),
        (p, q, (LEFT, RIGHT), (RIGHT, LEFT)),
        (q, third, (LEFT, RIGHT), (LEFT, RIGHT)),
        (third, 1.0, (LEFT, LEFT), (LEFT, LEFT)),
    ]


def _glue_pair(p: float, q: float, observed: tuple, v: float) -> tuple:
    """Sample the after-swap pair conditionally on the before-swap pair.

    Restricts the shared uniform to the segments producing `observed`,
    then spends the fresh uniform v on the restriction.
    """
    segs = [(lo, hi, after) for lo, hi, before, after in _glue_segments(p, q) if before == observed and hi > lo]
    total = sum(hi - lo for lo, hi, _ in segs)
    if total <= 0.0:
        raise RuntimeError(f"observed pair {observed} has zero mass under link ({p}, {q})")
    target = v * total
    for lo, hi, after in segs:
        width = hi - lo
        if target < width:
            return after
        target -= width
    return segs[-1][2]


class _ChainState:
    """Shared lazily realized arrows for both ends of a swap chain.  Each
    block is planned once per (lane, block), the lane being the site if
    `env` or `env2` lists it, else the default lane."""

    def __init__(
        self,
        env: CookieEnvironment,
        env2: CookieEnvironment,
        partition: BlockPartition,
        field: UniformField,
        stream: StreamTag,
    ):
        self.env = env
        self.env2 = env2
        self.partition = partition
        self.field = field
        self.stream = stream
        self._listed = set(env.sites) | set(env2.sites)
        # (site, first level of the block) -> (env stack, env2 stack)
        self._cells: dict[tuple[int, int], tuple[tuple[Arrow, ...], tuple[Arrow, ...]]] = {}
        # (lane, block) -> (probs0, swap path, states along it, link view, glue views)
        self._plans: dict[tuple, tuple] = {}
        # Views of the streams (stream, *parts), by their parts.
        self._views: dict[tuple, FieldStream] = {}
        self._cell_view = self._view("cell")

    def _view(self, *parts) -> FieldStream:
        view = self._views.get(parts)
        if view is None:
            view = self._views[parts] = FieldStream(self.field, (self.stream, *parts))
        return view

    def _plan(self, site: int, block: tuple[int, ...]) -> tuple:
        slot = self.partition.block_index(block)
        probs0 = tuple(self.env.prob(site, l) for l in block)
        probs1 = tuple(self.env2.prob(site, l) for l in block)
        path = swap_path(probs0, probs1)
        if path is None:
            raise ValueError(
                f"environments are not favourable-swap comparable on block values {probs0} -> {probs1}"
            )
        states = [probs0]
        for i, j in path:
            states.append(_apply_swap(states[-1], i, j))
        glues = [self._view("glue", slot, m) for m in range(1, len(path))]
        return probs0, path, states, self._view("link", slot), glues

    def realize(self, site: int, block: tuple[int, ...]) -> tuple[tuple[Arrow, ...], tuple[Arrow, ...]]:
        key = (site, block[0])
        cell = self._cells.get(key)
        if cell is not None:
            return cell
        plan_key = (site if site in self._listed else None, block)
        plan = self._plans.get(plan_key)
        if plan is None:
            plan = self._plans[plan_key] = self._plan(site, block)
        probs0, path, states, link, glues = plan
        n = len(block)
        if not path:
            arrows = tuple(RIGHT if link.value(site, pos + 1) < probs0[pos] else LEFT for pos in range(n))
            cell = self._cells[key] = (arrows, arrows)
            return cell

        i0, j0 = path[0]
        start = [None] * n
        for pos in range(n):
            if pos not in (i0, j0):
                u = link.value(site, pos + 1)
                start[pos] = RIGHT if u < probs0[pos] else LEFT
        u_pair = link.value(site, n + 1)
        start[i0], start[j0] = pair_swap_block(probs0[i0], probs0[j0], u_pair)
        current = list(start)
        current[i0], current[j0] = pair_swap_block(states[1][i0], states[1][j0], u_pair)

        for m in range(1, len(path)):
            i, j = path[m]
            p, q = states[m][i], states[m][j]
            v = glues[m - 1].value(site, 1)
            current[i], current[j] = _glue_pair(p, q, (current[i], current[j]), v)

        cell = self._cells[key] = (tuple(start), tuple(current))
        return cell

    def shared_cell(self, site: int, level: int) -> Arrow:
        u = self._cell_view.value(site, level)
        return RIGHT if u < self.env.prob(site, level) else LEFT


class ChainEndSystem(ArrowSystem):
    """One end of a chained pair-swap coupling."""

    def __init__(self, state: _ChainState, side: int):
        self._state = state
        self._side = side
        self._places = state.partition._places
        self._depth = state.partition.depth()

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        place = self._places.get(level)
        if place is None:
            if level > self._depth:
                return self._state.shared_cell(site, level)
            place = ((level,), 0)
        block, pos = place
        return self._state.realize(site, block)[self._side][pos]


def couple_swap_chain(
    env: CookieEnvironment,
    env2: CookieEnvironment,
    partition: BlockPartition,
    field: UniformField,
    horizon: int,
    stream: StreamTag = 0,
) -> CoupledPair:
    """Couple samples of two block-permuted environments through a chain
    of favourable pair swaps.

    `env2` must be reachable from `env` by favourable swaps inside each
    block.  Each swap link couples the two-level sub-stack through one
    shared uniform; consecutive links are glued by sampling each next
    state from its conditional law given the previous one, using fresh
    link-indexed uniforms.  Realized stacks never lose Left-prefix
    dominance of the env side over the env2 side, and their block Right
    counts agree, so the env walk's system relates to the env2 walk's in
    the prefix order, surely.  Values outside blocks must agree and are
    sampled shared.
    """
    report = env_order(env, env2, partition)
    if not report.swap_reachable:
        raise ValueError(f"env2 is not favourable-swap reachable from env: {report.witness}")
    state = _ChainState(env, env2, partition, field, stream)
    return make_pair(
        ChainEndSystem(state, 0),
        ChainEndSystem(state, 1),
        horizon,
        relation_mode="preceq",
        provenance="swap-chain",
    )


# ---------------------------------------------------------------------------
# envelope coupling: adaptive drift under a fixed excitement cap


class DriftContractError(RuntimeError):
    """An adaptive drift law exceeded its declared envelope."""

    def __init__(self, time: int, site: int, level: int, value: float, bound: float):
        super().__init__(
            f"drift law returned {value} at time {time} (site {site}, "
            f"visit {level}), exceeding the bound {bound}"
        )
        self.time = time
        self.site = site
        self.level = level
        self.value = value
        self.bound = bound


class WalkView:
    """Read-only view of the adaptive walk handed to drift laws."""

    __slots__ = ("positions", "visit_counts")

    def __init__(self, positions: list[int], visit_counts: dict[int, int]):
        self.positions = positions
        self.visit_counts = visit_counts


class EtaSystem(ArrowSystem):
    """Threshold system: Right at (x, k) iff U(x, k) <= eta_k, with the
    tail threshold 1/2 above the excitement window.

    `envelope_walk` and `arrow_at` read one view of the field, `view`, so
    together they hash each block of a site's uniforms once.
    """

    def __init__(self, eta: Sequence[float], field: UniformField, stream: StreamTag = 0):
        self.eta = tuple(float(e) for e in eta)
        for e in self.eta:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"eta entries must be in [0, 1], got {e}")
        self.view = FieldStream(field, stream)

    def threshold(self, level: int) -> float:
        return self.eta[level - 1] if level <= len(self.eta) else 0.5

    def arrow_at(self, site: int, level: int) -> Arrow:
        return RIGHT if self.view.value(site, level) <= self.threshold(level) else LEFT


@dataclass
class EnvelopeWalkResult:
    """Adaptive walk, its threshold envelope walk, and the drift mass."""

    traj_l: Trajectory
    traj_r: Trajectory
    alpha: float
    eta: tuple[float, ...]

    def pair(self) -> CoupledPair:
        return CoupledPair(
            self.traj_l, self.traj_r, relation_mode="trileq", provenance="envelope"
        )


def envelope_walk(
    drift_law: Callable[[WalkView, int], float],
    eta: Sequence[float],
    field: UniformField,
    horizon: int,
    stream: StreamTag = 0,
) -> EnvelopeWalkResult:
    """Run an adaptive walk under a declared excitement envelope, coupled
    cell by cell to the envelope's own threshold walk.

    At each step the drift law may use the walk's entire history but must
    return a Right probability no greater than eta_k on the k-th visit to
    a site (k within the envelope) and no greater than 1/2 above it;
    violations raise DriftContractError with the offending (time, visit,
    value).  Both walks turn the same uniform U(x, k) into a step with the
    same `<=` rule, so every Right the adaptive walk consumes is matched
    by a Right in the envelope system at the same cell; that containment
    is asserted on every step.

    Returns the two trajectories and alpha, the total excitement mass
    sum(2*eta_k - 1).  The adaptive trajectory carries an explicit system
    holding its consumed arrows with Left fill.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    eta_sys = EtaSystem(eta, field, stream)
    eta_t = eta_sys.eta
    m = len(eta_t)
    uniform = eta_sys.view.value
    pos = 0
    positions = [0]
    visits = {0: 1}
    consumed: dict[int, list[Arrow]] = {}
    view = WalkView(positions, visits)
    for n in range(1, horizon + 1):
        k = visits[pos]
        p = float(drift_law(view, k))
        bound = eta_t[k - 1] if k <= m else 0.5
        if p > bound:
            raise DriftContractError(n - 1, pos, k, p, bound)
        if uniform(pos, k) <= p:
            arrow = RIGHT
            if eta_sys.arrow_at(pos, k) is not RIGHT:
                raise RuntimeError(
                    f"envelope containment broken at site {pos} level {k}"
                )
        else:
            arrow = LEFT
        consumed.setdefault(pos, []).append(arrow)
        pos += arrow
        positions.append(pos)
        visits[pos] = visits.get(pos, 0) + 1
    prefix_sys = ExplicitSystem(consumed, default_fill=LEFT)
    traj_l = Trajectory(positions, visits, prefix_sys)
    traj_r = run_walk(eta_sys, horizon)
    alpha = sum(2.0 * e - 1.0 for e in eta_t)
    return EnvelopeWalkResult(traj_l, traj_r, alpha, eta_t)


def classify_alpha(alpha: float) -> list[str]:
    """Qualitative regime labels for a total excitement mass (reported
    only; nothing in this package asserts them about finite walks)."""
    labels = []
    if alpha <= 1.0:
        labels.append("not-right-transient")
    if alpha <= 2.0:
        labels.append("upper-speed-nonpositive")
    if alpha < -1.0:
        labels.append("left-transient")
    if alpha < -2.0:
        labels.append("lower-speed-negative")
    return labels


def orrw_drift_law(beta: float) -> Callable[[WalkView, int], float]:
    """Once-reinforced drift: full symmetry once the right neighbour has
    been visited, otherwise a right bias dampened by beta >= 0."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    p_fresh = 1.0 / (2.0 + beta)

    def law(view: WalkView, k: int) -> float:
        return 0.5 if (view.positions[-1] + 1) in view.visit_counts else p_fresh

    return law

