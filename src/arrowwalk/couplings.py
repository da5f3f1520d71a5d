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

import functools
import itertools
import math
import struct
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field as dc_field
from hashlib import blake2b
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .core import (
    LEFT,
    RIGHT,
    Arrow,
    ArrowSystem,
    ExplicitSystem,
    Trajectory,
    check_keys,
    json_array,
    json_int,
    json_object,
    json_prob,
    json_site,
    load_json,
    run_walk,
)
from .verify import CoupledPair, make_pair

StreamTag = Union[int, str, tuple]

_U64_SCALE = 2.0**-53
_UNPACK_8Q = struct.Struct(">8Q").unpack
# Length prefixes in `_pack` are two bytes wide.
_PACK_LIMIT = 0xFFFF
# Ints whose `_pack` bytes are kept in a table: sites within +-4096 and the
# block indexes of a walk of up to 100,000 steps at one site.
_INT_LO = -4096
_INT_HI = 12_500


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


def _check_site(site: object) -> None:
    """Sites are ints; `_pack` would encode a string or tuple as well."""
    if not isinstance(site, int):
        raise TypeError(f"sites must be ints, got {type(site)!r}")


def _pack_index(index: int) -> bytes:
    """`_pack` of a block index outside the packed-int table."""
    if not isinstance(index, int):
        raise TypeError(f"block indexes must be ints, got {type(index)!r}")
    if index < 0:
        raise ValueError(f"block indexes must be >= 0, got {index}")
    return _pack(index)


@functools.cache
def _packed_ints() -> tuple[bytes, ...]:
    """`_pack(x)` for x in [_INT_LO, _INT_HI], at position x - _INT_LO.
    Built on first use, not at import: about 0.7 MB, in about 10 ms."""
    return tuple(map(_pack, range(_INT_LO, _INT_HI + 1)))


def _limit(p: float) -> int:
    """The word limit of probability p: for a 64-bit word a of a digest,
    `a < _limit(p)` exactly when its uniform (a >> 11) * 2**-53 is < p.

    The uniform is u = m * 2**-53 with m = a >> 11, so u < p exactly when
    m < p * 2**53.  For p in [0, 1] that scaling is exact (a power of two,
    no overflow), and an integer m is below a real x exactly when it is
    below ceil(x).  Last, m < c exactly when a < c << 11, the low 11 bits
    of a being what `>> 11` drops.  The float comparison stays the
    reference; p = 1 gives 2**64, above every word.
    """
    return math.ceil(p * 2.0**53) << 11


def _limit_le(t: float) -> int:
    """The word limit of threshold t: `a < _limit_le(t)` exactly when the
    uniform of word a is <= t.

    As for `_limit`, u <= t exactly when m = a >> 11 is <= t * 2**53, that
    is when m <= floor(t * 2**53), so when m < floor(t * 2**53) + 1.  The
    float comparison stays the reference; t = 1 gives (2**53 + 1) << 11,
    above every word.
    """
    return (math.floor(t * 2.0**53) + 1) << 11


class UniformField:
    """Pure map (stream, site, level) -> uniform in [0, 1), keyed by a seed.

    Values come from keyed blake2b digests, eight 53-bit uniforms per
    digest, so the field is replay-safe: any query order, any interleaving
    across systems, gives identical values.  Stream tags namespace
    independent uses of the same cells.

    The digest of block (stream, site, index) is that of the message
    `_pack((stream, site, index))`.  Its stream part is the same for every
    block of the stream, so `_hasher` absorbs it once into a keyed hasher
    that each block copies (counter-based generation in the style of Salmon
    et al., SC'11).  Small sites and indexes take their packed bytes from a
    shared table.  The field keeps no memo: `block` builds its hasher
    afresh, into a throwaway memo, `value` reads through a throwaway view,
    and each `FieldStream` holds one hasher for its stream and its memo.
    """

    __slots__ = ("seed", "_key", "_packed")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = blake2b(_pack(self.seed), digest_size=32).digest()
        self._packed = _packed_ints()

    def _head(self, stream: StreamTag):
        """Keyed hasher that has absorbed the stream's share of the message:
        the 3-tuple header and `_pack(stream)`."""
        return blake2b(b"t\x00\x03" + _pack(stream), key=self._key, digest_size=64)

    def _hasher(
        self, stream: StreamTag, memo: dict[tuple[int, int], tuple[int, ...]]
    ) -> Callable[[int, int], tuple[int, ...]]:
        """The fill of `memo` from `stream`: a function of site and index
        that hashes block (stream, site, index), unpacks its eight 64-bit
        words, stores them in `memo[site, index]` and returns them, in one
        call.  It holds the stream's keyed hasher, built once here, and
        copies it for each block.  A bad site or index raises before
        anything is stored.  `block` and every `FieldStream` hash through
        one; only the sequential reader `words` absorbs a site into its
        hasher as well."""
        copy = self._head(stream).copy
        packed = self._packed
        unpack = _UNPACK_8Q

        def fill(site: int, index: int) -> tuple[int, ...]:
            try:
                msg = (packed[site - _INT_LO] if _INT_LO <= site <= _INT_HI else _pack(site)) + (
                    packed[index - _INT_LO] if 0 <= index <= _INT_HI else _pack_index(index))
            except TypeError:  # a site or an index that is not an int
                _check_site(site)
                raise TypeError(f"block indexes must be ints, got {type(index)!r}") from None
            h = copy()
            h.update(msg)
            words = memo[site, index] = unpack(h.digest())
            return words

        return fill

    def block(self, stream: StreamTag, site: int, index: int) -> tuple[float, ...]:
        """Eight consecutive uniforms: levels 8*index+1 .. 8*index+8, the
        53-bit uniforms of the block's words."""
        a, b, c, d, e, f, g, k = self._hasher(stream, {})(site, index)
        s = _U64_SCALE
        # Written out: a generator over the eight words costs twice as much.
        return ((a >> 11) * s, (b >> 11) * s, (c >> 11) * s, (d >> 11) * s,
                (e >> 11) * s, (f >> 11) * s, (g >> 11) * s, (k >> 11) * s)

    def words(self, stream: StreamTag, site: int) -> Iterator[int]:
        """The 64-bit words of levels 1, 2, ... at `site` of `stream`, in
        order: those of `block(stream, site, 0)`, then block 1, and so on.
        One hasher absorbs the stream and the site once; each block copies
        it, adds its index, and is hashed when its first word is read.  The
        uniform of word a is (a >> 11) * 2**-53, and `a < _limit(p)` decides
        `u < p` without it."""
        _check_site(site)
        head = self._head(stream)
        head.update(_pack(site))
        copy = head.copy

        def digest_of(packed_index: bytes) -> bytes:
            h = copy()
            h.update(packed_index)
            return h.digest()

        indexes = itertools.chain(
            itertools.islice(self._packed, -_INT_LO, None),
            map(_pack, itertools.count(_INT_HI + 1)),
        )
        return itertools.chain.from_iterable(map(_UNPACK_8Q, map(digest_of, indexes)))

    def value(self, stream: StreamTag, site: int, level: int) -> float:
        """One uniform, hashed afresh through a view of its own."""
        return FieldStream(self, stream).value(site, level)


class FieldStream:
    """One stream of a field, with a memo of its raw blocks by (site, q):
    the eight 64-bit words of each.

    The view keeps its stream's `UniformField._hasher` of its memo, built
    once, as `_fill(site, q)`: a block it has not read yet costs that one
    call, which hashes the block into the memo and returns its words.
    Systems coupled through shared uniforms share one view, so each block
    is hashed once per pair or family.  The memo is never on the field,
    which serves many streams: it goes away with the systems holding it.
    Readers decide on the words (`_limit`, `_limit_le`); `value` turns
    them into the field's uniforms.  The systems that read it hot look
    their words up in `_blocks` and call `_fill` on a miss.
    """

    __slots__ = ("field", "stream", "_blocks", "_fill")

    def __init__(self, field: UniformField, stream: StreamTag):
        self.field = field
        self.stream = stream
        self._blocks: dict[tuple[int, int], tuple[int, ...]] = {}
        self._fill = field._hasher(stream, self._blocks)

    def value(self, site: int, level: int) -> float:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        q, r = divmod(level - 1, 8)
        words = self._blocks.get((site, q)) or self._fill(site, q)
        return (words[r] >> 11) * _U64_SCALE  # only the word read is converted


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
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
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
    """JSON form: {"sites": {"<x>": [p, ...]}, "default": [p, ...], "tail": 0.5};
    any other key, `sites` not a JSON object, a site key not written as
    `str` writes its integer, a list that is not a JSON array, or a p not a
    JSON number in [0, 1] raises ValueError."""
    check_keys(obj, ("sites", "default", "tail"), "environment")

    def lane(value: object, name: str) -> tuple[float, ...]:
        return tuple(json_prob(p, f"a probability in {name}")
                     for p in json_array(value, name, "probabilities"))

    return CookieEnvironment(
        {json_site(s, "a site in sites"): lane(lst, f"sites[{s!r}]")
         for s, lst in json_object(obj.get("sites", {}), "sites", "probability arrays").items()},
        lane(obj.get("default", []), "default"),
        json_prob(obj.get("tail", 0.5), "tail"),
    )


def load_env(path: str) -> CookieEnvironment:
    return parse_env(load_json(path))


def _word_limits(
    env: CookieEnvironment, limit: Callable[[float], Optional[int]]
) -> tuple[dict, tuple, Optional[int]]:
    """`env` with each probability p replaced by its word limit `limit(p)`:
    (listed sites, default, tail)."""
    return (
        {site: tuple(map(limit, lst)) for site, lst in env.sites.items()},
        tuple(map(limit, env.default)),
        limit(env.tail),
    )


def _lane_pairs(
    env_a: CookieEnvironment, env_b: CookieEnvironment, depth: int = 0
) -> Iterator[tuple[Optional[int], list[float], list[float]]]:
    """Each lane of the two environments, with both their probabilities at
    its levels 1 .. max(len_a, len_b, depth) + 1: the sites either lists, in
    order, then None for every unlisted site.  Each list is padded with its
    environment's tail, so every level above the last reads the same two
    values as the last one."""
    for lane in sorted(env_a.sites.keys() | env_b.sites.keys()) + [None]:
        la = env_a.sites.get(lane, env_a.default)  # lane None: no site key is None
        lb = env_b.sites.get(lane, env_b.default)
        n = max(len(la), len(lb), depth) + 1
        yield lane, [*la] + [env_a.tail] * (n - len(la)), [*lb] + [env_b.tail] * (n - len(lb))


def env_leq_pointwise(
    env_a: CookieEnvironment, env_b: CookieEnvironment
) -> Optional[tuple[Optional[int], int]]:
    """First cell (lane, level) where env_a exceeds env_b, or None if
    env_a <= env_b everywhere.  Lane None stands for all unlisted sites."""
    for lane, pa, pb in _lane_pairs(env_a, env_b):
        for k, (x, y) in enumerate(zip(pa, pb), start=1):
            if x > y:
                return (lane, k)
    return None


# ---------------------------------------------------------------------------
# sampled systems


class SampledCookieSystem(ArrowSystem):
    """Arrow at (x, n) is Right iff U(x, n) < env.prob(x, n), decided on
    the raw word as word < `_limit(p)`.

    It hands out the view's memoized words and the limits of its lanes, so
    queries are consistent and re-walking the same instance replays the same
    walk.  Each lane of limits, a listed site's or the default, is padded
    with the tail's to whole blocks of eight; past it a block reads the tail.
    Two instances on views of the same field and stream share every uniform
    cell by cell; on one view, they also hash each raw block of uniforms once.
    """

    def __init__(self, env: CookieEnvironment, view: FieldStream):
        self.env = env
        self.view = view
        self._memo = view._blocks  # read directly, its words by (site, q)
        self._fill = view._fill
        sites, default, tail = _word_limits(env, _limit)
        self._lanes = {site: lane + (tail,) * (-len(lane) % 8) for site, lane in sites.items()}
        self._default = default + (tail,) * (-len(default) % 8)
        self._tail8 = (tail,) * 8

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        q, r = divmod(level - 1, 8)
        words, limits = self.cell_words(site, q)
        return RIGHT if words[r] < limits[r] else LEFT

    def cell_words(self, site: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        words = self._memo.get((site, q)) or self._fill(site, q)
        return words, self._lanes.get(site, self._default)[8 * q : 8 * q + 8] or self._tail8


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


# Largest level a partition block may hold.  The partition couplings' random
# environments draw one uniform per level up to the partition's depth, and
# `sorted_env` pads every lane to it, so a level of 10**7 in a 30-byte file
# cost a swap-chain run 1.2 GB.  Blocks hold at most 3 levels (the stack
# chains' height), so 64 levels leave room for many blocks.
MAX_PARTITION_LEVEL = 64


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint finite blocks of stack levels, identical at every site.

    Levels not covered by any block behave as singletons.  `cap` bounds
    the block sizes accepted by the block-family coupling (the stack
    chains it relies on exist only up to height 3).  Levels run from 1 to
    `MAX_PARTITION_LEVEL`.
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
            if b[-1] > MAX_PARTITION_LEVEL:
                raise ValueError(f"levels must be <= {MAX_PARTITION_LEVEL}, got {b[-1]}")
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

    def block_index(self, block: tuple[int, ...]) -> int:
        """Stable 1-based randomness slot for a block (singletons included)."""
        try:
            return 1 + self.blocks.index(block)
        except ValueError:
            return len(self.blocks) + 1 + block[0]

    def to_json_obj(self) -> dict:
        return {"cap": self.cap, "blocks": [list(b) for b in self.blocks]}


def parse_partition(obj: Mapping) -> BlockPartition:
    """JSON form: {"cap": 3, "blocks": [[1,2],[3,4,5]]}; any other key,
    `blocks` or a block that is not a JSON array, or a level or `cap` that
    is not an integer, raises ValueError."""
    check_keys(obj, ("cap", "blocks"), "partition")
    blocks = json_array(obj.get("blocks", []), "blocks", "blocks")
    return BlockPartition(
        tuple(tuple(json_int(l, "a level in blocks") for l in json_array(b, "a block in blocks", "levels"))
              for b in blocks),
        json_int(obj.get("cap", 3), "cap"),
    )


def load_partition(path: str) -> BlockPartition:
    return parse_partition(load_json(path))


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
    is_perm = True
    reachable = True
    witness = None
    covered = partition._places
    for lane, pa, pb in _lane_pairs(env_a, env_b, partition.depth()):
        for level, (x, y) in enumerate(zip(pa, pb), start=1):
            if x != y and level not in covered:
                is_perm = False
                reachable = False
                witness = witness or {"lane": lane, "level": level, "reason": "values differ outside blocks"}
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


def sorted_env(
    env: CookieEnvironment, partition: BlockPartition, descending: bool = False
) -> CookieEnvironment:
    """Sort each block's values by level, at every lane: ascending, or
    descending with `descending` set.

    Ascending gives the swap-minimal member of the block-permutation class:
    every other member is reachable from it by favourable swaps.  Descending
    gives the swap-maximal member, reachable from every other.  Each lane is
    padded with the tail up to the partition's depth, and no further.
    """
    depth = partition.depth()

    def sort_lane(probs: tuple[float, ...], tail: float) -> tuple[float, ...]:
        padded = list(probs) + [tail] * (depth - len(probs))
        for block in partition.blocks:
            vals = sorted((padded[l - 1] for l in block), reverse=descending)
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
# block states, and the block-family coupling: shared totals and selector


class _BlockState:
    """Every side of a partition coupling, one stack per side realized at
    once per (site, block) by the subclass's `_draw`, from the `_plan` it
    builds once per (lane, block).  The lane is the site if some
    environment of the coupling lists it, else the default lane.

    A level outside every block, from `_first` on, is decided on one word:
    word level + `_shift` of the subclass's `_word_view`, compared with
    `_word_limit` of the first environment's probability there, gives
    `_under` below the limit and the other arrow at or above it.  A limit of
    None, and every level below `_first`, is realized as a block of its own.
    `_limits` holds the limits, built once by `_word_limits`: the first
    environment's listed sites, its default and its tail.  Above `_depth`
    every lane reads the tail."""

    def __init__(self, envs: Sequence[CookieEnvironment], partition: BlockPartition):
        self.envs = tuple(envs)
        self.partition = partition
        self._listed = set().union(*(env.sites for env in envs))
        # (site, first level of the block) -> one stack per side
        self._cells: dict[tuple[int, int], tuple[tuple[Arrow, ...], ...]] = {}
        # (lane, block) -> what a draw needs besides the site
        self._plans: dict[tuple, tuple] = {}
        self._depth = max(env.depth() for env in self.envs)
        self._limits = _word_limits(self.envs[0], self._word_limit)

    def realize(self, site: int, block: tuple[int, ...]) -> tuple[tuple[Arrow, ...], ...]:
        key = (site, block[0])
        cell = self._cells.get(key)
        if cell is None:
            plan_key = (site if site in self._listed else None, block)
            plan = self._plans.get(plan_key)
            if plan is None:
                plan = self._plans[plan_key] = self._plan(site, block)
            cell = self._cells[key] = self._draw(site, plan)
        return cell


class _StateSide(ArrowSystem):
    """One side of a block state, reading the state's word rule, its limits
    and the view of its word cells directly.  Each subclass names its own
    `arrow_at`, so that it can be told apart when traced."""

    def __init__(self, state: _BlockState, side: int):
        self._state = state
        self._side = side
        self._places = state.partition._places
        self._depth = state._depth
        self._sites, self._default, self._tail = state._limits
        self._first, self._shift, self._under = state._first, state._shift, state._under
        self._over = LEFT if state._under is RIGHT else RIGHT
        self._memo = state._word_view._blocks  # read directly, its words by (site, q)
        self._fill = state._word_view._fill

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        place = self._places.get(level)
        if place is None:
            if level >= self._first:
                if level > self._depth:
                    limit = self._tail
                else:
                    lane = self._sites.get(site, self._default)
                    limit = lane[level - 1] if level <= len(lane) else self._tail
                if limit is not None:
                    i = level + self._shift  # at place i & 7 of block i >> 3
                    words = self._memo.get((site, i >> 3)) or self._fill(site, i >> 3)
                    return self._under if words[i & 7] < limit else self._over
            place = ((level,), 0)
        block, pos = place
        return self._state.realize(site, block)[self._side][pos]


def _pick(cums: Sequence[float], u: float) -> int:
    i = bisect_left(cums, u)
    return min(i, len(cums) - 1)


class _FamilyState(_BlockState):
    """Every member of a block-coupled family, after the base in `envs`.

    Per (site, block), one uniform draws the block's Right count from the
    base's total distribution, every member's too, and a second selects each
    member's stack through its conditional cumulative weights: members agree
    on the count and pick comparable stacks where their cumulatives dominate.

    A level outside every block is a singleton block of its own, at slot
    nb + 1 + level for nb blocks, where every member has the base's
    probability p.  Its count alone is its arrow, so the members read it
    from the total's word nb + level: Right when u > fl(1 - p), that is
    when the word is >= `_limit_le(1.0 - p)`, `_pick`'s rule.  Where p = 1
    the cell is realized instead, so that a uniform of 0 raises as a
    zero-mass count.
    """

    @staticmethod
    def _word_limit(p: float) -> Optional[int]:
        return None if p == 1.0 else _limit_le(1.0 - p)

    def __init__(
        self,
        envs: Sequence[CookieEnvironment],
        partition: BlockPartition,
        field: UniformField,
        stream: StreamTag,
    ):
        super().__init__(envs, partition)
        self._totals = self._word_view = FieldStream(field, (stream, "total"))
        self._picks = FieldStream(field, (stream, "pick"))
        self._first, self._shift, self._under = 1, len(partition.blocks), LEFT

    def _plan(self, site: int, block: tuple[int, ...]) -> tuple:
        probs = tuple(tuple(env.prob(site, l) for l in block) for env in self.envs)
        cum = list(itertools.accumulate(poisson_binomial(probs[0])))
        return (self.partition.block_index(block), cum, probs[1:], {})

    def _draw(self, site: int, plan: tuple) -> tuple[tuple[Arrow, ...], ...]:
        slot, total_cum, probs, rows = plan
        y = _pick(total_cum, self._totals.value(site, slot))
        row = rows.get(y)
        if row is None:
            # Built when first drawn, so a zero-mass y raises only then.  It
            # has zero mass for every member at once: they permute the base.
            chain = stack_chain(len(total_cum) - 1, y)
            cums = [list(itertools.accumulate(conditional_stack_pmf(p, y))) for p in probs]
            row = rows[y] = (chain, cums)
        chain, cums = row
        if len(chain) == 1:
            # A chain of one stack leaves nothing to pick: its uniform goes unread.
            return (chain[0],) * len(cums)
        u = self._picks.value(site, slot)
        return tuple(chain[_pick(cum, u)] for cum in cums)


class BlockSampledSystem(_StateSide):
    """Member of a block-coupled family: one side of the family's state."""

    arrow_at = _StateSide.arrow_at


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
    state = _FamilyState((base_env, *envs), partition, field, stream)
    return [BlockSampledSystem(state, side) for side in range(len(envs))]


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


class _ChainState(_BlockState):
    """Both ends of a swap chain, one side per environment of `envs`.
    Cells above the partition are shared by both ends, which decide them on
    the words of `_cell_view`: level L on word L - 1, Right below
    `_limit(p)`."""

    _word_limit = staticmethod(_limit)

    def __init__(
        self,
        envs: Sequence[CookieEnvironment],
        partition: BlockPartition,
        field: UniformField,
        stream: StreamTag,
    ):
        super().__init__(envs, partition)
        self.field = field
        self.stream = stream
        self._cell_view = self._word_view = FieldStream(field, (stream, "cell"))
        self._first, self._shift, self._under = partition.depth() + 1, -1, RIGHT

    def _plan(self, site: int, block: tuple[int, ...]) -> tuple:
        slot = self.partition.block_index(block)
        probs0, probs1 = (tuple(env.prob(site, l) for l in block) for env in self.envs)
        path = swap_path(probs0, probs1)
        if path is None:
            raise ValueError(
                f"environments are not favourable-swap comparable on block values {probs0} -> {probs1}"
            )
        states = [probs0]
        for i, j in path:
            states.append(_apply_swap(states[-1], i, j))
        # A site has one lane, so no two plans read the same site of a view.
        link = FieldStream(self.field, (self.stream, "link", slot))
        glues = [FieldStream(self.field, (self.stream, "glue", slot, m)) for m in range(1, len(path))]
        return probs0, path, states, link, glues

    def _draw(self, site: int, plan: tuple) -> tuple[tuple[Arrow, ...], tuple[Arrow, ...]]:
        probs0, path, states, link, glues = plan
        n = len(probs0)
        # Levels outside the first swap are drawn independently.
        paired = path[0] if path else ()
        start = [None] * n
        for pos in range(n):
            if pos not in paired:
                start[pos] = RIGHT if link.value(site, pos + 1) < probs0[pos] else LEFT
        if not path:
            start = tuple(start)
            return (start, start)

        i0, j0 = paired
        u_pair = link.value(site, n + 1)
        start[i0], start[j0] = pair_swap_block(probs0[i0], probs0[j0], u_pair)
        current = list(start)
        current[i0], current[j0] = pair_swap_block(states[1][i0], states[1][j0], u_pair)

        for m in range(1, len(path)):
            i, j = path[m]
            p, q = states[m][i], states[m][j]
            v = glues[m - 1].value(site, 1)
            current[i], current[j] = _glue_pair(p, q, (current[i], current[j]), v)

        return (tuple(start), tuple(current))


class ChainEndSystem(_StateSide):
    """One end of a chained pair-swap coupling: a side of the chain's state.

    A cell above the partition is shared by both ends: Right iff its word
    in the state's `cell` view is < `_limit(p)`, which is u < p for the
    first environment's probability p there.  The levels of the partition
    are realized with their block, a level outside every block as a block
    of its own.
    """

    arrow_at = _StateSide.arrow_at


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
    state = _ChainState((env, env2), partition, field, stream)
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
    """An adaptive drift law returned a value outside [0, its declared
    envelope]: above the bound, below 0, or NaN."""

    def __init__(self, time: int, site: int, level: int, value: float, bound: float):
        super().__init__(
            f"drift law returned {value} at time {time} (site {site}, "
            f"visit {level}), outside the range [0, {bound}]"
        )
        self.time = time
        self.site = site
        self.level = level
        self.value = value
        self.bound = bound


# The envelope's threshold above its excitement window.
_ETA_TAIL = 0.5
_ETA_TAIL_LIMIT = _limit_le(_ETA_TAIL)


class EtaSystem(ArrowSystem):
    """Threshold system: Right at (x, k) iff U(x, k) <= eta_k, with the
    tail threshold 1/2 above the excitement window.

    `envelope_walk` and `arrow_at` read one view of the field, `view`, so
    together they hash each block of a site's uniforms once.  `arrow_at`
    compares the view's words with the thresholds' `_limit_le` limits.
    """

    def __init__(self, eta: Sequence[float], field: UniformField, stream: StreamTag = 0):
        self.eta = tuple(float(e) for e in eta)
        for e in self.eta:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"eta entries must be in [0, 1], got {e}")
        self.view = FieldStream(field, stream)
        self._memo = self.view._blocks  # read directly, its words by (site, q)
        self._fill = self.view._fill
        self._limits = tuple(map(_limit_le, self.eta))
        self._depth = len(self.eta)

    def arrow_at(self, site: int, level: int) -> Arrow:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        i = level - 1  # at place i & 7 of block i >> 3
        words = self._memo.get((site, i >> 3)) or self._fill(site, i >> 3)
        limit = self._limits[i] if level <= self._depth else _ETA_TAIL_LIMIT
        return RIGHT if words[i & 7] < limit else LEFT


def envelope_walk(
    drift_law: Callable[[Trajectory, int], float],
    eta: Sequence[float],
    field: UniformField,
    horizon: int,
    stream: StreamTag = 0,
) -> CoupledPair:
    """Run an adaptive walk under a declared excitement envelope, coupled
    cell by cell to the envelope's own threshold walk.

    At each step the drift law gets the adaptive `Trajectory` so far (its
    last position is the current site) and the visit number k, and must
    return a Right probability in [0, eta_k], eta_k being the envelope's
    threshold at visit k (1/2 above its window); any other value (NaN
    included) raises DriftContractError with the offending (time, visit,
    value).
    Both walks turn the same uniform U(x, k) into a step with the same
    `<=` rule, so every Right the adaptive walk consumes is matched by a
    Right in the envelope system at the same cell; that containment is
    asserted on every step, against the envelope system's own `arrow_at`.
    The adaptive walk reads its words from the memo of the envelope's view,
    hashing a block on a miss, and a word a steps Right when
    (a >> 11) <= p * 2**53, which is u <= p exactly (the scaling is exact,
    and so is comparing an int with a float).

    Returns the pair (adaptive walk, envelope walk) in the "trileq"
    relation.  The adaptive trajectory carries the system its path forces,
    `ExplicitSystem.forced`: its consumed arrows, then Left fill, built only
    when first read.  Its zero-right return walk needs none of it.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    eta_sys = EtaSystem(eta, field, stream)
    eta = eta_sys.eta
    depth = len(eta)
    memo, fill = eta_sys._memo, eta_sys._fill
    envelope_arrow = eta_sys.arrow_at
    scale = 2.0**53
    traj_l = Trajectory([0], {0: 1})
    positions = traj_l.positions
    visits = traj_l.visit_counts
    pos = 0
    for n in range(1, horizon + 1):
        k = visits[pos]
        p = float(drift_law(traj_l, k))
        bound = eta[k - 1] if k <= depth else _ETA_TAIL
        if not 0.0 <= p <= bound:
            raise DriftContractError(n - 1, pos, k, p, bound)
        i = k - 1  # at place i & 7 of block i >> 3
        words = memo.get((pos, i >> 3)) or fill(pos, i >> 3)
        if (words[i & 7] >> 11) <= p * scale:
            if envelope_arrow(pos, k) is not RIGHT:
                raise RuntimeError(
                    f"envelope containment broken at site {pos} level {k}"
                )
            pos += 1
        else:
            pos -= 1
        positions.append(pos)
        visits[pos] = visits.get(pos, 0) + 1
    traj_l.system = ExplicitSystem.forced(positions)
    traj_l._walked = True
    return CoupledPair(
        traj_l, run_walk(eta_sys, horizon), relation_mode="trileq", provenance="envelope"
    )


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


def orrw_drift_law(beta: float) -> Callable[[Trajectory, int], float]:
    """Once-reinforced drift: full symmetry once the right neighbour has
    been visited, otherwise a right bias dampened by a finite beta >= 0."""
    if not 0.0 <= beta < float("inf"):
        raise ValueError(f"beta must be a finite number >= 0, got {beta}")
    p_fresh = 1.0 / (2.0 + beta)

    def law(traj: Trajectory, k: int) -> float:
        return 0.5 if (traj.positions[-1] + 1) in traj.visit_counts else p_fresh

    return law

