"""Sampled environments and the coupling constructions: shared uniforms,
block permutations, favourable-swap chains, and drift envelopes."""

import itertools
import json
import math
import random
import struct
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from arrowwalk import (
    CampaignConfig,
    UniformField,
    check_pair,
    cookie_env,
    couple_block_family,
    couple_swap_chain,
    envelope_walk,
    load_env,
    load_partition,
    orrw_drift_law,
    run_walk,
    sample_system,
    scan_identities,
    shared_pair,
)
from arrowwalk.core import (
    LEFT, RIGHT, ExplicitSystem, Trajectory, consumed_stacks, zero_right_transform,
)
from arrowwalk.couplings import (
    BlockPartition,
    CookieEnvironment,
    DriftContractError,
    EtaSystem,
    FieldStream,
    SampledCookieSystem,
    classify_alpha,
    conditional_stack_pmf,
    constant_env,
    env_leq_pointwise,
    env_order,
    favourable_swaps,
    pair_swap_block,
    parse_env,
    parse_partition,
    poisson_binomial,
    sorted_env,
    stack_chain,
    swap_path,
)
from arrowwalk.verify import make_pair
from arrowwalk import campaign, core, couplings
from arrowwalk.couplings import (
    _GAP_LIMIT, _INT_HI, _INT_LO, _limit, _limit_le,
)
from reference import (
    _eta_threshold,
    block_of,
    check_relation,
    prefix_lefts,
    reference_block,
    reference_block_family_cell,
    reference_digest,
    reference_env_leq_pointwise,
    reference_env_order,
    reference_reversed_env,
    reference_swap_chain_cell,
)


class CountingField(UniformField):
    """A field that counts how often each block (stream, site, index) is
    digested through `_digester`, which every `FieldStream` fill, `block`
    and `value` hash through."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()

    def _digester(self, stream):
        digest = super()._digester(stream)

        def counted(site, index):
            self.calls[(stream, site, index)] += 1
            return digest(site, index)

        return counted


def read_word(view, site, i):
    """Word i of `site` in `view`, read as the systems read it: from the
    site's sequence in the memo, through `_fill` when it is past the end
    or a gap."""
    words = view._blocks.get(site)
    if words is None or i >= len(words) or words[i] is None:
        words = view._fill(site, i)
    return words[i]


def read_block(view, site, q):
    return tuple(read_word(view, site, i) for i in range(8 * q, 8 * q + 8))


def stack_at(system, site, depth):
    return tuple(system.arrow_at(site, lv) for lv in range(1, depth + 1))


# ---------------------------------------------------------------- field


def test_field_pinned_value():
    assert UniformField(0).value("s", 0, 1) == 0.6764272517720474


def test_field_deterministic_across_instances():
    a = UniformField(12)
    b = UniformField(12)
    for site in range(-20, 21):
        for level in range(1, 18):
            assert a.value("x", site, level) == b.value("x", site, level)
    assert UniformField(13).value("x", 0, 1) != a.value("x", 0, 1)


def test_field_order_independent():
    queries = [(site, level) for site in range(-50, 50) for level in range(1, 101)]
    shuffled = list(queries)
    random.Random(5).shuffle(shuffled)
    a = UniformField(7)
    b = UniformField(7)
    got_a = {q: a.value("t", *q) for q in queries}
    got_b = {q: b.value("t", *q) for q in shuffled}
    assert got_a == got_b


def test_field_block_matches_value():
    field = UniformField(3)
    for site in (-2, 0, 5):
        for q in (0, 1, 3):
            blk = field.block("s", site, q)
            assert len(blk) == 8
            for i, u in enumerate(blk):
                assert u == field.value("s", site, q * 8 + i + 1)


def test_field_streams_are_independent():
    field = UniformField(3)
    assert field.value("a", 0, 1) != field.value("b", 0, 1)
    assert field.value(("a", 1), 0, 1) != field.value(("a", 2), 0, 1)


def test_field_range_and_moments():
    field = UniformField(9)
    draws = [field.value("m", s, k) for s in range(40) for k in range(1, 101)]
    assert all(0.0 <= u < 1.0 for u in draws)
    n = len(draws)
    mean = sum(draws) / n
    var = sum((u - mean) ** 2 for u in draws) / n
    assert abs(mean - 0.5) < 3.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(var - 1.0 / 12.0) < 0.01


def test_field_level_validation():
    with pytest.raises(ValueError, match="level"):
        UniformField(0).value("s", 0, 0)
    with pytest.raises(ValueError, match="level"):
        FieldStream(UniformField(0), "s").value(0, 0)


def test_field_stream_matches_field():
    field = UniformField(3)
    view = FieldStream(field, ("s", 1))
    for site in (-2, 0, 5, _INT_LO - 1, _INT_HI + 1):
        for level in range(1, 30):
            assert view.value(site, level) == field.value(("s", 1), site, level)
        for index in (0, 2, _INT_HI + 1):
            words = read_block(view, site, index)
            assert all(0 <= a < 2**64 for a in words)
            want = reference_block(field, ("s", 1), site, index)
            assert tuple((a >> 11) * 2.0**-53 for a in words) == want
            assert field.block(("s", 1), site, index) == want


def test_field_stream_hashes_each_block_once():
    field = CountingField(3)
    view = FieldStream(field, "s")
    for _ in range(3):
        for level in range(1, 20):
            view.value(4, level)
        read_block(view, 4, 5)
    assert field.calls == {("s", 4, 0): 1, ("s", 4, 1): 1, ("s", 4, 2): 1, ("s", 4, 5): 1}
    # Blocks 3 and 4 were skipped: they are gap slots, unhashed.
    words = view._blocks[4]
    assert words[24:40] == [None] * 16 and None not in words[:24] + words[40:]
    assert len(words) == 48


# Sites and levels of the reads below: past the first block, across gaps,
# and on both sides of 0.
READS = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 120)), max_size=40)


@given(reads=READS, readers=st.lists(st.sampled_from(["value", "arrow_at", "cell_words"]), min_size=1))
@settings(max_examples=150, deadline=None)
def test_view_reads_in_any_order_hash_exactly_the_blocks_read(reads, readers):
    # The view's `value` and a sampled system on the view, its `arrow_at`
    # and its `cell_words`, read levels in any order: each gets the
    # reference word, each block read is hashed once, and every other block
    # of a site stays a gap.  A site whose blocks were first read in order
    # keeps its words as one `array('Q')`; one read that left a gap makes
    # them a list.
    field = CountingField(4)
    view = FieldStream(field, "any")
    system = SampledCookieSystem(constant_env(0.5), view)
    for n, (site, level) in enumerate(reads):
        q, r = divmod(level - 1, 8)
        u = reference_block(field, "any", site, q)[r]
        reader = readers[n % len(readers)]
        if reader == "value":
            assert view.value(site, level) == u
        elif reader == "arrow_at":
            assert system.arrow_at(site, level) is (RIGHT if u < 0.5 else LEFT)
        else:
            words, limits = system.cell_words(site, q)
            assert (words[level - 1] >> 11) * 2.0**-53 == u and limits == (_limit(0.5),) * 8
    read = {(site, (level - 1) >> 3) for site, level in reads}
    firsts = {}  # site -> its blocks in the order first read
    for site, level in reads:
        order = firsts.setdefault(site, [])
        if (level - 1) >> 3 not in order:
            order.append((level - 1) >> 3)
    assert field.calls == Counter({("any", site, q): 1 for site, q in read})
    assert set(view._blocks) == {site for site, _ in read}
    for site, words in view._blocks.items():
        blocks = {q for s, q in read if s == site}
        assert len(words) == 8 * max(blocks) + 8
        in_order = firsts[site] == list(range(len(firsts[site])))
        assert type(words) is (array if in_order else list)
        assert not in_order or words.typecode == "Q"
        for q in range(len(words) // 8):
            want = read_block(FieldStream(UniformField(4), "any"), site, q) if q in blocks else (None,) * 8
            assert tuple(words[8 * q:8 * q + 8]) == want, (site, q)


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_fill_words_are_the_big_endian_words_of_the_digest(monkeypatch, byteorder):
    # The fill's words are the digest read as eight big-endian 64-bit words.
    # Its array reads the digest in the host's byte order, so the fill
    # swaps the bytes of each word when `sys.byteorder` is "little".  Told
    # the host's byte order, the fill gets the big-endian words; told the
    # other one, the swap is forced the wrong way, and it gets the
    # little-endian words.
    field = UniformField(6)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "byteorder", byteorder)
        view = FieldStream(field, ("swap", 1))
    order = ">" if byteorder == sys.byteorder else "<"
    for site, q in ((0, 0), (0, 1), (-3, 0), (-3, 2), (_INT_HI + 1, 0)):
        want = struct.unpack(f"{order}8Q", reference_digest(field, ("swap", 1), site, q))
        words = view._fill(site, 8 * q)
        assert tuple(words[8 * q:8 * q + 8]) == want, (site, q)
    assert type(view._blocks[0]) is array and type(view._blocks[-3]) is list


def test_view_reads_far_past_a_sites_words_are_not_stored():
    # A read more than `_GAP_LIMIT` words past the end of a site's words
    # gets its word, hashed afresh each time, and leaves the memo as it was.
    field = CountingField(5)
    view = FieldStream(field, "far")
    view.value(2, 3)
    far = 8 + _GAP_LIMIT + 9  # the first level whose block is stored no more
    for level in (far, far, far + 8 * _GAP_LIMIT):
        q, r = divmod(level - 1, 8)
        assert view.value(2, level) == reference_block(field, "far", 2, q)[r]
    assert view._blocks == {2: view._blocks[2]} and len(view._blocks[2]) == 8
    assert field.calls == {("far", 2, 0): 1, ("far", 2, (far - 1) >> 3): 2,
                           ("far", 2, (far + 8 * _GAP_LIMIT - 1) >> 3): 1}
    near = far - 8  # a read just within the limit is stored, over gap slots
    assert view.value(2, near) == reference_block(field, "far", 2, (near - 1) >> 3)[(near - 1) & 7]
    assert len(view._blocks[2]) == near - 1 + 8 - (near - 1) % 8 == 8 + _GAP_LIMIT + 8


def uniforms_of(words):
    """The field's uniforms of the words `UniformField.words` yields."""
    return [(a >> 11) * 2.0**-53 for a in words]


def test_field_uniforms_read_the_field_in_order():
    field = UniformField(3)
    first = uniforms_of(itertools.islice(field.words(("s", 1), 0), 20))
    assert first == [field.value(("s", 1), 0, level) for level in range(1, 21)]


stream_tags = st.recursive(
    st.integers(-(2**80), 2**80) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4).map(tuple) | st.lists(inner, max_size=3),
    max_leaves=10,
)


# The ends of the packed-int table and the ints just outside it.
TABLE_EDGES = [_INT_LO - 1, _INT_LO, _INT_HI, _INT_HI + 1, 2**40, -(2**40), 0]


@given(
    seed=st.integers(-(2**70), 2**70),
    tags=st.lists(stream_tags, min_size=1, max_size=4),
    sites=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=3),
    index=st.integers(0, 2**64),
)
@example(seed=0, tags=["s"], sites=TABLE_EDGES, index=_INT_HI)
@example(seed=1, tags=[("t", 2)], sites=TABLE_EDGES, index=_INT_HI + 1)
@example(seed=2, tags=["s"], sites=TABLE_EDGES, index=0)
@example(seed=3, tags=["s"], sites=TABLE_EDGES, index=2**64)
@settings(max_examples=150, deadline=None)
def test_field_block_matches_reference(seed, tags, sites, index):
    field = UniformField(seed)
    for _ in range(2):  # the second round hashes the same blocks again
        for tag in tags:
            for site in sites:
                assert field.block(tag, site, index) == reference_block(field, tag, site, index)


@pytest.mark.parametrize("site", TABLE_EDGES)
def test_field_uniforms_match_reference(site):
    field = UniformField(6)
    first = uniforms_of(itertools.islice(field.words(("u", site), site), 24))
    want = [u for q in range(3) for u in reference_block(field, ("u", site), site, q)]
    assert first == want


def test_field_uniforms_read_past_the_table():
    field = UniformField(7)
    count = 8 * (_INT_HI + 4)  # about 100k uniforms, through block _INT_HI + 3
    got = uniforms_of(itertools.islice(field.words("long", 0), count))
    assert got == [u for q in range(_INT_HI + 4) for u in field.block("long", 0, q)]
    for q in (_INT_HI - 1, _INT_HI, _INT_HI + 1, _INT_HI + 3):
        assert tuple(got[8 * q:8 * q + 8]) == reference_block(field, "long", 0, q)


@pytest.mark.parametrize("site", [1.0, -2.5, float(_INT_HI + 1)])
def test_field_rejects_float_sites(site):
    field = UniformField(0)
    with pytest.raises(TypeError):
        field.block("s", site, 0)
    with pytest.raises(TypeError):
        field.words("s", site)


@pytest.mark.parametrize(
    "site", ["a", "", (1, 2), ("s", 0), [3]], ids=["str", "empty-str", "tuple", "tag", "list"]
)
def test_field_rejects_non_int_sites(site):
    # `_pack` would encode these as stream tokens; a site must be an int.
    field = UniformField(0)
    for index in (0, _INT_HI + 1):
        with pytest.raises(TypeError, match="sites must be ints"):
            field.block("s", site, index)
    with pytest.raises(TypeError, match="sites must be ints"):
        field.words("s", site)


@pytest.mark.parametrize("index", [-1, -5, _INT_LO, _INT_LO - 1, -(2**70)])
def test_field_rejects_negative_block_indexes(index):
    field = UniformField(0)
    view = FieldStream(field, "s")
    with pytest.raises(ValueError, match="block indexes must be >= 0"):
        field.block("s", 0, index)
    with pytest.raises(ValueError, match="block indexes must be >= 0"):
        view._fill(3, 8 * index)


@pytest.mark.parametrize("index", ["a", "", 1.0, -1.0, 2.5, float(_INT_HI + 1), None, (1,), [0]])
def test_field_rejects_non_int_block_indexes(index):
    field = UniformField(0)
    for site in (0, _INT_HI + 1):
        with pytest.raises(TypeError, match="block indexes must be ints"):
            field.block("s", site, index)
    with pytest.raises(TypeError, match="sites must be ints"):
        field.block("s", "a", index)


@pytest.mark.parametrize("site, q, error, message", [
    ("a", 0, TypeError, "sites must be ints"),
    ((1, 2), 0, TypeError, "sites must be ints"),
    (1.0, 0, TypeError, "sites must be ints"),
    (float(_INT_HI + 1), 0, TypeError, "sites must be ints"),
    (0, -1, ValueError, "block indexes must be >= 0"),
    (_INT_HI + 1, -(2**70), ValueError, "block indexes must be >= 0"),
    (0, 1.5, TypeError, "block indexes must be ints"),
    (0, -1.0, TypeError, "block indexes must be ints"),
    (_INT_HI + 1, "a", TypeError, "block indexes must be ints"),
])
def test_memo_misses_reject_bad_sites_and_indexes(site, q, error, message):
    # The hot readers' miss path raises what `block` raises, and keeps nothing.
    view = FieldStream(UniformField(0), "s")
    system = sample_system(cookie_env((0.5,)), UniformField(0), "s")

    def read_view(site, q):  # as the systems read it
        return read_word(view, site, 8 * q)

    for read in (read_view, lambda site, q: view._fill(site, 8 * q), system.cell_words):
        with pytest.raises(error, match=message):
            read(site, q)
    if q == 0:
        eta = EtaSystem((0.9,), UniformField(0), "s")
        with pytest.raises(error, match=message):
            eta.arrow_at(site, 1)
        assert eta.view._blocks == {}
    assert view._blocks == {} and system.view._blocks == {}


def test_field_words_decode_to_the_uniforms():
    field = UniformField(8)
    count = 8 * (_INT_HI + 3)  # through block _INT_HI + 2, past the table
    words = list(itertools.islice(field.words(("w", 1), -2), count))
    uniforms = [u for q in range(_INT_HI + 3) for u in field.block(("w", 1), -2, q)]
    assert uniforms_of(words) == uniforms


def test_field_words_hash_a_block_when_first_read(monkeypatch):
    unpacked = []
    unpack = couplings._UNPACK_8Q
    monkeypatch.setattr(couplings, "_UNPACK_8Q", lambda digest: unpacked.append(digest) or unpack(digest))
    words = UniformField(3).words("s", 0)
    assert unpacked == []
    for _ in range(8):
        next(words)
    assert len(unpacked) == 1
    next(words)
    assert len(unpacked) == 2


# Exact multiples of 2**-53, a subnormal, and the values the campaigns use.
LIMIT_PROBS = [0.0, 2.0**-53, 1e-300, 5e-324, 0.5, 0.6, 0.9, 1.0 - 2.0**-53, 1.0,
               3 * 2.0**-53, 12345 * 2.0**-53, (2**52 + 1) * 2.0**-53, 0.1, 1 / 3]


@pytest.mark.parametrize("p", LIMIT_PROBS)
def test_limit_decides_as_the_float_comparison(p):
    ceiling = math.ceil(p * 2.0**53)
    for m in range(ceiling - 2, ceiling + 3):
        if not 0 <= m < 2**53:
            continue
        for a in ((m << 11), (m << 11) + 2047):
            assert (a < couplings._limit(p)) == ((a >> 11) * 2.0**-53 < p), (p, a)


# Thresholds at both ends, exact multiples of 2**-53, and the envelope's.
LIMIT_LE_THRESHOLDS = [0.0, 0.5, 0.7, 0.9, 1.0 - 2.0**-53, 1.0]


@pytest.mark.parametrize("t", LIMIT_LE_THRESHOLDS)
def test_limit_le_decides_as_the_float_comparison(t):
    floor = math.floor(t * 2.0**53)
    checked = 0
    for m in range(floor - 2, floor + 3):
        if not 0 <= m < 2**53:
            continue
        for a in ((m << 11), (m << 11) + 2047):
            assert (a < couplings._limit_le(t)) == ((a >> 11) * 2.0**-53 <= t), (t, a)
            checked += 1
    assert checked >= 4


def test_eta_arrows_decide_as_the_float_rule():
    field = UniformField(4)
    eta_sys = EtaSystem((0.9, 0.7, 0.0, 1.0), field, "rule")
    for site in (-3, 0, 2, _INT_HI + 1):
        for level in range(1, 30):
            u = field.value("rule", site, level)
            assert (eta_sys.arrow_at(site, level) is RIGHT) == (u <= _eta_threshold(eta_sys.eta, level))


def test_eta_system_refuses_bad_levels_and_entries():
    eta_sys = EtaSystem((0.9, 0.7), UniformField(0))
    for level in (0, -1, -5):
        with pytest.raises(ValueError, match="level must be >= 1"):
            eta_sys.arrow_at(0, level)
    for eta in ((1.5,), (0.9, -0.1), (float("nan"),)):
        with pytest.raises(ValueError, match=r"eta entries must be in \[0, 1\]"):
            EtaSystem(eta, UniformField(0))


def test_field_rejects_float_tag_after_equal_int_tag():
    field = UniformField(0)
    field.block(1, 0, 0)
    field.block((1, "a"), 0, 0)
    with pytest.raises(TypeError):
        field.block(1.0, 0, 0)
    with pytest.raises(TypeError):
        field.block((1.0, "a"), 0, 0)


def test_field_list_tags_keep_their_values():
    field = UniformField(4)
    want = (0.8474641186440233, 0.0820189257010221, 0.4957817227790382, 0.8711319833859901,
            0.7187615179474154, 0.9726485156096428, 0.7728772228023365, 0.5047463899991286)
    for _ in range(2):
        assert field.block(["lst", 2], -3, 5) == want
        assert field.value(("lst", [7]), 1, 9) == 0.3738293745516579
    assert field.block(("lst", 2), -3, 5) == want


@pytest.mark.parametrize(
    "tag",
    ["x" * 65536, tuple(range(65536)), 2 ** (8 * 65536)],
    ids=["str", "tuple", "int"],
)
def test_field_rejects_oversize_tags(tag):
    with pytest.raises(ValueError, match="65535"):
        UniformField(0).block(tag, 0, 0)


def test_field_rejects_oversize_seed():
    with pytest.raises(ValueError, match="65535"):
        UniformField(2 ** (8 * 65536))
    UniformField(2 ** (8 * 65535 - 1) - 1).block("s", 0, 0)


# ---------------------------------------------------------- environments


def test_constant_env_prob():
    env = constant_env(0.3)
    for level in (1, 2, 17):
        assert env.prob(0, level) == 0.3
        assert env.prob(-5, level) == 0.3


def test_cookie_env_prob_and_tail():
    env = cookie_env((0.2, 0.7), tail=0.4)
    assert [env.prob(3, k) for k in (1, 2, 3, 4)] == [0.2, 0.7, 0.4, 0.4]


@pytest.mark.parametrize("env", [cookie_env((0.2, 0.7)), constant_env(0.3),
                                 CookieEnvironment({0: (0.9,)}, (0.2,))])
@pytest.mark.parametrize("level", [0, -1, -2])
def test_env_prob_refuses_levels_below_one(env, level):
    # A list indexed at level - 1 < 0 would read from its end.
    with pytest.raises(ValueError, match=f"level must be >= 1, got {level}"):
        env.prob(0, level)


def test_env_site_override():
    env = CookieEnvironment(sites={1: (0.9,)}, default=(0.2,), tail=0.5)
    assert env.prob(1, 1) == 0.9
    assert env.prob(0, 1) == 0.2
    assert env.prob(1, 2) == 0.5


def test_env_json_roundtrip(tmp_path):
    env = cookie_env((0.2,))
    obj = env.to_json_obj()
    assert obj == {"sites": {}, "default": [0.2], "tail": 0.5}
    assert parse_env(obj) == env
    path = tmp_path / "env.json"
    path.write_text(json.dumps(obj))
    assert load_env(str(path)) == env


def test_parse_env_reads_integers_and_signed_site_keys_as_written():
    env = parse_env({"sites": {"-2": [0, 1], "10": [0.25]}, "default": [1], "tail": 0})
    assert env == CookieEnvironment({-2: (0.0, 1.0), 10: (0.25,)}, (1.0,), 0.0)


def test_env_validation():
    with pytest.raises(ValueError, match="out of range"):
        parse_env({"sites": {}, "default": [1.5], "tail": 0.5})
    with pytest.raises(ValueError, match="out of range"):
        constant_env(-0.1)


def test_parse_env_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown environment keys \['tial'\]"):
        parse_env({"default": [0.2], "tial": 0.4})
    with pytest.raises(ValueError, match="JSON object"):
        parse_env([0.2])


def test_env_leq_pointwise_witnesses():
    assert env_leq_pointwise(cookie_env((0.2, 0.5)), cookie_env((0.2, 0.4))) == (None, 2)
    lo = CookieEnvironment(sites={1: (0.3,)}, default=(0.2,), tail=0.5)
    hi = CookieEnvironment(sites={1: (0.9,)}, default=(0.2,), tail=0.5)
    assert env_leq_pointwise(hi, lo) == (1, 1)
    assert env_leq_pointwise(lo, hi) is None
    assert env_leq_pointwise(cookie_env((0.2,), tail=0.6), cookie_env((0.2,), tail=0.4)) == (None, 2)
    assert env_leq_pointwise(cookie_env((0.2, 0.4)), cookie_env((0.3, 0.4))) is None


# -------------------------------------------------------- sampled systems


def test_sample_system_sure_cookies():
    sys_one = sample_system(constant_env(1.0), UniformField(2), "sure")
    assert all(sys_one.arrow_at(s, k) is RIGHT for s in range(-5, 6) for k in range(1, 9))


def test_sample_system_frequency_pinned():
    sysm = sample_system(constant_env(0.5), UniformField(0), "freq")
    count = sum(sysm.arrow_at(s, k) is RIGHT for s in range(100) for k in range(1, 101))
    assert count == 5016


def test_sample_system_matches_thresholds():
    env = cookie_env((0.2, 0.7))
    field = UniformField(7)
    sysm = sample_system(env, field, "recount")
    assert "".join(sysm.arrow_at(0, k).char for k in range(1, 6)) == "LRLLL"
    probe = UniformField(7)
    for site in range(-10, 11):
        for level in range(1, 7):
            want = RIGHT if probe.value("recount", site, level) < env.prob(site, level) else LEFT
            assert sysm.arrow_at(site, level) is want


@given(
    lo=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=4),
    bumps=st.lists(st.floats(0.0, 0.35), min_size=1, max_size=4),
    seed=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_shared_stream_orders_pointwise_envs(lo, bumps, seed):
    n = min(len(lo), len(bumps))
    env_lo = cookie_env(lo[:n])
    env_hi = cookie_env([p + b for p, b in zip(lo[:n], bumps[:n])])
    field = UniformField(seed)
    sys_lo = sample_system(env_lo, field, "ord")
    sys_hi = sample_system(env_hi, field, "ord")
    rel = check_relation(sys_lo, sys_hi, range(-20, 21), n + 2, mode="trileq")
    assert rel.holds, rel.witness


def test_shared_pair_runs_clean():
    pair = shared_pair(cookie_env((0.2, 0.4)), cookie_env((0.3, 0.4)), UniformField(6), 400)
    results = check_pair(pair)
    assert all(r.passed for r in results.values())


def test_sample_system_reads_lane_lists_and_tail():
    env = CookieEnvironment(
        sites={1: tuple(0.1 * k for k in range(1, 10)), -2: (0.9,)},
        default=(0.3,) * 11,
        tail=0.6,
    )
    field = UniformField(11)
    sysm = sample_system(env, field, "lanes")
    for site in (-2, 0, 1, 3):
        for level in range(1, 30):
            want = RIGHT if field.value("lanes", site, level) < env.prob(site, level) else LEFT
            assert sysm.arrow_at(site, level) is want


def test_shared_pair_hashes_each_block_once():
    lo, hi = cookie_env((0.2, 0.4)), cookie_env((0.3, 0.6))
    field = CountingField(6)
    pair = shared_pair(lo, hi, field, 400, stream="p")
    assert field.calls and set(field.calls.values()) == {1}
    alone = UniformField(6)
    assert pair.traj_l.positions == run_walk(sample_system(lo, alone, "p"), 400).positions
    assert pair.traj_r.positions == run_walk(sample_system(hi, alone, "p"), 400).positions


def block_family_pair(field, env_lo, env_hi, partition, horizon, stream):
    systems = couple_block_family(sorted_env(env_lo, partition), partition, [env_lo, env_hi], field, stream)
    return make_pair(*systems, horizon, relation_mode="preceq", provenance="block-family")


def swap_chain_pair(field, env_lo, env_hi, partition, horizon, stream):
    return couple_swap_chain(env_lo, env_hi, partition, field, horizon, stream=stream)


@pytest.mark.parametrize("build", [block_family_pair, swap_chain_pair], ids=["block-family", "swap-chain"])
def test_partition_couplings_hash_each_block_once(build):
    part = BlockPartition(((1, 2, 3),))
    lo, hi = cookie_env((0.2, 0.5, 0.7)), cookie_env((0.7, 0.5, 0.2))
    field = CountingField(6)
    build(field, lo, hi, part, 600, "p")
    assert field.calls and set(field.calls.values()) == {1}


# Blocks one trial hashes for its memos (trials=1, horizon=60, seed=3,
# returns on), each once.  The counts of the bench tracer's
# `field.block_calls` before the memos held words, when they hashed
# through `UniformField.block`.
TRIAL_BLOCKS = {
    "shared-uniform": 62,
    "block-family": 32,
    "swap-chain": 81,
    "envelope": 44,
    "independent-control": 38,
}


@pytest.mark.parametrize("family", sorted(TRIAL_BLOCKS))
def test_campaign_trial_hashes_pinned_blocks(monkeypatch, family):
    field = CountingField(3)
    monkeypatch.setattr(campaign, "UniformField", lambda seed: field)
    config = CampaignConfig(family, trials=1, horizon=60, seed=3, include_timestamp=False)
    campaign.run_trial(config, 0)
    assert sum(field.calls.values()) == TRIAL_BLOCKS[family]
    assert set(field.calls.values()) == {1}


# Blocks three trials hash on a partition of twelve two-level blocks
# (trials=3, horizon=3000, seed=3, returns on), each once.  Both families
# read their word views past gaps: the family's singletons, levels 25 and
# up, read its totals from word 37 on, beyond the block draws' words 0 to
# 11, and the chain's shared cells read its cell view from word 24 on.  A
# fill that hashed every block below the one read would hash more.
TWELVE_BLOCKS = BlockPartition(tuple((2 * b + 1, 2 * b + 2) for b in range(12)))
PARTITION_BLOCKS = {"block-family": 2956, "swap-chain": 5960}


@pytest.mark.parametrize("family", sorted(PARTITION_BLOCKS))
def test_partition_trials_hash_pinned_blocks(monkeypatch, family):
    field = CountingField(3)
    monkeypatch.setattr(campaign, "UniformField", lambda seed: field)
    config = CampaignConfig(family, trials=3, horizon=3000, seed=3, partition=TWELVE_BLOCKS,
                            include_timestamp=False)
    for trial in range(3):
        campaign.run_trial(config, trial)
    assert sum(field.calls.values()) == PARTITION_BLOCKS[family]
    assert set(field.calls.values()) == {1}


def test_shared_pair_rejects_unordered_envs():
    with pytest.raises(ValueError, match="exceeds"):
        shared_pair(cookie_env((0.9,)), cookie_env((0.2,)), UniformField(0), 10)


# ------------------------------------------------------------ partitions


def test_partition_lookup():
    part = BlockPartition(((1, 2), (3,)))
    assert part.depth() == 3
    assert block_of(part, 1) == (1, 2)
    assert block_of(part, 2) == (1, 2)
    assert block_of(part, 3) == (3,)
    assert block_of(part, 9) == (9,)
    assert part.block_index((1, 2)) == 1
    assert part.block_index((3,)) == 2
    assert part.block_index((4,)) == 7
    assert part.block_index((9,)) == 12


def test_partition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        BlockPartition(((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="cap"):
        BlockPartition(((1, 2, 3, 4),), cap=3)
    top = couplings.MAX_PARTITION_LEVEL
    assert BlockPartition(((top - 1, top),)).depth() == top
    for blocks in (((top + 1,),), ((1, 2), (10**9,))):
        with pytest.raises(ValueError, match=f"levels must be <= {top}"):
            BlockPartition(blocks)


def test_partition_json_roundtrip(tmp_path):
    part = BlockPartition(((1, 2), (3,)))
    obj = part.to_json_obj()
    assert obj == {"cap": 3, "blocks": [[1, 2], [3]]}
    assert parse_partition(obj) == part
    path = tmp_path / "part.json"
    path.write_text(json.dumps(obj))
    assert load_partition(str(path)) == part


def test_parse_partition_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown partition keys \['cpa'\]"):
        parse_partition({"blocks": [[1, 2]], "cpa": 2})


# ------------------------------------------------------- swap machinery


def test_favourable_swaps_pinned():
    assert favourable_swaps((0.2, 0.5, 0.7)) == [(0, 1), (0, 2), (1, 2)]
    assert favourable_swaps((0.7, 0.5, 0.2)) == []
    assert favourable_swaps((0.5, 0.5)) == [(0, 1)]


def test_swap_path_pinned():
    assert swap_path((0.2, 0.5), (0.2, 0.5)) == []
    assert swap_path((0.2, 0.7), (0.7, 0.2)) == [(0, 1)]
    assert swap_path((0.2, 0.5, 0.7), (0.7, 0.2, 0.5)) == [(0, 1), (0, 2)]
    assert swap_path((0.7, 0.5, 0.2), (0.2, 0.5, 0.7)) is None
    assert swap_path((0.2, 0.5), (0.2, 0.6)) is None


def test_swap_path_applies_cleanly():
    src = [0.2, 0.5, 0.7]
    path = swap_path(tuple(src), (0.7, 0.2, 0.5))
    for i, j in path:
        assert src[i] <= src[j]
        src[i], src[j] = src[j], src[i]
    assert src == [0.7, 0.2, 0.5]


def test_swap_path_size_limit():
    src = tuple(k / 10 for k in range(9))
    dst = src[1:] + src[:1]
    with pytest.raises(ValueError, match="too large"):
        swap_path(src, dst)


def test_sorted_env():
    part = BlockPartition(((1, 2, 3),))
    env = cookie_env((0.7, 0.2, 0.5))
    low = sorted_env(env, part)
    assert [low.prob(0, k) for k in (1, 2, 3, 4)] == [0.2, 0.5, 0.7, 0.5]
    again = sorted_env(low, part)
    assert again.to_json_obj() == low.to_json_obj()


def test_sorted_env_pads_each_lane_only_to_the_partition():
    # A lane shorter than the partition is padded with the tail up to its
    # depth; a longer one keeps its length, and reads the same cells.
    part = BlockPartition(((1, 2), (4, 5, 6)))
    env = CookieEnvironment(
        {-1: (0.9,), 0: tuple(i / 20 for i in range(10)), 3: ()}, (0.4, 0.1, 0.3), 0.6
    )
    low = sorted_env(env, part)
    assert {site: len(lane) for site, lane in low.sites.items()} == {-1: 6, 0: 10, 3: 6}
    assert len(low.default) == 6
    assert low.sites[-1] == (0.6, 0.9, 0.6, 0.6, 0.6, 0.6)
    for site in (-1, 0, 3, 7):
        for level in range(1, 14):
            block = block_of(part, level)
            want = sorted(env.prob(site, l) for l in block)[block.index(level)]
            assert low.prob(site, level) == want, (site, level)


def test_env_order_reports():
    part = BlockPartition(((1, 2, 3),))
    asc = cookie_env((0.2, 0.5, 0.7))
    desc = cookie_env((0.7, 0.2, 0.5))
    fwd = env_order(asc, desc, part)
    assert fwd.is_block_permutation and fwd.swap_reachable
    assert env_leq_pointwise(asc, desc) is not None
    assert fwd.witness is None
    rev = env_order(desc, asc, part)
    assert rev.is_block_permutation and not rev.swap_reachable
    assert rev.witness == {
        "lane": None,
        "block": (1, 2, 3),
        "reason": "not reachable by favourable swaps",
    }
    other = env_order(asc, cookie_env((0.2, 0.5, 0.9)), part)
    assert not other.is_block_permutation
    # Tails that differ are read one level above the lists and the partition.
    tails = env_order(cookie_env((0.2,), tail=0.6), cookie_env((0.2,), tail=0.4), part)
    assert tails.witness == {"lane": None, "level": 4, "reason": "values differ outside blocks"}


def test_sorted_env_reaches_all_permutations():
    part = BlockPartition(((1, 2, 3),))
    for perm in itertools.permutations((0.2, 0.5, 0.7)):
        env = cookie_env(perm)
        assert env_order(sorted_env(env, part), env, part).swap_reachable
        assert env_order(env, sorted_env(env, part, descending=True), part).swap_reachable


# A few values, so that lanes often agree, and the sure cookies 0 and 1.
ORDER_PROBS = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0])
order_lanes = st.lists(ORDER_PROBS, max_size=5).map(tuple)
order_envs = st.builds(
    CookieEnvironment, st.dictionaries(st.integers(-2, 2), order_lanes, max_size=3), order_lanes, ORDER_PROBS
)


@st.composite
def order_partitions(draw):
    """Blocks of up to three levels in 1 .. 8, so some lie above every lane
    of `order_envs`."""
    levels = draw(st.permutations(range(1, 9)))[: draw(st.integers(0, 8))]
    blocks = []
    while levels:
        n = draw(st.integers(1, 3))
        blocks.append(tuple(levels[:n]))
        levels = levels[n:]
    return BlockPartition(tuple(blocks))


def padded_by_the_tail(env, extra):
    """The same environment with every list longer by `extra` tail values."""
    return CookieEnvironment(
        {s: lst + (env.tail,) * extra for s, lst in env.sites.items()},
        env.default + (env.tail,) * extra,
        env.tail,
    )


@st.composite
def order_cases(draw):
    """A partition and two environments: unrelated, block-sorted either way,
    the same cells in lists of other lengths, or the same lists with another
    tail."""
    env_a = draw(order_envs)
    partition = draw(order_partitions())
    env_b = draw(st.one_of(
        order_envs,
        st.just(sorted_env(env_a, partition)),
        st.just(reference_reversed_env(env_a, partition)),
        st.integers(1, 4).map(lambda extra: padded_by_the_tail(env_a, extra)),
        ORDER_PROBS.map(lambda tail: CookieEnvironment(env_a.sites, env_a.default, tail)),
    ))
    return env_a, env_b, partition


@given(order_cases())
@settings(max_examples=400, deadline=None)
def test_environment_comparisons_match_the_global_depth_references(case):
    # Each lane stops one level above its own lists and the partition; the
    # references pad every lane to the depth of all of them.
    env_a, env_b, partition = case
    for x, y in ((env_a, env_b), (env_b, env_a)):
        assert env_leq_pointwise(x, y) == reference_env_leq_pointwise(x, y)
        assert env_order(x, y, partition) == reference_env_order(x, y, partition)
    assert sorted_env(env_a, partition, descending=True) == reference_reversed_env(env_a, partition)


# ------------------------------------------------------ stack count laws


def test_poisson_binomial_pinned():
    assert poisson_binomial(()) == [1.0]
    assert poisson_binomial((0.25,)) == pytest.approx([0.75, 0.25], abs=1e-15)
    assert poisson_binomial((0.2, 0.5, 0.7)) == pytest.approx([0.12, 0.43, 0.38, 0.07], abs=1e-15)
    assert poisson_binomial((1.0, 1.0, 1.0)) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=0)


@given(st.lists(st.floats(0.0, 1.0), max_size=8))
@settings(max_examples=120, deadline=None)
def test_poisson_binomial_matches_enumeration(probs):
    got = poisson_binomial(probs)
    want = [0.0] * (len(probs) + 1)
    for bits in itertools.product((0, 1), repeat=len(probs)):
        w = 1.0
        for p, b in zip(probs, bits):
            w *= p if b else (1.0 - p)
        want[sum(bits)] += w
    assert got == pytest.approx(want, abs=1e-12)
    assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_poisson_binomial_permutation_invariant():
    probs = (0.15, 0.4, 0.62, 0.9)
    base = poisson_binomial(probs)
    for perm in itertools.permutations(probs):
        assert poisson_binomial(perm) == pytest.approx(base, abs=1e-12)


def test_stack_chain_pinned():
    assert stack_chain(0, 0) == [()]
    assert stack_chain(1, 0) == [(LEFT,)]
    assert stack_chain(2, 1) == [(RIGHT, LEFT), (LEFT, RIGHT)]
    assert stack_chain(3, 1) == [
        (RIGHT, LEFT, LEFT),
        (LEFT, RIGHT, LEFT),
        (LEFT, LEFT, RIGHT),
    ]
    assert stack_chain(3, 3) == [(RIGHT, RIGHT, RIGHT)]


def test_stack_chain_is_a_monotone_total_order():
    for n in range(4):
        for y in range(n + 1):
            chain = stack_chain(n, y)
            if n == 4:
                continue
            assert len(chain) == math.comb(n, y)
            assert set(chain) == {
                s for s in itertools.product((LEFT, RIGHT), repeat=n)
                if sum(a is RIGHT for a in s) == y
            }
            for earlier, later in itertools.combinations(chain, 2):
                assert all(a <= b for a, b in zip(prefix_lefts(earlier), prefix_lefts(later)))


def test_stack_chain_returns_a_fresh_list():
    chain = stack_chain(3, 1)
    chain.clear()
    stack_chain(2, 1).append((LEFT, LEFT))
    assert stack_chain(3, 1) == [
        (RIGHT, LEFT, LEFT),
        (LEFT, RIGHT, LEFT),
        (LEFT, LEFT, RIGHT),
    ]
    assert stack_chain(2, 1) == [(RIGHT, LEFT), (LEFT, RIGHT)]


def test_stack_chain_height_limit():
    with pytest.raises(ValueError, match="split the block"):
        stack_chain(4, 2)


def test_conditional_stack_pmf_pinned():
    got = conditional_stack_pmf((0.2, 0.7), 1)
    assert got == pytest.approx([0.06 / 0.62, 0.56 / 0.62], abs=1e-15)
    assert conditional_stack_pmf((0.5, 0.5), 1) == [0.5, 0.5]


@given(
    probs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    y=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_conditional_stack_pmf_matches_enumeration(probs, y):
    if y > len(probs):
        y = len(probs)
    chain = stack_chain(len(probs), y)
    weights = []
    for stack in chain:
        w = 1.0
        for p, a in zip(probs, stack):
            w *= p if a is RIGHT else (1.0 - p)
        weights.append(w)
    total = sum(weights)
    got = conditional_stack_pmf(tuple(probs), y)
    assert got == pytest.approx([w / total for w in weights], abs=1e-12)


def test_conditional_stack_pmf_zero_mass():
    with pytest.raises(ValueError, match="zero-probability"):
        conditional_stack_pmf((1.0, 1.0), 1)


def test_conditional_pmf_cdf_domination():
    # within a block, the descending arrangement loads the early chain
    # positions at least as heavily as the ascending one
    for y in range(4):
        asc = conditional_stack_pmf((0.2, 0.5, 0.7), y)
        desc = conditional_stack_pmf((0.7, 0.5, 0.2), y)
        cum_asc = list(itertools.accumulate(asc))
        cum_desc = list(itertools.accumulate(desc))
        assert all(d >= a - 1e-12 for a, d in zip(cum_asc, cum_desc))


# ------------------------------------------------------- two-cookie swap


def test_pair_swap_block_pinned_intervals():
    # breakpoints for (0.3, 0.6): pq = 0.18, p = 0.3, p + q - pq = 0.72
    assert pair_swap_block(0.3, 0.6, 0.0) == (RIGHT, RIGHT)
    assert pair_swap_block(0.3, 0.6, 0.17) == (RIGHT, RIGHT)
    assert pair_swap_block(0.3, 0.6, 0.18) == (RIGHT, LEFT)
    assert pair_swap_block(0.3, 0.6, 0.3) == (LEFT, RIGHT)
    assert pair_swap_block(0.3, 0.6, 0.6) == (LEFT, RIGHT)
    assert pair_swap_block(0.3, 0.6, 0.72) == (LEFT, LEFT)
    assert pair_swap_block(0.3, 0.6, 0.99) == (LEFT, LEFT)


def test_pair_swap_block_validation():
    with pytest.raises(ValueError, match="u must be"):
        pair_swap_block(0.3, 0.6, 1.0)
    with pytest.raises(ValueError, match="u must be"):
        pair_swap_block(0.3, 0.6, -0.1)
    with pytest.raises(ValueError, match="out of range"):
        pair_swap_block(1.2, 0.6, 0.5)


def test_pair_swap_block_exact_marginals():
    p, q = 0.3, 0.6
    grid = [(i + 0.5) / 2000 for i in range(2000)]
    stacks = [pair_swap_block(p, q, u) for u in grid]
    lows = sum(s[0] is RIGHT for s in stacks) / len(grid)
    tops = sum(s[1] is RIGHT for s in stacks) / len(grid)
    both = sum(s == (RIGHT, RIGHT) for s in stacks) / len(grid)
    assert lows == pytest.approx(p, abs=1e-3)
    assert tops == pytest.approx(q, abs=1e-3)
    assert both == pytest.approx(p * q, abs=1e-3)


@given(
    p=st.floats(0.05, 0.95),
    q=st.floats(0.05, 0.95),
    u=st.floats(0.0, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_pair_swap_block_couples_the_two_orders(p, q, u):
    fwd = pair_swap_block(p, q, u)
    rev = pair_swap_block(q, p, u)
    assert sum(a is RIGHT for a in fwd) == sum(a is RIGHT for a in rev)
    lo, hi = (fwd, rev) if p <= q else (rev, fwd)
    # the arrangement with the larger value on top never shows a Right
    # strictly below the other arrangement's Right
    assert all(a >= b for a, b in zip(prefix_lefts(lo), prefix_lefts(hi)))


# ----------------------------------------------------------- block family


def test_block_family_counts_and_order():
    field = UniformField(3)
    part = BlockPartition(((1, 2, 3),))
    base = cookie_env((0.2, 0.5, 0.7))
    mid = cookie_env((0.5, 0.2, 0.7))
    fast = cookie_env((0.7, 0.5, 0.2))
    members = couple_block_family(base, part, [base, mid, fast], field, "fam")
    assert len(members) == 3
    for site in range(-200, 201):
        stacks = [stack_at(m, site, 3) for m in members]
        rights = {sum(a is RIGHT for a in s) for s in stacks}
        assert len(rights) == 1
        ps = [prefix_lefts(s) for s in stacks]
        # base is ascending, fast is its reversal; mid sits between them
        assert all(x >= y for x, y in zip(ps[0], ps[1]))
        assert all(x >= y for x, y in zip(ps[1], ps[2]))
        assert all(x >= y for x, y in zip(ps[0], ps[2]))


def test_block_family_product_law():
    field = UniformField(17)
    part = BlockPartition(((1, 2, 3),))
    base = cookie_env((0.2, 0.5, 0.7))
    fast = cookie_env((0.7, 0.5, 0.2))
    members = couple_block_family(base, part, [base, fast], field, "chi")
    combos = list(itertools.product((LEFT, RIGHT), repeat=3))
    for member, env in zip(members, (base, fast)):
        counts = {c: 0 for c in combos}
        n = 20_000
        for site in range(1, n + 1):
            counts[stack_at(member, site, 3)] += 1
        expected = []
        for combo in combos:
            w = 1.0
            for lv, a in enumerate(combo, start=1):
                p = env.prob(0, lv)
                w *= p if a is RIGHT else (1.0 - p)
            expected.append(w * n)
        stat = chisquare([counts[c] for c in combos], expected)
        assert stat.pvalue > 1e-4


def test_block_family_singleton_partition():
    field = UniformField(5)
    part = BlockPartition(((1,), (2,)))
    base = cookie_env((0.3, 0.6))
    members = couple_block_family(base, part, [base, base], field, "single")
    for site in range(-50, 51):
        assert stack_at(members[0], site, 4) == stack_at(members[1], site, 4)


def test_block_family_draws_each_cell_once_for_all_members(monkeypatch):
    reads = Counter()
    value = FieldStream.value

    def counted(self, site, level):
        reads[(self.stream, site, level)] += 1
        return value(self, site, level)

    monkeypatch.setattr(FieldStream, "value", counted)
    part = BlockPartition(((1, 2, 3),))
    base = cookie_env((0.2, 0.5, 0.7))
    members = couple_block_family(base, part, [base, cookie_env((0.7, 0.5, 0.2))], UniformField(9), "once")
    for site in range(-20, 21):
        for level in range(1, 7):
            for member in members:
                member.arrow_at(site, level)
    # Both streams are read, and the picks only where a chain has a choice.
    assert {stream for stream, _, _ in reads} == {("once", "total"), ("once", "pick")}
    assert set(reads.values()) == {1}


def test_block_family_rejects_non_permutation():
    with pytest.raises(ValueError, match="block permutation"):
        couple_block_family(
            cookie_env((0.2, 0.5)),
            BlockPartition(((1, 2),)),
            [cookie_env((0.2, 0.9))],
            UniformField(0),
        )


# ------------------------------------------------------------ swap chain


def test_swap_chain_same_env_is_identity():
    env = cookie_env((0.2, 0.7))
    pair = couple_swap_chain(env, env, BlockPartition(((1, 2),)), UniformField(5), 50, stream="same")
    assert pair.traj_l.positions == pair.traj_r.positions
    assert len(swap_path((0.2, 0.7), (0.2, 0.7))) == 0


def test_swap_chain_single_link_reduces_to_pair_swap():
    field = UniformField(4)
    part = BlockPartition(((1, 2),))
    pair = couple_swap_chain(cookie_env((0.2, 0.7)), cookie_env((0.7, 0.2)), part, field, 30, stream="unit")
    assert len(swap_path((0.2, 0.7), (0.7, 0.2))) == 1
    sys_l, sys_r = pair.traj_l.system, pair.traj_r.system
    probe = UniformField(4)
    for site in range(-40, 41):
        u = probe.value(("unit", "link", 1), site, 3)
        assert stack_at(sys_l, site, 2) == pair_swap_block(0.2, 0.7, u)
        assert stack_at(sys_r, site, 2) == pair_swap_block(0.7, 0.2, u)


def test_swap_chain_two_links():
    field = UniformField(3)
    part = BlockPartition(((1, 2, 3),))
    asc = cookie_env((0.2, 0.5, 0.7))
    dst = cookie_env((0.7, 0.2, 0.5))
    pair = couple_swap_chain(asc, dst, part, field, 60, stream="chain3")
    assert len(swap_path((0.2, 0.5, 0.7), (0.7, 0.2, 0.5))) == 2
    sys_l, sys_r = pair.traj_l.system, pair.traj_r.system
    for site in range(-300, 301):
        sl = stack_at(sys_l, site, 3)
        sr = stack_at(sys_r, site, 3)
        assert sum(a is RIGHT for a in sl) == sum(a is RIGHT for a in sr)
        assert all(x >= y for x, y in zip(prefix_lefts(sl), prefix_lefts(sr)))
        # above the block both lanes share the same tail cells
        for lv in (4, 5, 6):
            assert sys_l.arrow_at(site, lv) is sys_r.arrow_at(site, lv)
    results = check_pair(pair)
    assert all(r.passed for r in results.values())


def test_swap_chain_end_marginals():
    field = UniformField(23)
    part = BlockPartition(((1, 2, 3),))
    asc = cookie_env((0.2, 0.5, 0.7))
    dst = cookie_env((0.7, 0.2, 0.5))
    pair = couple_swap_chain(asc, dst, part, field, 0, stream="chi2")
    combos = list(itertools.product((LEFT, RIGHT), repeat=3))
    for system, env in ((pair.traj_l.system, asc), (pair.traj_r.system, dst)):
        counts = {c: 0 for c in combos}
        n = 10_000
        for site in range(1, n + 1):
            counts[stack_at(system, site, 3)] += 1
        expected = []
        for combo in combos:
            w = 1.0
            for lv, a in enumerate(combo, start=1):
                p = env.prob(0, lv)
                w *= p if a is RIGHT else (1.0 - p)
            expected.append(w * n)
        stat = chisquare([counts[c] for c in combos], expected)
        assert stat.pvalue > 1e-4


def test_swap_chain_rejects_unreachable_target():
    with pytest.raises(ValueError, match="not favourable-swap reachable"):
        couple_swap_chain(
            cookie_env((0.7, 0.2, 0.5)),
            cookie_env((0.2, 0.5, 0.7)),
            BlockPartition(((1, 2, 3),)),
            UniformField(0),
            10,
        )


DIFFERENTIAL_PARTITIONS = [
    BlockPartition(((1, 2, 3),)),
    BlockPartition(((1, 2), (3,))),
    BlockPartition(((1,), (2, 3), (5, 6, 7))),
    BlockPartition(((2, 4),)),
]


def rotate_blocks(probs, partition):
    """Each block's values moved up one level, the top one to the bottom:
    from ascending values, two swap links on a block of three."""
    out = list(probs)
    for block in partition.blocks:
        vals = [out[l - 1] for l in block]
        for l, v in zip(block, vals[-1:] + vals[:-1]):
            out[l - 1] = v
    return tuple(out)


def assert_cells_match_reference(base, members, low, high, partition, seed):
    """Every cell of a block family (`members` around `base`) and of a swap
    chain from `low` to `high` against the per-cell reference."""
    field = UniformField(seed)
    reference = UniformField(seed)
    family = couple_block_family(base, partition, members, field, ("bf", seed))
    pair = couple_swap_chain(low, high, partition, field, 0, stream=("sc", seed))
    chain_ends = (pair.traj_l.system, pair.traj_r.system)
    for site in range(-12, 13):
        for level in range(1, 3 * partition.depth() + 12):
            for member, env in zip(family, members):
                want = reference_block_family_cell(env, base, partition, reference, ("bf", seed), site, level)
                assert member.arrow_at(site, level) is want, (site, level)
            for side, system in enumerate(chain_ends):
                want = reference_swap_chain_cell(low, high, partition, reference, ("sc", seed), site, level, side)
                assert system.arrow_at(site, level) is want, (site, level, side)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("partition", DIFFERENTIAL_PARTITIONS, ids=lambda p: str(p.blocks))
def test_partition_couplings_match_reference_cells(seed, partition):
    draw = random.Random(seed)
    depth = partition.depth()
    base = CookieEnvironment(
        {3: tuple(draw.random() for _ in range(depth))},
        tuple(draw.random() for _ in range(depth)),
        0.5,
    )
    low = sorted_env(base, partition)
    high = CookieEnvironment(
        {s: rotate_blocks(lst, partition) for s, lst in low.sites.items()},
        rotate_blocks(low.default, partition),
        low.tail,
    )
    assert_cells_match_reference(low, (low, base, high), low, high, partition, seed)


@pytest.mark.parametrize("listed_by", ["low", "high"])
@pytest.mark.parametrize("partition", DIFFERENTIAL_PARTITIONS, ids=lambda p: str(p.blocks))
def test_partition_couplings_match_reference_cells_on_a_lane_one_env_lists(listed_by, partition):
    # Site 3 has its own lane although only one environment lists it: with
    # "low", the family's base and the chain's start list it (with the
    # swap-minimal permutation of the default) and the other member and
    # chain end read the default there; with "high", the reverse.
    draw = random.Random(11)
    values = tuple(draw.random() for _ in range(partition.depth()))
    ascending = sorted_env(cookie_env(values), partition).default
    if listed_by == "low":
        low, high = CookieEnvironment({3: ascending}, values), cookie_env(values)
    else:
        low, high = cookie_env(ascending), CookieEnvironment({3: rotate_blocks(ascending, partition)}, ascending)
    assert_cells_match_reference(low, (low, high), low, high, partition, 11)


@pytest.mark.parametrize("partition", DIFFERENTIAL_PARTITIONS, ids=lambda p: str(p.blocks))
def test_partition_couplings_match_reference_cells_with_zero_mass_counts(partition):
    # Under probabilities 0 and 1 some Right counts have no mass; their
    # rows must never be built, since conditioning on them raises.
    base = cookie_env((0.0, 0.5, 1.0))
    low = sorted_env(base, partition)
    high = CookieEnvironment({}, rotate_blocks(low.default, partition), low.tail)
    assert_cells_match_reference(low, (low, base, high), low, high, partition, 5)


class ViewField:
    """The `value` of a field whose streams are those the views hold."""

    def __init__(self, *views):
        self.views = {view.stream: view for view in views}

    def value(self, stream, site, level):
        return self.views[stream].value(site, level)


# Probabilities 0 and 1 on both lanes, below and above the partition, and
# 1 - p an exact multiple of 2**-53 (p = 0.3, 0.4, 0.5), where `_limit` and
# `_limit_le` differ.  Levels 1, 4 and 5 lie outside the block, and the
# tail starts at level 6.
EDGE_PARTITION = BlockPartition(((2, 3),))
EDGE_LOW = CookieEnvironment({3: (1.0, 0.25, 0.75, 0.0, 0.5)}, (0.0, 0.4, 0.6, 1.0, 0.3), 0.3)
EDGE_HIGH = CookieEnvironment(
    {s: rotate_blocks(lst, EDGE_PARTITION) for s, lst in EDGE_LOW.sites.items()},
    rotate_blocks(EDGE_LOW.default, EDGE_PARTITION),
    EDGE_LOW.tail,
)
WORD_MAX = 2**64 - 1


@pytest.mark.parametrize("site, q", [(3, 0), (3, 1), (-2, 0), (-2, 1)],
                         ids=["listed-q0", "listed-tail-q1", "default-q0", "default-tail-q1"])
def test_partition_word_cells_decide_at_each_limit_as_the_float_rule(site, q):
    # The cells decided on one word: a block-family singleton by the word
    # of its total, at slot nb + 1 + level, and a swap-chain cell above the
    # partition by its `cell` word.  Every word of block (site, q) of those
    # views sits at its cell's limit - 1 or at its limit, in all 256
    # patterns, and words no such cell reads at 0 or the largest word, so
    # only words made to hit a limit tell `<` from `<=`, and tell the
    # positions apart.  Where p = 1, a family total of u = 0 (a word below
    # 2048) is a zero-mass count and raises.
    nb = len(EDGE_PARTITION.blocks)
    words = range(8 * q, 8 * q + 8)
    # The level each word decides, None where no such cell reads it.
    singles = [w - nb if w > nb and block_of(EDGE_PARTITION, w - nb) == (w - nb,) else None for w in words]
    shared = [w + 1 if w + 1 > EDGE_PARTITION.depth() else None for w in words]
    family_limits = [level and _limit_le(1.0 - EDGE_LOW.prob(site, level)) for level in singles]
    chain_limits = [level and _limit(EDGE_LOW.prob(site, level)) for level in shared]

    def crafted(limits, below):
        return tuple((0 if b else WORD_MAX) if limit is None
                     else min(max(limit - 1 if b else limit, 0), WORD_MAX)
                     for limit, b in zip(limits, below))

    for below in itertools.product((True, False), repeat=8):
        field = UniformField(0)
        members = couple_block_family(EDGE_LOW, EDGE_PARTITION, [EDGE_LOW, EDGE_HIGH], field, "edge")
        pair = couple_swap_chain(EDGE_LOW, EDGE_HIGH, EDGE_PARTITION, field, 0, stream="edge")
        ends = (pair.traj_l.system, pair.traj_r.system)
        family, chain = members[0]._state, ends[0]._state
        family_words = put_block(family._totals, site, q, crafted(family_limits, below))
        chain_words = put_block(chain._cell_view, site, q, crafted(chain_limits, below))

        totals = ViewField(family._totals, family._picks)
        for level, limit, word in zip(singles, family_limits, family_words):
            if level is None:
                continue
            for member, env in zip(members, (EDGE_LOW, EDGE_HIGH)):
                if EDGE_LOW.prob(site, level) == 1.0 and word < 2048:
                    with pytest.raises(ValueError, match="zero-probability"):
                        member.arrow_at(site, level)
                    continue
                want = reference_block_family_cell(env, EDGE_LOW, EDGE_PARTITION, totals, "edge", site, level)
                assert want is (RIGHT if word >= limit else LEFT)
                assert member.arrow_at(site, level) is want, (below, level)
        cells = ViewField(chain._cell_view)
        for level, limit, word in zip(shared, chain_limits, chain_words):
            if level is None:
                continue
            for side, end in enumerate(ends):
                want = reference_swap_chain_cell(EDGE_LOW, EDGE_HIGH, EDGE_PARTITION, cells, "edge", site, level, side)
                assert want is (RIGHT if word < limit else LEFT)
                assert end.arrow_at(site, level) is want, (below, level, side)


# Lanes of 0, 3, 8, 9 and 17 probabilities, listed on both sides of 0 and
# as the default, with p = 0 and p = 1 among them.  Each lane of length >= 3
# holds ascending values at levels 2 and 3, the block of LANE_PARTITION, and
# LANE_HIGH swaps them: a block permutation of LANE_LOW, reachable by one
# favourable swap.  Sites 0 and 3 read the default lane.
LANE_POOL = (0.0, 1.0, 0.5, 0.3, 0.6, 0.9, 0.25, 0.75, 0.1, 0.4)


def pool_lane(n, shift):
    values = [LANE_POOL[(shift + 3 * k) % len(LANE_POOL)] for k in range(n)]
    values[1:3] = sorted(values[1:3])
    return tuple(values)


def swap_two_three(lane):
    return lane[:1] + lane[2:3] + lane[1:2] + lane[3:] if len(lane) >= 3 else lane


LANE_PARTITION = BlockPartition(((2, 3),))
LANE_LOW = CookieEnvironment(
    {-7: pool_lane(9, 1), -1: (), 2: pool_lane(3, 2), 5: pool_lane(8, 3), 9: pool_lane(17, 5)},
    pool_lane(17, 4),
    0.45,
)
LANE_HIGH = CookieEnvironment(
    {s: swap_two_three(lane) for s, lane in LANE_LOW.sites.items()},
    swap_two_three(LANE_LOW.default),
    LANE_LOW.tail,
)
LANE_SITES = (-7, -1, 0, 2, 3, 5, 9)


def test_sampled_limit_lanes_match_the_float_rule():
    # The lanes padded to whole blocks of eight, then the tail: each limit
    # of `cell_words` is `_limit` of the cell's probability, the word limit
    # of u < p, on every block of every lane and of unlisted sites.
    assert {len(lane) for lane in LANE_LOW.sites.values()} == {0, 3, 8, 9, 17}
    for env in (LANE_LOW, LANE_HIGH, constant_env(1.0), cookie_env((0.0,) * 9, tail=1.0)):
        system = sample_system(env, UniformField(0), "lanes")
        for site in LANE_SITES:
            for q in range(4):
                _, limits = system.cell_words(site, q)
                want = tuple(_limit(env.prob(site, 8 * q + r + 1)) for r in range(8))
                assert tuple(limits) == want, (site, q)


def put_block(view, site, q, words):
    """Block q of `site`'s words in `view`'s memo set to `words`, and
    returned; a block below it that was not read stays a gap."""
    seq = list(view._blocks.get(site, ()))
    seq += [None] * (8 * q + 8 - len(seq))
    seq[8 * q:8 * q + 8] = words
    view._blocks[site] = seq
    return words


def set_word(view, site, i, word):
    """Word i of `site`'s words in `view`'s memo set to `word`, its other
    words hashed as read."""
    read_word(view, site, i)
    words = list(view._blocks[site])
    words[i] = word
    view._blocks[site] = words


def around(limit):
    """The words just below `limit` and at it, within the 64-bit range."""
    return min(max(limit - 1, 0), WORD_MAX), min(limit, WORD_MAX)


def test_partition_word_limits_match_the_float_rules():
    # Each cell a partition side decides on one word, at the words on either
    # side of its limit: a block-family singleton is Right where the word of
    # its total is u > 1 - p (`_pick`'s rule on the total's cumulative), and
    # a swap-chain cell above the partition where its `cell` word is u < p,
    # p being the first environment's probability there.  A family cell
    # with p = 1 is realized: its total of u = 0 raises as a zero-mass count.
    field = UniformField(0)
    members = couple_block_family(LANE_LOW, LANE_PARTITION, [LANE_LOW, LANE_HIGH], field, "lanes")
    pair = couple_swap_chain(LANE_LOW, LANE_HIGH, LANE_PARTITION, field, 0, stream="lanes")
    ends = (pair.traj_l.system, pair.traj_r.system)
    family, chain = members[0]._state, ends[0]._state
    nb = len(LANE_PARTITION.blocks)
    checked = Counter()
    for site in LANE_SITES:
        for level in range(1, LANE_LOW.depth() + 10):
            if level in LANE_PARTITION._places:
                continue
            p = LANE_LOW.prob(site, level)
            for word in around(_limit_le(1.0 - p)):
                u = (word >> 11) * 2.0**-53
                set_word(family._totals, site, nb + level, word)
                for member in members:
                    if p == 1.0 and u == 0.0:
                        with pytest.raises(ValueError, match="zero-probability"):
                            member.arrow_at(site, level)
                        continue
                    assert member.arrow_at(site, level) is (RIGHT if u > 1.0 - p else LEFT), (
                        site, level, word)
                    checked["family", p] += 1
            if level > LANE_PARTITION.depth():
                for word in around(_limit(p)):
                    u = (word >> 11) * 2.0**-53
                    set_word(chain._cell_view, site, level - 1, word)
                    for end in ends:
                        assert end.arrow_at(site, level) is (RIGHT if u < p else LEFT), (
                            site, level, word)
                        checked["chain", p] += 1
    assert {kind_p for kind_p in checked if kind_p[1] in (0.0, 1.0)} == {
        ("family", 0.0), ("family", 1.0), ("chain", 0.0), ("chain", 1.0)}
    realized = {(site, level) for site, level in family._cells}
    assert realized == {(site, level) for site in LANE_SITES for level in range(1, 18)
                        if level not in LANE_PARTITION._places and LANE_LOW.prob(site, level) == 1.0}
    assert chain._cells == {}  # every chain cell above the partition is decided on its word


@given(cells=st.lists(st.tuples(st.sampled_from(LANE_SITES), st.integers(1, 40)), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_cells_read_in_any_order_match_the_reference_cells(cells):
    # The partition sides and the envelope system read their words from a
    # view that can hold gaps below a block read first: in any order, each
    # cell is its reference's, from the field's values.
    field, reference = UniformField(2), UniformField(2)
    members = couple_block_family(LANE_LOW, LANE_PARTITION, [LANE_LOW, LANE_HIGH], field, "bf")
    pair = couple_swap_chain(LANE_LOW, LANE_HIGH, LANE_PARTITION, field, 0, stream="sc")
    eta = EtaSystem((0.9, 0.3, 0.7), field, "eta")
    for site, level in cells:
        for member, env in zip(members, (LANE_LOW, LANE_HIGH)):
            want = reference_block_family_cell(env, LANE_LOW, LANE_PARTITION, reference, "bf", site, level)
            assert member.arrow_at(site, level) is want, (site, level)
        for side, end in enumerate((pair.traj_l.system, pair.traj_r.system)):
            want = reference_swap_chain_cell(LANE_LOW, LANE_HIGH, LANE_PARTITION, reference, "sc", site,
                                             level, side)
            assert end.arrow_at(site, level) is want, (site, level, side)
        u = reference.value("eta", site, level)
        assert eta.arrow_at(site, level) is (RIGHT if u <= _eta_threshold(eta.eta, level) else LEFT)


@pytest.mark.parametrize("build", [block_family_pair, swap_chain_pair], ids=["block-family", "swap-chain"])
def test_partition_couplings_build_their_tables_once(build, monkeypatch):
    # On a homogeneous environment every site reads the default lane, so
    # the reference builders run a fixed number of times, however long
    # the walk.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("poisson_binomial", "conditional_stack_pmf", "swap_path", "_apply_swap"):
        monkeypatch.setattr(couplings, name, counted(name, getattr(couplings, name)))
    part = BlockPartition(((1, 2, 3),))
    lo, hi = cookie_env((0.2, 0.5, 0.7)), cookie_env((0.7, 0.5, 0.2))
    counts = []
    for horizon in (500, 2000):
        calls.clear()
        build(UniformField(4), lo, hi, part, horizon, "p")
        counts.append(dict(calls))
    assert counts[0] and counts[0] == counts[1]


# ------------------------------------------------------- drift envelopes


def test_envelope_walk_tight_drift_is_identity():
    eta = (0.9, 0.7)

    def law(traj, k):
        return eta[k - 1] if k <= len(eta) else 0.5

    pair = envelope_walk(law, eta, UniformField(8), 500, stream="tight")
    assert pair.traj_l.positions == pair.traj_r.positions


def test_envelope_walk_matches_eta_walk():
    pair = envelope_walk(orrw_drift_law(1.0), (0.9, 0.9), UniformField(8), 800, stream="env")
    want = run_walk(EtaSystem((0.9, 0.9), UniformField(8), "env"), 800)
    assert pair.traj_r.positions == want.positions


def test_envelope_walk_hashes_each_block_once():
    field = CountingField(8)
    pair = envelope_walk(orrw_drift_law(1.0), (0.9, 0.9), field, 800, stream="env")
    assert field.calls and max(field.calls.values()) == 1
    eta_sys = pair.traj_r.system
    reference = UniformField(8)
    for _, site, index in field.calls:
        for level in range(8 * index + 1, 8 * index + 9):
            u = reference.value("env", site, level)
            assert eta_sys.view.value(site, level) == u
            assert (eta_sys.arrow_at(site, level) is RIGHT) == (u <= _eta_threshold(eta_sys.eta, level))


def test_envelope_walk_adaptive_lane_bookkeeping():
    pair = envelope_walk(orrw_drift_law(0.5), (0.8, 0.8), UniformField(12), 600, stream="bk")
    report = scan_identities(pair.traj_l)
    assert report.passed
    assert pair.relation_mode == "trileq"
    assert pair.provenance == "envelope"


def test_envelope_walk_contract_violation():
    # Above the bound, below 0, and NaN (every comparison with it is false)
    # are all outside [0, eta_k].
    for value in (0.95, -3.0, float("nan")):
        with pytest.raises(DriftContractError, match=r"outside the range \[0, 0.9\]") as exc:
            envelope_walk(lambda traj, k: value, (0.9,), UniformField(0), 50)
        err = exc.value
        assert (err.time, err.site, err.level) == (0, 0, 1)
        assert err.value == pytest.approx(value, nan_ok=True)
        assert err.bound == 0.9


def test_envelope_walk_drift_law_sees_the_growing_trajectory():
    calls = []

    def law(traj, k):
        pos = traj.positions[-1]
        calls.append((traj, pos, k, traj.visit_counts[pos], len(traj.positions)))
        return 0.5

    pair = envelope_walk(law, (0.9, 0.6), UniformField(5), 300, stream="seen")
    assert len(calls) == 300
    for n, (traj, pos, k, count, length) in enumerate(calls):
        assert traj is pair.traj_l
        assert length == n + 1
        assert pos == pair.traj_l.positions[n]
        assert count == k
        assert k == pair.traj_l.positions[: n + 1].count(pos)


def test_envelope_walk_containment_reads_the_eta_arrow(monkeypatch):
    # The first Right the adaptive walk takes, at its (site, visit) cell.
    walked = envelope_walk(orrw_drift_law(1.0), (0.9, 0.9), UniformField(2), 200, stream="c")
    positions = walked.traj_l.positions
    n = next(n for n in range(200) if positions[n + 1] > positions[n])
    cell = (positions[n], positions[: n + 1].count(positions[n]))
    arrow_at = EtaSystem.arrow_at

    def left_at_cell(self, site, level):
        return LEFT if (site, level) == cell else arrow_at(self, site, level)

    monkeypatch.setattr(EtaSystem, "arrow_at", left_at_cell)
    with pytest.raises(RuntimeError, match=rf"containment broken at site {cell[0]} level {cell[1]}$"):
        envelope_walk(orrw_drift_law(1.0), (0.9, 0.9), UniformField(2), 200, stream="c")


def test_envelope_walk_containment_over_trials():
    for trial in range(40):
        pair = envelope_walk(
            orrw_drift_law(1.0), (0.9, 0.9), UniformField(31), 500, stream=("ct", trial)
        )
        eta_sys = pair.traj_r.system
        adaptive = pair.traj_l.system
        for site, count in pair.traj_l.visit_counts.items():
            for level in range(1, count):
                if adaptive.arrow_at(site, level) is RIGHT:
                    assert eta_sys.arrow_at(site, level) is RIGHT


def test_envelope_walk_builds_its_forced_system_on_first_read():
    # The criterion 8 law, at horizon 500: the adaptive side's system is
    # built only when read, and then equals the eager build on every cell
    # that its walk or its zero-right walk, run twice as long, reads.
    for trial in range(40):
        pair = envelope_walk(
            orrw_drift_law(1.0), (0.9, 0.9), UniformField(9), 500, stream=("ew", trial)
        )
        positions = pair.traj_l.positions
        system = pair.traj_l.system
        assert type(system) is ExplicitSystem and "stacks" not in vars(system)
        eager = ExplicitSystem(consumed_stacks(positions), LEFT)
        walks = [run_walk(system, 1000), run_walk(zero_right_transform(system), 1000)]
        assert walks[0].positions[: len(positions)] == positions
        assert system.stacks == eager.stacks and system.default_fill is eager.default_fill
        for walk in walks:
            for site, visits in walk.visit_counts.items():
                for level in range(1, visits + 1):
                    assert system.arrow_at(site, level) is eager.arrow_at(site, level)


def test_envelope_trial_with_returns_never_builds_the_adaptive_stacks(monkeypatch):
    config = CampaignConfig("envelope", trials=3, horizon=3000, seed=4, include_timestamp=False)
    assert config.collect_returns
    rows = []
    with monkeypatch.context() as patch:
        for module in (core, couplings, campaign):  # wherever the name is bound
            patch.setattr(module, "consumed_stacks", lambda positions: pytest.fail("stacks built"),
                          raising=False)
        for trial in range(3):
            rows.append(campaign.replay_trial(config, trial))
    for row, pair in rows:
        assert "stacks" not in vars(pair.traj_l.system)
        want = run_walk(zero_right_transform(ExplicitSystem(
            consumed_stacks(pair.traj_l.positions), LEFT)), 3000)
        assert row["returns_l"] == want.visit_counts[0] - 1


def test_classify_alpha_boundaries():
    assert classify_alpha(2.5) == []
    assert classify_alpha(2.0) == ["upper-speed-nonpositive"]
    assert classify_alpha(1.0) == ["not-right-transient", "upper-speed-nonpositive"]
    assert classify_alpha(-1.5) == [
        "not-right-transient",
        "upper-speed-nonpositive",
        "left-transient",
    ]
    assert classify_alpha(-2.5) == [
        "not-right-transient",
        "upper-speed-nonpositive",
        "left-transient",
        "lower-speed-negative",
    ]


# -------------------------------------------------------- once-reinforced


def test_orrw_drift_law_values():
    law = orrw_drift_law(1.0)
    fresh = Trajectory([0], {0: 1})
    assert law(fresh, 1) == pytest.approx(1.0 / 3.0)
    seen = Trajectory([0, 1, 0], {0: 2, 1: 1})
    assert law(seen, 2) == 0.5
    for beta in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be a finite number >= 0"):
            orrw_drift_law(beta)

