"""Mutation checks: each fast path's tests must fail on a broken copy of it.

    python3 tools/mutants.py

A mutant is one textual replacement in one source file, with the test node
ids expected to fail on it.  For each mutant the script copies the checkout
(without `.git` and caches) to a temporary directory, replaces the mutant's
source text, which must occur exactly once, and runs only its tests there,
with the copy's `src/` on the path.  The mutant is killed when the tests
fail, and survives when they pass.  First, the tests of all mutants run
once on an unmutated copy: a test that fails there would kill every
mutant naming it and prove nothing.

Exit code 0 when every mutant is killed, 1 when any survives or its run
errs (no tests collected, a timeout), 2 on a usage error or a table entry
that does not apply to the checkout.  A full run of the table below takes
about 150 s on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
TIMEOUT_S = 600

CAMPAIGN = "src/arrowwalk/campaign.py"
CORE = "src/arrowwalk/core.py"
COUPLINGS = "src/arrowwalk/couplings.py"
VERIFY = "src/arrowwalk/verify.py"
CAMPAIGN_TESTS = "tests/test_campaign.py"
CHUNKS = "tests/test_chunks.py"
COUPLING_TESTS = "tests/test_couplings.py"
VERIFY_TESTS = "tests/test_verify.py"
STATS_REFERENCE = f"{CAMPAIGN_TESTS}::test_stats_walks_match_the_sequential_reference"
STATS_EDGES = f"{CAMPAIGN_TESTS}::test_stats_walks_match_the_sequential_reference_at_the_edges"
TO_EIGHT = f"{VERIFY_TESTS}::test_checker_matches_the_reference_checker_on_every_pair_to_length_eight"
SKIPPED_HALF = (
    f"{VERIFY_TESTS}::test_count_dominance_failing_on_a_skipped_half_step_matches_the_reference_checker"
)
ENVELOPE_PAIR = (
    f"{VERIFY_TESTS}::test_checker_matches_the_reference_checker_on_an_envelope_pair_at_horizon_ten_thousand"
)
CLOSED_FORM = f"{CHUNKS}::test_zero_right_walk_of_a_forced_system_is_its_closed_form_to_length_twelve"
HANDED_OVER = f"{CHUNKS}::test_handed_over_counts_are_the_prefix_counts"
CLOSED_FORM_HANDED_OVER = f"{CHUNKS}::test_handed_over_counts_of_the_closed_form_are_the_prefix_counts"
WALKED_EXTREMES = f"{VERIFY_TESTS}::test_check_pair_reads_the_extremes_of_walked_paths_off_their_counts"
SAMPLED_LANES = f"{COUPLING_TESTS}::test_sampled_limit_lanes_match_the_float_rule"
PARTITION_LANES = f"{COUPLING_TESTS}::test_partition_word_limits_match_the_float_rules"
TRIAL_REFERENCE = f"{CAMPAIGN_TESTS}::test_trial_rows_match_the_reference_trial"
STATS_PAYLOAD = f"{CAMPAIGN_TESTS}::test_stats_payloads_match_the_reference_stats"
STATS_DEEP = f"{CAMPAIGN_TESTS}::test_stats_walks_match_the_sequential_reference_on_deep_environments"
ENV_REFERENCES = f"{COUPLING_TESTS}::test_environment_comparisons_match_the_global_depth_references"
WORD_CELLS = f"{COUPLING_TESTS}::test_partition_word_cells_decide_at_each_limit_as_the_float_rule"
INPUT_REFUSALS = "tests/test_cli.py::test_environment_and_stack_entries_of_another_kind_are_refused"
FAMILY_RULE = "self._first, self._shift, self._under = 1, len(partition.blocks), LEFT"
CHAIN_RULE = "self._first, self._shift, self._under = partition.depth() + 1, -1, RIGHT"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    source: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # node ids expected to fail


MUTANTS = (
    # Words decided against integer limits, and the direct preceq loop.
    Mutant(
        "limit-floor",
        COUPLINGS,
        "return math.ceil(p * 2.0**53) << 11",
        "return math.floor(p * 2.0**53) << 11",
        (f"{COUPLING_TESTS}::test_limit_decides_as_the_float_comparison",),
    ),
    Mutant(
        "stats-raw-walk-ignores-listed-sites",
        CAMPAIGN,
        "listed = bool(lanes)\n    lane, cap = dflt, len(dflt) - 1\n    pos = 0",
        "listed = False\n    lane, cap = dflt, len(dflt) - 1\n    pos = 0",
        (STATS_REFERENCE, STATS_EDGES, STATS_PAYLOAD),
    ),
    Mutant(
        "stats-zero-right-walk-ignores-listed-sites",
        CAMPAIGN,
        "listed = bool(lanes)\n    lane, cap = dflt, len(dflt) - 1\n    words =",
        "listed = False\n    lane, cap = dflt, len(dflt) - 1\n    words =",
        (STATS_REFERENCE, STATS_EDGES, STATS_PAYLOAD),
    ),
    Mutant(
        "preceq-free-right-levels-left",
        CORE,
        "lead += (a_l is not RIGHT) - (a_r is LEFT)",
        "lead += (a_l is not RIGHT) - (a_r is not RIGHT)",
        ("tests/test_core.py::test_paths_admit_preceq_matches_the_favourable_completions_to_length_seven",),
    ),
    # The raw stats walk reads its maximum off the departure counts and its
    # end, so its counts stop one above each lane's list, not at it; they
    # are bytes unless the environment is deeper than 254 levels.  The
    # zero-right walk counts a return, late past `after`, per excursion.
    Mutant(
        "stats-max-off-by-one",
        CAMPAIGN,
        "return pos, max(left.index(0) - 1, pos)",
        "return pos, max(left.index(0), pos)",
        (STATS_REFERENCE, STATS_EDGES, STATS_PAYLOAD),
    ),
    Mutant(
        "stats-max-without-the-end",
        CAMPAIGN,
        "return pos, max(left.index(0) - 1, pos)",
        "return pos, left.index(0) - 1",
        (STATS_EDGES,),
    ),
    Mutant(
        "stats-count-cap-one-short",
        CAMPAIGN,
        "pad = (tail, tail)",
        "pad = (tail,)",
        (STATS_REFERENCE, STATS_EDGES),
    ),
    Mutant(
        "stats-deep-counts-in-bytes",
        CAMPAIGN,
        "if max([len(dflt), *map(len, sites.values())]) < 255:",
        "if True:",
        (STATS_DEEP,),
    ),
    Mutant(
        "stats-byte-counts-one-level-too-deep",
        CAMPAIGN,
        "*map(len, sites.values())]) < 255:",
        "*map(len, sites.values())]) < 256:",
        (STATS_DEEP,),
    ),
    Mutant(
        "trial-pool-merges-out-of-order",
        CAMPAIGN,
        "return list(pool.map(trial, range(trials), chunksize=-(-trials // (workers * 4))))",
        "return list(pool.map(trial, range(trials)[::-1], chunksize=-(-trials // (workers * 4))))",
        (f"{CAMPAIGN_TESTS}::test_the_trial_pool_merges_stats_trials_in_trial_order",
         f"{CAMPAIGN_TESTS}::test_workers_do_not_change_the_report"),
    ),
    Mutant(
        "stats-zero-right-late-at-after",
        CAMPAIGN,
        "        if n > after:\n            late += 1",
        "        if n >= after:\n            late += 1",
        (STATS_EDGES, STATS_PAYLOAD),
    ),
    # The walk's one comparison of a word with its limit, on the level read.
    Mutant(
        "chunk-decision-le",
        CORE,
        "pos += 1 if words[k - 1] < limits[k - 1] else -1",
        "pos += 1 if words[k - 1] <= limits[k - 1] else -1",
        (f"{CHUNKS}::test_sampled_chunk_decides_at_each_limit_as_the_float_rule",),
    ),
    Mutant(
        # Each level read against its neighbour's limit: 1 with 2, 3 with 4, ...
        "chunk-decision-swapped",
        CORE,
        "pos += 1 if words[k - 1] < limits[k - 1] else -1",
        "pos += 1 if words[k - 1] < limits[(k - 1) ^ 1] else -1",
        (f"{CHUNKS}::test_sampled_chunk_decides_at_each_limit_as_the_float_rule", TRIAL_REFERENCE),
    ),
    # What the systems hand the walk.
    Mutant(
        "limits-cached-without-their-lane",
        COUPLINGS,
        "lane = self._lanes.get(site, self._default)",
        "lane = self._default",
        (f"{CHUNKS}::test_sampled_chunk_walk_matches_the_per_arrow_walk",
         f"{CHUNKS}::test_chunk_equals_arrow_at_on_its_eight_levels",
         SAMPLED_LANES, TRIAL_REFERENCE),
    ),
    # A sampled lane is kept in blocks of eight, the last padded with the tail.
    Mutant(
        "sampled-listed-lanes-unpadded",
        COUPLINGS,
        "{site: blocks(lane) for site, lane in sites.items()}",
        "{site: tuple(lane[i : i + 8] for i in range(0, len(lane), 8)) for site, lane in sites.items()}",
        (SAMPLED_LANES, f"{CHUNKS}::test_sampled_chunk_walk_matches_the_per_arrow_walk",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "sampled-default-lane-unpadded",
        COUPLINGS,
        "self._default = blocks(default)",
        "self._default = tuple(default[i : i + 8] for i in range(0, len(default), 8))",
        (SAMPLED_LANES, TRIAL_REFERENCE),
    ),
    Mutant(
        "zero-right-site-0-not-forced",
        CORE,
        "            return self._zeros, _ALL_RIGHT\n",
        "            return self.base.cell_words(site, q)\n",
        (f"{CHUNKS}::test_sampled_chunk_walk_matches_the_per_arrow_walk",
         f"{CHUNKS}::test_explicit_chunk_walk_matches_the_per_arrow_walk",
         f"{CHUNKS}::test_chunk_equals_arrow_at_on_its_eight_levels", TRIAL_REFERENCE),
    ),
    # The partition sides' cells decided on one word: one rule for both
    # sides, fed by each state's first level, word shift and arrow below the
    # limit, so each side's rule can still be broken on its own.
    Mutant(
        "partition-word-cell-le",
        COUPLINGS,
        "return self._under if word < limit else self._over",
        "return self._under if word <= limit else self._over",
        (WORD_CELLS,),
    ),
    Mutant(
        # A side reads the lane of the site's own list where the first
        # environment lists the site.
        "partition-word-cell-reads-the-default-lane",
        COUPLINGS,
        "\n                    lane = self._sites.get(site, self._default)\n",
        "\n                    lane = self._default\n",
        (PARTITION_LANES, WORD_CELLS),
    ),
    Mutant(
        "family-singleton-first-level-off-by-one",
        COUPLINGS,
        FAMILY_RULE,
        "self._first, self._shift, self._under = 2, len(partition.blocks), LEFT",
        (PARTITION_LANES,),
    ),
    Mutant(
        "family-singleton-slot-off-by-one",
        COUPLINGS,
        FAMILY_RULE,
        "self._first, self._shift, self._under = 1, len(partition.blocks) + 1, LEFT",
        (WORD_CELLS, f"{COUPLING_TESTS}::test_partition_couplings_match_reference_cells",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "family-singleton-under-right",
        COUPLINGS,
        FAMILY_RULE,
        "self._first, self._shift, self._under = 1, len(partition.blocks), RIGHT",
        (WORD_CELLS, f"{COUPLING_TESTS}::test_partition_couplings_match_reference_cells",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "family-singleton-limit-lt",
        COUPLINGS,
        "return None if p == 1.0 else _limit_le(1.0 - p)",
        "return None if p == 1.0 else _limit(1.0 - p)",
        (WORD_CELLS,),
    ),
    Mutant(
        # Level depth + 1 is realized as a block of its own, on the link view.
        "chain-cell-first-level-off-by-one",
        COUPLINGS,
        CHAIN_RULE,
        "self._first, self._shift, self._under = partition.depth() + 2, -1, RIGHT",
        (PARTITION_LANES, f"{COUPLING_TESTS}::test_partition_couplings_match_reference_cells",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "chain-cell-reads-the-next-word",
        COUPLINGS,
        CHAIN_RULE,
        "self._first, self._shift, self._under = partition.depth() + 1, 0, RIGHT",
        (WORD_CELLS, f"{COUPLING_TESTS}::test_partition_couplings_match_reference_cells",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "chain-cell-under-left",
        COUPLINGS,
        CHAIN_RULE,
        "self._first, self._shift, self._under = partition.depth() + 1, -1, LEFT",
        (WORD_CELLS, f"{COUPLING_TESTS}::test_partition_couplings_match_reference_cells",
         TRIAL_REFERENCE),
    ),
    # The walk reads a site's words in place, as last handed out, copies its
    # first limits once into a list of its own and reads on from the chunks
    # it holds.
    Mutant(
        "walk-extends-the-handed-limits",
        CORE,
        "                        limits = list(limits)\n",
        "                        pass\n",
        (f"{CHUNKS}::test_walks_never_change_a_chunk_they_store",),
    ),
    Mutant(
        "walk-keeps-the-first-words-handed-out",
        CORE,
        "                        words, more = cell_words(pos, len(limits) >> 3)\n",
        "                        more = cell_words(pos, len(limits) >> 3)[1]\n",
        (f"{CHUNKS}::test_sampled_chunk_walk_matches_the_per_arrow_walk",
         f"{CHUNKS}::test_walks_never_change_a_chunk_they_store", TRIAL_REFERENCE),
    ),
    Mutant(
        "walk-rereads-the-first-chunk",
        CORE,
        "words, more = cell_words(pos, len(limits) >> 3)",
        "words, more = cell_words(pos, 0)",
        (f"{CHUNKS}::test_sampled_chunk_walk_matches_the_per_arrow_walk",
         f"{CHUNKS}::test_explicit_chunk_walk_matches_the_per_arrow_walk", TRIAL_REFERENCE),
    ),
    Mutant(
        # Site 0's zero words double from what they hold, short of a chunk
        # asked for two or more chunks past them.
        "zero-right-zeros-grow-one-doubling",
        CORE,
        "[0] * max(2 * len(self._zeros), 8 * q + 8)",
        "[0] * (2 * len(self._zeros))",
        (f"{CHUNKS}::test_chunk_equals_arrow_at_on_its_eight_levels",),
    ),
    # A fill hashes the block read into the site's words, at its own index:
    # one array of 8-byte words while the site is read in order, a list with
    # every block below it that no one read as gap slots once it is not.
    Mutant(
        "miss-skips-the-memo",
        COUPLINGS,
        "            memo[site] = words\n",
        "",
        (f"{COUPLING_TESTS}::test_field_stream_hashes_each_block_once",
         f"{COUPLING_TESTS}::test_shared_pair_hashes_each_block_once",
         f"{COUPLING_TESTS}::test_campaign_trial_hashes_pinned_blocks"),
    ),
    Mutant(
        "fill-stores-the-first-block-under-the-wrong-site",
        COUPLINGS,
        "                    memo[site] = block\n",
        "                    memo[-site] = block\n",
        (f"{COUPLING_TESTS}::test_field_stream_hashes_each_block_once",
         f"{COUPLING_TESTS}::test_campaign_trial_hashes_pinned_blocks", TRIAL_REFERENCE),
    ),
    Mutant(
        "fill-hashes-every-block-below",
        COUPLINGS,
        "words += [None] * (j - end)",
        "words += [a for b in range(end >> 3, q) for a in digest(site, b)]",
        (f"{COUPLING_TESTS}::test_partition_trials_hash_pinned_blocks",
         f"{COUPLING_TESTS}::test_view_reads_in_any_order_hash_exactly_the_blocks_read",
         f"{COUPLING_TESTS}::test_field_stream_hashes_each_block_once"),
    ),
    Mutant(
        "fill-stores-far-reads",
        COUPLINGS,
        "            elif j - end > _GAP_LIMIT:\n",
        "            elif False:\n",
        (f"{COUPLING_TESTS}::test_view_reads_far_past_a_sites_words_are_not_stored",),
    ),
    Mutant(
        # The digest's words read in the host's byte order, not big-endian.
        "fill-skips-the-byteswap",
        COUPLINGS,
        "            if swap:\n"
        "                words.byteswap()\n",
        "",
        (f"{COUPLING_TESTS}::test_fill_words_are_the_big_endian_words_of_the_digest",
         f"{COUPLING_TESTS}::test_view_reads_in_any_order_hash_exactly_the_blocks_read"),
    ),
    Mutant(
        # An array has no slot for None: its gap slots would read as word 0.
        "fill-keeps-the-array-across-a-gap",
        COUPLINGS,
        "                if type(words) is not list:\n"
        "                    words = list(words)\n"
        "                words += [None] * (j - end)\n",
        "                words.extend([0] * (j - end))\n",
        (f"{COUPLING_TESTS}::test_view_reads_in_any_order_hash_exactly_the_blocks_read",
         f"{COUPLING_TESTS}::test_field_stream_hashes_each_block_once",
         f"{COUPLING_TESTS}::test_cells_read_in_any_order_match_the_reference_cells"),
    ),
    # A reader that can skip blocks reads a gap slot through the fill.
    Mutant(
        "value-skips-the-gap-check",
        COUPLINGS,
        "        words = self._blocks.get(site)\n"
        "        if words is None or i >= len(words) or (word := words[i]) is None:\n",
        "        words = self._blocks.get(site)\n"
        "        if words is None or i >= len(words) or (word := words[i]) is None and False:\n",
        (f"{COUPLING_TESTS}::test_view_reads_in_any_order_hash_exactly_the_blocks_read",
         f"{COUPLING_TESTS}::test_field_stream_hashes_each_block_once"),
    ),
    Mutant(
        "partition-side-skips-the-gap-check",
        COUPLINGS,
        "                    if words is None or i >= len(words) or (word := words[i]) is None:\n",
        "                    if words is None or i >= len(words) or (word := words[i]) is None and False:\n",
        (f"{COUPLING_TESTS}::test_cells_read_in_any_order_match_the_reference_cells",),
    ),
    Mutant(
        "eta-skips-the-gap-check",
        COUPLINGS,
        "        words = self._memo.get(site)\n"
        "        if words is None or i >= len(words) or (word := words[i]) is None:\n",
        "        words = self._memo.get(site)\n"
        "        if words is None or i >= len(words) or (word := words[i]) is None and False:\n",
        (f"{COUPLING_TESTS}::test_cells_read_in_any_order_match_the_reference_cells",),
    ),
    Mutant(
        "sampled-chunk-skips-the-gap-check",
        COUPLINGS,
        "if words is None or not 0 <= i < len(words) or words[i] is None:",
        "if words is None or not 0 <= i < len(words):",
        (f"{COUPLING_TESTS}::test_view_reads_in_any_order_hash_exactly_the_blocks_read",
         f"{CHUNKS}::test_chunk_equals_arrow_at_on_its_eight_levels"),
    ),
    # The packed-int table serves block indexes 0 .. _INT_HI only: a
    # negative one must reach `_pack_index`, which refuses it.
    Mutant(
        "packed-table-serves-negative-indexes",
        COUPLINGS,
        "packed[index - _INT_LO] if 0 <= index <= _INT_HI else _pack_index(index))",
        "packed[index - _INT_LO] if index <= _INT_HI else _pack_index(index))",
        (f"{COUPLING_TESTS}::test_field_rejects_negative_block_indexes",
         f"{COUPLING_TESTS}::test_memo_misses_reject_bad_sites_and_indexes"),
    ),
    # Return walks that resume after the pair walk's right excursions.  A
    # resumed walk can first read a site above its first chunk, so the walk
    # must read up to level k in the step that first reads the site.
    Mutant(
        "walk-first-read-no-extension",
        CORE,
        "                if k > len(limits):\n",
        "                elif k > len(limits):\n",
        (f"{CHUNKS}::test_zero_right_walk_reads_a_site_first_past_its_first_chunk",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "walk-one-chunk-per-step",
        CORE,
        "                    while k > len(limits):\n",
        "                    if k > len(limits):\n",
        (f"{CHUNKS}::test_zero_right_walk_reads_a_site_first_past_its_first_chunk",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "returns-reuse-left-excursions",
        CORE,
        "            if positions[i + 1] > 0:\n                prefix += positions[i + 1 : j + 1]\n",
        "            if True:\n                prefix += positions[i + 1 : j + 1]\n",
        (f"{CHUNKS}::test_zero_right_walk_matches_the_full_rewalk", TRIAL_REFERENCE),
    ),
    Mutant(
        # On a walked system it only walks more, and the step pins catch it;
        # the forced system's closed form needs every excursion, so there
        # the returns go wrong.
        "returns-drop-the-last-excursion",
        CORE,
        "        if positions[i + 1] > 0:\n            prefix += positions[i + 1 :]\n",
        "        if False:\n            prefix += positions[i + 1 :]\n",
        ("tests/test_trace.py::test_return_walks_walk_only_the_steps_the_pair_never_took",
         TRIAL_REFERENCE),
    ),
    Mutant(
        "returns-resume-at-an-end-left-of-0",
        CORE,
        "        if positions[i + 1] > 0:\n            prefix += positions[i + 1 :]\n",
        "        if True:\n            prefix += positions[i + 1 :]\n",
        (f"{CHUNKS}::test_zero_right_walk_matches_the_full_rewalk", TRIAL_REFERENCE),
    ),
    Mutant(
        "returns-reuse-a-path-not-walked",
        CORE,
        "    if not traj._walked:\n        return run_walk(system, traj.horizon)\n",
        "",
        (f"{CHUNKS}::test_zero_right_walk_walks_imported_paths_in_full",),
    ),
    # The counts a return walk starts from are the prefix's, and a copy:
    # the walk extends them in place, so the pair walk's own would lose its
    # sites left of 0 and gain the return walk's steps.
    Mutant(
        "returns-count-at-0-misses-the-start",
        CORE,
        "visits[0] = 1 + returns",
        "visits[0] = returns",
        (HANDED_OVER, f"{CHUNKS}::test_zero_right_walk_matches_the_full_rewalk", TRIAL_REFERENCE),
    ),
    Mutant(
        "returns-hand-over-the-pair-walks-counts",
        CORE,
        "visits = dict(traj.visit_counts)",
        "visits = traj.visit_counts",
        (f"{CHUNKS}::test_zero_right_walk_leaves_the_walk_it_reuses_as_it_was",),
    ),
    # The return walk of a path's own forced system, in closed form past the
    # right excursions: down to 0, then 1, 0, ..., and only on that system.
    Mutant(
        "returns-closed-form-bounce-swapped",
        CORE,
        "prefix += (1, 0) * ((traj.horizon + 2 - len(prefix)) // 2)",
        "prefix += (0, 1) * ((traj.horizon + 2 - len(prefix)) // 2)",
        (CLOSED_FORM, f"{CHUNKS}::test_zero_right_walk_matches_the_full_rewalk",
         CLOSED_FORM_HANDED_OVER),
    ),
    Mutant(
        "returns-closed-form-descent-stops-above-0",
        CORE,
        "prefix += range(end - 1, -1, -1)",
        "prefix += range(end - 1, 0, -1)",
        (CLOSED_FORM, f"{CHUNKS}::test_zero_right_walk_matches_the_full_rewalk",
         CLOSED_FORM_HANDED_OVER),
    ),
    Mutant(
        "returns-closed-form-alternation-count-off-by-one",
        CORE,
        "visits[0] += bounce // 2",
        "visits[0] += (bounce + 1) // 2",
        (CLOSED_FORM, CLOSED_FORM_HANDED_OVER, TRIAL_REFERENCE),
    ),
    Mutant(
        "returns-closed-form-on-any-left-fill-explicit-system",
        CORE,
        "isinstance(base, ExplicitSystem) and base._forced_by is traj.positions",
        "isinstance(base, ExplicitSystem) and base.default_fill is LEFT",
        (f"{CHUNKS}::test_zero_right_walk_walks_the_rest_on_any_other_system",),
    ),
    # The adaptive side's system is built only when read.
    Mutant(
        "envelope-system-built-eagerly",
        COUPLINGS,
        "traj_l.system = ExplicitSystem.forced(positions)",
        "traj_l.system = ExplicitSystem(ExplicitSystem.forced(positions).stacks, LEFT)",
        (f"{COUPLING_TESTS}::test_envelope_trial_with_returns_never_builds_the_adaptive_stacks",
         f"{COUPLING_TESTS}::test_envelope_walk_builds_its_forced_system_on_first_read"),
    ),
    # The envelope's containment check reads the envelope system's arrow,
    # not the adaptive walk's own word.
    Mutant(
        "envelope-containment-reads-its-own-word",
        COUPLINGS,
        "if envelope_arrow(pos, k) is not RIGHT:",
        "if (words[k - 1] >> 11) > p * scale:",
        (f"{COUPLING_TESTS}::test_envelope_walk_containment_reads_the_eta_arrow",),
    ),
    # The pair checker decides the five statements count dominance implies
    # from the step where it fails, and the rest on the steps that can
    # change them.
    Mutant(
        "checker-late-extremes-include-the-failing-step",
        VERIFY,
        "max_l, min_l = max(pos_l[:t]), min(pos_l[:t])",
        "max_l, min_l = max(pos_l[:t + 1]), min(pos_l[:t + 1])",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-implied-never-decided",
        VERIFY,
        "            if not on_count:\n",
        "            if False:\n",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-kth-first-visit-le",
        VERIFY,
        "if len(seen) < ka:",
        "if len(seen) <= ka:",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-kth-second-path-le",
        VERIFY,
        "if nl[ib] < kb:",
        "if nl[ib] <= kb:",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-adjacency-skips-r-site",
        VERIFY,
        "                        if x is None:\n",
        "                        if False:\n",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        # Narrower than the one above: only R's right neighbour goes unread.
        "checker-adjacency-skips-r-right-neighbour",
        VERIFY,
        "x = b + 1",
        "x = None",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        # `check_pair` validates every path that no walk built.
        "check-pair-trusts-imported-paths",
        VERIFY,
        "_visits=(traj_l.visit_counts, traj_r.visit_counts) if walked else None,",
        "_visits=(traj_l.visit_counts, traj_r.visit_counts),",
        (f"{CHUNKS}::test_check_pair_validates_only_paths_it_did_not_walk",
         f"{VERIFY_TESTS}::test_check_pair_scans_and_validates_hand_built_trajectories"),
    ),
    Mutant(
        # The extremes of walked paths are read off their visit counts.
        "checker-extreme-off-by-one",
        VERIFY,
        "low_r, top_r = min(sites_r), max(sites_r)",
        "low_r, top_r = min(sites_r) + 1, max(sites_r)",
        (WALKED_EXTREMES, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-record-vacuity-or",
        VERIFY,
        '"record_lead": top_r <= 0 and low_l >= 0,',
        '"record_lead": top_r <= 0 or low_l >= 0,',
        (f"{VERIFY_TESTS}::test_identical_paths_pass_with_expected_vacuity", TO_EIGHT,
         TRIAL_REFERENCE),
    ),
    # It skips a half-step only at a site the other walk never reaches, and
    # reads R's skipped leads off the paths' extremes.
    Mutant(
        "checker-skips-r-at-l-max",
        VERIFY,
        "if b <= top_l:",
        "if b <= top_l - 1:",
        (TO_EIGHT, SKIPPED_HALF, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-skips-l-at-r-min",
        VERIFY,
        "if a >= low_r:",
        "if a >= low_r + 1:",
        (TO_EIGHT, SKIPPED_HALF, ENVELOPE_PAIR, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-kth-lists-stop-short-of-l-max",
        VERIFY,
        "for i in range(low_r + off, top_l + off + 1):",
        "for i in range(low_r + off, top_l + off):",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-kth-lists-start-right-of-r-min",
        VERIFY,
        "for i in range(low_r + off, top_l + off + 1):",
        "for i in range(low_r + off + 1, top_l + off + 1):",
        (TO_EIGHT, TRIAL_REFERENCE),
    ),
    Mutant(
        "checker-lead-vacuity-ignores-skipped-leads",
        VERIFY,
        "hyp_plus = top_r > top_l",
        "hyp_plus = False",
        (TO_EIGHT,),
    ),
    # Input files: a probability is a JSON number in [0, 1], a lane or a
    # block a JSON array, `sites` and `stacks` JSON objects, an arrow "L" or
    # "R", a site key an integer as `str` writes it, and no object repeats a
    # key; each refusal names its key.
    Mutant(
        "prob-accepts-bools",
        CORE,
        "    if type(value) not in (int, float):\n",
        "    if not isinstance(value, (int, float)):\n",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "prob-range-left-to-the-environment",
        CORE,
        "    if not 0.0 <= value <= 1.0:\n",
        "    if False:\n",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "env-lane-probabilities-unread",
        COUPLINGS,
        'json_prob(p, f"a probability in {name}")',
        "p",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "env-tail-unread",
        COUPLINGS,
        'json_prob(obj.get("tail", 0.5), "tail"),',
        'obj.get("tail", 0.5),',
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "array-of-another-kind-iterated",
        CORE,
        "    if not isinstance(value, list):\n",
        "    if False:\n",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "object-of-another-kind-read",
        CORE,
        "    if not isinstance(value, Mapping):\n        raise ValueError(f\"{name} must be a JSON object",
        "    if False:\n        raise ValueError(f\"{name} must be a JSON object",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "arrow-of-another-kind-read-by-arrow",
        CORE,
        '    if value not in ("L", "R"):\n',
        "    if False:\n",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "stack-of-another-kind-iterated",
        CORE,
        "            if not isinstance(value, (str, list)):\n",
        "            if False:\n",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "repeated-key-keeps-the-last",
        CORE,
        "json.load(fh, object_pairs_hook=_unrepeated)",
        "json.load(fh)",
        ("tests/test_cli.py::test_a_key_repeated_in_one_object_is_refused",),
    ),
    Mutant(
        "env-site-key-read-by-int",
        COUPLINGS,
        'json_site(s, "a site in sites")',
        "int(s)",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "stacks-site-key-read-by-int",
        CORE,
        'json_site(site, "a site in stacks")',
        "int(site)",
        (INPUT_REFUSALS,),
    ),
    Mutant(
        "site-key-spelling-unchecked",
        CORE,
        "if site is None or str(site) != key:",
        "if site is None:",
        (INPUT_REFUSALS,),
    ),
    # Where the layers meet: a trial's row and a stats payload against the
    # same rebuilt from the references alone.
    Mutant(
        "trial-max-r-off-the-left-walk",
        CAMPAIGN,
        '"max_r": max(pair.traj_r.visit_counts),',
        '"max_r": max(pair.traj_l.visit_counts),',
        (TRIAL_REFERENCE,),
    ),
    Mutant(
        "trial-returns-sides-swapped",
        CAMPAIGN,
        "    return out[0], out[1]\n",
        "    return out[1], out[0]\n",
        (TRIAL_REFERENCE,),
    ),
    Mutant(
        "trial-block-family-members-reversed",
        CAMPAIGN,
        "couple_block_family(base, partition, [slow, fast], field,",
        "couple_block_family(base, partition, [fast, slow], field,",
        (TRIAL_REFERENCE,),
    ),
    Mutant(
        "stats-returns-off-the-raw-walks",
        CAMPAIGN,
        '"returns": _summary([returns for returns, _ in plus]),',
        '"returns": _summary([returns for returns, _ in raw]),',
        (STATS_PAYLOAD,),
    ),
    # The environment layer: each lane compared to its own depth, one block
    # sort for both orders, and random environments decoded from words.
    Mutant(
        # The level above the lists, where the two tails meet, goes unread.
        "lane-pairs-without-the-level-above",
        COUPLINGS,
        "n = max(len(la), len(lb), depth) + 1",
        "n = max(len(la), len(lb), depth)",
        (ENV_REFERENCES, f"{COUPLING_TESTS}::test_env_leq_pointwise_witnesses",
         f"{COUPLING_TESTS}::test_env_order_reports"),
    ),
    Mutant(
        "env-order-compares-covered-levels",
        COUPLINGS,
        "if x != y and level not in covered:",
        "if x != y:",
        (ENV_REFERENCES, f"{COUPLING_TESTS}::test_env_order_reports"),
    ),
    Mutant(
        "sorted-env-ignores-descending",
        COUPLINGS,
        "sorted((padded[l - 1] for l in block), reverse=descending)",
        "sorted((padded[l - 1] for l in block), reverse=False)",
        (ENV_REFERENCES, f"{COUPLING_TESTS}::test_sorted_env_reaches_all_permutations", TRIAL_REFERENCE),
    ),
    Mutant(
        "random-env-words-decoded-one-bit-short",
        CAMPAIGN,
        "(a >> 11) * _U64_SCALE",
        "(a >> 10) * _U64_SCALE",
        (TRIAL_REFERENCE,),
    ),
)


def problems() -> list[str]:
    """Why each entry would not apply to the checkout: its source text must
    occur exactly once, and each test it names must exist."""
    found = []
    names = [m.name for m in MUTANTS]
    for name in sorted({n for n in names if names.count(n) > 1}):
        found.append(f"{name}: the name is used twice")
    for m in MUTANTS:
        path = ROOT / m.path
        if not path.is_file():
            found.append(f"{m.name}: no file {m.path}")
            continue
        count = path.read_text(encoding="utf-8").count(m.source)
        if count != 1:
            found.append(f"{m.name}: its source text occurs {count} times in {m.path}")
        if m.source == m.replacement:
            found.append(f"{m.name}: the replacement changes nothing")
        if not m.tests:
            found.append(f"{m.name}: names no test")
        for node in m.tests:
            file, _, test = node.partition("::")
            test_path = ROOT / file
            if not test_path.is_file() or f"def {test}(" not in test_path.read_text(encoding="utf-8"):
                found.append(f"{m.name}: no test {node}")
    return found


def copy_checkout(into: Path) -> Path:
    dest = into / "checkout"
    shutil.copytree(ROOT, dest, ignore=IGNORED)
    return dest


def run_tests(checkout: Path, tests) -> tuple[int, str]:
    """pytest's exit code on `tests` in `checkout`, and its last line."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()[-200:]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    bad = problems()
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2

    all_tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="arrowwalk-mutants-") as tmp:
        code, last = run_tests(copy_checkout(Path(tmp)), all_tests)
    if code != 0:
        print(f"the tests fail on the unmutated checkout ({last}); no mutant can be judged",
              file=sys.stderr)
        return 2

    not_killed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="arrowwalk-mutants-") as tmp:
            checkout = copy_checkout(Path(tmp))
            path = checkout / m.path
            path.write_text(path.read_text(encoding="utf-8").replace(m.source, m.replacement),
                            encoding="utf-8")
            code, last = run_tests(checkout, m.tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
        if code != 1:
            not_killed += 1
        print(f"{verdict:<9} {m.name} ({time.perf_counter() - start:.1f} s): {last}", flush=True)
    print(f"{len(MUTANTS) - not_killed} of {len(MUTANTS)} mutants killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
