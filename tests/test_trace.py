"""The bench tracer's hooks on the library: every attribute it wraps must
exist, and wrapping must leave reports unchanged.

`bench/spans.py` replaces class attributes and module functions by name,
so renaming or removing one of them breaks `--trace 1` runs; this test
makes such a change fail here too.  The return walks run through
`run_walk` with the full horizon, so the tracer counts their nominal steps;
the steps they actually walk are pinned without it (none, on the envelope's
adaptive side).
"""

import importlib.util
from pathlib import Path

from arrowwalk import FAMILIES, CampaignConfig, UniformField, campaign, core

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("arrowwalk_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Exact counts of one traced campaign per family at the config below, as
# (field.block_calls, systems.arrow_queries, walk.steps, checker.pair_steps);
# field.value_calls is 0 for every family.  A change to these counts is a
# change to what the library computes, so a refactor must keep them.  The
# tracer wraps neither `UniformField._hasher`, through which the
# `FieldStream` memos hash, nor `UniformField.words`, from which a trial's
# random environments are drawn, so field.block_calls is 0: the memos' counts
# are pinned in `tests/test_couplings.py` instead.  Nor does it wrap
# `cell_words`: `run_walk` reads sampled systems eight words at a time, so
# the sampled families query no `arrow_at` at all.  walk.steps counts the
# horizon of every `run_walk`, the zero-right return walks included, though
# those walk only the steps past the pair walk's right excursions (pinned in
# RETURN_STEPS); the arrows they reuse are not queried again.
EXACT = {
    "shared-uniform": (0, 0, 240, 60),
    "block-family": (0, 128, 240, 60),
    "swap-chain": (0, 173, 240, 60),
    "envelope": (0, 88, 240, 60),
    "independent-control": (0, 0, 240, 60),
    "ce1": (0, 0, 240, 60),
    "ce2": (0, 0, 0, 28),
}

# The steps each side's return walk walks past the pair walk's right
# excursions, (left, right), at the config below; ce2 carries no systems.
# The envelope's adaptive side carries the system its path forces, whose
# return walk past the excursions is a closed form handed to `run_walk`
# whole, so it walks none.
RETURN_STEPS = {
    "shared-uniform": (60, 58),
    "block-family": (4, 4),
    "swap-chain": (60, 0),
    "envelope": (0, 0),
    "independent-control": (50, 36),
    "ce1": (0, 0),
    "ce2": (),
}


def config_of(family):
    # ce2 does not read the horizon: it runs at the default, its pair 28 steps long.
    return CampaignConfig(family, trials=1, horizon=1000 if family == "ce2" else 60, seed=3,
                          include_timestamp=False, **({"kmax": 3} if family == "ce1" else {}))


def test_tracer_hooks_every_family():
    spans = load_spans()
    assert set(EXACT) == set(FAMILIES)
    block, value = UniformField.block, UniformField.value
    for family in FAMILIES:
        config = config_of(family)
        want = campaign.run_campaign(config).to_json()
        tracer = spans.Tracer()
        try:
            tracer.install()
            # Looked up on the module, as the bench does, so the wrapper runs.
            got = campaign.run_campaign(config).to_json()
        finally:
            tracer.uninstall()
        assert UniformField.block is block and UniformField.value is value
        assert got == want, family
        metrics = tracer.metrics(traced_wall_s=1.0, overhead_frac=0.0)
        assert metrics["campaign.trial_samples"][0] == 1, family
        counts = {name: metrics[name][0] for name in spans.EXACT_COUNTS}
        blocks, queries, steps, pair_steps = EXACT[family]
        assert counts == {
            "field.block_calls": blocks,
            "field.value_calls": 0,
            "walk.steps": steps,
            "checker.pair_steps": pair_steps,
            "systems.arrow_queries": queries,
        }, family


def test_return_walks_walk_only_the_steps_the_pair_never_took(monkeypatch):
    run_walk = core.run_walk
    for family in FAMILIES:
        config = config_of(family)
        pair, _ = campaign._build_pair(config, 0, UniformField(config.seed))
        walked = []
        monkeypatch.setattr(core, "run_walk", lambda system, horizon, _start=None: (
            walked.append(horizon + 1 - len((_start or ([0],))[0]))
            or run_walk(system, horizon, _start=_start)))
        campaign._returns_to_zero(pair)
        monkeypatch.setattr(core, "run_walk", run_walk)
        assert tuple(walked) == RETURN_STEPS[family], family
