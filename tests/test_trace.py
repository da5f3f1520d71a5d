"""The bench tracer's hooks on the library: every attribute it wraps must
exist, and wrapping must leave reports unchanged.

`bench/spans.py` replaces class attributes and module functions by name,
so renaming or removing one of them breaks `--trace 1` runs; this test
makes such a change fail here too.
"""

import importlib.util
from pathlib import Path

from arrowwalk import FAMILIES, CampaignConfig, UniformField, campaign

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("arrowwalk_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_every_family():
    configs = [CampaignConfig(family, trials=1, horizon=60, seed=3,
                              include_timestamp=False,
                              **({"kmax": 3} if family == "ce1" else {}))
               for family in FAMILIES]
    want = [campaign.run_campaign(config).to_json() for config in configs]
    block, value = UniformField.block, UniformField.value
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        # Looked up on the module, as the bench does, so the wrapper runs.
        got = [campaign.run_campaign(config).to_json() for config in configs]
    finally:
        tracer.uninstall()
    assert UniformField.block is block and UniformField.value is value
    assert got == want
    metrics = tracer.metrics(traced_wall_s=1.0, overhead_frac=0.0)
    assert metrics["campaign.trial_samples"][0] == len(FAMILIES)
    assert metrics["field.block_calls"][0] > 0
    assert metrics["field.value_calls"][0] == 0
    assert metrics["systems.arrow_queries"][0] > 0
    assert metrics["checker.pair_steps"][0] > 0
