"""Span tracing at the library's layer boundaries, installed from outside.

`Tracer.install` replaces the public functions and class methods that mark
each layer with wrappers that record a span (name, start, end, parent span,
trial) around every call, and `uninstall` puts the originals back.  Nothing
under `src/` knows about it.  Spans are kept in flat arrays in memory and
written out once, after the traced pass.

Layers and the boundaries wrapped for them:

    field     UniformField.block, UniformField.value
    systems   arrow_at of SampledCookieSystem, EtaSystem,
              BlockSampledSystem, ChainEndSystem
    walk      run_walk (named by the walked system's kind) and
              envelope_walk (its inline adaptive loop)
    checker   PairChecker.run
    campaign  run_campaign, run_trial
    stats     speed_and_recurrence_stats

A span's self time is its duration minus the durations of its child spans;
children are nested calls, so they never overlap one another.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from array import array
from time import perf_counter
from typing import Callable

import arrowwalk
from arrowwalk import campaign, cli, core, couplings, verify

# Walk kinds by the class of the walked system.  A class not listed here
# (a later system type) is traced as "other".
_KIND_OF_CLASS = {
    "SampledCookieSystem": "sampled",
    "EtaSystem": "eta",
    "ExplicitSystem": "explicit",
    "BlockSampledSystem": "block",
    "ChainEndSystem": "chain",
}
WALK_KINDS = ("sampled", "eta", "explicit", "block", "chain", "zero_right", "adaptive")
_TIME_UNITS = ("us", "ms", "s")
# Zero-right return walks, the only walks a trial runs after its pair.
_RETURN_SPANS = ("walk.zero_right", "walk.explicit")
SYSTEM_CLASSES = ("SampledCookieSystem", "EtaSystem", "BlockSampledSystem", "ChainEndSystem")

# Counts that depend only on the inputs: two traced passes over the same
# chunks must agree on them exactly.
EXACT_COUNTS = ("field.block_calls", "field.value_calls", "walk.steps",
                "checker.pair_steps", "systems.arrow_queries")

_MODULES = (arrowwalk, core, couplings, campaign, verify, cli)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _walk_kind(system) -> str:
    """The kind a walk over `system` is traced as.  A zero-right return walk
    over an explicit system (the envelope's adaptive path) is "explicit": it
    is the only walk of an explicit system in the workloads."""
    if type(system).__name__ == "_ZeroRightSystem":
        return "explicit" if type(system.base).__name__ == "ExplicitSystem" else "zero_right"
    return _KIND_OF_CLASS.get(type(system).__name__, "other")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.units = array("q")
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn: Callable, label, opens_trial: bool = False) -> Callable:
        """Wrap `fn` in a span.  `label` is a fixed name, or a function of
        the call's (args, kwargs) giving (name, units of work)."""
        names, start, end = self.name, self.start, self.end
        parent, trial, units, stack = self.parent, self.trial, self.units, self._stack
        fixed = self._id(label) if isinstance(label, str) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fixed is None:
                name, work = label(args, kwargs)
                names.append(tracer._id(name))
            else:
                work = 0
                names.append(fixed)
            if opens_trial:
                tracer._trial = tracer._trials
                tracer._trials += 1
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            trial.append(tracer._trial)
            units.append(work)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if opens_trial:
                    tracer._trial = -1

        return traced

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn: Callable, label, opens_trial: bool = False) -> None:
        """Replace `fn` under its name in every arrowwalk module that holds it."""
        wrapper = self._span(fn, label, opens_trial)
        for module in _MODULES:
            if module.__dict__.get(fn.__name__) is fn:
                self._patch(module, fn.__name__, wrapper)

    def install(self) -> None:
        field_cls = couplings.UniformField
        for attr in ("block", "value"):
            self._patch(field_cls, attr, self._span(getattr(field_cls, attr), f"field.{attr}"))
        for cls_name in SYSTEM_CLASSES:
            cls = getattr(couplings, cls_name)
            self._patch(cls, "arrow_at", self._span(cls.arrow_at, f"systems.{cls_name}"))
        checker = verify.PairChecker
        self._patch(checker, "run", self._span(
            checker.run, lambda a, k: ("checker.run", len(a[0].positions_l) - 1)))

        self._patch_function(core.run_walk, lambda a, k: (
            "walk." + _walk_kind(_arg(a, k, 0, "system")),
            _arg(a, k, 1, "horizon")))
        self._patch_function(couplings.envelope_walk, lambda a, k: (
            "walk.adaptive", _arg(a, k, 3, "horizon")))
        self._patch_function(campaign.run_campaign, lambda a, k: (
            "campaign.run_campaign", _arg(a, k, 0, "config").effective_trials()))
        self._patch_function(campaign.run_trial, "campaign.run_trial", opens_trial=True)
        self._patch_function(campaign.speed_and_recurrence_stats, lambda a, k: (
            "stats.speed_and_recurrence_stats",
            2 * _arg(a, k, 1, "trials") * _arg(a, k, 2, "horizon")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Every span as one tab-separated line, times in microseconds from
        the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\ttrial\tunits\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{(s - t0) * 1e6:.3f}\t{(e - t0) * 1e6:.3f}\t{p}\t{t}\t{u}\n"
                for i, (n, s, e, p, t, u) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.trial, self.units))
            )

    def metrics(self, traced_wall_s: float, overhead_frac: float,
                time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, from the spans and
        the traced pass's wall time.  Times (not shares) are multiplied by
        `time_scale`, the pass's normalised over its wall time.  A per-unit
        time whose unit count is zero (the layer did not run) reads 0."""
        n = len(self.start)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]

        count: dict[str, int] = {}
        total: dict[str, float] = {}
        work: dict[str, int] = {}
        by_layer_self: dict[str, float] = {}
        missed_queries: set[int] = set()
        adaptive_walk_children = 0.0
        trial_time: list[float] = []
        trial_check = trial_returns = 0.0
        campaign_self: list[float] = []
        for i in range(n):
            name = self.names[self.name[i]]
            d = dur[i]
            s = d - covered[i]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            work[name] = work.get(name, 0) + self.units[i]
            layer = layer_of[self.name[i]]
            by_layer_self[layer] = by_layer_self.get(layer, 0.0) + s
            if name == "campaign.run_trial":
                trial_time.append(d)
            elif name == "campaign.run_campaign":
                campaign_self.append(s)
            p = self.parent[i]
            if p < 0:
                continue
            parent_name = self.names[self.name[p]]
            if layer == "field" and parent_name.startswith("systems."):
                missed_queries.add(p)
            elif layer == "walk" and parent_name == "walk.adaptive":
                adaptive_walk_children += d
            if parent_name == "campaign.run_trial":
                if name == "checker.run":
                    trial_check += d
                elif name in _RETURN_SPANS:
                    trial_returns += d

        def per(numer: float, denom: float) -> float:
            return numer / denom if denom else 0.0

        def names_in(layer: str) -> list[str]:
            return [name for name in count if name.split(".", 1)[0] == layer]

        steps = {kind: work.get(f"walk.{kind}", 0) for kind in WALK_KINDS}
        loop_steps = sum(work[name] for name in names_in("walk"))
        stats_steps = work.get("stats.speed_and_recurrence_stats", 0)
        all_steps = loop_steps + stats_steps
        inclusive = {kind: total.get(f"walk.{kind}", 0.0) for kind in WALK_KINDS}
        inclusive["adaptive"] -= adaptive_walk_children

        blocks = count.get("field.block", 0)
        queries = sum(count[name] for name in names_in("systems"))
        pair_steps = work.get("checker.run", 0)
        trials = sorted(trial_time)
        trial_total = sum(trials)
        if len(trials) >= 2:
            cuts = statistics.quantiles(trials, n=20, method="inclusive")
            p50, p95 = cuts[9], cuts[18]
        else:
            p50 = p95 = trials[0] if trials else 0.0

        out: dict[str, tuple[float, str]] = {
            "field.block_calls": (blocks, "count"),
            "field.value_calls": (count.get("field.value", 0), "count"),
            "field.blocks_per_step": (per(blocks, all_steps), "blocks/step"),
            "field.us_per_block": (per(by_layer_self.get("field", 0.0), blocks) * 1e6, "us"),
            "field.share": (per(by_layer_self.get("field", 0.0), traced_wall_s), "frac"),
            "systems.arrow_queries": (queries, "count"),
            "systems.memo_hit_ratio": (per(queries - len(missed_queries), queries), "frac"),
            "systems.self_us_per_query": (
                per(by_layer_self.get("systems", 0.0), queries) * 1e6, "us"),
            "walk.steps": (all_steps, "count"),
        }
        for kind in WALK_KINDS:
            out[f"walk.steps.{kind}"] = (steps[kind], "count")
        for kind in WALK_KINDS:
            out[f"walk.us_per_step.{kind}"] = (per(inclusive[kind], steps[kind]) * 1e6, "us")
        out.update({
            "walk.self_us_per_step": (per(by_layer_self.get("walk", 0.0), loop_steps) * 1e6, "us"),
            "checker.pair_steps": (pair_steps, "count"),
            "checker.us_per_pair_step": (per(total.get("checker.run", 0.0), pair_steps) * 1e6, "us"),
            "checker.share": (per(total.get("checker.run", 0.0), traced_wall_s), "frac"),
            "campaign.trial_ms_p50": (p50 * 1e3, "ms"),
            "campaign.trial_ms_p95": (p95 * 1e3, "ms"),
            "campaign.trial_samples": (len(trials), "count"),
            "campaign.build_share": (
                per(trial_total - trial_check - trial_returns, trial_total), "frac"),
            "campaign.returns_share": (per(trial_returns, trial_total), "frac"),
            "campaign.check_share": (per(trial_check, trial_total), "frac"),
            "campaign.self_s": (
                statistics.fmean(campaign_self) if campaign_self else 0.0, "s"),
            "stats.us_per_step": (
                per(total.get("stats.speed_and_recurrence_stats", 0.0), stats_steps) * 1e6, "us"),
            "trace.overhead_frac": (overhead_frac, "frac"),
        })
        return {name: (value * time_scale if unit in _TIME_UNITS else value, unit)
                for name, (value, unit) in out.items()}
