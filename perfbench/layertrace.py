"""Per-layer spans recorded around the package's kernels, from outside it.

``Tracer.install`` replaces module-level functions (and two methods) of the
imported ``filtralab`` modules with wrappers that record a span per call:
its kernel name, start, end, parent span and the rise of the process's peak
RSS (``ru_maxrss``) across the call.  Spans stay in memory and are written
out once, when the run ends.  ``Tracer.uninstall`` puts the originals back.

A kernel belongs to the layer of what it computes, not of the module it
sits in: ``_brownian_block``, ``_pitman_block``, ``_supremum_block`` and
``_exact_last_passage`` live in ``scenarios`` but do ``paths`` work, and
``_honest_rate_parts`` and ``_emery_Z_from_y`` evaluate drift rates.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import statistics
import time

BLOCK = "scenarios.block"
# (module, attribute, metric) for every wrapped kernel.  The module is the
# namespace the caller looks the name up in, which for names imported with
# ``from .x import y`` is the importing module.
KERNELS = (
    ("filtralab.scenarios", "substream", "rng.substream"),
    ("filtralab.paths", "substream", "rng.substream"),
    ("filtralab.scenarios", "_brownian_block", "paths.brownian"),
    ("filtralab.scenarios", "_pitman_block", "paths.bes3"),
    ("filtralab.scenarios", "pitman_from_draws", "paths.bes3"),
    ("filtralab.scenarios", "_bridge_min", "paths.bridge_extrema"),
    ("filtralab.paths", "_bridge_min", "paths.bridge_extrema"),
    ("filtralab.paths", "_bridge_max", "paths.bridge_extrema"),
    ("filtralab.scenarios", "_supremum_block", "paths.record_times"),
    ("filtralab.scenarios", "_exact_last_passage", "paths.last_passage"),
    ("filtralab.scenarios", "_honest_rate_parts", "drifts.rate"),
    ("filtralab.scenarios", "_emery_Z_from_y", "drifts.rate"),
    ("filtralab.scenarios", "h_func_prime", "drifts.rate"),
    ("filtralab.scenarios", "emery_after_rate", "drifts.rate"),
    ("filtralab.scenarios", "supremum_instance_rate", "drifts.rate"),
    ("filtralab.scenarios", "_bridge_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_supremum_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_emery_before_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_emery_after_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_honest_before_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_honest_after_candidate", "scenarios.candidate"),
    ("filtralab.scenarios", "_bridge_block", BLOCK),
    ("filtralab.scenarios", "_emery_block", BLOCK),
    ("filtralab.scenarios", "_honest_block", BLOCK),
    ("filtralab.verify", "MomentAccumulator.add", "verify.reduce"),
    ("filtralab.verify", "TestFunctional.values", "verify.reduce"),
    ("filtralab.scenarios", "martingale_suite", "verify.suite"),
    ("filtralab.cli", "build_config", "cli.config"),
    ("filtralab.cli", "emit_report", "cli.emit"),
    ("filtralab.scenarios", "glue", "gluing.glue"),
    ("filtralab.scenarios", "reconstruction_residual", "gluing.glue"),
    # The driver dispatches through the SCENARIOS table, so the table entry
    # is what gets wrapped; the scenario is elemint calculus end to end.
    ("filtralab.scenarios", "SCENARIOS[elemint-check]", "elemint.check"),
)
# Every block builder, whatever layer its own work is charged to; those
# charged to BLOCK are wrapped to count blocks and to charge their
# temporaries to ``scenarios`` RSS.  BLOCK self time is the glue between the
# kernels a builder calls and shows only in the span coverage.
BLOCK_BUILDERS = {"_bridge_block", "_emery_block", "_honest_block", "_supremum_block", "_pitman_block"}
# Self times, as medians over traced rounds.
TIMES = tuple(sorted({metric + "_s" for _, _, metric in KERNELS if metric != BLOCK}))
# Call counts of one round: metric and the kernel names it counts.
COUNTS = {
    "rng.substream_calls": {"substream"},
    "drifts.rate_calls": {attr for _, attr, metric in KERNELS if metric == "drifts.rate"},
    "scenarios.blocks": BLOCK_BUILDERS,
    "verify.accumulator_adds": {"add"},
    "gluing.glue_calls": {"glue"},
}
# Layers whose RSS rise is reported, summed over all traced spans.
RSS_LAYERS = ("paths", "drifts", "scenarios")
# Kernels called once per path skip the two getrusage calls; a rise of the
# peak inside them is charged to the block kernel that calls them.
_NO_RSS = {"substream", "pitman_from_draws", "_bridge_max"}
OP = "op"


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder; spans are [name, metric, start, end, parent, rss rise KiB]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _enter(self, name: str, metric: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, rss0: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        if rss0 >= 0:
            span[5] = _maxrss_kib() - rss0
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        idx, rss0 = self._enter(name, OP), _maxrss_kib()
        try:
            yield
        finally:
            self._exit(idx, rss0)

    def _wrap(self, fn, name: str, metric: str):
        tracer, with_rss = self, name not in _NO_RSS

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name, metric)
            rss0 = _maxrss_kib() if with_rss else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, rss0)
            if metric == "cli.emit":
                tracer.spans[idx].append(os.path.getsize(args[2]))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, metric in KERNELS:
            owner = importlib.import_module(module)
            if "[" in attr:
                table, key = attr[:-1].split("[")
                table = getattr(owner, table)
                fn, put = table[key], functools.partial(table.__setitem__, key)
            else:
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                fn, put = getattr(owner, attr), functools.partial(setattr, owner, attr)
            put(self._wrap(fn, fn.__name__, metric))
            self._saved.append((put, fn))

    def uninstall(self) -> None:
        for put, fn in reversed(self._saved):
            put(fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "metric", "start", "end", "parent", "rss_rise_kib"],
                       "spans": self.spans}, fh)

    def _totals(self, first: int, last: int) -> dict:
        """Self times by metric, calls by kernel name and RSS rises by layer
        over spans[first:last], with the operations' time and its covered part."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        child_rss = [0] * len(spans)
        for _, _, t0, t1, parent, rss, *_ in spans:
            if parent >= first:
                child_time[parent - first] += t1 - t0
                child_rss[parent - first] += rss
        out: dict = {"op_s": 0.0, "covered_s": 0.0, "cli.report_bytes": 0}
        for i, (name, metric, t0, t1, parent, rss, *extra) in enumerate(spans):
            self_s = (t1 - t0) - child_time[i]
            if metric == OP:
                out["op_s"] += t1 - t0
                out["covered_s"] += (t1 - t0) - self_s
                continue
            layer = metric.split(".")[0]
            out[metric + "_s"] = out.get(metric + "_s", 0.0) + self_s
            out[layer + ".rss_rise_kib"] = out.get(layer + ".rss_rise_kib", 0) + rss - child_rss[i]
            out[name] = out.get(name, 0) + 1
            if extra:
                out["cli.report_bytes"] += extra[0]
        return out

    def metrics(self, rounds: list, overhead_pct: float) -> dict:
        """Per-layer metrics of the traced rounds, given as (first, last)
        span ranges: self times and coverage are medians over the rounds,
        counts and report bytes are those of the first round, RSS rises add
        up over every span."""
        per_round = [self._totals(first, last) for first, last in rounds]
        every = self._totals(0, len(self.spans))

        def med(key):
            return statistics.median(r.get(key, 0.0) for r in per_round)

        out = {key: med(key) for key in TIMES}
        for metric, names in COUNTS.items():
            out[metric] = sum(per_round[0].get(n, 0) for n in names)
        out["cli.report_bytes"] = per_round[0]["cli.report_bytes"]
        for layer in RSS_LAYERS:
            out[f"{layer}.rss_rise_mib"] = every.get(f"{layer}.rss_rise_kib", 0) / 1024.0
        out["trace.coverage_pct"] = 100.0 * med("covered_s") / med("op_s")
        out["trace.overhead_pct"] = overhead_pct
        return out
