"""Span tracing of diskspdc's public functions, from outside the package.

`install(spans_dir)` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, process id, counters) in
memory.  Every module attribute that holds the original function object is
patched, because callers resolve functions through the name they imported
(`pipeline` calls `generate_events`, not `events.generate_events`).

Pool workers forked after `install` inherit the wrappers.  Each one starts
with an empty span list and writes its spans to `spans_dir` when it exits,
so `collect` can merge them with the parent's.  Under the `spawn` or
`forkserver` start methods workers do not inherit the wrappers and record
nothing; the numbers then cover the parent process only.

A traced function that no longer exists is reported by `install` as
missing; its metrics are left out of the result rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from multiprocessing import util as mp_util

# metric prefix -> (module, attribute path) of each function whose calls
# make up that layer.  Two entries may share a prefix.
TARGETS = (
    ("events.generate", "diskspdc.events", "generate_events"),
    ("events.channel_times", "diskspdc.events", "EventStream.channel_times"),
    ("events.write", "diskspdc.events", "write_events"),
    ("events.read", "diskspdc.events", "read_events"),
    ("tcspc.window_counts", "diskspdc.tcspc", "window_counts"),
    ("tcspc.histogram", "diskspdc.tcspc", "histogram"),
    ("tcspc.two_fold_metrics", "diskspdc.tcspc", "two_fold_metrics"),
    ("tcspc.heralded_g2", "diskspdc.tcspc", "heralded_g2"),
    ("franson.apply_umi", "diskspdc.franson", "apply_umi"),
    ("franson.peak_areas", "diskspdc.franson", "peak_areas"),
    ("franson.extract_visibility", "diskspdc.franson", "extract_visibility"),
    ("pipeline.build_system", "diskspdc.pipeline", "build_system"),
    ("matching.bandwidth_scan", "diskspdc.matching", "bandwidth_scan"),
    ("config.load_config", "diskspdc.config", "load_config"),
    ("config.load_config", "diskspdc.config", "default_config"),
    ("tables.format_table", "diskspdc.tables", "format_table"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span store of one process."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        span = {"id": len(self.spans), "pid": self.pid, "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "rss0": _maxrss_mb()}
        self.spans.append(span)
        self.stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            self.stack.pop()
        span["rss1"] = _maxrss_mb()
        _count(span, name, args, kwargs, result)
        return result

    def after_fork(self):
        # Runs in a forked multiprocessing child, after multiprocessing has
        # cleared the finalizers it inherited.
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.spans_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _count(span, name, args, kwargs, result):
    """Work counters recorded at the layer boundary."""
    if name == "events.generate":
        span["pairs"] = int(result.n_pairs_generated)
        span["events"] = int(len(result))
    elif name == "events.write":
        path = args[1] if len(args) > 1 else kwargs["path"]
        span["bytes"] = os.path.getsize(path)


_tracer: Tracer | None = None


def _wrap(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _tracer.call(name, fn, args, kwargs)
    return traced


def install(spans_dir: str) -> list[str]:
    """Wrap every target; returns the metric prefixes found nowhere."""
    global _tracer
    _tracer = Tracer(spans_dir)
    mp_util.register_after_fork(_tracer, Tracer.after_fork)
    found: dict[str, bool] = {}
    for prefix, module_name, attr in TARGETS:
        found.setdefault(prefix, False)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, leaf, None) if holder else None
        if not callable(original):
            continue
        found[prefix] = True
        wrapper = _wrap(prefix, original)
        if owner:
            setattr(holder, leaf, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "diskspdc"
                                   or mod_name.startswith("diskspdc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return sorted(p for p, ok in found.items() if not ok)


def collect() -> list[dict]:
    """This process's spans plus those flushed by exited pool workers."""
    spans = list(_tracer.spans)
    for entry in sorted(os.listdir(_tracer.spans_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(_tracer.spans_dir, entry)) as fh:
                spans.extend(json.load(fh))
    return spans


def layer_metrics(spans: list[dict], missing: list[str]) -> dict:
    """Per-layer self times, call counts and counters, in metric units.

    Self time is a span's duration minus the durations of its direct child
    spans (children run nested and in sequence on one stack, so they never
    overlap).  Across processes the self times add up, so on `sweep` they
    can exceed the wall time.
    """
    child_s: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_s[key] = child_s.get(key, 0.0) + s["t1"] - s["t0"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        own = s["t1"] - s["t0"] - child_s.get((s["pid"], s["id"]), 0.0)
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    gen = [s for s in spans if s["name"] == "events.generate"]
    pairs = sum(s.get("pairs", 0) for s in gen)
    events = sum(s.get("events", 0) for s in gen)
    written = sum(s.get("bytes", 0) for s in spans
                  if s["name"] == "events.write")

    def t(prefix):
        return (prefix, "s", self_s.get(prefix, 0.0))

    def n(prefix):
        return (prefix, "count", calls.get(prefix, 0))

    gen_prefix = "events.generate"
    table = {
        "events.generate_s": t(gen_prefix),
        "events.generate_calls": n(gen_prefix),
        "events.pairs_drawn": (gen_prefix, "count", pairs),
        "events.events_out": (gen_prefix, "count", events),
        "events.kept_per_pair": (gen_prefix, "ratio",
                                 events / pairs if pairs else 0.0),
        "events.generate_rss_rise_mb": (
            gen_prefix, "MB",
            max((s.get("rss1", s["rss0"]) - s["rss0"] for s in gen),
                default=0.0)),
        "events.channel_times_s": t("events.channel_times"),
        "events.channel_times_calls": n("events.channel_times"),
        "events.write_s": t("events.write"),
        "events.read_s": t("events.read"),
        "events.file_mb": ("events.write", "MB", written / 1e6),
        "tcspc.window_counts_s": t("tcspc.window_counts"),
        "tcspc.window_counts_calls": n("tcspc.window_counts"),
        "tcspc.histogram_s": t("tcspc.histogram"),
        "tcspc.histogram_calls": n("tcspc.histogram"),
        "tcspc.two_fold_metrics_s": t("tcspc.two_fold_metrics"),
        "tcspc.heralded_g2_s": t("tcspc.heralded_g2"),
        "franson.apply_umi_s": t("franson.apply_umi"),
        "franson.peak_areas_s": t("franson.peak_areas"),
        "franson.extract_visibility_s": t("franson.extract_visibility"),
        "pipeline.build_system_s": t("pipeline.build_system"),
        "matching.bandwidth_scan_s": t("matching.bandwidth_scan"),
        "config.load_config_s": t("config.load_config"),
        "tables.format_table_s": t("tables.format_table"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (prefix, unit, value) in table.items()
            if prefix not in missing}
