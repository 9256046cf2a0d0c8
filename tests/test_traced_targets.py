"""The benchmark's tracer finds every function it wraps.

bench/spans.py reports a target it cannot find as missing and leaves its
per-layer metrics out of the traced result, and a traced result without a
metric the benchmark declares is malformed.  So a traced function stays in
the package, under its name, until the benchmark stops naming it.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import sys
import threading

import pytest

from streams import short_blocks, source_model

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("target", load_spans().TARGETS,
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_traced_target_resolves_to_a_callable(target):
    _, module_name, attr = target
    assert module_name.startswith("diskspdc.")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_every_declared_layer_metric_is_reported():
    # trace.wall_s is the traced round's own wall time (bench/run.py)
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(load_spans().layer_metrics([], missing=[]))
    assert declared - {"trace.wall_s"} <= reported


def test_counters_read_what_generation_and_writing_return(tmp_path):
    # the tracer's work counters read a generated stream's pair count and
    # length, and the size of the file write_events wrote
    from diskspdc.events import generate_events, write_events

    spans = load_spans()
    stream = generate_events(source_model(pgr_slope_mhz_per_uw=0.1), 0.01,
                             seed=3)
    t = stream.truth
    span = {}
    spans._count(span, "events.generate", (), {}, stream)
    assert span == {"pairs": t.pairs_both + t.pairs_signal_only
                    + t.pairs_idler_only + t.pairs_neither,
                    "events": len(stream)}
    assert span["pairs"] > 0 and span["events"] > 0
    path = tmp_path / "events.ttps"
    write_events(stream, str(path))
    for args, kwargs in (((stream, str(path)), {}),
                         ((stream,), {"path": str(path)})):
        span = {}
        spans._count(span, "events.write", args, kwargs, None)
        assert span == {"bytes": path.stat().st_size}


def test_every_traced_target_runs_on_its_process_main_thread(monkeypatch,
                                                            tmp_path):
    # the tracer keeps one call stack per process, so a target called on
    # a second thread would nest its spans under whatever the main thread
    # has open.  Each target is replaced, as the tracer replaces it, by a
    # spy that notes its process and whether it runs on that process's
    # main thread; g2 on 2 CPUs folds its time shards in worker processes,
    # which inherit the spies.
    from diskspdc import pipeline
    from diskspdc.config import parse_config

    log = tmp_path / "callers"
    for _, module_name, attr in load_spans().TARGETS:
        owner, _, leaf = attr.rpartition(".")
        holder = importlib.import_module(module_name)
        holder = getattr(holder, owner) if owner else holder
        original = getattr(holder, leaf)

        def spy(*args, _original=original, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {main}\n")
            return _original(*args, **kwargs)

        holders = [holder] if owner else [
            m for name, m in list(sys.modules.items())
            if name.startswith("diskspdc") and m is not None
            and getattr(m, leaf, None) is original]
        for h in holders:
            monkeypatch.setattr(h, leaf, spy)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    with short_blocks(1 << 12, 1 << 20):
        pipeline.run_g2(parse_config("[g2]\nduration_s = 0.05\n"))
    callers = {tuple(line.split()) for line in log.read_text().splitlines()}
    assert {main for _, main in callers} == {"True"}
    assert len(callers) == 2
