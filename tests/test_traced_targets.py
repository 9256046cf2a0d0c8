"""The benchmark's tracer finds every function it wraps.

bench/spans.py reports a target it cannot find as missing and leaves its
per-layer metrics out of the traced result, and a traced result without a
metric the benchmark declares is malformed.  So a traced function stays in
the package, under its name, until the benchmark stops naming it.
"""

import importlib
import importlib.util
import json
import pathlib

import pytest

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
