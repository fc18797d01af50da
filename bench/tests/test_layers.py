"""The repro wiring: observer wrappers, restore, and the metric names."""

import json
import re

from bench import layers
from bench.harness import ROOT
from bench.trace import LayerTrace

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_subscribe_wrapper_keeps_attach_and_detach_working():
    from repro import telemetry
    from repro.monitor import Monitor
    from repro.telemetry.metrics import MetricsRegistry

    original = vars(MetricsRegistry)["subscribe"]
    sess = telemetry.start(trace=True)
    try:
        with LayerTrace() as trace:
            layers.instrument(trace)
            monitor = Monitor(sess).attach()
            assert len(sess.registry._observers) == 1
            assert len(sess.tracer._obs) == 1
            monitor.detach()
            assert sess.registry._observers == []
            assert sess.tracer._obs == []
            monitor.attach()  # the driver re-attaches after every epoch
            assert len(sess.registry._observers) == 1
            before = trace.calls["monitor"]
            sess.registry.gauge("link_util", link="a->b").set(0.5, ts=1.0)
            assert trace.calls["monitor"] == before + 1
            assert trace.calls["telemetry"] == 1
            monitor.detach()
            assert sess.registry._observers == []
    finally:
        telemetry.stop()
    assert vars(MetricsRegistry)["subscribe"] is original


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))

    produced = set(layers.metrics(LayerTrace(), layers.Work()))
    produced.add("trace.overhead_pct")  # the parent adds it
    assert produced == {m["name"] for m in spec["per_layer"]}
