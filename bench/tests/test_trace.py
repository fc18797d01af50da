"""Self-time arithmetic and span folding of :class:`bench.trace.LayerTrace`."""

import json
import math
import types

from bench.trace import LayerTrace


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


def _toy(trace: LayerTrace, clock: FakeClock):
    """root 0.5 -> a(1 -> b(2 -> a(3)) -> 4): layer a is re-entered."""

    def inner_a():
        clock.tick(3.0)

    def b():
        clock.tick(2.0)
        wrapped_inner()

    def a():
        clock.tick(1.0)
        wrapped_b()
        clock.tick(4.0)

    def root():
        clock.tick(0.5)
        wrapped_a()
        return "done"

    wrapped_inner = trace.wrap("a", inner_a)
    wrapped_b = trace.wrap("b", b)
    wrapped_a = trace.wrap("a", a, keep=True, name="a")
    return root


def test_self_time_partitions_the_total_with_reentry():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)
    assert trace.run("root", "root", _toy(trace, clock)) == "done"
    assert trace.total_s == 10.5
    assert dict(trace.self_s) == {"a": 8.0, "b": 2.0, "root": 0.5}
    assert dict(trace.calls) == {"a": 2, "b": 1, "root": 1}
    assert math.isclose(sum(trace.self_s.values()), trace.total_s)


def test_only_kept_calls_become_spans_and_children_fold_into_them():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)
    trace.run("root", "root", _toy(trace, clock))
    spans = {e["name"]: e for e in trace.events}
    assert set(spans) == {"root", "a"}
    a = spans["a"]
    assert a["dur"] == 10e6 and a["ts"] == 0.5e6
    # b and the re-entered a are folded into the kept a span.
    assert a["args"] == {"a.calls": 1, "a.self_s": 3.0,
                         "b.calls": 1, "b.self_s": 2.0}
    assert spans["root"]["args"] == {}


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError

    def root():
        try:
            trace.wrap("x", boom)()
        except ValueError:
            clock.tick(1.0)

    trace.run("root", "root", root)
    assert dict(trace.self_s) == {"x": 1.0, "root": 1.0}


def test_patch_and_restore_cover_inherited_methods_and_module_functions():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    mod = types.ModuleType("toy")
    mod.g = lambda: 2
    original_g = mod.g
    with LayerTrace() as trace:
        trace.patch(Child, "f", "layer")
        trace.patch(mod, "g", "layer")
        assert Child().f() == 1 and mod.g() == 2
        assert "f" in vars(Child) and Base.f is not Child.f
    assert "f" not in vars(Child)
    assert mod.g is original_g
    assert trace.calls["layer"] == 2


def test_chrome_export_is_trace_event_json(tmp_path):
    clock = FakeClock()
    trace = LayerTrace(clock=clock)
    trace.run("root", "root", _toy(trace, clock))
    path = tmp_path / "out" / "toy.trace.json"
    trace.write_chrome(path)
    data = json.loads(path.read_text())
    assert [e["name"] for e in data["traceEvents"]] == ["root", "a"]
    assert all(e["ph"] == "X" for e in data["traceEvents"])
