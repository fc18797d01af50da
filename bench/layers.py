"""Which ``repro`` entry points the traced run wraps, and the work counters.

Layers are named after modules. ``platform.driver`` is the root span: its
self time is the remainder of the traced total once every wrapped child is
subtracted, so it carries the tick loop and epoch flow construction.

Kept spans (exported one per call) are the coarse boundaries: the
workload/slo/faults calls, ``FlowSim.run``, ``TimeSharingScheduler.run``
and ``Monitor.advance``/``finish``. Everything else is per-call and folded
into its kept parent.
"""

from __future__ import annotations

from typing import Dict, List

from bench.trace import LayerTrace

#: Root layer: what is left of the traced total after every wrapped child.
ROOT_LAYER = "platform.driver"

LAYERS = (
    ROOT_LAYER, "platform.workload", "platform.slo", "faults", "hai", "network",
    "network.routing", "fairshare", "monitor", "telemetry", "perf",
)

#: FlowSim.stats counters whose per-run deltas are summed.
_NET_COUNTERS = (
    "events", "completion_batches", "link_events", "reroutes", "drains",
    "admits", "route_cache_hits", "warm_solves", "warm_cache_hits",
    "solver_iterations", "warm_affected_flows",
)
_NET_TIMINGS = ("run_s", "solve_s", "invalidate_s")


class Work:
    """Counters gathered around the wrapped calls of one traced run."""

    def __init__(self) -> None:
        self.flows = 0
        self.net: Dict[str, float] = dict.fromkeys(_NET_COUNTERS + _NET_TIMINGS, 0)
        self.schedulers: List[object] = []
        self.monitors: List[object] = []

    def add_run(self, before: Dict[str, float], after: Dict[str, float]) -> None:
        for key in self.net:
            self.net[key] += after.get(key, 0) - before.get(key, 0)


def _stats(sim) -> Dict[str, float]:
    return {**sim.stats.counters, **sim.stats.timings}


def instrument(trace: LayerTrace) -> Work:
    """Wrap every layer's public entry points; undone by ``trace.restore``."""
    from repro.fairshare import WarmMaxMin
    from repro.hai import TimeSharingScheduler
    from repro.monitor import Monitor
    from repro.network import FlowSim, StaticRouter
    from repro.perf import PerfCounters
    from repro.platform import driver
    from repro.telemetry.core import Tracer
    from repro.telemetry.metrics import Gauge, MetricsRegistry

    work = Work()
    for attr in ("generate_workload", "inference_slices"):
        trace.patch(driver, attr, "platform.workload", keep=True)
    trace.patch(driver, "score_week", "platform.slo", keep=True)
    for attr in ("weekly_profile", "plan_link_events"):
        trace.patch(driver, attr, "faults", keep=True)

    trace.patch(TimeSharingScheduler, "run", "hai", keep=True)
    for attr in ("submit", "fail_node", "repair_node", "running_tasks",
                 "drain_node", "undrain_node"):
        trace.patch(TimeSharingScheduler, attr, "hai")

    run = trace.wrap("network", FlowSim.run, keep=True, name="FlowSim.run")

    def flowsim_run(sim, flows, *args, **kwargs):
        before = _stats(sim)
        try:
            return run(sim, flows, *args, **kwargs)
        finally:
            work.flows += len(flows)
            work.add_run(before, _stats(sim))

    trace.replace(FlowSim, "run", flowsim_run)
    trace.patch(StaticRouter, "route_links", "network.routing")
    for attr in ("solve", "admit", "retire", "set_capacity"):
        trace.patch(WarmMaxMin, attr, "fairshare")

    trace.patch(Monitor, "advance", "monitor", keep=True)
    trace.patch(Monitor, "finish", "monitor", keep=True)
    # The driver detaches the monitor around every fabric epoch, so the
    # callback wrapper must be the same object on subscribe and unsubscribe.
    for cls in (MetricsRegistry, Tracer):
        _observe_callbacks(trace, cls)

    trace.patch(Gauge, "set", "telemetry")
    trace.patch(Tracer, "instant", "telemetry")
    trace.patch(Tracer, "complete", "telemetry")
    trace.patch(PerfCounters, "bump", "perf")
    trace.patch(PerfCounters, "add_time", "perf")

    _record_instances(trace, TimeSharingScheduler, work.schedulers)
    _record_instances(trace, Monitor, work.monitors)
    return work


def _observe_callbacks(trace: LayerTrace, cls) -> None:
    subscribe, unsubscribe = cls.subscribe, cls.unsubscribe

    def traced_subscribe(self, fn):
        subscribe(self, trace.callback("monitor", fn))

    def traced_unsubscribe(self, fn):
        unsubscribe(self, trace.callback("monitor", fn))

    trace.replace(cls, "subscribe", traced_subscribe)
    trace.replace(cls, "unsubscribe", traced_unsubscribe)


def _record_instances(trace: LayerTrace, cls, into: List[object]) -> None:
    init = cls.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        into.append(self)

    trace.replace(cls, "__init__", recording_init)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def queue_depth_max(sched) -> int:
    """Deepest wait queue, replayed from a scheduler's event log."""
    depth = deepest = 0
    for ev in sched.events:
        if ev.kind in ("submit", "preempt", "crash"):
            depth += 1
        elif ev.kind in ("start", "requeue-start"):
            depth -= 1
        elif ev.kind == "drain" and ev.task_id in sched.tasks:
            depth += 1  # the displaced task re-queues
        deepest = max(deepest, depth)
    return deepest


def metrics(trace: LayerTrace, work: Work) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    total = trace.total_s
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = trace.self_s.get(layer, 0.0)
        out[f"{layer}.share"] = _ratio(trace.self_s.get(layer, 0.0), total)
        if layer != ROOT_LAYER:
            out[f"{layer}.calls"] = trace.calls.get(layer, 0)
    net = work.net
    out["network.flows"] = work.flows
    for key in ("events", "completion_batches", "link_events", "reroutes",
                "drains", "solve_s", "invalidate_s"):
        out[f"network.{key}"] = net[key]
    out["network.churn_s"] = max(
        net["run_s"] - net["solve_s"] - net["invalidate_s"], 0.0
    )
    out["network.routing.cache_hit_ratio"] = _ratio(
        net["route_cache_hits"], net["admits"]
    )
    out["fairshare.cache_hit_ratio"] = _ratio(
        net["warm_cache_hits"], net["warm_solves"]
    )
    out["fairshare.solves"] = net["warm_solves"]
    out["fairshare.iterations"] = net["solver_iterations"]
    out["fairshare.affected_flows_per_solve"] = _ratio(
        net["warm_affected_flows"], net["warm_solves"]
    )
    events = [ev for s in work.schedulers for ev in s.events]
    out["hai.submits"] = sum(1 for ev in events if ev.kind == "submit")
    out["hai.preemptions"] = sum(1 for ev in events if ev.kind == "preempt")
    out["hai.crashes"] = sum(1 for ev in events if ev.kind == "crash")
    out["hai.queue_depth_max"] = max(
        (queue_depth_max(s) for s in work.schedulers), default=0
    )
    out["monitor.alerts"] = sum(len(m.alerts) for m in work.monitors)
    out["monitor.drains"] = sum(
        getattr(a, "drains", 0) for m in work.monitors for a in m.actuators
    )
    out["trace.total_s"] = total
    return out
