"""The benchmark's workloads: how each builds its inputs, runs, and checks.

Each workload is one batch simulation run as a closed loop: a sample
imports, builds the inputs, runs once and checks the result, and the
next sample starts only after it ends. The platform workloads are exactly
``python -m repro.experiments platform_week --seed N`` with the ``--set``
overrides shown, built through the public ``PlatformConfig``/``build_sim``;
the seed enters only at ``run``.

This module imports ``repro`` only inside the methods, so the parent
process (which only launches samples) never loads the program.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Platform:
    """A ``platform_week`` run under a ``PlatformConfig`` override set."""

    name: str
    overrides: Dict[str, float] = field(default_factory=dict)
    #: The week must inject at least one fault and fire one alert.
    expect_faults: bool = False

    def setup(self) -> Tuple[Any, Any]:
        from repro.experiments.platform_week import PlatformConfig, build_sim

        cfg = PlatformConfig(**self.overrides)
        return build_sim(cfg), cfg

    def run(self, inputs: Tuple[Any, Any], seed: int) -> Any:
        sim, cfg = inputs
        return sim.run(seed=seed, days=cfg.days)

    def sim_seconds(self, inputs: Tuple[Any, Any], week: Any) -> float:
        from repro.units import DAY

        return inputs[1].days * DAY

    def tree(self, week: Any) -> Any:
        return dataclasses.asdict(week)

    def check(self, inputs: Tuple[Any, Any], week: Any) -> List[str]:
        from repro.units import DAY

        cfg = inputs[1]
        card = week.scorecard
        failed = []
        if not card.jobs_finished <= card.jobs_submitted:
            failed.append(
                f"jobs_finished {card.jobs_finished} > jobs_submitted "
                f"{card.jobs_submitted}"
            )
        epochs = cfg.days * DAY / cfg.epoch_s
        if week.epochs != epochs:
            failed.append(f"epochs {week.epochs} != days*24*3600/epoch_s {epochs}")
        if not week.bytes_carried > 0:
            failed.append("no bytes carried")
        if self.expect_faults:
            if sum(week.fault_counts.values()) < 1:
                failed.append("no fault injected")
            if week.alerts_fired < 1:
                failed.append("no alert fired")
        return failed


@dataclass(frozen=True)
class Cluster:
    """``BENCH_cluster``'s mixed traffic on a fresh production fabric.

    The input does not depend on the seed. A new ``FlowSim`` per sample
    computes every route cold, as each CLI run does.
    """

    name: str
    shape: Dict[str, int] = field(default_factory=dict)

    def setup(self) -> Tuple[Any, List[Any]]:
        from repro.experiments.workloads import ClusterShape, cluster_flows
        from repro.network import fire_flyer_network

        shape = ClusterShape(**self.shape)
        fabric = fire_flyer_network(
            gpu_nodes=shape.gpu_nodes, storage_nodes=shape.storage_nodes
        )
        flows = [f for group in cluster_flows(shape).values() for f in group]
        return fabric, flows

    def run(self, inputs: Tuple[Any, List[Any]], seed: int) -> List[Any]:
        from repro.network import FlowSim

        fabric, flows = inputs
        return FlowSim(fabric).run(flows)

    def sim_seconds(self, inputs: Tuple[Any, List[Any]], results: List[Any]) -> float:
        return max(r.finish for r in results) - min(r.start for r in results)

    def tree(self, results: List[Any]) -> Any:
        return [[r.flow.flow_id, r.start, r.finish] for r in results]

    def check(self, inputs: Tuple[Any, List[Any]], results: List[Any]) -> List[str]:
        flows = inputs[1]
        failed = []
        if sorted(r.flow.flow_id for r in results) != sorted(f.flow_id for f in flows):
            failed.append(f"{len(results)} results for {len(flows)} flows")
        done = [r for r in results if r.finish > r.start]
        if len(done) != len(results):
            failed.append(f"{len(results) - len(done)} flows with finish <= start")
        offered = sum(f.size for f in flows)
        completed = sum(r.flow.size for r in done)
        if completed != offered:
            failed.append(f"completed {completed} bytes of {offered} offered")
        return failed


Workload = Any  # Platform | Cluster

WORKLOADS: Tuple[Workload, ...] = (
    Platform("week_64", expect_faults=True),
    Platform("day_1240", {"nodes_per_zone": 620, "tenants": 1860, "days": 0.5}),
    Platform("overload_64", {"tenants": 192, "days": 3.0, "epoch_s": 21600.0}),
    Cluster("cluster_10k"),
)

#: Tiny variants for ``run --quick``: the same code paths in seconds.
QUICK: Tuple[Workload, ...] = (
    Platform("week_64", {"days": 0.25}),
    Platform("day_1240", {"nodes_per_zone": 62, "tenants": 186, "days": 0.125}),
    Platform("overload_64", {"tenants": 192, "days": 0.5, "epoch_s": 21600.0}),
    Cluster(
        "cluster_10k",
        {"gpu_nodes": 124, "storage_nodes": 18, "training_jobs": 4,
         "nodes_per_job": 15, "ep_jobs": 2, "ep_nodes": 4},
    ),
)


def get(name: str, quick: bool = False) -> Optional[Workload]:
    """The workload called ``name`` (its tiny variant when ``quick``)."""
    for w in QUICK if quick else WORKLOADS:
        if w.name == name:
            return w
    return None
