"""Named topology presets and their smoke scenarios.

Each :class:`Topology` bundles the knobs that turn the canonical fault
scenario (:func:`repro.faults.scenario.run_fault_scenario`) into one
topology cell: directory sharding, replica-chain depth, and the
multi-region split.  The presets deliberately share one cluster shape
(``NUM_NODES`` nodes, same load) so their fingerprints are comparable
side by side and a divergence isolates the topology — not the workload
— as the cause.

Every preset also carries a *canonical smoke plan*: the minimal fault
schedule that exercises what the topology adds (crash the shard-0
leader for sharded cells, partition a region for regional cells).  Each
smoke run's fingerprint is a golden pin (``topology_<name>``), and the
nightly fault matrix runs the presets under randomized plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import (
    FaultPlan,
    NodeCrash,
    NodeRestart,
    RegionPartition,
)
from repro.faults.scenario import SETTLE_MS, run_fault_scenario
from repro.shard.router import ShardRouter

#: Shared cluster shape for every topology cell.
NUM_NODES = 4
DURATION_MS = 4000.0
RPS = 20.0

#: Regional cells need the longer drain: unreachability reports trail
#: the RPC timeout (~5 s), so eject/rejoin churn outlives the heal.
REGION_SETTLE_MS = 12000.0


@dataclass(frozen=True)
class Topology:
    """One named topology cell."""

    name: str
    shards: Optional[int] = None
    replication: int = 1
    regions: Optional[int] = None
    settle_ms: float = SETTLE_MS
    description: str = ""

    def scenario_kwargs(self) -> dict:
        """Keyword arguments for :func:`run_fault_scenario`."""
        kwargs: dict = {"settle_ms": self.settle_ms}
        if self.shards is not None:
            kwargs["shards"] = self.shards
            kwargs["replication"] = self.replication
        if self.regions is not None:
            kwargs["regions"] = self.regions
        return kwargs


TOPOLOGIES: dict = {
    topology.name: topology
    for topology in (
        Topology(
            name="flat",
            description="single flat ring, no sharding (the PR 1 protocol)"),
        Topology(
            name="shard4",
            shards=4,
            description="4 directory shards, single-homed chains"),
        Topology(
            name="shard4rep",
            shards=4, replication=2,
            description="4 directory shards, leader + 1 mirror follower"),
        Topology(
            name="region2",
            shards=4, replication=2, regions=2,
            settle_ms=REGION_SETTLE_MS,
            description="sharded + replicated over two named regions"),
    )
}


def node_ids() -> list:
    """The topology cluster's node ids."""
    return [f"node{i}" for i in range(NUM_NODES)]


def shard_leader(topology: Topology, shard: int = 0) -> str:
    """The node leading ``shard`` under ``topology`` at full membership.

    Deterministic (pure function of the membership set), so the smoke
    plan can target "the shard-0 leader" without running a simulation.
    """
    if topology.shards is None:
        raise ValueError(f"topology {topology.name!r} is not sharded")
    router = ShardRouter(node_ids(), num_shards=topology.shards,
                         replication=topology.replication)
    return router.leader_of(shard)


def smoke_plan(name: str) -> FaultPlan:
    """The canonical fault plan for topology cell ``name``.

    - ``flat``: crash + restart one node (the PR 4 recovery path).
    - ``shard4`` / ``shard4rep``: crash + restart the *shard-0 leader*,
      forcing a deterministic failover (and, with replication, a mirror
      adoption) before the node rejoins.
    - ``region2``: partition ``region1`` away for 600 ms *and* crash
      the shard-0 leader — the combined case both acceptance fault
      classes must survive.
    """
    topology = TOPOLOGIES[name]
    if topology.shards is None:
        victim = node_ids()[1]
        return FaultPlan(events=(
            NodeCrash(at_ms=1500.0, node=victim),
            NodeRestart(at_ms=2600.0, node=victim),
        ))
    leader = shard_leader(topology)
    if topology.regions is None:
        return FaultPlan(events=(
            NodeCrash(at_ms=1500.0, node=leader),
            NodeRestart(at_ms=2600.0, node=leader),
        ))
    return FaultPlan(events=(
        NodeCrash(at_ms=1200.0, node=leader),
        RegionPartition(at_ms=1500.0, duration_ms=600.0, region="region1"),
    ))


def run_topology_scenario(name: str, seed: int = 0, plan=None, obs=None):
    """Run one topology cell: the named topology under its smoke plan.

    ``plan`` overrides the canonical smoke plan; ``obs`` forwards to
    :func:`run_fault_scenario` to attach a flight recorder.
    """
    topology = TOPOLOGIES[name]
    if plan is None:
        plan = smoke_plan(name)
    return run_fault_scenario(
        plan, seed=seed, num_nodes=NUM_NODES,
        duration_ms=DURATION_MS, rps=RPS, obs=obs,
        **topology.scenario_kwargs(),
    )
