"""The fault-injection daemon: replays a FaultPlan against a cluster.

The injector runs as a simulator daemon process and applies each
scheduled :class:`~repro.faults.plan.FaultEvent` at its simulated time:
crashes and restarts go through the :class:`~repro.cluster.Cluster`
lifecycle (a crash cancels the node's scope, ending every process that
runs there, and the cache systems' crash listeners see it),
partitions/drops/delays install time-windowed
:class:`~repro.net.fabric.FaultRules` on the fabric, and brownouts
degrade global-storage latency.

On restart the injector also re-admits the node's cache instances
through :meth:`~repro.core.ConcordSystem.restart_instance` for every
registered system — a restarted process comes back empty and must rejoin
the coherence domain, never resume its stale state.

By default the injector arms the fabric's *fail-fast* mode: in-flight
RPCs to a crashed node fail immediately with the retriable
:class:`~repro.net.rpc.PeerDown` instead of waiting out their timeouts
(paper Section III-H's unreachability reports, minus the detection
latency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.faults.plan import (
    EVENT_TYPES,
    FaultEvent,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    NetworkPartition,
    NodeCrash,
    NodeRestart,
    RegionPartition,
    StorageBrownout,
)
from repro.obs.events import FAULT_INJECT

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.core import ConcordSystem
    from repro.faas import FaasPlatform


class FaultInjector:
    """Replays one :class:`FaultPlan` against a cluster (daemon process)."""

    def __init__(
        self,
        cluster: "Cluster",
        plan: FaultPlan,
        systems: Iterable["ConcordSystem"] = (),
        platform: Optional["FaasPlatform"] = None,
        fail_fast: bool = True,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.systems = list(systems)
        self.platform = platform
        self.fail_fast = fail_fast
        #: (sim_time_ms, kind, detail) per applied event, in order.
        self.applied: list[tuple[float, str, str]] = []
        #: kind name -> events applied so far.
        self.injected_by_kind: dict[str, int] = {}
        self._process = None
        metrics = self.sim.metrics
        if metrics.active:
            counter = metrics.counter(
                "faults_injected_total", "Fault events applied by kind.",
                labelnames=("kind",),
            )
            for kind in sorted(EVENT_TYPES):
                counter.set_callback(
                    lambda kind=kind: self.injected_by_kind.get(kind, 0),
                    kind=kind,
                )

    def start(self):
        """Spawn the injection daemon (idempotent); returns the process."""
        if self._process is None:
            if self.fail_fast:
                self.cluster.network.fail_fast = True
            self._process = self.sim.spawn(
                self._run(), name="faults:injector", daemon=True)
        return self._process

    # -- the daemon -----------------------------------------------------
    def _run(self):
        rules = self.cluster.network.fault_rules()
        for event in self.plan.events:
            if event.at_ms > self.sim.now:
                yield self.sim.timeout(event.at_ms - self.sim.now)
            self._apply(event, rules)

    def _apply(self, event: FaultEvent, rules) -> None:
        now = self.sim.now
        if isinstance(event, NodeCrash):
            self.cluster.crash_node(event.node)
            detail = event.node
        elif isinstance(event, NodeRestart):
            self.cluster.restart_node(event.node)
            for system in self.systems:
                self.sim.spawn(
                    system.restart_instance(event.node),
                    name=f"faults:rejoin:{system.app}:{event.node}",
                    daemon=True,
                )
            detail = event.node
        elif isinstance(event, NetworkPartition):
            rules.add_partition(event.groups, now, now + event.duration_ms)
            detail = "|".join(",".join(group) for group in event.groups)
        elif isinstance(event, RegionPartition):
            topology = self.cluster.config.regions
            if topology is None:
                raise ValueError(
                    f"RegionPartition({event.region!r}) needs a cluster "
                    "with SimConfig.regions set")
            isolated = topology.nodes_in(event.region)
            rest = tuple(node for node in self.cluster.node_ids
                         if node not in isolated)
            rules.add_partition((isolated, rest), now,
                                now + event.duration_ms)
            detail = event.region
        elif isinstance(event, MessageDrop):
            rules.add_drop(now, now + event.duration_ms, event.probability,
                           src=event.src, dst=event.dst)
            detail = f"p={event.probability}"
        elif isinstance(event, MessageDelay):
            rules.add_delay(now, now + event.duration_ms, event.extra_ms,
                            jitter_ms=event.jitter_ms,
                            src=event.src, dst=event.dst)
            detail = f"+{event.extra_ms}ms"
        elif isinstance(event, StorageBrownout):
            self.cluster.storage.set_brownout(
                event.slowdown, now + event.duration_ms)
            detail = f"x{event.slowdown}"
        else:  # pragma: no cover - EVENT_TYPES is closed
            raise TypeError(f"unknown fault event {event!r}")
        kind = event.kind
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1
        self.applied.append((now, kind, detail))
        obs = self.sim.obs
        if obs.active:
            # A dump-trigger event: a recorder with a dump_path writes the
            # full ring out, preserving the pre-fault flight recording.
            obs.emit(FAULT_INJECT, kind=kind, detail=detail)
