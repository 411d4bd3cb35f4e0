"""The Concord caching system: agents + application controller.

:class:`ConcordSystem` is the per-application entry point.  It implements
the common :class:`~repro.caching.base.StorageAPI` used by function code,
owns one :class:`~repro.core.agent.CacheAgent` per participating node, and
an :class:`~repro.core.controller.AppController` that keeps the Node
Directory, orchestrates two-phase domain changes (Section III-D) and
coordinates failure recovery (Section III-F).  The per-node protocol,
membership included, is the agent's; this class holds what spans nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.caching.base import AccessContext, StorageAPI, register_scheme_metrics
from repro.config import MB
from repro.coord.service import CoordinationService
from repro.core.agent import CacheAgent
from repro.core.controller import AppController
from repro.core.hashring import ConsistentHashRing
from repro.metrics import AccessStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.storage import GlobalStorage

#: Default cache-instance budget when no container memory exists to
#: repurpose (protocol unit tests run without the FaaS layer).
DEFAULT_CAPACITY = 64 * MB


class ConcordSystem(StorageAPI):
    """Per-application Concord distributed cache."""

    name = "concord"
    #: E/S/I directory coherence with write-through (paper Section III).
    consistency = "sequential"

    def __init__(
        self,
        cluster: "Cluster",
        app: str = "app",
        node_ids: Optional[Iterable[str]] = None,
        coord: Optional[CoordinationService] = None,
        storage: Optional["GlobalStorage"] = None,
        capacity_override: Optional[int] = None,
        default_capacity: int = DEFAULT_CAPACITY,
        virtual_nodes: int = 64,
        estate_writes: bool = True,
        parallel_invalidations: bool = True,
        recovery_lease_ms: Optional[float] = None,
        shards: Optional[int] = None,
        replication: int = 1,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.latency = cluster.config.latency
        self.app = app
        self.coord = coord
        self.storage = storage if storage is not None else cluster.storage
        self.capacity_override = capacity_override
        self.default_capacity = default_capacity
        #: Ablation switches (DESIGN.md section 5): E-state writes that
        #: bypass the home, and invalidations parallel with the storage
        #: update.  Both on in the paper's design.
        self.estate_writes = estate_writes
        self.parallel_invalidations = parallel_invalidations
        #: When set, failure recovery is the lease-based baseline: read
        #: barriers stay up for this TTL instead of lifting when every
        #: survivor has acked (the fig18 availability comparison).
        self.recovery_lease_ms = recovery_lease_ms
        members = list(node_ids) if node_ids is not None else cluster.node_ids
        #: Directory replication degree per shard (chain length); >1 only
        #: meaningful with sharding.
        self.replication = replication
        if shards is not None:
            from repro.shard.router import ShardRouter  # lazy: avoid cycle

            self.ring_template = ShardRouter(
                members, num_shards=shards, replication=replication,
                virtual_nodes=virtual_nodes)
        else:
            self.ring_template = ConsistentHashRing(members, virtual_nodes)
        self._stats = AccessStats()
        #: Hook for placement learning (set by repro.placement).
        self.pct_observer: Optional[Callable[[str, str], None]] = None

        self.controller = AppController(self)
        self.shard_manager = None
        if shards is not None:
            from repro.shard.manager import ShardManager  # lazy: avoid cycle

            self.shard_manager = ShardManager(self, self.controller.ring)
        self.agents: dict[str, CacheAgent] = {
            node_id: CacheAgent(self, node_id, self.capacity_for(node_id))
            for node_id in members
        }
        if self.coord is not None:
            self.coord.join(app, self.controller.endpoint.node_id,
                            self.controller.endpoint.address)
            for node_id, agent in self.agents.items():
                self.coord.join(app, node_id, agent.endpoint.address)
        self.storage.add_write_listener(self._on_storage_write)
        cluster.on_crash(self._on_crash)
        register_scheme_metrics(self.sim.metrics, self, app)

    # -- StorageAPI ---------------------------------------------------------------
    @property
    def stats(self) -> AccessStats:
        return self._stats

    # Plain dispatchers: the agent's generator *is* the operation (local
    # access, lookup, protocol, AccessStats accounting), so no frame of
    # this class sits between the caller and the agent.
    def _do_read(self, node_id: str, key: str, ctx: Optional[AccessContext] = None):
        return self.agents[node_id].read(key, ctx)

    def _do_write(self, node_id: str, key: str, value: object,
                  ctx: Optional[AccessContext] = None):
        return self.agents[node_id].write(key, value, ctx)

    # -- agent lifecycle -------------------------------------------------------------
    def create_instance(self, node_id: str):
        """Admit a cache instance on ``node_id`` (generator; yield from).

        Runs the two-phase join: existing agents barrier the re-homed keys
        and transfer their directory entries to the new agent before the
        domain switches rings (Section III-D).
        """
        if node_id in self.agents:
            return self.agents[node_id]
        agent = CacheAgent(self, node_id, self.capacity_for(node_id))
        # Not a member until its join commits: it holds every key.
        agent.raise_barrier(node_id, agent.ring.with_members([node_id]))
        self.agents[node_id] = agent
        yield from self.admit(agent)
        return agent

    def admit(self, agent: CacheAgent):
        """Run ``agent``'s two-phase join and record it domain-wide."""
        yield from self.controller.domain_join(agent.node_id)
        self.ring_template.add(agent.node_id)
        if self.coord is not None:
            self.coord.join(self.app, agent.node_id, agent.endpoint.address)

    def restart_instance(self, node_id: str):
        """Re-admit the cache instance on a restarted node (generator).

        Models a process restart after :meth:`Cluster.restart_node`: the
        crash ended the instance's incarnation, so it re-enters through
        the two-phase join and never resumes its stale cache or
        directory.  If the restart beat the failure detector, the crash
        is declared first and the rejoin waits for the controller's
        purge.
        """
        agent = self.agents.get(node_id)
        if agent is None:
            return (yield from self.create_instance(node_id))
        if not agent.ejected:
            agent.end_incarnation()  # restarted without a crash
        if node_id in self.ring_template.members:
            purged = self.controller.purged(node_id)
            self.report_unreachable(node_id)
            yield purged
        yield from agent.rejoin()
        return agent

    def remove_instance(self, node_id: str):
        """Gracefully remove the cache instance on ``node_id`` (generator)."""
        agent = self.agents.get(node_id)
        if agent is None:
            return
        yield from self.controller.domain_leave(node_id)
        self.ring_template.remove(node_id)
        if self.coord is not None:
            self.coord.leave(self.app, node_id)
        del self.agents[node_id]
        agent.end_incarnation()
        agent.endpoint.close()

    # -- memory -------------------------------------------------------------------
    def capacity_for(self, node_id: str) -> int:
        """Cache-instance budget on ``node_id`` (Section III-E)."""
        if self.capacity_override is not None:
            return self.capacity_override
        node = self.cluster.nodes.get(node_id)
        if node is None:
            return self.default_capacity
        if not node.containers_of(self.app):
            return self.default_capacity
        return node.unused_memory(self.app)

    # -- failure plumbing ----------------------------------------------------------
    def _on_crash(self, node_id: str) -> None:
        """Crash listener; :meth:`restart_instance` rejoins."""
        agent = self.agents.get(node_id)
        if agent is not None:
            agent.end_incarnation()

    def report_unreachable(self, peer: str) -> None:
        """A protocol RPC to ``peer`` timed out (Section III-H)."""
        if self.coord is not None:
            self.coord.report_unreachable(self.app, peer)

    # -- external writes ----------------------------------------------------------
    def _on_storage_write(self, key: str, value: object, version: int,
                          writer: str) -> None:
        """Storage listener: forward non-FaaS writes into the protocol."""
        if writer != "external":
            return
        self.controller.forward_external_write(key, version)

    # -- placement learning hook ----------------------------------------------------
    def observe_producer_consumer(self, producer_fn: str, consumer_fn: str) -> None:
        if self.pct_observer is not None:
            self.pct_observer(producer_fn, consumer_fn)

    # -- introspection (experiments) --------------------------------------------------
    def sharer_counts(self) -> list[int]:
        """Sharer-set sizes across all directory entries (Table I)."""
        counts = []
        for agent in self.agents.values():
            counts.extend(agent.directory.sharer_counts())
        return counts

    def cache_bytes(self) -> dict[str, int]:
        """Current cache occupancy per node (Figure 12)."""
        return {nid: agent.cache.used_bytes for nid, agent in self.agents.items()}

    def close(self) -> None:
        for agent in self.agents.values():
            agent.endpoint.close()
        self.controller.close()
