"""Apta in software: memory-node directory, lazy invalidations,
coherence-aware (stale-avoiding) scheduling.

Data is homed on *memory nodes* (hash of the key).  Compute nodes cache
replicas.  A write updates the memory node (and, in the ``Az`` variant,
also global storage) and **completes immediately**; invalidations to the
sharers happen lazily afterwards.  Until every invalidation is
acknowledged, the sharer compute nodes are *stale* for the application,
and Apta's scheduler refuses to place invocations there — at the price of
querying all memory nodes on every scheduling decision (the 2.8x
scheduler-overhead the paper measures).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.caching.base import (
    CacheEntry,
    LruCache,
    StorageAPI,
    VALID,
    register_cache_gauges,
    register_scheme_metrics,
)
from repro.config import MB
from repro.core.hashring import ConsistentHashRing
from repro.faas.scheduler import LocalityScheduler, Scheduler
from repro.metrics import AccessStats, OpKind
from repro.net.rpc import Endpoint, Reply
from repro.net.sizes import sizeof

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.storage import GlobalStorage


def make_memory_tier(cluster: "Cluster", count: int) -> list:
    """Allocate ``count`` memory-node identifiers on the fabric."""
    return [f"mem{i}" for i in range(count)]


class _MemoryNode:
    """One disaggregated memory node: data, directory, lazy invalidation."""

    def __init__(self, system: "AptaSystem", mem_id: str):
        self.system = system
        self.sim = system.sim
        self.mem_id = mem_id
        #: key -> value held in disaggregated memory.
        self.data: dict[str, object] = {}
        #: key -> set of compute nodes caching it.
        self.sharers: dict[str, set] = {}
        #: compute node -> number of outstanding lazy invalidations.
        self.stale_counts: dict[str, int] = {}
        self.endpoint = Endpoint(
            system.cluster.network, mem_id, f"apta-{system.app}",
            service_time_ms=system.cluster.config.latency.agent_service_ms,
        )
        self.endpoint.register_handler("read", self._handle_read)
        self.endpoint.register_handler("write", self._handle_write)
        self.endpoint.register_handler("stale_query", self._handle_stale_query)

    def stale_nodes(self) -> set:
        return {node for node, count in self.stale_counts.items() if count > 0}

    # -- handlers ---------------------------------------------------------
    def _handle_read(self, endpoint, src, args):
        key, requester = args
        if key not in self.data and self.system.backing is not None:
            value, _version = yield from self.system.backing.read(key)
            if value is not None:
                self.data[key] = value
        value = self.data.get(key)
        if value is not None:
            self.sharers.setdefault(key, set()).add(requester)
        return Reply(value, size_bytes=sizeof(value))

    def _handle_write(self, endpoint, src, args):
        key, value, writer = args
        if self.system.backing is not None:
            # Az variant: the update must also reach global storage —
            # durably, *before* the memory tier serves it.  Installing
            # into ``data`` first would leave an interrupted handler
            # (node crash at the storage yield) advertising a value the
            # backing store never accepted.
            yield from self.system.backing.write(key, value, writer=writer)
        self.data[key] = value
        victims = self.sharers.get(key, set()) - {writer}
        self.sharers[key] = {writer}
        # Lazy invalidation: mark victims stale and reply immediately.
        for victim in sorted(victims):
            self.stale_counts[victim] = self.stale_counts.get(victim, 0) + 1
            self.sim.spawn(
                self._lazy_invalidate(key, victim),
                name=f"apta-inv:{key}:{victim}", daemon=True,
            )
        return Reply(True, size_bytes=1)

    def _lazy_invalidate(self, key: str, victim: str):
        try:
            # Invalidations are batched off the critical path: the memory
            # node flushes them periodically rather than per write.  This
            # is what makes Apta's stale windows long enough that, in the
            # paper, only 8.9 of 15 compute nodes are schedulable at a
            # time.
            yield self.sim.timeout(self.system.lazy_batch_ms)
            yield from self.endpoint.call(
                f"{victim}/apta-cache-{self.system.app}", "invalidate", key,
                size_bytes=len(key))
        finally:
            self.stale_counts[victim] = max(0, self.stale_counts.get(victim, 1) - 1)

    def _handle_stale_query(self, endpoint, src, args):
        return Reply(tuple(sorted(self.stale_nodes())), size_bytes=16)
        yield  # pragma: no cover - generator marker


class _ComputeCache:
    """Per-compute-node cache replica of one application's data."""

    def __init__(self, system: "AptaSystem", node_id: str):
        self.system = system
        self.node_id = node_id
        self.cache = LruCache(system.capacity_per_node, name=f"apta:{node_id}")
        self.endpoint = Endpoint(
            system.cluster.network, node_id, f"apta-cache-{system.app}",
            service_time_ms=system.cluster.config.latency.agent_service_ms,
            cpu=system.cluster.nodes[node_id].cores,
        )
        self.endpoint.register_handler("invalidate", self._handle_invalidate)

    def _handle_invalidate(self, endpoint, src, key):
        self.cache.remove(key)
        return Reply("ack", size_bytes=1)
        yield  # pragma: no cover - generator marker


class AptaSystem(StorageAPI):
    """The Apta caching layer over compute + memory nodes."""

    name = "apta"
    #: Memory-tier writes are eager but invalidations flush lazily in
    #: batches, so compute caches may serve stale data for one batch.
    consistency = "eventual"

    def __init__(
        self,
        cluster: "Cluster",
        memory_nodes: list,
        app: str = "app",
        backing: Optional["GlobalStorage"] = None,
        capacity_per_node: int = 64 * MB,
        lazy_batch_ms: float = 50.0,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.app = app
        #: Global storage behind the memory tier (Az variant); None = Mem.
        self.backing = backing
        self.capacity_per_node = capacity_per_node
        #: Period of the batched lazy-invalidation flush.
        self.lazy_batch_ms = lazy_batch_ms
        self.ring = ConsistentHashRing(memory_nodes)
        self.memory = {mid: _MemoryNode(self, mid) for mid in memory_nodes}
        self.caches = {
            nid: _ComputeCache(self, nid) for nid in cluster.node_ids
        }
        self._stats = AccessStats()
        register_scheme_metrics(self.sim.metrics, self, app)
        if self.sim.metrics.active:
            for node_id, compute_cache in self.caches.items():
                register_cache_gauges(self.sim.metrics, compute_cache.cache,
                                      scheme=self.name, app=app, node=node_id)

    @property
    def stats(self) -> AccessStats:
        return self._stats

    def home_of(self, key: str) -> str:
        return self.ring.home(key)

    def preload(self, items: dict) -> None:
        """Populate the memory tier directly (Mem-variant working set)."""
        for key, value in items.items():
            self.memory[self.home_of(key)].data[key] = value

    def stale_nodes(self) -> set:
        """Union of nodes currently stale at any memory node."""
        stale = set()
        for memory_node in self.memory.values():
            stale |= memory_node.stale_nodes()
        return stale

    # -- StorageAPI -------------------------------------------------------------
    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.timeout(self.cluster.config.latency.local_access)
        compute = self.caches[node_id]
        entry = compute.cache.get(key)
        if entry is not None:
            self._stats.record(OpKind.LOCAL_READ_HIT, self.sim.now - start)
            return entry.value
        home = self.home_of(key)
        value = yield from compute.endpoint.call(
            f"{home}/apta-{self.app}", "read", (key, node_id),
            size_bytes=len(key) + 8)
        # Re-read the registry: install into the node's *current* compute
        # instance, not a handle snapshotted before the RPC suspension.
        compute = self.caches[node_id]
        if value is not None:
            size = sizeof(value)
            if size <= compute.cache.capacity_bytes:
                compute.cache.put(CacheEntry(
                    key=key, value=value, state=VALID, size_bytes=size))
        # Served by the memory tier either way; classify as remote hit.
        self._stats.record(OpKind.REMOTE_READ_HIT, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object,
              ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.timeout(self.cluster.config.latency.local_access)
        compute = self.caches[node_id]
        home = self.home_of(key)
        yield from compute.endpoint.call(
            f"{home}/apta-{self.app}", "write", (key, value, node_id),
            size_bytes=sizeof(value) + len(key))
        # Re-read the registry: install into the node's *current* compute
        # instance, not a handle snapshotted before the RPC suspension.
        compute = self.caches[node_id]
        size = sizeof(value)
        if size <= compute.cache.capacity_bytes:
            compute.cache.put(CacheEntry(
                key=key, value=value, state=VALID, size_bytes=size))
        self._stats.record(OpKind.REMOTE_WRITE_HIT, self.sim.now - start)
        return None


class AptaScheduler(Scheduler):
    """Stale-avoiding scheduler with per-invocation memory-node queries."""

    name = "apta"

    _instances = 0

    def __init__(self, systems: dict):
        #: app name -> AptaSystem (to consult stale sets).
        self.systems = systems
        self._fallback = LocalityScheduler()
        self.scheduling_queries = 0
        self.unavailable_samples: list = []
        self._endpoint = None

    def _scheduler_endpoint(self, network) -> Endpoint:
        if self._endpoint is None:
            AptaScheduler._instances += 1
            self._endpoint = Endpoint(
                network, "lb", f"apta-sched-{AptaScheduler._instances}")
        return self._endpoint

    def pre_pick(self, platform, app: str, function: str, inputs: dict):
        """Query every memory node for stale compute nodes (a generator).

        This is the per-invocation overhead the paper measures as a 2.8x
        scheduler response-time increase.
        """
        system = self.systems.get(app)
        if system is None:
            return
        endpoint = self._scheduler_endpoint(platform.cluster.network)
        queries = [
            platform.sim.spawn(
                endpoint.call(
                    memory_node.endpoint.address, "stale_query", None,
                    size_bytes=8),
                name="stale-q",
            )
            for memory_node in system.memory.values()
        ]
        if queries:
            yield platform.sim.all_of(queries)
        self.scheduling_queries += 1

    def pick(self, app, function, inputs, candidates):
        system = self.systems.get(app)
        stale = system.stale_nodes() if system is not None else set()
        available = [n for n in candidates if n.id not in stale]
        self.unavailable_samples.append(len(candidates) - len(available))
        pool = available or candidates
        return self._fallback.pick(app, function, inputs, pool)
