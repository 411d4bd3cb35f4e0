"""OFC baseline: per-node shared caches, single home per data item.

Each data item can be cached *only* at its home node (hash of the key over
all cluster nodes), so there is no replication and no coherence — but every
access from a non-home node is remote (paper Sections II-C and Figure 2a).
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
from repro.metrics import AccessStats, OpKind
from repro.net.rpc import Endpoint, Reply
from repro.net.sizes import sizeof

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster


class _OfcAgent:
    """Per-node cache server holding the items homed at this node."""

    def __init__(self, system: "OfcSystem", node_id: str):
        self.system = system
        self.node_id = node_id
        self.cache = LruCache(system.capacity_per_node, name=f"ofc:{node_id}")
        self.endpoint = Endpoint(
            system.cluster.network, node_id, "ofc",
            service_time_ms=system.cluster.config.latency.agent_service_ms,
            cpu=system.cluster.nodes[node_id].cores,
        )
        self.endpoint.register_handler("read", self._handle_read)
        self.endpoint.register_handler("write", self._handle_write)

    def read_local(self, key: str):
        """Serve a read at the home node; returns (value, was_cached)."""
        entry = self.cache.get(key)
        if entry is not None:
            return entry.value, True
        value, _version = yield from self.system.cluster.storage.read(key)
        if value is not None:
            self._insert(key, value)
        return value, False

    def write_local(self, key: str, value: object):
        """Write-through at the home node."""
        self._insert(key, value)
        yield from self.system.cluster.storage.write(key, value, writer=self.node_id)

    def _insert(self, key: str, value: object) -> None:
        size = sizeof(value)
        if size <= self.cache.capacity_bytes:
            self.cache.put(CacheEntry(key=key, value=value, state=VALID, size_bytes=size))

    # -- RPC handlers ---------------------------------------------------------
    def _handle_read(self, endpoint, src, key):
        value, cached = yield from self.read_local(key)
        return Reply((value, cached), size_bytes=sizeof(value))

    def _handle_write(self, endpoint, src, args):
        key, value = args
        yield from self.write_local(key, value)
        return Reply(True, size_bytes=1)


class OfcSystem(StorageAPI):
    """Cluster-wide OFC caching layer."""

    name = "ofc"
    #: Single-copy: every key lives at exactly one ring home.
    consistency = "single-copy"

    def __init__(self, cluster: "Cluster", capacity_per_node: int = 64 * MB):
        self.cluster = cluster
        self.sim = cluster.sim
        self.capacity_per_node = capacity_per_node
        self.ring = ConsistentHashRing(cluster.node_ids)
        self.agents = {nid: _OfcAgent(self, nid) for nid in cluster.node_ids}
        self._stats = AccessStats()
        # OFC caches are node-wide, shared across applications.
        register_scheme_metrics(self.sim.metrics, self, app="shared")
        if self.sim.metrics.active:
            for node_id, agent in self.agents.items():
                register_cache_gauges(self.sim.metrics, agent.cache,
                                      scheme=self.name, app="shared",
                                      node=node_id)

    @property
    def stats(self) -> AccessStats:
        return self._stats

    def home_of(self, key: str) -> str:
        return self.ring.home(key)

    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        home = self.home_of(key)
        if home == node_id:
            value, cached = yield from self.agents[node_id].read_local(key)
            kind = OpKind.LOCAL_READ_HIT if cached else OpKind.READ_MISS
        else:
            requester = self.agents[node_id].endpoint
            value, cached = yield from requester.call(
                f"{home}/ofc", "read", key, size_bytes=len(key))
            kind = OpKind.REMOTE_READ_HIT if cached else OpKind.READ_MISS
        self._stats.record(kind, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        home = self.home_of(key)
        if home == node_id:
            yield from self.agents[node_id].write_local(key, value)
            kind = OpKind.LOCAL_WRITE_HIT
        else:
            requester = self.agents[node_id].endpoint
            yield from requester.call(
                f"{home}/ofc", "write", (key, value),
                size_bytes=sizeof(value))
            kind = OpKind.REMOTE_WRITE_HIT
        self._stats.record(kind, self.sim.now - start)
        return None
