"""The scheme zoo: classic production cache-consistency families.

The paper races its own protocol against the baselines it was built to
beat; this module adds the families a production cache tier actually
ships, each as a first-class registry scheme so every experiment can
sweep them:

``write-through``
    Per-node LRU; writes go to storage synchronously, then best-effort
    invalidations fan out to peers.  Eventual consistency (a dropped
    invalidation leaves a stale copy until eviction); zero crash loss.

``write-behind``
    Writes are acknowledged from a bounded per-node dirty buffer and
    made durable by a flush daemon.  Fast writes, bounded buffer (full
    buffer back-pressures the writer through a synchronous flush), and
    explicit loss-on-crash accounting: dirty entries that die with the
    node are counted (``cache_dirty_lost_total``) and flight-recorded
    (``cache.flush.lost``).

``read-through-ttl``
    Cache-aside with a freshness lease: a hit is served only while its
    fetch is younger than ``ttl_ms``; writes go to storage and delete
    the local copy.  No cross-node traffic at all — staleness is
    bounded by the TTL instead (checked by
    :func:`repro.verify.causal.check_bounded_staleness`).

``causal``
    Causally consistent cache à la CausalMesh: writes are tagged with
    vector clocks piggybacked on RPC metadata, sessions (one per
    function, the serverless "client") carry their causal past across
    node migrations, and a read either proves local state dominates the
    session's clock, pulls the gap from the lagging origin
    (``causal.sync``), or falls back to durable storage.  Per-key
    session guarantees (read-your-writes, monotonic reads) are
    unconditional — per-key versions are anchored in storage's total
    order; the vector-clock gate adds cross-key transitive causality
    and is best-effort under crashes (a dead origin's unreplicated
    writes survive only in storage).

All four compose with the fault injector (crash listeners clear dead
state, ``restart_instance`` re-admits a node), with regions (latency is
taken from the fabric/storage topology), and emit the established
telemetry families plus the ``cache.flush.*`` / ``cache.ttl.*`` /
``causal.*`` flight-recorder events.
"""

from __future__ import annotations

from collections import OrderedDict
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
from repro.coord.service import ping_handler
from repro.metrics import AccessStats, OpKind
from repro.net.rpc import (
    Endpoint,
    Reply,
    RpcTimeout,
)
from repro.net.sizes import sizeof
from repro.obs.events import (
    CACHE_FLUSH_ENQUEUE,
    CACHE_FLUSH_LOST,
    CACHE_FLUSH_WRITE,
    CACHE_INVALIDATE,
    CACHE_TTL_EXPIRE,
    CAUSAL_MIGRATE,
    CAUSAL_SYNC,
    CAUSAL_WRITE,
    INV_SEND,
)
from repro.schemes import register_scheme
from repro.schemes.vclock import ZERO, VectorClock
from repro.sim.errors import Interrupt
from repro.verify.causal import (
    CausalOp,
    check_bounded_staleness,
    check_session_guarantees,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

#: Wire bytes one vector-clock component costs (node id + counter).
VC_COMPONENT_BYTES = 12


def _vc_bytes(vc: VectorClock) -> int:
    return VC_COMPONENT_BYTES * len(vc)


class _ZooInstance:
    """Shared per-node plumbing: one cache + one RPC endpoint."""

    def __init__(self, system, node_id: str, service: str):
        self.system = system
        self.node_id = node_id
        cluster = system.cluster
        self.cache = LruCache(system.capacity_per_instance,
                              name=f"{system.name}:{node_id}")
        self.cache.obs = system.sim.obs
        self.endpoint = Endpoint(
            cluster.network, node_id, service,
            service_time_ms=cluster.config.latency.agent_service_ms,
            cpu=cluster.nodes[node_id].cores,
        )

    @property
    def address(self) -> str:
        return self.endpoint.address

    def install(self, key: str, value: object, version: int) -> None:
        size = sizeof(value)
        if size <= self.cache.capacity_bytes:
            self.cache.put(CacheEntry(
                key=key, value=value, state=VALID,
                size_bytes=size, version=version,
            ))


class _InvalidatingSystem(StorageAPI):
    """Common base for the per-node-cache schemes (WT / WB / TTL)."""

    def __init__(self, cluster: "Cluster", app: str,
                 capacity_per_instance: int, coord=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.app = app
        self.coord = coord
        self.capacity_per_instance = capacity_per_instance
        self.instances = {
            node_id: _ZooInstance(self, node_id, f"{self.name}-{app}")
            for node_id in cluster.node_ids
        }
        self._stats = AccessStats()
        cluster.on_crash(self._on_crash)
        for instance in self.instances.values():
            instance.endpoint.register_handler("inv", self._handle_inv)
            instance.endpoint.register_handler("ping", ping_handler)
        if coord is not None:
            # Enroll every instance in heartbeat failure detection; a
            # "membership" notify to these endpoints is dropped (one-way),
            # which is fine — peers need no view of each other here.
            for node_id, instance in self.instances.items():
                coord.join(app, node_id, instance.address)
        register_scheme_metrics(self.sim.metrics, self, app)
        if self.sim.metrics.active:
            for node_id, instance in self.instances.items():
                register_cache_gauges(self.sim.metrics, instance.cache,
                                      scheme=self.name, app=app, node=node_id)

    @property
    def stats(self) -> AccessStats:
        return self._stats

    # -- fault lifecycle -----------------------------------------------
    def _on_crash(self, node_id: str) -> None:
        """Process memory dies with the node: drop the cache instance."""
        instance = self.instances.get(node_id)
        if instance is not None:
            instance.cache.clear()

    def restart_instance(self, node_id: str):
        """Re-admit a restarted node (its cache restarts cold)."""
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        if self.coord is not None:
            self.coord.join(self.app, node_id,
                            self.instances[node_id].address)

    # -- peer invalidation ---------------------------------------------
    def _broadcast_invalidate(self, instance: _ZooInstance, key: str) -> None:
        """Best-effort one-way invalidations to every peer instance."""
        obs = self.sim.obs
        sent = 0
        for node_id, peer in self.instances.items():
            if node_id == instance.node_id:
                continue
            if obs.active:
                obs.emit(INV_SEND, node=instance.node_id, key=key,
                         dst=node_id)
            instance.endpoint.notify(
                peer.address, "inv", key, size_bytes=len(key))
            sent += 1
        self._stats.invalidations_per_write.record(sent)

    def _handle_inv(self, endpoint, src, key):
        instance = self.instances[endpoint.node_id]
        removed = instance.cache.remove(key)
        if removed is not None:
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_INVALIDATE, node=endpoint.node_id, key=key,
                         state=removed.state)
        return Reply(True, size_bytes=1)
        yield  # pragma: no cover - generator marker (no suspension points)


class WriteThroughSystem(_InvalidatingSystem):
    """Write-through: synchronous durable writes + peer invalidation."""

    name = "write-through"
    consistency = "eventual"

    def __init__(self, cluster: "Cluster", app: str = "app",
                 capacity_per_instance: int = 64 * MB, coord=None):
        super().__init__(cluster, app, capacity_per_instance, coord=coord)

    def verify_invariants(self, cluster=None) -> list:
        """Version-anchored check: no cached version claims a value
        storage never held (staleness itself is legitimate here)."""
        return _check_version_anchor(self, skip_dirty=None)

    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        entry = instance.cache.get(key)
        if entry is not None:
            self._stats.record(OpKind.LOCAL_READ_HIT, self.sim.now - start)
            return entry.value
        value, version = yield from self.cluster.storage.read(
            key, reader=node_id)
        if value is not None:
            instance.install(key, value, version)
        self._stats.record(OpKind.READ_MISS, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object,
                  ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        had = key in instance.cache
        version = yield from self.cluster.storage.write(
            key, value, writer=node_id)
        instance.install(key, value, version)
        self._broadcast_invalidate(instance, key)
        kind = OpKind.LOCAL_WRITE_HIT if had else OpKind.WRITE_MISS
        self._stats.record(kind, self.sim.now - start)
        return None


class _DirtyEntry:
    """One coalesced dirty-buffer slot (latest value wins)."""

    __slots__ = ("value", "enqueued_ms", "coalesced")

    def __init__(self, value: object, enqueued_ms: float):
        self.value = value
        self.enqueued_ms = enqueued_ms
        self.coalesced = 1


class WriteBehindSystem(_InvalidatingSystem):
    """Write-behind: bounded dirty buffer + flush daemon + loss accounting."""

    name = "write-behind"
    consistency = "eventual"

    def __init__(self, cluster: "Cluster", app: str = "app",
                 capacity_per_instance: int = 64 * MB,
                 buffer_entries: int = 32,
                 flush_interval_ms: float = 50.0, coord=None):
        if buffer_entries < 1:
            raise ValueError("buffer_entries must be >= 1")
        super().__init__(cluster, app, capacity_per_instance, coord=coord)
        self.buffer_entries = buffer_entries
        self.flush_interval_ms = flush_interval_ms
        #: node -> key -> _DirtyEntry, FIFO by first enqueue.
        self.dirty: dict[str, "OrderedDict[str, _DirtyEntry]"] = {}
        #: node -> keys whose flush write is in flight (dict-as-set).
        self._inflight_flush: dict[str, dict] = {}
        # Accounting: enqueued == flushed + lost + coalesced + pending.
        self.writes_enqueued = 0
        self.writes_flushed = 0
        self.writes_lost = 0
        self.writes_coalesced = 0
        self.backpressure_stalls = 0
        for node_id, instance in self.instances.items():
            self.dirty[node_id] = OrderedDict()
            self._inflight_flush[node_id] = {}
            # Per-node accounting lives on the instance so callbacks and
            # the crash listener agree on one source of truth.
            instance.flushed = 0
            instance.lost = 0
            instance.stalls = 0
            self.sim.spawn(self._flush_daemon(node_id),
                           name=f"wb:flush:{app}:{node_id}", daemon=True)
        metrics = self.sim.metrics
        if metrics.active:
            gauge = metrics.gauge(
                "cache_dirty_buffered",
                "Writes parked in the write-behind dirty buffer.",
                labelnames=("app", "node", "scheme"))
            flushes = metrics.counter(
                "cache_flushes_total",
                "Dirty-buffer entries flushed to durable storage.",
                labelnames=("app", "node", "scheme"))
            lost = metrics.counter(
                "cache_dirty_lost_total",
                "Dirty-buffer entries lost to a node crash.",
                labelnames=("app", "node", "scheme"))
            stalls = metrics.counter(
                "cache_flush_backpressure_total",
                "Writes stalled on a synchronous flush (buffer full).",
                labelnames=("app", "node", "scheme"))
            for node_id, instance in self.instances.items():
                buffer = self.dirty[node_id]
                gauge.set_callback(lambda buffer=buffer: len(buffer),
                                   scheme=self.name, app=app, node=node_id)
                flushes.set_callback(
                    lambda i=instance: i.flushed,
                    scheme=self.name, app=app, node=node_id)
                lost.set_callback(
                    lambda i=instance: i.lost,
                    scheme=self.name, app=app, node=node_id)
                stalls.set_callback(
                    lambda i=instance: i.stalls,
                    scheme=self.name, app=app, node=node_id)

    # -- fault lifecycle -----------------------------------------------
    def _on_crash(self, node_id: str) -> None:
        buffer = self.dirty.get(node_id)
        if buffer:
            obs = self.sim.obs
            for key, entry in buffer.items():  # FIFO enqueue order
                self.writes_lost += 1
                self.instances[node_id].lost += 1
                if obs.active:
                    obs.emit(CACHE_FLUSH_LOST, node=node_id, key=key,
                             coalesced=entry.coalesced,
                             buffered_ms=self.sim.now - entry.enqueued_ms)
            buffer.clear()
        super()._on_crash(node_id)

    # -- dirty-buffer mechanics ------------------------------------------
    def _flush_one(self, node_id: str):
        """Pop and durably write the oldest flushable dirty entry."""
        buffer = self.dirty[node_id]
        inflight = self._inflight_flush[node_id]
        victim = None
        for key in buffer:  # FIFO enqueue order
            if key not in inflight:
                victim = key
                break
        if victim is None:
            return False
        entry = buffer.pop(victim)
        # Serialize per-key flushes: a re-dirty during this write must
        # wait for the next round, so storage sees per-key write order.
        inflight[victim] = None
        try:
            version = yield from self.cluster.storage.write(
                victim, entry.value, writer=node_id)
        except Interrupt:
            # A backpressure flush runs in the writer's own process; if
            # the node crashes mid-write the entry is gone exactly like
            # one cleared from the buffer — account it as lost.
            self.writes_lost += 1
            instance = self.instances[node_id]
            instance.lost += 1
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_FLUSH_LOST, node=node_id, key=victim,
                         coalesced=entry.coalesced,
                         buffered_ms=self.sim.now - entry.enqueued_ms)
            raise
        finally:
            inflight.pop(victim, None)
        self.writes_flushed += 1
        instance = self.instances[node_id]
        instance.flushed += 1
        cached = instance.cache.peek(victim)
        if cached is not None and cached.value is entry.value:
            cached.version = version
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_FLUSH_WRITE, node=node_id, key=victim,
                     version=version, coalesced=entry.coalesced,
                     buffered_ms=self.sim.now - entry.enqueued_ms)
        self._broadcast_invalidate(instance, victim)
        return True

    def _flush_daemon(self, node_id: str):
        while True:
            yield self.sim.timeout(self.flush_interval_ms)
            if not self.cluster.nodes[node_id].alive:
                continue
            # Drain what is flushable this round; keys re-dirtied while
            # their previous flush is still in flight wait a round.
            for _ in range(len(self.dirty[node_id])):
                if not self.cluster.nodes[node_id].alive:
                    break
                flushed = yield from self._flush_one(node_id)
                if not flushed:
                    break

    def pending(self, node_id: Optional[str] = None) -> int:
        """Dirty entries currently buffered (one node or all)."""
        if node_id is not None:
            return len(self.dirty[node_id])
        return sum(len(buffer) for buffer in self.dirty.values())

    def verify_invariants(self, cluster=None) -> list:
        violations = _check_version_anchor(self, skip_dirty=self.dirty)
        for node_id in sorted(self.dirty):
            if len(self.dirty[node_id]) > self.buffer_entries:
                violations.append(
                    f"{node_id}: dirty buffer holds "
                    f"{len(self.dirty[node_id])} entries "
                    f"(bound {self.buffer_entries})")
        booked = (self.writes_flushed + self.writes_lost
                  + self.writes_coalesced + self.pending())
        inflight = sum(len(i) for i in self._inflight_flush.values())
        if booked + inflight != self.writes_enqueued:
            violations.append(
                f"write-behind accounting drift: {self.writes_enqueued} "
                f"enqueued != {self.writes_flushed} flushed + "
                f"{self.writes_lost} lost + {self.writes_coalesced} "
                f"coalesced + {self.pending()} pending + "
                f"{inflight} in flight")
        return violations

    # -- the data path ----------------------------------------------------
    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        entry = instance.cache.get(key)
        if entry is not None:
            self._stats.record(OpKind.LOCAL_READ_HIT, self.sim.now - start)
            return entry.value
        value, version = yield from self.cluster.storage.read(
            key, reader=node_id)
        if value is not None:
            instance.install(key, value, version)
        self._stats.record(OpKind.READ_MISS, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object,
                  ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        buffer = self.dirty[node_id]
        while key not in buffer and len(buffer) >= self.buffer_entries:
            # Bounded buffer: the writer pays for the oldest flush (or
            # waits, when every buffered key is already mid-flush).
            self.backpressure_stalls += 1
            instance.stalls += 1
            flushed = yield from self._flush_one(node_id)
            if not flushed:
                yield self.sim.sleep(
                    self.cluster.config.latency.local_access)
        self.writes_enqueued += 1
        slot = buffer.get(key)
        if slot is None:
            buffer[key] = _DirtyEntry(value, self.sim.now)
        else:
            # Coalesce: keep the FIFO position, supersede the value.
            self.writes_coalesced += 1
            slot.value = value
            slot.coalesced += 1
        instance.install(key, value,
                         self.cluster.storage.version_of(key))
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_FLUSH_ENQUEUE, node=node_id, key=key,
                     buffered=len(buffer))
        self._stats.record(OpKind.LOCAL_WRITE_HIT, self.sim.now - start)
        return None


class ReadThroughTtlSystem(_InvalidatingSystem):
    """Cache-aside with a TTL freshness lease (bounded staleness)."""

    name = "read-through-ttl"
    consistency = "bounded-staleness"

    def __init__(self, cluster: "Cluster", app: str = "app",
                 capacity_per_instance: int = 64 * MB,
                 ttl_ms: float = 500.0, coord=None):
        if ttl_ms <= 0.0:
            raise ValueError("ttl_ms must be > 0")
        super().__init__(cluster, app, capacity_per_instance, coord=coord)
        self.ttl_ms = ttl_ms
        #: node -> key -> completion time of the fetch that installed it.
        self.fetched_at: dict[str, dict[str, float]] = {
            node_id: {} for node_id in cluster.node_ids}
        self.ttl_expired = 0
        #: (t_ms, node, key, version) per read served (for the checker).
        self.read_log: list = []
        #: (t_ms, key, version) per storage commit (for the checker).
        self.write_log: list = []
        cluster.storage.add_write_listener(self._on_commit)
        metrics = self.sim.metrics
        if metrics.active:
            metrics.counter(
                "cache_ttl_expired_total",
                "Hits refused because the entry's TTL had lapsed.",
                labelnames=("app", "scheme"),
            ).set_callback(lambda: self.ttl_expired,
                           scheme=self.name, app=app)

    def _on_commit(self, key: str, value: object, version: int,
                   writer: str) -> None:
        self.write_log.append((self.sim.now, key, version))

    def _on_crash(self, node_id: str) -> None:
        self.fetched_at[node_id].clear()
        super()._on_crash(node_id)

    def verify_invariants(self, cluster=None) -> list:
        return check_bounded_staleness(
            self.read_log, self.write_log, self.ttl_ms)

    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        fetched = self.fetched_at[node_id]
        entry = instance.cache.get(key)
        if entry is not None:
            age = self.sim.now - fetched.get(key, 0.0)
            if age <= self.ttl_ms:
                self.read_log.append(
                    (self.sim.now, node_id, key, entry.version))
                self._stats.record(OpKind.LOCAL_READ_HIT,
                                   self.sim.now - start)
                return entry.value
            self.ttl_expired += 1
            # Dropping an expired entry needs no Interrupt compensation:
            # a cache without the entry is always a legal state.
            instance.cache.remove(key)  # noqa: INT01
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_TTL_EXPIRE, node=node_id, key=key,
                         age_ms=age, ttl_ms=self.ttl_ms)
        value, version = yield from self.cluster.storage.read(
            key, reader=node_id)
        if value is not None:
            instance.install(key, value, version)
            fetched[key] = self.sim.now
        self.read_log.append((self.sim.now, node_id, key, version))
        self._stats.record(OpKind.READ_MISS, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object,
                  ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        yield from self.cluster.storage.write(key, value, writer=node_id)
        # Cache-aside: delete, don't update — the next read refetches.
        instance.cache.remove(key)
        self.fetched_at[node_id].pop(key, None)
        self._stats.record(OpKind.WRITE_MISS, self.sim.now - start)
        return None


def _check_version_anchor(system, skip_dirty) -> list:
    """No cached copy may claim a (version, value) storage never had.

    The eventual-consistency schemes legitimately hold *stale* copies
    (a dropped invalidation is part of the model), so unlike Concord's
    checker this one only rejects fabrications: a cached version newer
    than storage's, or a value that differs from storage's under the
    same version.  Keys sitting in a write-behind dirty buffer are
    exempt (their value is *ahead* of storage by design)."""
    violations: list = []
    storage = system.cluster.storage
    for node_id in sorted(system.instances):
        node = system.cluster.nodes.get(node_id)
        if node is not None and not node.alive:
            continue
        instance = system.instances[node_id]
        dirty = skip_dirty.get(node_id, ()) if skip_dirty else ()
        for key in instance.cache.keys():
            if key in dirty:
                continue
            entry = instance.cache.peek(key)
            if entry is None:
                continue
            record = storage.peek(key)
            if record is None:
                violations.append(
                    f"{node_id}: caches {key!r} but storage has no record")
            elif entry.version > record.version:
                violations.append(
                    f"{node_id}: cached version {entry.version} of {key!r} "
                    f"is ahead of storage version {record.version}")
            elif (entry.version == record.version
                  and entry.value != record.value):
                violations.append(
                    f"{node_id}: cached {key!r} v{entry.version} holds "
                    f"{entry.value!r} but storage holds {record.value!r}")
    return violations


class _CausalSession:
    """One client's (function's) causal past, carried across nodes."""

    __slots__ = ("vc", "deps", "seen", "last_node")

    def __init__(self):
        #: Merge of every write vc this session issued or observed.
        self.vc = ZERO
        #: key -> minimum storage version a read of key must return.
        self.deps: dict[str, int] = {}
        #: Merge of the vcs of values read (writes-follow-reads floor).
        self.seen = ZERO
        self.last_node: Optional[str] = None


class _CausalInstance(_ZooInstance):
    """Per-node causal state on top of the shared cache instance."""

    def __init__(self, system: "CausalCacheSystem", node_id: str,
                 service: str):
        super().__init__(system, node_id, service)
        #: Merge of every write vc applied here (the read gate).
        self.applied_vc = ZERO
        #: key -> vc of the last write applied to it here.
        self.vc_of: dict[str, VectorClock] = {}
        #: Writes originated here since the last crash, in seq order:
        #: (seq, key, value, version, vc).
        self.local_log: list = []

    def apply(self, key: str, value: object, version: int,
              vc: VectorClock) -> bool:
        """Install a write if it is newer than what we hold; merge vcs."""
        self.applied_vc = self.applied_vc.merge(vc)
        current = self.cache.peek(key)
        if current is not None and current.version >= version:
            return False
        self.install(key, value, version)
        if self.cache.peek(key) is not None:
            self.vc_of[key] = self.vc_of.get(key, ZERO).merge(vc)
        return True


class CausalCacheSystem(StorageAPI):
    """Causally consistent cache with vc metadata and session migration."""

    name = "causal"
    consistency = "causal"

    def __init__(self, cluster: "Cluster", app: str = "app",
                 capacity_per_instance: int = 64 * MB,
                 sync_timeout_ms: float = 100.0,
                 record_history: bool = True, coord=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.app = app
        self.coord = coord
        self.capacity_per_instance = capacity_per_instance
        self.sync_timeout_ms = sync_timeout_ms
        self.record_history = record_history
        self.instances = {
            node_id: _CausalInstance(self, node_id, f"causal-{app}")
            for node_id in cluster.node_ids
        }
        for instance in self.instances.values():
            instance.endpoint.register_handler(
                "repl", self._handle_repl, meta=True)
            instance.endpoint.register_handler("pull", self._handle_pull)
            instance.endpoint.register_handler("ping", ping_handler)
        if coord is not None:
            for node_id, instance in self.instances.items():
                coord.join(app, node_id, instance.address)
        #: Session tokens by client (function) name; the token models
        #: causal metadata the client carries, so it survives migration.
        self.sessions: dict[str, _CausalSession] = {}
        #: node -> count of writes ever originated there.  Survives
        #: crashes (a restarted node must not reuse vc components, like
        #: an epoch-stamped hybrid clock in a real deployment).
        self.write_seq: dict[str, int] = {
            node_id: 0 for node_id in cluster.node_ids}
        self.syncs = 0
        self.sync_failures = 0
        self.migrations = 0
        #: Session-guarantee history (verification; see repro.verify.causal).
        self.history: list = []
        self._stats = AccessStats()
        cluster.on_crash(self._on_crash)
        register_scheme_metrics(self.sim.metrics, self, app)
        metrics = self.sim.metrics
        if metrics.active:
            for node_id, instance in self.instances.items():
                register_cache_gauges(metrics, instance.cache,
                                      scheme=self.name, app=app, node=node_id)
            metrics.counter(
                "causal_syncs_total",
                "Pull rounds issued to close a vector-clock gap.",
                labelnames=("app", "scheme"),
            ).set_callback(lambda: self.syncs, scheme=self.name, app=app)
            metrics.counter(
                "causal_sync_failures_total",
                "Pull rounds that timed out (gap left to storage).",
                labelnames=("app", "scheme"),
            ).set_callback(lambda: self.sync_failures,
                           scheme=self.name, app=app)
            metrics.counter(
                "causal_migrations_total",
                "Session moves between nodes (client migration).",
                labelnames=("app", "scheme"),
            ).set_callback(lambda: self.migrations,
                           scheme=self.name, app=app)

    @property
    def stats(self) -> AccessStats:
        return self._stats

    # -- fault lifecycle -----------------------------------------------
    def _on_crash(self, node_id: str) -> None:
        instance = self.instances.get(node_id)
        if instance is not None:
            instance.cache.clear()
            instance.vc_of.clear()
            instance.local_log.clear()
            instance.applied_vc = ZERO

    def restart_instance(self, node_id: str):
        """Re-admit a restarted node: cold cache, write counter intact."""
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        # The node's own component must never regress (epoch semantics);
        # everything else is relearned from replication and pulls.
        instance.applied_vc = ZERO.advance(node_id, self.write_seq[node_id])
        if self.coord is not None:
            self.coord.join(self.app, node_id, instance.address)

    def verify_invariants(self, cluster=None) -> list:
        return check_session_guarantees(self.history)

    # -- sessions --------------------------------------------------------
    def _session(self, node_id: str, ctx: Optional[object]) -> _CausalSession:
        client = getattr(ctx, "function", "") or ""
        session = self.sessions.get(client)
        if session is None:
            session = _CausalSession()
            self.sessions[client] = session
        if session.last_node is not None and session.last_node != node_id:
            self.migrations += 1
            obs = self.sim.obs
            if obs.active:
                obs.emit(CAUSAL_MIGRATE, node=node_id, key=client,
                         src=session.last_node)
        session.last_node = node_id
        return session

    # -- RPC handlers ----------------------------------------------------
    def _handle_repl(self, endpoint, src, args, meta):
        key, value, version = args
        instance = self.instances[endpoint.node_id]
        node = self.cluster.nodes.get(endpoint.node_id)
        if node is None or node.alive:
            instance.apply(key, value, version, meta or ZERO)
        return Reply(True, size_bytes=1)
        yield  # pragma: no cover - generator marker (no suspension points)

    def _handle_pull(self, endpoint, src, have):
        instance = self.instances[endpoint.node_id]
        node_id = endpoint.node_id
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        entries = [record for record in instance.local_log
                   if record[0] > have]
        size = 16
        for record in entries:
            size += sizeof(record[2]) + _vc_bytes(record[4]) + 16
        return Reply((entries, self.write_seq[node_id]), size_bytes=size)

    # -- the data path ----------------------------------------------------
    def _do_write(self, node_id: str, key: str, value: object,
                  ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        session = self._session(node_id, ctx)
        self.write_seq[node_id] += 1
        vc = (session.vc.merge(instance.applied_vc)
              .advance(node_id, self.write_seq[node_id]))
        # Durability first: the write survives any crash from here on.
        version = yield from self.cluster.storage.write(
            key, value, writer=node_id)
        # Concurrent invocations of the same session may have completed
        # reads while the storage write was in flight; fold the session
        # clock in again *before* this clock becomes visible anywhere,
        # so the write dominates everything its session has read
        # (writes-follow-reads).  No suspension points below until the
        # history append, so the clock cannot go stale again.
        vc = vc.merge(session.vc)
        instance.apply(key, value, version, vc)
        instance.local_log.append(
            (self.write_seq[node_id], key, value, version, vc))
        payload_bytes = sizeof(value) + _vc_bytes(vc) + 16
        for peer_id, peer in self.instances.items():
            if peer_id == node_id:
                continue
            instance.endpoint.notify(
                peer.address, "repl", (key, value, version),
                size_bytes=payload_bytes, meta=vc)
        session.vc = session.vc.merge(vc)
        session.deps[key] = max(session.deps.get(key, 0), version)
        obs = self.sim.obs
        if obs.active:
            obs.emit(CAUSAL_WRITE, node=node_id, key=key, version=version,
                     vc=vc.as_tuple())
        if self.record_history:
            self.history.append(CausalOp(
                op="w", t_ms=self.sim.now, session=session_key(ctx),
                node=node_id, key=key, version=version, vc=vc))
        self._stats.record(OpKind.WRITE_MISS, self.sim.now - start)
        return None

    def _sync(self, instance: _CausalInstance, session: _CausalSession):
        """One pull round per lagging origin; best-effort under faults."""
        node_id = instance.node_id
        lagging = [origin for origin in sorted(self.instances)
                   if origin != node_id
                   and instance.applied_vc.get(origin)
                   < session.vc.get(origin)]
        obs = self.sim.obs
        for origin in lagging:
            self.syncs += 1
            have = instance.applied_vc.get(origin)
            try:
                entries, origin_seq = yield from instance.endpoint.call(
                    self.instances[origin].address, "pull", have,
                    size_bytes=16, timeout=self.sync_timeout_ms)
            except RpcTimeout:
                self.sync_failures += 1
                continue
            for _seq, key, value, version, vc in entries:
                instance.apply(key, value, version, vc)
            # A crashed-and-restarted origin has forgotten log entries
            # below its surviving counter; their data is safe in storage
            # (writes are durable before they are visible), so the gap
            # is declared closed up to what the session needs.
            target = min(origin_seq, session.vc.get(origin))
            # Monotonic advance over durably-applied entries: if the
            # next pull's Interrupt lands first, the half-synced clock
            # is still a correct (merely conservative) applied_vc.
            instance.applied_vc = instance.applied_vc.advance(  # noqa: INT01
                origin, target)
            if obs.active:
                obs.emit(CAUSAL_SYNC, node=node_id, key=origin,
                         pulled=len(entries), have=have,
                         upto=instance.applied_vc.get(origin))

    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        session = self._session(node_id, ctx)

        synced = False
        if not instance.applied_vc.dominates(session.vc):
            # Cross-key causal gap: pull from the lagging origins before
            # serving anything (transitive causality, CausalMesh-style).
            yield from self._sync(instance, session)
            synced = True

        # Every suspension point can interleave with concurrent
        # invocations of the same session, which may raise the session's
        # per-key dep; re-read it after each one so the value served is
        # never older than one this session already returned (monotonic
        # reads / read-your-writes under intra-session concurrency).
        while True:
            dep = session.deps.get(key, 0)
            entry = instance.cache.get(key)
            # `instance` is the stable per-node object (crashes clear it
            # in place and interrupt this process), and dep/entry/vc are
            # re-read every iteration — the loop IS the revalidation.
            if (entry is not None and entry.version >= dep  # noqa: ATM01
                    and instance.applied_vc.dominates(session.vc)):
                value, version = entry.value, entry.version
                value_vc = instance.vc_of.get(key, ZERO)
                kind = (OpKind.REMOTE_READ_HIT if synced
                        else OpKind.LOCAL_READ_HIT)
                break
            # Storage fallback: per-key versions are totally ordered and
            # durable-before-visible, so this satisfies the session's
            # per-key deps even when peers are dead.
            value, version = yield from self.cluster.storage.read(
                key, reader=node_id)
            if value is not None:
                # Installing a durably-committed version is idempotent;
                # an Interrupt leaving it cached is a legal state.
                instance.install(key, value, version)  # noqa: INT01
            if version >= session.deps.get(key, 0):
                value_vc = instance.vc_of.get(key, ZERO)
                kind = OpKind.READ_MISS
                break
            # A concurrent read/write in this session observed a newer
            # version while ours was in flight; go around again (the dep
            # version is durably committed, so a fresh storage round
            # trip can always satisfy it).
        session.deps[key] = max(session.deps.get(key, 0), version)
        session.seen = session.seen.merge(value_vc)
        session.vc = session.vc.merge(value_vc)
        if self.record_history:
            self.history.append(CausalOp(
                op="r", t_ms=self.sim.now, session=session_key(ctx),
                node=node_id, key=key, version=version, vc=value_vc))
        self._stats.record(kind, self.sim.now - start)
        return value


def session_key(ctx: Optional[object]) -> str:
    """The client identity a session is keyed by (function name)."""
    return getattr(ctx, "function", "") or ""


# -- registry entries -------------------------------------------------------

@register_scheme(
    "write-through",
    description="Per-node LRU; synchronous durable writes + best-effort "
                "peer invalidation (eventual consistency, zero crash loss).")
def build_write_through(cluster, coord, app, *, capacity=None, **_):
    return WriteThroughSystem(
        cluster, app=(app or "app"),
        capacity_per_instance=(capacity or 64 * MB), coord=coord)


@register_scheme(
    "write-behind",
    description="Bounded dirty buffer + flush daemon; fast acks, crash "
                "loss accounted per entry (eventual consistency).")
def build_write_behind(cluster, coord, app, *, capacity=None,
                       wb_buffer_entries=32, wb_flush_interval_ms=50.0,
                       **_):
    return WriteBehindSystem(
        cluster, app=(app or "app"),
        capacity_per_instance=(capacity or 64 * MB),
        buffer_entries=wb_buffer_entries,
        flush_interval_ms=wb_flush_interval_ms, coord=coord)


@register_scheme(
    "read-through-ttl",
    description="Cache-aside with a TTL freshness lease; staleness "
                "bounded by the TTL, no cross-node traffic.")
def build_read_through_ttl(cluster, coord, app, *, capacity=None,
                           ttl_ms=500.0, **_):
    return ReadThroughTtlSystem(
        cluster, app=(app or "app"),
        capacity_per_instance=(capacity or 64 * MB), ttl_ms=ttl_ms,
        coord=coord)


@register_scheme(
    "causal",
    description="Causally consistent cache: vector-clock metadata on "
                "RPC, session guarantees across client migration.")
def build_causal(cluster, coord, app, *, capacity=None,
                 causal_sync_timeout_ms=100.0, **_):
    return CausalCacheSystem(
        cluster, app=(app or "app"),
        capacity_per_instance=(capacity or 64 * MB),
        sync_timeout_ms=causal_sync_timeout_ms, coord=coord)
