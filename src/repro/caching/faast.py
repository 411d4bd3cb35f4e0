"""Faa$T baseline: per-application caches with a versioning protocol.

Each application has a cache instance on every node that hosts it; data may
be replicated.  Coherence is maintained by version numbers: a non-home read
first fetches the item's version from the home and compares it with the
locally cached version (paper Section II-C).  We implement the *optimized*
variant the paper compares against: the home caches version numbers, so
version probes do not touch global storage.

Optionally, keys annotated read-only skip version checks entirely
(Related Work, Section VIII).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

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


class _FaastInstance:
    """Per-node cache instance of one application."""

    def __init__(self, system: "FaastSystem", node_id: str):
        self.system = system
        self.node_id = node_id
        self.cache = LruCache(system.capacity_per_instance, name=f"faast:{node_id}")
        #: Home-side version map: latest version of keys homed here.  Kept
        #: even for keys whose data was evicted (the optimization).
        self.versions: dict[str, int] = {}
        self.endpoint = Endpoint(
            system.cluster.network, node_id, f"faast-{system.app}",
            service_time_ms=system.cluster.config.latency.agent_service_ms,
            cpu=system.cluster.nodes[node_id].cores,
        )
        self.endpoint.register_handler("check_version", self._handle_check_version)
        self.endpoint.register_handler("fetch", self._handle_fetch)
        self.endpoint.register_handler("write", self._handle_write)

    # -- home-side operations ------------------------------------------------
    def home_version(self, key: str):
        """Latest version of a key homed here (storage probe on cold miss)."""
        if key not in self.versions:
            version = yield from self.system.cluster.storage.read_version(key)
            self.versions[key] = version
        return self.versions[key]

    def home_fetch(self, key: str):
        """Data + version from the home; returns (value, version, cached)."""
        entry = self.cache.get(key)
        version = yield from self.home_version(key)
        if entry is not None and entry.version == version:
            return entry.value, version, True
        value, version = yield from self.system.cluster.storage.read(key)
        self.versions[key] = version
        if value is not None:
            self._insert(key, value, version)
        return value, version, False

    def home_write(self, key: str, value: object):
        """Write-through at the home; returns the new version."""
        new_version = yield from self.system.cluster.storage.write(
            key, value, writer=self.node_id
        )
        self.versions[key] = new_version
        self._insert(key, value, new_version)
        return new_version

    def _insert(self, key: str, value: object, version: int) -> None:
        size = sizeof(value)
        if size <= self.cache.capacity_bytes:
            self.cache.put(CacheEntry(
                key=key, value=value, state=VALID, size_bytes=size, version=version,
            ))

    # -- RPC handlers -----------------------------------------------------------
    def _handle_check_version(self, endpoint, src, key):
        version = yield from self.home_version(key)
        return Reply(version, size_bytes=8)

    def _handle_fetch(self, endpoint, src, key):
        value, version, cached = yield from self.home_fetch(key)
        return Reply((value, version, cached), size_bytes=sizeof(value) + 8)

    def _handle_write(self, endpoint, src, args):
        key, value = args
        version = yield from self.home_write(key, value)
        return Reply(version, size_bytes=8)


class FaastSystem(StorageAPI):
    """Per-application Faa$T caching layer."""

    name = "faast"
    #: Reads validate cached versions against the key's home.
    consistency = "version-checked"

    def __init__(
        self,
        cluster: "Cluster",
        app: str = "app",
        node_ids: Optional[Iterable[str]] = None,
        capacity_per_instance: int = 64 * MB,
        read_only_keys: Optional[set] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.app = app
        self.capacity_per_instance = capacity_per_instance
        members = list(node_ids) if node_ids is not None else cluster.node_ids
        self.ring = ConsistentHashRing(members)
        self.instances = {nid: _FaastInstance(self, nid) for nid in members}
        #: Keys annotated read-only by the developer (skip version checks).
        self.read_only_keys = read_only_keys or set()
        self._stats = AccessStats()
        register_scheme_metrics(self.sim.metrics, self, app)
        if self.sim.metrics.active:
            for node_id, instance in self.instances.items():
                register_cache_gauges(self.sim.metrics, instance.cache,
                                      scheme=self.name, app=app, node=node_id)

    @property
    def stats(self) -> AccessStats:
        return self._stats

    def home_of(self, key: str) -> str:
        return self.ring.home(key)

    def _do_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        home = self.home_of(key)

        if home == node_id:
            value, _version, cached = yield from instance.home_fetch(key)
            kind = OpKind.LOCAL_READ_HIT if cached else OpKind.READ_MISS
            self._stats.record(kind, self.sim.now - start)
            return value

        entry = instance.cache.get(key)
        if entry is not None and key in self.read_only_keys:
            # Annotated read-only: no version check needed, ever.
            self._stats.record(OpKind.LOCAL_READ_HIT, self.sim.now - start)
            return entry.value

        if entry is not None:
            # The protocol's defining step: fetch the version from the home
            # even though the data is cached locally.
            home_version = yield from instance.endpoint.call(
                f"{home}/faast-{self.app}", "check_version", key,
                size_bytes=len(key))
            self._stats.version_checks += 1
            if home_version == entry.version:
                self._stats.record(OpKind.LOCAL_READ_HIT, self.sim.now - start)
                return entry.value

        value, version, home_cached = yield from instance.endpoint.call(
            f"{home}/faast-{self.app}", "fetch", key,
            size_bytes=len(key))
        if value is not None:
            instance._insert(key, value, version)
        kind = OpKind.REMOTE_READ_HIT if home_cached else OpKind.READ_MISS
        self._stats.record(kind, self.sim.now - start)
        return value

    def _do_write(self, node_id: str, key: str, value: object, ctx: Optional[object] = None):
        start = self.sim.now
        yield self.sim.sleep(self.cluster.config.latency.local_access)
        instance = self.instances[node_id]
        home = self.home_of(key)
        if home == node_id:
            yield from instance.home_write(key, value)
            kind = OpKind.LOCAL_WRITE_HIT
        else:
            version = yield from instance.endpoint.call(
                f"{home}/faast-{self.app}", "write", (key, value),
                size_bytes=sizeof(value))
            instance._insert(key, value, version)
            kind = OpKind.REMOTE_WRITE_HIT
        self._stats.record(kind, self.sim.now - start)
        return None
