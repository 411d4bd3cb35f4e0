"""Versioned key-value global storage with a blob-service latency model.

The paper treats Azure Blob Storage as a durable, always-consistent store
with a ~30 ms round trip; writes are acknowledged only after the service
commits them (write-through semantics rely on this).  Versions increase
monotonically per key — the Faa$T baseline's version protocol and the
external-write listener both build on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import LatencyModel
from repro.net.sizes import sizeof
from repro.trace.tracer import Step

#: Traced, each access is a step counted on the span it runs under.
_READ = Step("storage", "read")
_WRITE = Step("storage", "write")
_CAS = Step("storage", "cas")
_READ_VERSION = Step("storage", "read_version")

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


@dataclass(frozen=True, slots=True)
class DataItem:
    """An opaque application data blob with an explicit wire size.

    ``payload`` is any hashable token identifying the written value (tests
    use strings; workloads use (key, sequence) tuples).  Equality of two
    :class:`DataItem` objects means byte-identical blobs.
    """

    payload: object
    size_bytes: int = 64

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataItem({self.payload!r}, {self.size_bytes}B)"


@dataclass(slots=True)
class StorageRecord:
    """Internal per-key record: the latest value and its version."""

    value: object
    version: int


@dataclass
class StorageStats:
    """Aggregate storage traffic counters."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0


#: Listener signature: (key, value, version, writer_tag) -> None.
WriteListener = Callable[[str, object, int, str], None]


class GlobalStorage:
    """Durable versioned KV store accessed with blob-service latency.

    All access methods are generators (simulation sub-processes) to be used
    with ``yield from``.  ``writer`` tags identify who wrote (cache agent
    address, or ``"external"``) so write listeners can implement the
    paper's external-write trigger (Section III-C3).
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: Optional[LatencyModel] = None,
        name: str = "storage",
        topology=None,
    ):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.name = name
        #: Optional :class:`~repro.net.regions.RegionTopology`: callers
        #: outside the storage region pay the pair's full extra RTT per
        #: operation (the blob service lives somewhere specific).
        self.topology = topology
        #: Operations that paid a cross-region penalty.
        self.cross_region_ops = 0
        self._data: dict[str, StorageRecord] = {}
        self._listeners: list[WriteListener] = []
        self.stats = StorageStats()
        #: Operations currently inside their storage round trip.
        self._inflight = 0
        #: Brownout window (fault injection): while ``sim.now`` is before
        #: ``_brownout_until`` every access latency is multiplied by
        #: ``_brownout_factor`` (service degradation, not unavailability).
        self._brownout_factor = 1.0
        self._brownout_until = 0.0
        metrics = sim.metrics
        if metrics.active:
            stats = self.stats
            metrics.counter(
                "storage_reads_total", "Storage read round trips.",
                labelnames=("store",),
            ).set_callback(lambda: stats.reads, store=name)
            metrics.counter(
                "storage_writes_total", "Storage write round trips.",
                labelnames=("store",),
            ).set_callback(lambda: stats.writes, store=name)
            metrics.counter(
                "storage_read_bytes_total", "Bytes read from storage.",
                labelnames=("store",),
            ).set_callback(lambda: stats.read_bytes, store=name)
            metrics.counter(
                "storage_write_bytes_total", "Bytes written to storage.",
                labelnames=("store",),
            ).set_callback(lambda: stats.write_bytes, store=name)
            metrics.gauge(
                "storage_inflight_ops",
                "Operations inside their storage round trip.",
                labelnames=("store",),
            ).set_callback(lambda: self._inflight, store=name)
            metrics.gauge(
                "storage_brownout_factor",
                "Current latency multiplier (1.0 = healthy).",
                labelnames=("store",),
            ).set_callback(lambda: self.brownout_factor(), store=name)
            if topology is not None:
                metrics.counter(
                    "storage_cross_region_ops_total",
                    "Storage operations paying a cross-region round trip.",
                    labelnames=("store", "region"),
                ).set_callback(lambda: self.cross_region_ops, store=name,
                               region=topology.storage_region)

    # -- fault injection ----------------------------------------------------
    def set_brownout(self, factor: float, until_ms: float) -> None:
        """Degrade access latency by ``factor`` until ``until_ms``."""
        if factor < 1.0:
            raise ValueError("brownout factor must be >= 1.0")
        self._brownout_factor = factor
        self._brownout_until = until_ms

    def brownout_factor(self) -> float:
        """The latency multiplier in effect right now."""
        if self.sim.now < self._brownout_until:
            return self._brownout_factor
        return 1.0

    def _delay(self, base_ms: float) -> float:
        return base_ms * self.brownout_factor()

    def _region_extra(self, caller: str) -> float:
        """Extra round-trip cost for ``caller`` (node id or endpoint
        address) reaching this store; counts cross-region ops."""
        if self.topology is None or not caller:
            return 0.0
        node = caller.split("/", 1)[0]
        extra = self.topology.storage_extra_ms(node)
        if extra > 0.0:
            self.cross_region_ops += 1
        return extra

    # -- synchronous setup / inspection (no simulated latency) -------------
    def preload(self, items: dict[str, object]) -> None:
        """Populate keys instantly (version 1), without latency or events."""
        for key, value in items.items():
            self._data[key] = StorageRecord(value=value, version=1)

    def peek(self, key: str) -> Optional[StorageRecord]:
        """Inspect a record without simulated latency (tests/invariants)."""
        return self._data.get(key)

    def version_of(self, key: str) -> int:
        """Current version of ``key`` (0 if absent); no latency."""
        record = self._data.get(key)
        return record.version if record else 0

    def add_write_listener(self, listener: WriteListener) -> None:
        """Register a callback invoked at commit time of every write."""
        self._listeners.append(listener)

    # -- simulated access ---------------------------------------------------
    def read(self, key: str, reader: str = ""):
        """Read ``key``: yields, returns ``(value, version)``.

        A missing key returns ``(None, 0)`` — serverless storage APIs are
        key-value and idempotent (paper Section II-B).  ``reader`` tags
        the caller for the multi-region latency model; untagged reads are
        treated as in-region.
        """
        self._inflight += 1
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            record = self._data.get(key)
            size = sizeof(record.value) if record else 0
            yield self.sim.sleep(self._delay(self.latency.storage_read(size))
                                 + self._region_extra(reader))
            self.stats.reads += 1
            self.stats.read_bytes += size
            # Re-read after the latency: a concurrent write may have landed.
            record = self._data.get(key)
            if record is None:
                return (None, 0)
            return (record.value, record.version)
        finally:
            if step is not None:
                tracer.end_step(_READ, step)
            self._inflight -= 1

    def write(self, key: str, value: object, writer: str = "unknown"):
        """Write ``key``: yields, returns the new version.

        The value commits (and listeners fire) when the ack is generated,
        i.e. after the full storage round trip — so a concurrent reader
        that started earlier can still observe the old value, exactly as
        with a real blob service.
        """
        self._inflight += 1
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            size = sizeof(value)
            yield self.sim.sleep(self._delay(self.latency.storage_write(size))
                                 + self._region_extra(writer))
            self.stats.writes += 1
            self.stats.write_bytes += size
            record = self._data.get(key)
            version = (record.version + 1) if record else 1
            self._data[key] = StorageRecord(value=value, version=version)
            for listener in self._listeners:
                listener(key, value, version, writer)
            return version
        finally:
            if step is not None:
                tracer.end_step(_WRITE, step)
            self._inflight -= 1

    def compare_and_swap(self, key: str, value: object, expected_version: int,
                         writer: str = "unknown"):
        """Conditional write: commits only if the version still matches.

        Returns ``(ok, version)`` — on success the new version, on failure
        the current one.  Models DynamoDB/Blob conditional updates, the
        primitive Saga/Beldi-style systems detect conflicts with.
        """
        self._inflight += 1
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            size = sizeof(value)
            yield self.sim.sleep(self._delay(self.latency.storage_write(size))
                                 + self._region_extra(writer))
            self.stats.writes += 1
            record = self._data.get(key)
            current = record.version if record else 0
            if current != expected_version:
                return (False, current)
            self.stats.write_bytes += size
            version = current + 1
            self._data[key] = StorageRecord(value=value, version=version)
            for listener in self._listeners:
                listener(key, value, version, writer)
            return (True, version)
        finally:
            if step is not None:
                tracer.end_step(_CAS, step)
            self._inflight -= 1

    def read_version(self, key: str, reader: str = ""):
        """Fetch only the version number of ``key`` (Faa$T fallback path)."""
        self._inflight += 1
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            yield self.sim.sleep(self._delay(self.latency.storage_read(8))
                                 + self._region_extra(reader))
            self.stats.reads += 1
            return self.version_of(key)
        finally:
            if step is not None:
                tracer.end_step(_READ_VERSION, step)
            self._inflight -= 1
