"""Byte-accounted LRU cache instances and the abstract storage API.

Every caching scheme in this package (OFC, Faa$T, Concord, Apta) stores
data in :class:`LruCache` instances and exposes the same :class:`StorageAPI`
to function code, so workloads are scheme-agnostic.
"""

from __future__ import annotations

import abc
import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Optional

from repro.metrics import AccessStats
from repro.metrics.stats import OpKind
from repro.net.sizes import sizeof
from repro.obs.events import CACHE_EVICT
from repro.obs.recorder import NULL_RECORDER
from repro.trace.tracer import fold_keys

# Cache entry coherence states (paper Section III-C1: MESI without M).
EXCLUSIVE = "E"
SHARED = "S"
# Baselines without a coherence protocol use VALID.
VALID = "V"


class EvictionPinned(Exception):
    """Raised when an insert cannot fit because pinned entries fill the cache."""


@dataclass(slots=True)
class AccessContext:
    """Attribution for one storage operation.

    Passed by the platform into :meth:`StorageAPI.read`/``write`` so
    schemes can attribute traffic: Concord's placement learning uses
    ``function``; transactions use ``txn_id`` to tag speculative state.
    """

    function: str = ""
    invocation_id: int = 0
    txn_id: Optional[str] = None


@dataclass(slots=True)
class CacheEntry:
    """One cached data item.

    Slotted, and an unmarked entry holds no set of its own: one exists
    per cached copy on every node, and a transaction marks few of them.
    """

    key: str
    value: object
    state: str = VALID
    size_bytes: int = 0
    #: Version number (used by the Faa$T protocol).
    version: int = 0
    #: Transactional speculation marks: process ids that speculatively
    #: read / wrote this entry (used by repro.txn).  The shared empty
    #: ``frozenset`` until repro.txn marks the entry, which gives it a
    #: ``set`` of its own; only repro.txn mutates it.
    spec_readers: "set | frozenset" = frozenset()
    spec_writer: Optional[str] = None
    #: Pinned entries are never evicted (in-flight protocol operations,
    #: buffered speculative writes).
    pinned: bool = False

    @property
    def speculative(self) -> bool:
        return bool(self.spec_readers) or self.spec_writer is not None


class LruCache:
    """An LRU cache with byte-size accounting and dynamic capacity.

    Capacity may shrink at runtime (the cache agent returns memory to the
    application, paper Section III-E); shrinking evicts LRU entries.  An
    insert larger than the capacity is refused (large objects are cached
    only if sufficient unused memory is available).
    """

    #: Flight recorder for silent-eviction events.  Class-level Null
    #: default: the cache itself has no simulator, so owners that do
    #: (the coherence agents) overwrite it per instance with ``sim.obs``.
    obs = NULL_RECORDER

    def __init__(self, capacity_bytes: int, name: str = ""):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Look up without touching recency / make a cached key the most
        #: recent: the dict's own C methods, so a hit makes no Python call.
        self.peek = self._entries.get
        self.touch = self._entries.move_to_end
        self._used_bytes = 0
        self.evictions = 0
        #: High-water mark of bytes used (Figure 12 reports max memory).
        self.peak_bytes = 0

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def keys(self) -> Iterable[str]:
        return list(self._entries.keys())

    # -- access ---------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, entry: CacheEntry) -> list[CacheEntry]:
        """Insert/replace ``entry``; returns the entries evicted to fit.

        Raises :class:`EvictionPinned` if pinned entries make it impossible
        to free enough space; refuses (returns without caching) values
        larger than the whole capacity by raising ``ValueError``.
        """
        size = entry.size_bytes or sizeof(entry.value)
        entry.size_bytes = size
        if size > self.capacity_bytes:
            raise ValueError(
                f"entry {entry.key!r} ({size}B) exceeds cache capacity "
                f"({self.capacity_bytes}B)"
            )
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self._used_bytes -= old.size_bytes
        evicted = self._make_room(size)
        self._entries[entry.key] = entry
        self._used_bytes += size
        self.peak_bytes = max(self.peak_bytes, self._used_bytes)
        return evicted

    def remove(self, key: str) -> Optional[CacheEntry]:
        """Drop ``key`` (invalidation or silent eviction)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used_bytes -= entry.size_bytes
        return entry

    def resize(self, capacity_bytes: int) -> list[CacheEntry]:
        """Change capacity; shrinking evicts LRU entries to fit."""
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        evicted = []
        for key in list(self._entries):
            if self._used_bytes <= capacity_bytes:
                break
            entry = self._entries[key]
            if entry.pinned:
                continue
            evicted.append(self._evict(key))
        return evicted

    def clear(self) -> list[CacheEntry]:
        """Drop everything (cache instance teardown / squash flush)."""
        dropped = list(self._entries.values())
        self._entries.clear()
        self._used_bytes = 0
        return dropped

    # -- internals -------------------------------------------------------------
    def _make_room(self, size: int) -> list[CacheEntry]:
        evicted = []
        while self._used_bytes + size > self.capacity_bytes:
            victim_key = None
            for key, entry in self._entries.items():  # LRU order
                if not entry.pinned:
                    victim_key = key
                    break
            if victim_key is None:
                raise EvictionPinned(
                    f"cache {self.name!r}: pinned entries block insert of {size}B"
                )
            evicted.append(self._evict(victim_key))
        return evicted

    def _evict(self, key: str) -> CacheEntry:
        entry = self._entries.pop(key)
        self._used_bytes -= entry.size_bytes
        self.evictions += 1
        obs = self.obs
        if obs.active:
            obs.emit(CACHE_EVICT, node=self.name, key=key,
                     state=entry.state, size=entry.size_bytes)
        return entry


class StorageAPI(abc.ABC):
    """The storage interface exposed to function code.

    ``read`` and ``write`` are generators (simulation sub-processes): use
    them with ``yield from`` inside function handlers.  ``ctx`` carries the
    invocation context (node, function name, inputs) so schemes that care —
    Concord's placement learning, transactions — can attribute traffic.

    ``read``/``write`` resolve, once per instance, to the scheme's
    ``_do_read``/``_do_write`` — or, traced, to a twin opening one ``op``
    span per logical operation around them, so every scheme traces
    uniformly and the span is exactly the interval the scheme records.
    The span is a leaf (:meth:`Tracer.span
    <repro.trace.tracer.Tracer.span>`'s ``leaf=``): an op under which no
    span opened, no step began and no event was recorded — a local hit —
    is folded into its parent as a count.
    Subclasses must expose the simulator as ``self.sim`` (every scheme in
    this package does).
    """

    #: Scheme name for reporting.
    name: str = "abstract"
    #: The consistency level the scheme guarantees, for catalogues and
    #: the scheme-dispatched invariant checker.  Every concrete scheme
    #: must declare its own (Figure 20's catalogue prints "?" for one
    #: that does not):
    #: e.g. "sequential", "eventual", "bounded-staleness", "causal".
    consistency: str = ""

    @functools.cached_property
    def read(self) -> Callable[..., Generator]:
        """``read(node_id, key, ctx=None)``: read ``key`` from the
        perspective of ``node_id``; returns the value.

        ``_do_read``, or ``_traced_read`` under an active tracer; resolved
        on first access, since a simulator's tracer never changes.
        """
        return self._traced_read if self.sim.tracer.active else self._do_read

    def _traced_read(self, node_id: str, key: str, ctx: Optional[object] = None):
        span = self.sim.tracer.span("read", "op", leaf=self._op_folds[0],
                                    scheme=self.name, node=node_id, key=key)
        try:
            return (yield from self._do_read(node_id, key, ctx))
        finally:
            span.end()

    @functools.cached_property
    def write(self) -> Callable[..., Generator]:
        """``write(node_id, key, value, ctx=None)``: write ``key`` from
        ``node_id``; returns once durably stored.  Resolved like ``read``."""
        return self._traced_write if self.sim.tracer.active else self._do_write

    def _traced_write(self, node_id: str, key: str, value: object,
                      ctx: Optional[object] = None):
        span = self.sim.tracer.span("write", "op", leaf=self._op_folds[1],
                                    scheme=self.name, node=node_id, key=key)
        try:
            return (yield from self._do_write(node_id, key, value, ctx))
        finally:
            span.end()

    @functools.cached_property
    def _op_folds(self) -> tuple:
        """Fold keys of a childless read / write ``op`` span: its parent
        counts it as ``op:<scheme>:<read|write>``."""
        return (fold_keys(f"op:{self.name}:read"),
                fold_keys(f"op:{self.name}:write"))

    @abc.abstractmethod
    def _do_read(
        self, node_id: str, key: str, ctx: Optional[object] = None
    ) -> Generator:
        """Scheme-specific read path (wrapped in the ``op`` span)."""

    @abc.abstractmethod
    def _do_write(
        self, node_id: str, key: str, value: object, ctx: Optional[object] = None
    ) -> Generator:
        """Scheme-specific write path (wrapped in the ``op`` span)."""

    @property
    @abc.abstractmethod
    def stats(self) -> AccessStats:
        """Aggregate access statistics for reporting."""


def register_scheme_metrics(registry, scheme: StorageAPI, app: str) -> None:
    """Register pull instruments over a scheme's :class:`AccessStats`.

    Every scheme constructor calls this, so all schemes expose the same
    telemetry families: per-kind op counters, read/hit counters, and the
    cumulative hit ratio.  Callbacks re-read ``scheme.stats`` on every
    sample (never captured sub-objects — ``AccessStats.reset()`` at
    end-of-warmup replaces some of them), which also means the sampled
    counters step backwards once at the warmup cut; windowed consumers
    should treat negative deltas as a phase boundary.
    """
    if not registry.active:
        return
    name = scheme.name
    ops = registry.counter(
        "cache_ops_total", "Storage operations by classification.",
        labelnames=("app", "op", "scheme"))
    for kind in OpKind:
        ops.set_callback(lambda kind=kind: scheme.stats.count(kind),
                         scheme=name, app=app, op=kind.value)
    registry.counter(
        "cache_reads_total", "Read operations served.",
        labelnames=("app", "scheme"),
    ).set_callback(lambda: scheme.stats.reads, scheme=name, app=app)

    def read_hits() -> int:
        stats = scheme.stats
        return (stats.count(OpKind.LOCAL_READ_HIT)
                + stats.count(OpKind.REMOTE_READ_HIT))

    registry.counter(
        "cache_read_hits_total", "Reads served from some cache instance.",
        labelnames=("app", "scheme"),
    ).set_callback(read_hits, scheme=name, app=app)

    def hit_ratio() -> float:
        reads = scheme.stats.reads
        # 0.0 (not NaN) before the first read keeps exports JSON-clean.
        return read_hits() / reads if reads else 0.0

    registry.gauge(
        "cache_hit_ratio", "Cumulative read hit ratio.",
        labelnames=("app", "scheme"),
    ).set_callback(hit_ratio, scheme=name, app=app)


def register_cache_gauges(registry, cache: LruCache, scheme: str, app: str,
                          node: str) -> None:
    """Register occupancy/eviction instruments for one cache instance."""
    if not registry.active:
        return
    registry.gauge(
        "cache_occupancy_bytes", "Bytes resident in the cache instance.",
        labelnames=("app", "node", "scheme"),
    ).set_callback(lambda: cache.used_bytes, scheme=scheme, app=app,
                   node=node)
    registry.counter(
        "cache_evictions_total", "Entries evicted to make room.",
        labelnames=("app", "node", "scheme"),
    ).set_callback(lambda: cache.evictions, scheme=scheme, app=app,
                   node=node)
