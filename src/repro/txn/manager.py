"""Concord transactions: speculation in the caches, coherence-based
conflict detection (paper Section IV-A).

While a transaction executes, every item it reads is marked *speculatively
read* and every item it writes is buffered in the local cache instance as
*speculatively written* (never propagated to storage).  Conflicts:

- local: another process touching a speculative entry is detected at the
  cache access (the agent consults :class:`LocalTxnManager`);
- remote: the speculating cache holds read items in S/E and written items
  in E (via read-for-ownership), so a conflicting remote access produces
  an incoming ``invalidate`` or ``fetch_downgrade`` — the squash trigger.

A squashed transaction discards its buffered writes, backs off
exponentially and retries; after several squashes it escalates to running
under the global commit lock (the paper's priority mechanism).  Commits
serialize on the global lock and flush buffered writes write-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.caching.base import AccessContext, CacheEntry, EXCLUSIVE
from repro.net.sizes import sizeof
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.agent import CacheAgent
    from repro.core.concord import ConcordSystem


class TxnAborted(Exception):
    """The transaction was squashed by a conflicting access."""


@dataclass
class TxnContext:
    """Book-keeping for one in-flight transaction attempt."""

    txn_id: str
    node_id: str
    read_set: set = field(default_factory=set)
    #: key -> buffered value (not yet in storage).
    write_buffer: dict = field(default_factory=dict)
    squashed: bool = False
    squashed_by: Optional[str] = None
    #: Escalated attempts hold the global commit lock and run *protected*:
    #: conflicting accesses wait for the transaction instead of squashing
    #: it (the paper's priority mechanism, guaranteeing forward progress).
    escalated: bool = False
    #: Fired when this attempt finishes (commit or abort); protected-
    #: speculation waiters block on it.
    done: Optional[object] = None


def _mark_reader(entry: CacheEntry, txn_id: str) -> None:
    """Add ``txn_id`` to ``entry``'s speculative readers.

    An entry starts with the shared empty ``frozenset``; its own ``set``
    is made here, at the first mark, and never shared."""
    readers = entry.spec_readers
    if type(readers) is not set:
        readers = entry.spec_readers = set()
    readers.add(txn_id)


def _unmark_reader(entry: CacheEntry, txn_id: str) -> None:
    """Drop ``txn_id`` from ``entry``'s speculative readers, if marked."""
    if txn_id in entry.spec_readers:
        entry.spec_readers.remove(txn_id)


class LocalTxnManager:
    """Per-agent speculation tracker, installed as ``agent.txn_manager``."""

    def __init__(self, agent: "CacheAgent"):
        self.agent = agent
        self.active: dict[str, TxnContext] = {}
        self.squashes = 0

    # -- agent hooks -------------------------------------------------------
    def protection_event(self, entry: CacheEntry):
        """The done-event of a *protected* (escalated) transaction marked
        on this entry, or None.  Conflicting local accesses wait on it
        instead of squashing the transaction (priority, Section IV-A)."""
        involved = set(entry.spec_readers)
        if entry.spec_writer is not None:
            involved.add(entry.spec_writer)
        for txn_id in sorted(involved):
            txn = self.active.get(txn_id)
            if txn is not None and txn.escalated and not txn.squashed:
                return txn.done
        return None

    def writer_protection_event(self, entry: CacheEntry):
        """Protection for *remote* coherence requests: only speculatively
        WRITTEN entries block them.  (A protected transaction's spec-read
        copies may be invalidated: it already holds the global commit
        lock, so no other transaction can commit around it, and waiting
        here could deadlock with the home's per-key lock.)"""
        if entry.spec_writer is None:
            return None
        txn = self.active.get(entry.spec_writer)
        if txn is not None and txn.escalated and not txn.squashed:
            return txn.done
        return None

    def on_local_access(self, key, entry: CacheEntry, ctx, is_write: bool):
        """Called on every local cache hit.  Returns True (entry usable),
        False (speculation squashed; caller re-resolves) or an event to
        wait on (the entry belongs to a protected transaction)."""
        accessor = getattr(ctx, "txn_id", None) if ctx is not None else None
        conflicts = (
            (entry.spec_writer is not None and entry.spec_writer != accessor)
            or (is_write and bool(entry.spec_readers - {accessor}))
        )
        if conflicts:
            waiting_on = self.protection_event(entry)
            if waiting_on is not None:
                return waiting_on
        if entry.spec_writer is not None and entry.spec_writer != accessor:
            # Read or write of data speculatively written by another txn.
            self._squash(entry.spec_writer, reason=f"local access to {key}")
            return False
        if is_write and entry.spec_readers - {accessor}:
            # Write to data speculatively read by other transactions.
            for txn_id in sorted(entry.spec_readers - {accessor}):
                self._squash(txn_id, reason=f"local write to {key}")
            entry.spec_readers &= {accessor} if accessor else set()
        if accessor is not None and accessor in self.active and not is_write:
            txn = self.active[accessor]
            txn.read_set.add(key)
            _mark_reader(entry, accessor)
            entry.pinned = True  # keep it resident so conflicts reach us
        return True

    def on_install(self, key, entry: CacheEntry, ctx) -> None:
        """A value fetched during a transaction joins the read set."""
        accessor = getattr(ctx, "txn_id", None) if ctx is not None else None
        if accessor is not None and accessor in self.active:
            self.active[accessor].read_set.add(key)
            _mark_reader(entry, accessor)
            entry.pinned = True

    def on_replace(self, key, entry: CacheEntry, ctx) -> None:
        """A fresh value is replacing a speculative cache entry."""
        accessor = getattr(ctx, "txn_id", None) if ctx is not None else None
        for txn_id in sorted(set(entry.spec_readers) - {accessor}):
            self._squash(txn_id, reason=f"replacement of {key}")
        if entry.spec_writer is not None and entry.spec_writer != accessor:
            self._squash(entry.spec_writer, reason=f"replacement of {key}")

    def on_external_invalidate(self, key, entry: CacheEntry) -> None:
        """A remote write invalidated a speculative entry."""
        for txn_id in sorted(entry.spec_readers):
            self._squash(txn_id, reason=f"external invalidate of {key}")
        if entry.spec_writer is not None:
            self._squash(entry.spec_writer, reason=f"external invalidate of {key}")

    def on_external_read(self, key, entry: CacheEntry) -> None:
        """A remote read reached a speculatively written entry."""
        if entry.spec_writer is not None:
            self._squash(entry.spec_writer, reason=f"external read of {key}")

    # -- internals ------------------------------------------------------------
    def _squash(self, txn_id: str, reason: str) -> None:
        txn = self.active.get(txn_id)
        if txn is None or txn.squashed:
            return
        if txn.escalated:
            return  # protected: conflicting parties wait instead
        txn.squashed = True
        txn.squashed_by = reason
        self.squashes += 1
        self._discard_speculation(txn)

    def _discard_speculation(self, txn: TxnContext) -> None:
        cache = self.agent.cache
        for key in list(txn.write_buffer):
            entry = cache.peek(key)
            if entry is not None and entry.spec_writer == txn.txn_id:
                cache.remove(key)
        for key in sorted(txn.read_set):
            entry = cache.peek(key)
            if entry is not None:
                _unmark_reader(entry, txn.txn_id)
                if not entry.speculative:
                    entry.pinned = False


class TxnHandle:
    """The API a transaction body uses (read / write / compute)."""

    def __init__(self, runtime: "ConcordTxnRuntime", txn: TxnContext):
        self.runtime = runtime
        self.txn = txn
        self._ctx = AccessContext(function="txn", txn_id=txn.txn_id)

    def _check(self) -> None:
        if self.txn.squashed:
            raise TxnAborted(self.txn.squashed_by)

    def read(self, key: str):
        """Transactional read (yield from)."""
        self._check()
        if key in self.txn.write_buffer:
            return self.txn.write_buffer[key]
        value = yield from self.runtime.concord.read(
            self.txn.node_id, key, self._ctx)
        self._check()
        return value

    def write(self, key: str, value: object):
        """Transactional write: buffered locally, not yet durable.

        Escalated attempts also buffer here: they are *protected* (cannot
        be squashed; conflicting accesses wait), so speculation is safe
        and the fast path is preserved.
        """
        self._check()
        agent = self.runtime.concord.agents[self.txn.node_id]
        already_buffered = key in self.txn.write_buffer
        if not already_buffered:
            # Become the exclusive owner so conflicting remote accesses
            # are guaranteed to arrive here (and trigger a squash).
            yield from agent.acquire_exclusive(key, self._ctx)
            self._check()
        entry = agent.cache.peek(key)
        if entry is None:
            entry = CacheEntry(key=key, value=value, state=EXCLUSIVE,
                               size_bytes=sizeof(value))
            agent.cache.put(entry)
        entry.value = value
        entry.size_bytes = sizeof(value)
        entry.spec_writer = self.txn.txn_id
        entry.pinned = True
        self.txn.write_buffer[key] = value
        return None


#: Body signature: body(handle) -> generator returning the txn's result.
TxnBody = Callable[[TxnHandle], Generator]


class ConcordTxnRuntime:
    """Transaction execution on top of one application's ConcordSystem."""

    #: Squash count at which a transaction escalates to the global lock.
    #: Two optimistic attempts, then pessimistic: under contention two
    #: speculating transactions squash each other symmetrically, so the
    #: escape hatch must engage quickly (the paper's priority mechanism).
    ESCALATION_THRESHOLD = 2
    BACKOFF_BASE_MS = 4.0

    def __init__(self, concord: "ConcordSystem"):
        self.concord = concord
        self.sim = concord.sim
        self._ids = self.sim.ids("txn")
        #: Global commit lock (serializes commits, Section IV-A).
        self.commit_lock = Resource(self.sim, capacity=1, name="txn-commit")
        self.managers: dict[str, LocalTxnManager] = {}
        for node_id, agent in concord.agents.items():
            manager = LocalTxnManager(agent)
            agent.txn_manager = manager
            self.managers[node_id] = manager
        self.commits = 0
        self.aborts = 0

    def total_squashes(self) -> int:
        return sum(m.squashes for m in self.managers.values())

    def run(self, node_id: str, body: TxnBody, max_attempts: int = 20):
        """Execute ``body`` transactionally at ``node_id`` (yield from).

        Returns the body's return value after a successful commit.
        """
        rng = self.sim.rng.stream("txn-backoff")
        manager = self.managers[node_id]
        for attempt in range(max_attempts):
            escalated = attempt >= self.ESCALATION_THRESHOLD
            if escalated:
                # Priority escalation: run under the global lock so no
                # other commit can squash us (livelock freedom).
                yield self.commit_lock.acquire()
            txn = TxnContext(txn_id=f"txn-{next(self._ids)}", node_id=node_id,
                             escalated=escalated)
            txn.done = self.sim.event(f"done:{txn.txn_id}")
            manager.active[txn.txn_id] = txn
            try:
                handle = TxnHandle(self, txn)
                result = yield from body(handle)
                yield from self._commit(txn, already_locked=escalated)
                self.commits += 1
                return result
            except TxnAborted:
                self.aborts += 1
            finally:
                manager.active.pop(txn.txn_id, None)
                if not txn.done.triggered:
                    txn.done.succeed()
                if escalated:
                    self.commit_lock.release()
            # Exponential backoff before the retry.
            backoff = self.BACKOFF_BASE_MS * (2 ** min(attempt, 6))
            yield self.sim.timeout(backoff * (0.5 + rng.random()))
        raise TxnAborted(f"gave up after {max_attempts} attempts")

    def _commit(self, txn: TxnContext, already_locked: bool):
        if txn.squashed:
            raise TxnAborted(txn.squashed_by)
        if not already_locked:
            yield self.commit_lock.acquire()
        try:
            # One short control round trip to the lock service.
            yield self.sim.timeout(self.concord.latency.internode_rtt)
            if txn.squashed:
                raise TxnAborted(txn.squashed_by)
            agent = self.concord.agents[txn.node_id]
            manager = agent.txn_manager
            # Clear all of this transaction's speculation first: the
            # commit point has passed, the entries become plain E copies.
            for key in txn.write_buffer:
                entry = agent.cache.peek(key)
                if entry is not None and entry.spec_writer == txn.txn_id:
                    entry.spec_writer = None
                    entry.pinned = entry.speculative
            for key in sorted(txn.read_set):
                entry = agent.cache.peek(key)
                if entry is not None:
                    _unmark_reader(entry, txn.txn_id)
                    entry.pinned = entry.speculative
            # Flush all buffered writes concurrently: they are independent
            # E-state updates, so the commit costs ~one storage round trip
            # rather than one per written key.  Tagged with our own txn id
            # so stray marks never read as conflicts with ourselves.
            flush_ctx = AccessContext(function="txn-commit", txn_id=txn.txn_id)
            flushes = [
                self.sim.spawn(
                    self.concord.write(txn.node_id, key, value, flush_ctx),
                    name=f"commit:{key}",
                )
                for key, value in txn.write_buffer.items()
            ]
            if flushes:
                yield self.sim.all_of(flushes)
        finally:
            if not already_locked:
                self.commit_lock.release()
