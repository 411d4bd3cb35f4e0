"""The Concord Cache Agent: the data path of the coherence protocol.

One agent per (application, node) manages the local cache instance and the
data directory for locally-homed items (paper Section III-B).  It
implements the six coherence operations of Section III-C2:

- local read hit, remote read hit, read miss,
- local write hit (E and S flavours), remote write hit, write miss,

with the paper's optimizations: silent evictions, E-state writes that go
straight to storage bypassing the home, and invalidations sent in parallel
with the storage update (except the single-owner case, which is serial).

Fault tolerance and domain changes use a *barrier* mechanism: when a
member fails or the domain is reconfiguring, operations on the keys whose
home is affected wait until the new ring is committed everywhere
(Sections III-D, III-F, III-H).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.caching.base import AccessContext, CacheEntry, EXCLUSIVE, LruCache, SHARED
from repro.coord.service import MembershipEvent, ping_handler
from repro.core.directory import DataDirectory, DirectoryEntry, ENTRY_WIRE_BYTES
from repro.core.domain import keys_moving_to_joiner, new_homes_for_leaver, ring_with
from repro.metrics import OpKind
from repro.obs.events import (
    BARRIER_LIFT,
    BARRIER_RAISE,
    CACHE_DOWNGRADE,
    CACHE_INSTALL,
    CACHE_INVALIDATE,
    CACHE_UPDATE,
    INV_RECV,
    INV_SEND,
    MEMBER_EJECT,
    PEER_UNREACHABLE,
    RECOVERY_SURVIVOR,
)
from repro.net.rpc import (
    DeadlineExceeded,
    Endpoint,
    Reply,
    RpcError,
    RpcTimeout,
)
from repro.net.sizes import sizeof
from repro.sim.resources import Resource
from repro.trace.tracer import Step

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.concord import ConcordSystem


class ProtocolError(Exception):
    """An operation could not complete after exhausting retries."""


class NotHome(RpcError):
    """The contacted agent is not the key's home per its current ring."""


class NotCached:
    """Sentinel reply from an owner that silently evicted the item."""


#: Delay between retries when an operation must re-resolve its home.
RETRY_DELAY_MS = 1.0
MAX_ATTEMPTS = 60

#: Explicit shard re-home cost charged in sim time when a surviving
#: agent takes over leadership of a shard (shard-table reconfiguration
#: plus routing-epoch bump), per shard gained.
SHARD_REHOME_MS = 1.5
#: Per mirrored directory entry adopted by a new shard leader.
ADOPT_ENTRY_MS = 0.02

#: Traced protocol steps besides the home ops (``CacheAgent._HOME_OPS``):
#: each is counted on the span it runs under, not a span of its own.
_FETCH_OWNER = Step("agent", "fetch_owner")
_INVALIDATE = Step("invalidation", "invalidate")

#: Read once: an enum member read through its class costs ~150 ns on 3.11.
_LOCAL_READ_HIT = OpKind.LOCAL_READ_HIT

#: A grant check's answer that sends the route round again at once.
_RETRY = object()


def _value_reply(result) -> Reply:
    """A home op's reply, sized by the data item it leads with."""
    return Reply(result, size_bytes=sizeof(result[0]) + 2)


def _write_reply(result) -> Reply:
    kind, cacheable, version = result
    return Reply((kind.value, cacheable, version), size_bytes=8)


def _ack_reply(_result) -> Reply:
    return Reply("ack", size_bytes=1)


class CacheAgent:
    """The per-node protocol engine of one application's Concord cache."""

    def __init__(self, system: "ConcordSystem", node_id: str, capacity_bytes: int):
        self.system = system
        self.sim = system.sim
        self.node_id = node_id
        self.app = system.app
        #: The system's AccessStats (one object for the system's whole
        #: life; ``reset()`` clears it in place).
        self.stats = system.stats
        #: node id -> that node's agent address.  Memoised: one string per
        #: peer instead of one per RPC, whose hash the fabric's address
        #: dicts then compute once rather than on every send.
        self._peer_addresses: dict[str, str] = {}
        #: Local-access cost every operation starts with (model frozen).
        self.local_access = system.latency.local_access
        self.cache = LruCache(capacity_bytes, name=f"concord:{system.app}:{node_id}")
        self.cache.obs = self.sim.obs
        self.directory = DataDirectory(self.node_id, self.sim.obs)
        self.ring = system.ring_template.copy()
        node = system.cluster.nodes.get(node_id)
        #: The app's invocations on this node, the handlers (a child
        #: scope: a cancel ends them first) and all they spawn.
        self.scope = self.sim.scopes.child(node_id).child(self.app)
        self.endpoint = Endpoint(
            system.cluster.network, node_id, f"concord-{system.app}",
            service_time_ms=system.latency.agent_service_ms,
            cpu=node.cores if node is not None else None,
            scope=self.scope.child("handlers"),
        )
        #: Home-side per-key serialization (directory is the write
        #: serialization point, Section III-C2).
        self._key_locks: dict[str, Resource] = {}
        #: Owner-side lock held during an E-state direct-to-storage write
        #: ("the local cache agent does not accept external requests for
        #: the data item until the storage acknowledges the update").
        self._owner_locks: dict[str, Resource] = {}
        #: Active barriers: affected member -> (ring snapshot that still
        #: contains the member, event fired when the barrier lifts).
        self._barriers: dict[str, tuple] = {}
        #: Producer tracking for placement learning: key -> (node, function).
        self._last_writer: dict[str, tuple] = {}
        #: Hook installed by repro.txn for conflict detection.
        self.txn_manager = None
        #: Bumped on every membership change visible to this agent; long
        #: home operations re-check it before mutating the directory.
        self.epoch = 0
        #: member -> event fired when that member leaves this agent's ring
        #: (lets in-flight invalidations/fetches to dead peers abort early).
        self._removal_events: dict[str, object] = {}
        #: True from the end of an incarnation (:meth:`end_incarnation`)
        #: until a rejoin commits; a removed agent stays ejected.
        self.ejected = False
        #: Async directory mirror held as a shard *follower*:
        #: key -> (state, sharers tuple).  Fed by fire-and-forget
        #: ``dir_replicate`` notifies from the shard leader; consumed on
        #: failover adoption.  May lag arbitrarily — adoption soundness
        #: never depends on its freshness (see :meth:`_shard_failover`).
        self.dir_mirror: dict[str, tuple] = {}
        #: Telemetry counters (sampled by repro.telemetry when enabled).
        self.invalidations_sent = 0
        self.invalidations_received = 0
        #: Invalidation round trips currently awaiting an acknowledgement.
        self.invalidations_inflight = 0
        self._register_metrics()

        handlers = {
            "read": self._home_handler("read"),
            "write": self._home_handler("write"),
            "rfo": self._home_handler("rfo"),
            "fetch_downgrade": self._handle_fetch_downgrade,
            "invalidate": self._handle_invalidate,
            "external_write": self._home_handler("external_write"),
            "dir_replicate": self._handle_dir_replicate,
            "membership": self._handle_membership,
            "recovery_complete": self._handle_recovery_complete,
            "domain_prepare": self._handle_domain_prepare,
            "domain_commit": self._handle_domain_commit,
            "dir_install": self._handle_dir_install,
        }
        for method, handler in handlers.items():
            self.endpoint.register_handler(method, handler)
        self.endpoint.register_handler("ping", ping_handler)

    def _register_metrics(self) -> None:
        """Expose per-node coherence instruments on the sim registry.

        Agents created by churn re-register the same label sets; the
        registry's get-or-create children make that an overwrite of the
        dead agent's callbacks, so timelines follow the live instance.
        """
        metrics = self.sim.metrics
        if not metrics.active:
            return
        from repro.caching.base import register_cache_gauges

        register_cache_gauges(metrics, self.cache, scheme="concord",
                              app=self.app, node=self.node_id)
        labels = {"scheme": "concord", "app": self.app, "node": self.node_id}
        metrics.counter(
            "cache_invalidations_sent_total",
            "Invalidation RPCs issued to remote sharers.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_sent, **labels)
        metrics.counter(
            "cache_invalidations_received_total",
            "Invalidation RPCs served for remote homes.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_received, **labels)
        metrics.gauge(
            "cache_invalidations_pending",
            "Invalidation round trips awaiting acknowledgement.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_inflight, **labels)
        self.directory.register_metrics(metrics, scheme="concord",
                                        app=self.app)

    # ------------------------------------------------------------------
    # Public data path (called by ConcordSystem.read / write)
    # ------------------------------------------------------------------
    def read(self, key: str, ctx: Optional[AccessContext] = None):
        """Read ``key``: the whole operation, accounting included.

        :meth:`ConcordSystem._do_read` hands this generator straight to
        the caller, so a local hit is one generator frame, one wheel
        entry (the local-access sleep), a C lookup and one stats record.
        """
        sim = self.sim
        start = sim.now
        yield sim.sleep(self.local_access)
        cache = self.cache
        entry = cache.peek(key)
        while entry is not None:
            cache.touch(key)
            verdict = True
            if self.txn_manager is not None:
                verdict = self.txn_manager.on_local_access(
                    key, entry, ctx, is_write=False)
            if verdict is True:
                self.stats.record(_LOCAL_READ_HIT, sim.now - start)
                return entry.value
            if verdict is False:
                # A conflicting transaction was squashed and the entry
                # discarded; resolve the committed value via the home.
                entry = None
                break
            # A protected transaction owns the entry: wait, then retry.
            yield verdict
            entry = cache.peek(key)

        fn = ctx.function if ctx is not None else ""
        value, state, dir_hit, cacheable, version = yield from self._call_home(
            key, "read", (self.node_id, fn), len(key) + 8, self._read_granted)
        if value is not None and cacheable:
            # A newer copy that landed meanwhile (this node's own E
            # write) wins: storage order, as in write().
            current = cache.peek(key)
            if current is None or current.version <= version:
                self._install(key, value, state, ctx, version=version,
                              src="read")
        self.stats.record(
            OpKind.REMOTE_READ_HIT if dir_hit else OpKind.READ_MISS,
            sim.now - start)
        return value

    def write(self, key: str, value: object, ctx: Optional[AccessContext] = None):
        """Write ``key``; returns once durably stored and accounted."""
        sim = self.sim
        start = sim.now
        yield sim.sleep(self.local_access)
        entry = self.cache.get(key)
        while entry is not None and self.txn_manager is not None:
            verdict = self.txn_manager.on_local_access(
                key, entry, ctx, is_write=True)
            if verdict is True:
                break
            if verdict is False:
                entry = None  # conflicting speculation squashed; start over
                break
            yield verdict  # protected transaction owns it: wait, retry
            entry = self.cache.get(key)

        if (entry is not None and entry.state == EXCLUSIVE
                and self.system.estate_writes):
            # Local write hit in E: update locally, write straight to
            # storage, bypassing the home (Section III-C2).
            applied = yield from self._estate_write(key, value)
            if applied:
                self.stats.record(OpKind.LOCAL_WRITE_HIT, sim.now - start)
                return None
            # Exclusivity was lost while queued; take the home path.

        had_local_copy = entry is not None  # S state: still a local hit
        fn = ctx.function if ctx is not None else ""
        kind, cacheable, version = yield from self._call_home(
            key, "write", (self.node_id, value, fn), sizeof(value) + len(key),
            self._write_granted)
        current = self.cache.peek(key)
        if current is not None and current.version > version:
            # A concurrent local write (direct-to-storage in E state)
            # committed a later storage version while this write's reply
            # was in flight; installing our value now would resurrect a
            # stale copy over it.  Storage order wins: keep the entry.
            pass
        elif cacheable:
            self._install(key, value, EXCLUSIVE, ctx, version=version,
                          src="write_reply")
        else:
            # The value is durably in storage but the coherence state for
            # it was disturbed (membership changed mid-write): hold no copy.
            self.cache.remove(key)
        if had_local_copy:
            kind = OpKind.LOCAL_WRITE_HIT
        self.stats.record(kind, sim.now - start)
        return None

    def _estate_write(self, key: str, value: object):
        """Direct-to-storage write while holding E (Section III-C2).

        Returns True once applied, or False when the writer queued on
        the owner lock outlived its exclusivity (an invalidation,
        downgrade, or recovery landed while it waited) — writing storage
        directly without E would skip the sharers the home still tracks,
        so the caller must fall back to the home path.
        """
        lock = self._lock(self._owner_locks, key)
        yield lock.acquire_wait()
        try:
            held = self.cache.get(key)
            if held is None or held.state != EXCLUSIVE:
                return False
            version = yield from self.system.storage.write(
                key, value, writer=self.node_id)
            # Update the cached copy only after the write is durable,
            # and only if no later storage version landed locally in
            # the meantime (a racing write's reply may have replaced
            # the entry, or an invalidation may have removed it).
            current = self.cache.get(key)
            if current is not None and current.version <= version:
                prev = current.version
                current.value = value
                current.size_bytes = sizeof(value)
                current.version = version
                obs = self.sim.obs
                if obs.active:
                    obs.emit(CACHE_UPDATE, node=self.node_id, key=key,
                             version=version, prev=prev)
            self.stats.invalidations_per_write.record(0)
            return True
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Requester side: one route to the home for read, write and RFO
    # ------------------------------------------------------------------
    def _call_home(self, key: str, op: str, args, size_bytes: int, granted):
        """Run home op ``op`` on ``key`` and return what ``granted`` makes
        of the home's reply.

        The one requester loop of the protocol.  Each attempt waits out
        barriers, resolves the home on the current ring and captures the
        epoch, then runs the op in place when this agent is the home, or
        calls the home's agent with ``(key, *args)``.  ``NotHome`` (the
        home moved under the request) retries after ``RETRY_DELAY_MS``; a
        timeout reports the home unreachable first, unless the epoch moved
        (:meth:`_report_timeout`).  An ended incarnation's barrier holds
        the route until a rejoin.  All retries share one ``MAX_ATTEMPTS``
        budget.

        ``granted(key, reply, home, epoch)`` is the op's own check of the
        grant.  It returns the op's result, returns ``_RETRY`` to go round
        again at once, or raises ``NotHome`` to go round after the delay;
        it may rewrite ``args`` (a list then) for the next attempt.
        """
        for _attempt in range(MAX_ATTEMPTS):
            if self._barriers:
                yield from self._barrier_wait(key)
            home = self.ring.home(key)
            epoch = self.epoch
            try:
                if home == self.node_id:
                    reply = yield from self._home(op, key, *args)
                else:
                    reply = yield from self.endpoint.call(
                        self._address_of(home), op, (key, *args),
                        size_bytes=size_bytes)
                result = granted(key, reply, home, epoch)
            except NotHome:
                yield self.sim.sleep(RETRY_DELAY_MS)
                continue
            except RpcTimeout:
                if self._report_timeout(home, epoch):
                    # Give the failure notification time to propagate and
                    # the membership handler time to erect the barrier.
                    yield self.sim.sleep(RETRY_DELAY_MS)
                continue
            if result is not _RETRY:
                return result
        raise ProtocolError(f"{op}({key!r}) exhausted retries at {self.node_id}")

    def _grant_holds(self, key: str, home: str, epoch: int) -> bool:
        """Whether a grant ``home`` made for ``key`` at ``epoch`` stands.

        It does not once the membership changed (the registration may
        have been purged, transferred or never made), the key re-homed,
        or a raised barrier covers the key: a home failed or a domain
        change is re-homing the key, so the recovery sweep already ran
        here (or the hand-off will not see a new entry), and a copy
        cached now, or an entry created now, nobody would track.
        """
        return (self.epoch == epoch and self.ring.home(key) == home
                and (not self._barriers or self._barrier_on(key) is None))

    def _read_granted(self, key: str, reply, home: str, epoch: int):
        if not self._grant_holds(key, home, epoch):
            # The copy must not be cached — but the value itself is
            # still good.
            value, state, dir_hit, _, version = reply
            return value, state, dir_hit, False, version
        return reply

    def _write_granted(self, key: str, reply, home: str, epoch: int):
        kind, cacheable, version = reply
        if cacheable and not self._grant_holds(key, home, epoch):
            # The write is durable, but the exclusivity is void.
            cacheable = False
        # A remote home replies with the kind's wire value.
        return OpKind(kind), cacheable, version

    def acquire_exclusive(self, key: str, ctx: Optional[AccessContext] = None):
        """Read-for-ownership (transactions, Section IV-A): become the
        exclusive owner of ``key`` — invalidating other sharers — without
        writing storage.  Returns the current committed value.

        The transactional runtime buffers speculative writes in entries
        acquired this way, so conflicting remote reads and writes are
        guaranteed to arrive at this agent (as fetch_downgrade /
        invalidate) and trigger a squash.
        """
        yield self.sim.sleep(self.local_access)
        entry = self.cache.get(key)
        if entry is not None and entry.state == EXCLUSIVE:
            return entry.value
        # [requester, has_local]: the grant check rewrites has_local.
        args = [self.node_id, entry is not None]

        def granted(key, reply, home, epoch):
            value, cacheable = reply
            if value is None and args[1]:
                # Upgrade: no data traveled because we hold a Shared
                # copy — unless a racing write invalidated it while
                # the upgrade was in flight; then retry with a fetch.
                current = self.cache.peek(key)
                if current is None:
                    args[1] = False
                    return _RETRY
                value = current.value
            if not self._grant_holds(key, home, epoch):
                # The ownership the grant conferred is void.  Re-acquire
                # once the barrier lifts.
                return _RETRY
            if not cacheable:
                # The home lost its homeship mid-RFO and never recorded
                # us as owner.  Unlike a plain write, RFO exists *only*
                # for the ownership — returning an untracked value would
                # let the txn layer write in E-state behind the new
                # home's back.  Re-acquire from the current home.
                args[1] = self.cache.peek(key) is not None
                raise NotHome(f"{home} lost home of {key!r} mid-rfo")
            return value

        value = yield from self._call_home(key, "rfo", args, len(key) + 8,
                                           granted)
        self._install(key, value, EXCLUSIVE, ctx, src="rfo")
        return value

    def _report_timeout(self, peer: str, epoch: int) -> bool:
        """A call to ``peer`` sent at ``epoch`` timed out: report ``peer``
        unreachable (Section III-H) and return True — unless the epoch
        moved since, for then the reply may have gone to an incarnation
        of this agent that has ended."""
        if self.epoch != epoch:
            return False
        obs = self.sim.obs
        if obs.active:
            obs.emit(PEER_UNREACHABLE, node=self.node_id, peer=peer)
        self.system.report_unreachable(peer)
        return True

    # ------------------------------------------------------------------
    # Home-side protocol (runs under the per-key home lock)
    # ------------------------------------------------------------------
    def _still_home(self, key: str, epoch: int) -> bool:
        """Whether this agent may mutate the directory entry for ``key``.

        Long home operations yield (storage, invalidations); if membership
        changed underneath them the entry may have been transferred, lost
        or recreated elsewhere — mutating it here would fork the directory.
        """
        return not self.ejected and self._grant_holds(key, self.node_id, epoch)

    def _register(self, key: str, epoch: int, requester: str,
                  state: str) -> bool:
        """Record ``requester``'s grant of ``key`` in ``state`` (E: sole
        owner; S: one more sharer) and mirror the entry, unless this
        agent lost the key's homeship at ``epoch``.  Returns whether the
        grant is cacheable."""
        if not self._still_home(key, epoch):
            return False
        if state == EXCLUSIVE:
            self.directory.set_exclusive(key, requester)
        else:
            self.directory.add_sharer(key, requester)
        self._replicate_entry(key)
        return True

    def _home_handler(self, op: str):
        """The RPC handler of home op ``op``: :meth:`_home` and the op's
        reply."""
        encode = self._HOME_OPS[op][2]

        def handle(endpoint, src, args):
            return encode((yield from self._home(op, *args)))

        return handle

    def _home(self, op: str, key: str, requester: str, *args):
        """Run home op ``op`` for ``requester`` behind the one homeship gate.

        The gate: a traced step; barriers waited out and a key homed elsewhere
        turned away before the request queues on the per-key home lock
        (the directory is the write serialization point, Section
        III-C2); then, under the lock, :meth:`_still_home` at the current
        epoch — a membership change may have re-homed the key, or raised
        a barrier over it, while the request queued.  A barrier is never
        waited out under the lock: a domain change's hand-off queues on
        that same lock, and only its commit lifts the barrier.  So the
        gate releases the lock, waits, and queues again.  The body runs
        with the epoch it must re-check before it mutates the directory.
        """
        home_step, body, _encode = self._HOME_OPS[op]
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            if self.ejected:  # its sharded ring may have an empty shard
                raise NotHome(f"{self.node_id} is ejected")
            if self._barriers:
                yield from self._barrier_wait(key)
            if self.ring.home(key) != self.node_id:
                raise NotHome(f"{self.node_id} is not home of {key!r}")
            lock = self._lock(self._key_locks, key)
            while True:
                yield lock.acquire_wait()
                try:
                    epoch = self.epoch
                    if self._still_home(key, epoch):
                        return (yield from body(self, key, requester, epoch,
                                                *args))
                finally:
                    lock.release()
                barrier = self._barrier_on(key)
                if barrier is None:
                    raise NotHome(f"{self.node_id} lost home of {key!r}")
                yield barrier
        finally:
            if step is not None:
                tracer.end_step(home_step, step)

    def _home_read(self, key: str, requester: str, epoch: int, fn: str):
        """Serve a read; returns (value, state, dir_hit, cacheable,
        version), the version of the copy the value came from."""
        entry = self.directory.get(key)
        if entry is None:
            # Read miss: fetch from storage, requester becomes E owner.
            value, version = yield from self.system.storage.read(
                key, reader=self.node_id)
            cacheable = value is not None and self._register(
                key, epoch, requester, EXCLUSIVE)
            return value, EXCLUSIVE, False, cacheable, version

        self._observe_consumer(key, requester, fn)
        if entry.state == EXCLUSIVE:
            owner = entry.owner
            if owner == requester:
                # Requester evicted silently but is still registered;
                # storage is current (write-through).
                value, version = yield from self.system.storage.read(
                    key, reader=self.node_id)
                cacheable = self._still_home(key, epoch)
                return value, EXCLUSIVE, True, cacheable, version
            value, version = yield from self._fetch_from_owner(key, owner)
            if not self._still_home(key, epoch):
                return value, SHARED, True, False, version
            if value is not None:
                # Owner downgraded to S; both are sharers now.
                cacheable = self._register(key, epoch, requester, SHARED)
                return value, SHARED, True, cacheable, version
            # Owner evicted (or died): storage copy is current.
            value, version = yield from self.system.storage.read(
                key, reader=self.node_id)
            cacheable = self._register(key, epoch, requester, EXCLUSIVE)
            return value, EXCLUSIVE, True, cacheable, version

        # Shared: serve from the home's own cache if present, else storage.
        local = self.cache.get(key)
        if local is not None:
            value, version = local.value, local.version
        else:
            value, version = yield from self.system.storage.read(
                key, reader=self.node_id)
        cacheable = self._register(key, epoch, requester, SHARED)
        return value, SHARED, True, cacheable, version

    def _home_write(self, key: str, requester: str, epoch: int,
                    value: object, fn: str):
        """Serialize a write.

        Returns ``(OpKind, cacheable, storage_version)`` — the version the
        write committed at, so the requester can order its cache install
        against concurrent direct-to-storage writes.
        """
        if fn:
            self._note_producer(key, requester, fn)
        entry = self.directory.get(key)
        if entry is None:
            # Write miss: update storage, requester becomes E owner.
            version = yield from self.system.storage.write(
                key, value, writer=requester)
            self.stats.invalidations_per_write.record(0)
            cacheable = self._register(key, epoch, requester, EXCLUSIVE)
            return OpKind.WRITE_MISS, cacheable, version

        if entry.state == EXCLUSIVE and entry.owner != requester:
            # Single owner: invalidate it *before* updating storage
            # (the owner may have a direct-to-storage write in flight).
            yield from self._invalidate_sharers(key, [entry.owner])
            version = yield from self.system.storage.write(
                key, value, writer=requester)
            self.stats.invalidations_per_write.record(1)
        else:
            # Shared (or stale self-ownership): invalidations travel in
            # parallel with the storage update, hiding their latency.
            victims = sorted(entry.sharers - {requester, self.node_id})
            if self.node_id in entry.sharers and self.node_id != requester:
                yield from self._invalidate_here(key)
            if self.system.parallel_invalidations:
                # The agent issues the invalidation sends first (they
                # serialize on its send path), then the storage write;
                # all round trips overlap after that.
                pending = yield from self._send_invalidations(key, victims)
                storage_done = self.sim.spawn(
                    self.system.storage.write(key, value, writer=requester),
                    name=f"wt:{key}",
                )
                yield self.sim.all_of(pending + [storage_done])
                version = storage_done.value
            else:
                # Ablation: serialize invalidations before the update.
                yield from self._invalidate_sharers(key, victims)
                version = yield from self.system.storage.write(
                    key, value, writer=requester)
            self.stats.invalidations_per_write.record(len(victims))
        # If the home itself is the writer its cache copy stays E; any
        # other local copy was invalidated above.
        cacheable = self._register(key, epoch, requester, EXCLUSIVE)
        return OpKind.REMOTE_WRITE_HIT, cacheable, version

    def _home_rfo(self, key: str, requester: str, epoch: int,
                  requester_has_copy: bool):
        """Read-for-ownership; returns (value, cacheable).

        When the requester already holds a Shared copy, this is a pure
        *upgrade* — other sharers are invalidated and no data travels
        (value is None).  Otherwise the data comes from the home's own
        Shared copy if it has one, falling back to storage.
        """
        entry = self.directory.get(key)
        value = None
        had_shared_copy = False
        if entry is not None:
            if entry.state == SHARED and not requester_has_copy:
                # Write-through keeps every Shared copy current; grab
                # the home's own copy before it gets invalidated.
                local = self.cache.peek(key)
                if local is not None:
                    value = local.value
                    had_shared_copy = True
            victims = sorted(entry.sharers - {requester, self.node_id})
            if self.node_id in entry.sharers and self.node_id != requester:
                yield from self._invalidate_here(key)
            yield from self._invalidate_sharers(key, victims)
        if not requester_has_copy and not had_shared_copy:
            # After all invalidations acked, storage holds the latest
            # committed value (write-through + owner-lock ordering).
            value, _version = yield from self.system.storage.read(
                key, reader=self.node_id)
        return value, self._register(key, epoch, requester, EXCLUSIVE)

    def _home_external_write(self, key: str, requester: str, epoch: int,
                             _version: int):
        """An external write landed in storage: purge every cached copy."""
        entry = self.directory.get(key)
        if entry is not None:
            victims = sorted(entry.sharers - {self.node_id})
            yield from self._invalidate_sharers(key, victims)
            yield from self._invalidate_here(key)
            self.directory.remove(key)
            self._replicate_entry(key)
        else:
            yield from self._invalidate_here(key)

    #: Home op -> (its traced step, body run behind :meth:`_home`, the
    #: body's result as an RPC reply).  ``requester`` is ``"external"``
    #: for an external write.
    _HOME_OPS = {
        "read": (Step("agent", "home_read"), _home_read, _value_reply),
        "write": (Step("agent", "home_write"), _home_write, _write_reply),
        "rfo": (Step("agent", "home_rfo"), _home_rfo, _value_reply),
        "external_write": (Step("agent", "home_external_write"),
                           _home_external_write, _ack_reply),
    }

    def _fetch_from_owner(self, key: str, owner: str):
        """Ask the E-state owner for the data (downgrades it to S):
        ``(value, version)``, or ``(None, 0)`` without a copy to share."""
        if owner == self.node_id:
            entry = yield from self._downgrade(key)
            return (None, 0) if entry is None else (entry.value, entry.version)
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            reply = yield from self._call_peer(
                owner, "fetch_downgrade", key, f"fetch:{key}:{owner}")
            if reply is None or isinstance(reply, NotCached):
                return None, 0
            return reply
        finally:
            if step is not None:
                tracer.end_step(_FETCH_OWNER, step)

    def _send_invalidations(self, key: str, sharers: list):
        """Issue invalidations; returns the ack-wait processes.

        The sends serialize on the agent's NIC/syscall path (``send_ms``
        each) before the round trips overlap — the reason wide-fan-out
        writes creep up with sharer count (Figure 11: 30 -> 32.4 ms).
        """
        pending = []
        for sharer in sharers:
            if sharer == self.node_id:
                yield from self._invalidate_here(key)
                continue
            yield self.sim.sleep(self.system.latency.send_ms)
            self.invalidations_sent += 1
            obs = self.sim.obs
            if obs.active:
                obs.emit(INV_SEND, node=self.node_id, key=key, sharer=sharer)
            pending.append(self.sim.spawn(
                self._invalidate_one(key, sharer), name=f"inv:{key}:{sharer}",
            ))
        return pending

    def _invalidate_sharers(self, key: str, sharers: list):
        """Send invalidations and gather all acknowledgements."""
        pending = yield from self._send_invalidations(key, sharers)
        if pending:
            yield self.sim.all_of(pending)
        return None

    def _invalidate_one(self, key: str, sharer: str):
        # One step per sharer, counted on the span the home write runs
        # under; its ``rpc`` call is a child span of that one.
        self.invalidations_inflight += 1
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        try:
            # A sharer declared failed (or timing out) holds no readable
            # copy; recovery handles whatever it cached.
            yield from self._call_peer(
                sharer, "invalidate", key, f"invrpc:{key}:{sharer}")
        finally:
            if step is not None:
                tracer.end_step(_INVALIDATE, step)
            self.invalidations_inflight -= 1

    def _call_peer(self, peer: str, method: str, key: str, name: str):
        """Call ``method(key)`` on ``peer``'s agent; its reply, or None.

        None when the call failed, ``peer`` is not (or no longer) in this
        agent's ring, or this incarnation has ended: the wait aborts
        early, because a failed peer's copies are unreadable (crash) or
        about to be flushed (ejection).  A timeout reports ``peer``
        unreachable; if the epoch moved instead, the call is made again.
        Once the request's budget is spent, the calls go out outside it:
        the reply will be late, but the peer must still drop its copy or
        be reported.
        """
        spent = False
        while peer in self.ring and not self.ejected:
            epoch = self.epoch
            call = self.sim.spawn(self._call_catching(
                self._address_of(peer), method, key, len(key)), name=name)
            if spent:
                call.deadline = None
            yield self.sim.any_of([call, self._removal_event(peer)])
            if not call.triggered:
                return None
            status, reply = call.value
            if status == "ok":
                return reply
            if isinstance(reply, DeadlineExceeded):
                spent = True
                continue
            if (not isinstance(reply, RpcTimeout)
                    or self._report_timeout(peer, epoch)):
                return None
        return None

    def _call_catching(self, dst: str, method: str, args: object, size: int):
        """RPC returning ("ok", value) or ("err", exception) — never raises."""
        try:
            value = yield from self.endpoint.call(
                dst, method, args, size_bytes=size)
        except RpcError as exc:
            return ("err", exc)
        return ("ok", value)

    def _address_of(self, node_id: str) -> str:
        """The agent address of this application's instance on ``node_id``."""
        address = self._peer_addresses.get(node_id)
        if address is None:
            address = f"{node_id}/concord-{self.app}"
            self._peer_addresses[node_id] = address
        return address

    def _removal_event(self, member: str):
        """Event fired when ``member`` leaves this agent's ring view."""
        event = self._removal_events.get(member)
        if event is None or event.triggered:
            event = self.sim.event(f"removed:{member}")
            self._removal_events[member] = event
        return event

    def member_removed(self, member: str) -> None:
        """Signal waiters that ``member`` left the ring; bump the epoch."""
        self.epoch += 1
        event = self._removal_events.pop(member, None)
        if event is not None and not event.triggered:
            event.succeed()

    def _invalidate_local(self, key: str) -> None:
        entry = self.cache.remove(key)
        if entry is not None:
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_INVALIDATE, node=self.node_id, key=key,
                         state=entry.state)
        if entry is not None and self.txn_manager is not None and entry.speculative:
            self.txn_manager.on_external_invalidate(key, entry)

    # ------------------------------------------------------------------
    # Owner side: one body per peer op, run in place or behind a handler
    # ------------------------------------------------------------------
    def _downgrade(self, key: str):
        """The owner's half of a fetch: downgrade this node's copy of
        ``key`` to S.  Returns the entry, or None when there is no copy to
        share: evicted, or written by a transaction the read squashes."""
        yield from self._owner_quiesce(key)
        entry = self.cache.get(key)
        if entry is None:
            return None
        if self.txn_manager is not None and entry.spec_writer is not None:
            self.txn_manager.on_external_read(key, entry)
            return None
        entry.state = SHARED
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_DOWNGRADE, node=self.node_id, key=key,
                     version=entry.version)
        return entry

    def _invalidate_here(self, key: str):
        """The sharer's half of an invalidation: drop this node's copy."""
        yield from self._owner_quiesce(key)
        self._invalidate_local(key)

    def _owner_quiesce(self, key: str):
        """Let this node's own work on ``key`` land before a peer op: a
        protected (escalated) transaction's speculation, then an in-flight
        direct-to-storage E write.  Never a deadlock: a protected
        transaction's buffered writes are E-state entries, so its commit
        goes straight to storage, not through another home's key lock.
        """
        while self.txn_manager is not None:
            entry = self.cache.peek(key)
            if entry is None or not entry.speculative:
                break
            event = self.txn_manager.writer_protection_event(entry)
            if event is None:
                break
            yield event
        lock = self._lock(self._owner_locks, key)
        yield lock.acquire_wait()
        lock.release()

    def _handle_fetch_downgrade(self, endpoint, src, key):
        entry = yield from self._downgrade(key)
        if entry is None:
            return Reply(NotCached(), size_bytes=2)
        return Reply((entry.value, entry.version), size_bytes=entry.size_bytes)

    def _handle_invalidate(self, endpoint, src, key):
        self.invalidations_received += 1
        obs = self.sim.obs
        if obs.active:
            obs.emit(INV_RECV, node=self.node_id, key=key, src=src)
        yield from self._invalidate_here(key)
        return Reply("ack", size_bytes=1)

    # ------------------------------------------------------------------
    # Shard-follower directory mirroring (sharded systems, replication>1)
    # ------------------------------------------------------------------
    def _replicate_entry(self, key: str) -> None:
        """Mirror ``key``'s directory entry to its shard's followers.

        Asynchronous by design (fire-and-forget ``notify``, no sender
        yield): the mirror may lag the directory arbitrarily, and
        failover adoption stays sound anyway because the recovery sweep
        evicts every copy homed at a dead leader first.  On flat or
        unreplicated systems this is a two-attribute-load no-op, keeping
        their schedules byte-identical.
        """
        system = self.system
        if system.replication < 2 or system.shard_manager is None:
            return
        followers = self.ring.followers(key)
        if not followers:
            return
        entry = self.directory.get(key)
        if entry is None:
            payload = (key, None, ())
        else:
            payload = (key, entry.state, tuple(sorted(entry.sharers)))
        ring = self.ring
        for follower in followers:
            if follower == self.node_id or follower not in ring:
                continue
            self.endpoint.notify(
                self._address_of(follower), "dir_replicate", payload,
                size_bytes=ENTRY_WIRE_BYTES)

    def _handle_dir_replicate(self, endpoint, src, args):
        """Apply one mirrored entry snapshot (follower side)."""
        key, state, sharers = args
        if state is None:
            self.dir_mirror.pop(key, None)
        else:
            self.dir_mirror[key] = (state, sharers)
        return None
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    # Barriers (recovery and domain changes)
    # ------------------------------------------------------------------
    def raise_barrier(self, member: str, ring_snapshot) -> None:
        """Block operations on keys homed at ``member`` until lifted."""
        if member not in self._barriers:
            self._barriers[member] = (ring_snapshot, self.sim.event(f"barrier:{member}"))
            obs = self.sim.obs
            if obs.active:
                obs.emit(BARRIER_RAISE, node=self.node_id, member=member)

    def lift_barrier(self, member: str) -> None:
        barrier = self._barriers.pop(member, None)
        if barrier is not None:
            obs = self.sim.obs
            if obs.active:
                obs.emit(BARRIER_LIFT, node=self.node_id, member=member)
        if barrier is not None and not barrier[1].triggered:
            barrier[1].succeed()

    def _barrier_on(self, key: str):
        """The lift event of a raised barrier whose snapshot re-homes
        ``key``, or None."""
        for member, (ring_snapshot, event) in self._barriers.items():
            if ring_snapshot.home(key) == member:
                return event
        return None

    def _barrier_wait(self, key: str):
        """Wait until no active barrier covers ``key``."""
        for _attempt in range(MAX_ATTEMPTS):
            event = self._barrier_on(key)
            if event is None:
                return
            yield event
        raise ProtocolError(f"barrier on {key!r} never lifted at {self.node_id}")

    # ------------------------------------------------------------------
    # Membership protocol: failures, recovery and domain changes
    # (Sections III-D, III-F, III-H)
    # ------------------------------------------------------------------
    def _handle_membership(self, endpoint, src, event: MembershipEvent):
        if event.kind != "failed":
            return None
        if event.member != self.node_id:
            yield from self._recover(event.member, event.declared_ms)
        elif not self.ejected:
            # False-positive ejection: we are alive but the domain wrote
            # us off.  End and rejoin (after a crash, restart_instance does);
            # the end took this handler out of the scope, the rejoin joins.
            self.end_incarnation()
            self.scope.join(self.sim.spawn(
                self.rejoin(), name=f"rejoin:{self.node_id}", daemon=True))
        return None

    def _recover(self, failed_member: str, declared_ms: float):
        """Local recovery steps at this surviving agent (Section III-F),
        acked as the answer to the declaration made at ``declared_ms``.

        A generator: flat systems never reach a yield (the handler's
        ``yield from`` runs it inline), but on a sharded system an agent
        that inherits shard leadership pays an explicit re-home cost in
        sim time before acking — extending the barrier window by the
        reconfiguration it models.
        """
        if failed_member in self.ring:
            obs = self.sim.obs
            if obs.active:
                obs.emit(RECOVERY_SURVIVOR, node=self.node_id,
                         member=failed_member, app=self.app)
            snapshot = self.ring.copy()
            self.raise_barrier(failed_member, snapshot)
            # Drop every cached item homed at the failed member.
            for key in self.cache.keys():
                if snapshot.home(key) == failed_member:
                    self._invalidate_local(key)
            self.directory.remove_sharer_everywhere(failed_member)
            # The removal must land before the failover pause: the new
            # membership is already fact, and an interrupted failover
            # must not resurrect the failed member's ring slot.
            self.ring.remove(failed_member)  # noqa: INT01
            self.member_removed(failed_member)
            if self.system.shard_manager is not None:
                yield from self._shard_failover(failed_member, snapshot)
        self.endpoint.notify(
            self.system.controller.endpoint.address, "recovery_ack",
            (failed_member, self.node_id, declared_ms), size_bytes=16,
        )

    def _shard_failover(self, failed_member: str, snapshot):
        """Take over shards the failed member led, adopting mirrors.

        The new leader of each failed-over shard is the next live replica
        in the shard's chain — a pure function of the membership set, so
        every survivor agrees without an election round.  Adoption of the
        async directory mirror is *sound regardless of mirror staleness*:
        the recovery sweep already evicted every copy homed at the dead
        leader, so a sharer the mirror missed holds no copy, and an extra
        sharer is the conservative superset the protocol tolerates
        everywhere (silent evictions, Section III-C2).
        """
        router = self.ring
        gained = [
            shard for shard in range(router.num_shards)
            if snapshot.chain_of(shard)
            and snapshot.chain_of(shard)[0] == failed_member
            and router.chain_of(shard)
            and router.chain_of(shard)[0] == self.node_id
        ]
        if not gained:
            return
        entries = []
        if self.system.replication > 1:
            gained_set = set(gained)
            entries = [
                (key, state, sharers)
                for key, (state, sharers) in sorted(self.dir_mirror.items())
                if router.shard_of(key) in gained_set
            ]
        cost = SHARD_REHOME_MS * len(gained) + ADOPT_ENTRY_MS * len(entries)
        epoch = self.epoch
        yield self.sim.sleep(cost)
        if self.epoch != epoch or self.ejected:
            # The membership moved again while this takeover was being
            # charged for; leadership may already belong to someone else,
            # so installing the adopted entries now would park them away
            # from their true home (or duplicate the new leader's).
            return
        router = self.ring  # the ring object is replaced on rejoin
        live = router.members
        for key, state, sharers in entries:
            if not router.chain_of(router.shard_of(key)) or \
                    router.chain_of(router.shard_of(key))[0] != self.node_id:
                continue  # this shard moved on during the pause
            self.dir_mirror.pop(key, None)
            pruned = {s for s in sharers
                      if s != failed_member and s in live}
            if not pruned:
                continue
            adopted_state = state if len(pruned) == len(sharers) else SHARED
            self.directory.install(DirectoryEntry(
                key=key, state=adopted_state, sharers=pruned))
        manager = self.system.shard_manager
        if manager is not None:
            manager.record_adoption(self.node_id, gained, len(entries), cost)

    def rejoin(self):
        """Re-admit this (ejected) agent through the join protocol."""
        yield self.sim.sleep(RETRY_DELAY_MS)
        yield from self.system.admit(self)

    def _handle_recovery_complete(self, endpoint, src, failed_member):
        self.lift_barrier(failed_member)
        return None
        yield  # pragma: no cover - generator marker

    def _handle_domain_prepare(self, endpoint, src, args):
        kind, member = args
        if kind == "join":
            yield from self._prepare_join(member)
        else:
            yield from self._prepare_leave(member)
        return Reply("prepared", size_bytes=1)

    def _prepare_join(self, joiner: str):
        if self.node_id == joiner:
            return  # not a member yet: its barrier holds every key
        self.raise_barrier(joiner, ring_with(self.ring, joiner))
        moving = keys_moving_to_joiner(self.ring, joiner, self.directory.keys())
        if moving:
            yield from self._hand_off(joiner, moving)

    def _prepare_leave(self, leaver: str):
        snapshot = self.ring.copy()
        self.raise_barrier(leaver, snapshot)
        self.directory.remove_sharer_everywhere(leaver)
        if self.node_id != leaver:
            return
        # The departing instance stops serving hits and re-homes all of
        # its directory entries to their consistent-hashing successors.
        self.cache.clear()
        by_target = new_homes_for_leaver(
            self.ring, leaver, self.directory.keys())
        for target, keys in sorted(by_target.items()):
            yield from self._hand_off(target, keys)

    def _hand_off(self, target: str, keys: list):
        """Move the directory entries of ``keys`` to their new home."""
        entries, release = yield from self.pop_directory_entries_locked(keys)
        try:
            if entries:
                yield from self._install_at(target, entries)
        finally:
            release()

    def _install_at(self, home: str, entries: list):
        """Install transferred directory ``entries`` at ``home``."""
        yield from self.endpoint.call(
            self._address_of(home), "dir_install", entries,
            size_bytes=ENTRY_WIRE_BYTES * len(entries))

    def _handle_domain_commit(self, endpoint, src, args):
        kind, member, roster = args
        if kind == "join":
            if member == self.node_id:
                # Rebuild from the commit-time roster rather than
                # incrementing the prepare-time view: members that
                # failed while this join was in flight were never
                # announced to the (not-yet-member) joiner.
                self.ring = self.system.ring_template.with_members(roster)
                self.epoch += 1
                self.ejected = False  # rejoin complete
            else:
                self.ring.add(member)
                self.epoch += 1
        else:
            self.ring.remove(member)
            self.member_removed(member)
        self.lift_barrier(member)
        self._sweep_strays()
        return Reply("committed", size_bytes=1)
        yield  # pragma: no cover - generator marker

    def _handle_dir_install(self, endpoint, src, entries):
        for entry in entries:
            self.directory.install(entry)
        return Reply("installed", size_bytes=1)
        yield  # pragma: no cover - generator marker

    def _sweep_strays(self) -> None:
        """Re-home directory entries this agent no longer homes.

        The prepare phase transfers the entries that exist when the
        barrier goes up, but a shard failover can *adopt* mirror entries
        into the directory while a domain change is still in flight —
        those escape the transfer and would park at a non-home forever.
        Sweeping after every commit restores the entries-live-at-their-
        home invariant; on a converged ring the sweep finds nothing.
        """
        if self.ejected or not self.ring.members:
            return
        stray = [key for key in self.directory.keys()
                 if self.ring.home(key) != self.node_id]
        if stray:
            self.sim.spawn(
                self._forward_strays(stray),
                name=f"concord-strays:{self.app}:{self.node_id}",
                daemon=True)

    def _forward_strays(self, keys: list):
        entries, release = yield from self.pop_directory_entries_locked(keys)
        keep: list = []
        try:
            if self.ejected or not self.ring.members:
                return  # the domain wrote us off; these entries are dead
            by_home: dict[str, list] = {}
            for entry in entries:
                by_home.setdefault(self.ring.home(entry.key), []).append(entry)
            # Keys a newer membership change re-homed back to us while
            # the sweep was quiescing them stay local (reinstalled in
            # the finally so an interrupt cannot drop them).
            keep = by_home.pop(self.node_id, [])
            for home, group in sorted(by_home.items()):
                try:
                    yield from self._install_at(home, group)
                except RpcError:
                    # Unreachable home: it is (about to be) declared
                    # failed and recovery rebuilds its directory state,
                    # so the stale entries die with the attempt instead
                    # of parking here.
                    pass
        finally:
            if not self.ejected:  # an ended incarnation keeps nothing
                for entry in keep:
                    self.directory.install(entry)
            release()

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _install(self, key: str, value: object, state: str, ctx=None, *,
                 version: int = 0, src: str = "") -> None:
        """Cache a fetched/written value, respecting the capacity budget."""
        if self.ejected:
            # Written off and pruned from every sharer set: a late reply
            # must not plant a copy nobody tracks.
            return
        self.refresh_capacity()
        size = sizeof(value)
        if size > self.cache.capacity_bytes:
            return  # large objects are cached only if memory allows
        existing = self.cache.peek(key)
        if (existing is not None and existing.speculative
                and self.txn_manager is not None):
            # Replacing a speculative entry is a conflict with whoever
            # speculated on it (unless that is the installing transaction).
            self.txn_manager.on_replace(key, existing, ctx)
        entry = CacheEntry(key=key, value=value, state=state, size_bytes=size,
                           version=version)
        if self.txn_manager is not None and ctx is not None and ctx.txn_id:
            self.txn_manager.on_install(key, entry, ctx)
        self.cache.put(entry)
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, node=self.node_id, key=key, state=state,
                     version=version, src=src)

    def refresh_capacity(self) -> None:
        """Track the application's currently-unused container memory."""
        budget = self.system.capacity_for(self.node_id)
        if budget != self.cache.capacity_bytes:
            self.cache.resize(budget)

    def end_incarnation(self) -> None:
        """End this incarnation, whether by removal, ejection or crash
        (DESIGN.md section 9).

        It owns its processes: cancelling its scope interrupts its
        handlers, the app's invocations on this node (the platform
        reschedules them) and everything they spawned.  Its cache and
        directory are emptied (the domain already wrote them off), the
        epoch bump voids every grant and timeout in flight, and until a
        rejoin commits a barrier over every key holds what still runs.
        """
        self.ejected = True
        self.epoch += 1
        obs = self.sim.obs
        if obs.active:
            obs.emit(MEMBER_EJECT, node=self.node_id,
                     cached=len(self.cache), homed=len(self.directory))
        self.scope.cancel("instance end")
        self.cache.clear()
        self.directory.clear()
        self.dir_mirror.clear()
        self._last_writer.clear()
        if self.node_id in self.ring:
            self.ring.remove(self.node_id)
        for member in list(self._barriers):
            self.lift_barrier(member)
        # Not a member until a rejoin commits (a ring of this agent
        # alone homes every key here).
        self.raise_barrier(self.node_id, self.ring.with_members([self.node_id]))

    def pop_directory_entries_locked(self, keys: list):
        """Quiesce ``keys`` and pop their directory entries (generator).

        Acquires each key's home lock so no in-flight home operation can
        mutate (or recreate) an entry while it is being transferred to a
        new home; returns ``(entries, release)`` where ``release()`` must
        be called once the transfer is acknowledged.
        """
        held: list = []

        def release():
            for lock in held:
                lock.release()

        try:
            for key in keys:
                # Handed off: released by the returned closure once the
                # caller's dir_install RPC is acknowledged.
                lock = self._lock(self._key_locks, key)
                yield lock.acquire_wait()
                held.append(lock)
        except BaseException:
            release()  # interrupted partway: give back what it took
            raise
        return self.directory.pop_entries_for(keys), release

    def _lock(self, table: dict, key: str) -> Resource:
        lock = table.get(key)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"{self.node_id}:{key}")
            table[key] = lock
        return lock

    # ------------------------------------------------------------------
    # Placement learning hooks
    # ------------------------------------------------------------------
    def _note_producer(self, key: str, node: str, fn: str) -> None:
        self._last_writer[key] = (node, fn)

    def _observe_consumer(self, key: str, requester: str, fn: str) -> None:
        """A remote read of a recently-written key: producer-consumer edge."""
        producer = self._last_writer.get(key)
        if producer is None or not fn:
            return
        producer_node, producer_fn = producer
        if producer_node != requester and producer_fn and producer_fn != fn:
            self.system.observe_producer_consumer(producer_fn, fn)

