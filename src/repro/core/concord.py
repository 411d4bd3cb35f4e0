"""The Concord caching system: agents + application controller.

:class:`ConcordSystem` is the per-application entry point.  It implements
the common :class:`~repro.caching.base.StorageAPI` used by function code,
owns one :class:`~repro.core.agent.CacheAgent` per participating node, and
an :class:`AppController` that keeps the Node Directory, orchestrates
two-phase domain changes (Section III-D) and coordinates failure recovery
(Section III-F).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.caching.base import AccessContext, StorageAPI, register_scheme_metrics
from repro.config import MB
from repro.coord.service import CoordinationService, MembershipEvent, ping_handler
from repro.core.agent import RETRY_DELAY_MS, CacheAgent
from repro.core.directory import ENTRY_WIRE_BYTES, DirectoryEntry
from repro.core.domain import keys_moving_to_joiner, new_homes_for_leaver, ring_with
from repro.core.hashring import ConsistentHashRing
from repro.core.recovery import RecoveryTracker
from repro.metrics import AccessStats
from repro.net.rpc import DEFAULT_RPC_TIMEOUT_MS, INHERIT, Endpoint, Reply
from repro.obs.events import (
    DOMAIN_CHANGE,
    MEMBER_JOIN,
    MEMBER_LEAVE,
    RECOVERY_COMPLETE,
    RECOVERY_SURVIVOR,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.storage import GlobalStorage

#: Default cache-instance budget when no container memory exists to
#: repurpose (protocol unit tests run without the FaaS layer).
DEFAULT_CAPACITY = 64 * MB

#: Approximate wire size of one marshalled directory entry.
DIR_ENTRY_WIRE_BYTES = ENTRY_WIRE_BYTES

#: Restart re-admission polling cadence and bound (~60 s simulated).
RESTART_POLL_MS = 25.0
RESTART_POLL_LIMIT = 2400

#: Explicit shard re-home cost charged in sim time when a surviving
#: agent takes over leadership of a shard (shard-table reconfiguration
#: plus routing-epoch bump), per shard gained.
SHARD_REHOME_MS = 1.5
#: Per mirrored directory entry adopted by a new shard leader.
ADOPT_ENTRY_MS = 0.02


class AppController:
    """Per-application control plane.

    Lives on its own (reliable) control node, like the load balancer and
    the coordination service.  Holds the Node Directory — the list of
    nodes hosting a cache instance — serializes domain changes, counts
    recovery acknowledgements and forwards external writes to the proper
    home agent (Section III-C3).
    """

    def __init__(self, system: "ConcordSystem"):
        self.system = system
        self.sim = system.sim
        self.app = system.app
        self.endpoint = Endpoint(
            system.cluster.network, f"ctl-{self.app}", "appctl"
        )
        self.ring = system.ring_template.copy()
        #: Failed member -> ack tracker.
        self._recoveries: dict[str, RecoveryTracker] = {}
        #: Serializes voluntary domain changes.
        self._domain_busy = False
        #: Failure recoveries driven to completion (barriers lifted).
        self.recoveries_completed = 0
        self.endpoint.register_handler("ping", ping_handler)
        self.endpoint.register_handler("membership", self._handle_membership)
        self.endpoint.register_handler("recovery_ack", self._handle_recovery_ack)
        metrics = self.sim.metrics
        if metrics.active:
            metrics.counter(
                "concord_recoveries_completed_total",
                "Failure recoveries completed (read barriers lifted).",
                labelnames=("app",),
            ).set_callback(lambda: self.recoveries_completed, app=self.app)

    @property
    def members(self) -> set:
        return self.ring.members

    # -- failure recovery ------------------------------------------------------
    def _handle_membership(self, endpoint, src, event: MembershipEvent):
        if event.kind == "failed":
            self._on_member_failed(event.member)
        return None
        yield  # pragma: no cover - generator marker

    def _on_member_failed(self, member: str) -> None:
        if member not in self.ring:
            return
        self.ring.remove(member)
        self.system.ring_template.remove(member)
        manager = self.system.shard_manager
        if manager is not None:
            manager.record_membership_change(self.ring, member, "failed")
        survivors = set(self.ring.members)
        tracker = self._recoveries.setdefault(member, RecoveryTracker(member))
        for pending in self._recoveries.values():
            if not pending.complete and pending.failed_member != member:
                pending.survivor_lost(member)
        lease = self.system.recovery_lease_ms
        if lease is not None:
            # Lease-based baseline (ZooKeeper-style session expiry): the
            # barrier stays up for the full lease TTL regardless of how
            # quickly survivors actually recover — the conservatism
            # Concord's ack counting avoids (Section III-F).
            tracker.arm(survivors)
            self.sim.spawn(
                self._lease_expiry(member, lease),
                name=f"lease:{self.app}:{member}", daemon=True,
            )
            return
        if tracker.arm(survivors):
            self._finish_recovery(member)

    def _lease_expiry(self, member: str, lease_ms: float):
        yield self.sim.sleep(lease_ms)
        self._finish_recovery(member)

    def _handle_recovery_ack(self, endpoint, src, args):
        failed_member, acking_member = args
        if self.system.recovery_lease_ms is not None:
            return None  # lease mode: completion is time-, not ack-, driven
        tracker = self._recoveries.setdefault(
            failed_member, RecoveryTracker(failed_member)
        )
        if tracker.ack(acking_member):
            self._finish_recovery(failed_member)
        return None
        yield  # pragma: no cover - generator marker

    def _finish_recovery(self, failed_member: str) -> None:
        """All survivors recovered: lift the read barrier everywhere."""
        self.recoveries_completed += 1
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("recovery:complete", "recovery",
                           app=self.app, member=failed_member)
        obs = self.sim.obs
        if obs.active:
            obs.emit(RECOVERY_COMPLETE, member=failed_member, app=self.app)
        for node_id in sorted(self.ring.members):
            self.endpoint.notify(
                f"{node_id}/concord-{self.app}", "recovery_complete", failed_member,
                trace=INHERIT,
            )

    # -- voluntary domain changes ----------------------------------------------
    def domain_join(self, joiner: str):
        """Two-phase admission of a new cache instance (a generator)."""
        yield from self._domain_change("join", joiner)

    def domain_leave(self, leaver: str):
        """Two-phase graceful departure of a cache instance (a generator)."""
        yield from self._domain_change("leave", leaver)

    def _domain_change(self, kind: str, member: str):
        while self._domain_busy:
            yield self.sim.sleep(1.0)
        self._domain_busy = True
        try:
            if kind == "join":
                participants = sorted(self.ring.members | {member})
            else:
                participants = sorted(self.ring.members)
            # Phase 1: all agents raise barriers and transfer the
            # directory entries whose home moves.  The authoritative
            # member list rides along so a (re)joining agent can rebuild
            # its ring view from scratch.
            prepare_calls = [
                self.sim.spawn(
                    self.endpoint.call(
                        f"{node_id}/concord-{self.app}", "domain_prepare",
                        (kind, member, participants), size_bytes=32,
                        timeout=DEFAULT_RPC_TIMEOUT_MS,
                        trace=INHERIT,
                    ),
                    name=f"prep:{node_id}",
                )
                for node_id in participants
            ]
            yield self.sim.all_of(prepare_calls)
            # Phase 2: everyone atomically switches to the new ring.  The
            # commit carries the authoritative roster as of commit time:
            # members may have been declared failed since the prepare
            # snapshot was taken, and a not-yet-member joiner receives no
            # failure notifications, so it must not trust its
            # prepare-time view of the membership.
            if kind == "join":
                roster = sorted(self.ring.members | {member})
            else:
                roster = sorted(self.ring.members - {member})
            commit_calls = [
                self.sim.spawn(
                    self.endpoint.call(
                        f"{node_id}/concord-{self.app}", "domain_commit",
                        (kind, member, roster), size_bytes=32,
                        timeout=DEFAULT_RPC_TIMEOUT_MS,
                        trace=INHERIT,
                    ),
                    name=f"commit:{node_id}",
                )
                for node_id in participants
            ]
            yield self.sim.all_of(commit_calls)
            if kind == "join":
                self.ring.add(member)
            else:
                self.ring.remove(member)
            manager = self.system.shard_manager
            if manager is not None:
                manager.record_membership_change(self.ring, member, kind)
            obs = self.sim.obs
            if obs.active:
                obs.emit(DOMAIN_CHANGE, member=member, kind=kind,
                         members=len(self.ring.members))
                event = MEMBER_JOIN if kind == "join" else MEMBER_LEAVE
                obs.emit(event, member=member, app=self.app,
                         members=len(self.ring.members))
        finally:
            self._domain_busy = False

    # -- external writes ----------------------------------------------------------
    def forward_external_write(self, key: str, version: int) -> None:
        """Route an external storage update to the key's home agent."""
        self.sim.spawn(
            self._forward_external(key, version),
            name=f"extwrite:{key}",
            daemon=True,
        )

    def _forward_external(self, key: str, version: int):
        from repro.core.agent import NotHome  # avoid import cycle at module load
        from repro.net.rpc import RpcTimeout

        for _attempt in range(20):
            if not self.ring.members:
                return
            home = self.ring.home(key)
            try:
                yield from self.endpoint.call(
                    f"{home}/concord-{self.app}", "external_write", (key, version),
                    size_bytes=len(key) + 8,
                    trace=INHERIT,
                )
                return
            except (NotHome, RpcTimeout):
                # Home moved (domain change) or died; re-resolve and retry.
                yield self.sim.sleep(5.0)

    def close(self) -> None:
        self.endpoint.close()


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
        self.agents: dict[str, CacheAgent] = {}
        for node_id in members:
            self._bootstrap_agent(node_id)
        if self.coord is not None:
            self.coord.join(app, self.controller.endpoint.node_id,
                            self.controller.endpoint.address)
            for node_id, agent in self.agents.items():
                self.coord.join(app, node_id, agent.endpoint.address)
        self.storage.add_write_listener(self._on_storage_write)
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
    def _bootstrap_agent(self, node_id: str) -> CacheAgent:
        agent = CacheAgent(self, node_id, self.capacity_for(node_id))
        self.agents[node_id] = agent
        self._wire_agent(agent)
        return agent

    def _wire_agent(self, agent: CacheAgent) -> None:
        agent.endpoint.register_handler("ping", ping_handler)
        agent.endpoint.register_handler(
            "membership", self._make_membership_handler(agent))
        agent.endpoint.register_handler(
            "recovery_complete", self._make_recovery_complete_handler(agent))
        agent.endpoint.register_handler(
            "domain_prepare", self._make_domain_prepare_handler(agent))
        agent.endpoint.register_handler(
            "domain_commit", self._make_domain_commit_handler(agent))
        agent.endpoint.register_handler(
            "dir_install", self._make_dir_install_handler(agent))

    def create_instance(self, node_id: str):
        """Admit a cache instance on ``node_id`` (generator; yield from).

        Runs the two-phase join: existing agents barrier the re-homed keys
        and transfer their directory entries to the new agent before the
        domain switches rings (Section III-D).
        """
        if node_id in self.agents:
            return self.agents[node_id]
        agent = CacheAgent(self, node_id, self.capacity_for(node_id))
        agent.ring = ring_with(self.ring_template, node_id)
        # The newcomer blocks its re-homed keys until commit.
        agent.raise_barrier(node_id, agent.ring.copy())
        self.agents[node_id] = agent
        self._wire_agent(agent)
        yield from self.controller.domain_join(node_id)
        self.ring_template.add(node_id)
        if self.coord is not None:
            self.coord.join(self.app, node_id, agent.endpoint.address)
        return agent

    def restart_instance(self, node_id: str):
        """Re-admit the cache instance on a restarted node (generator).

        Models a process restart after :meth:`Cluster.restart_node`:
        whatever the pre-crash instance held in memory is gone, so the
        agent must flush and re-enter through the two-phase join — it can
        never silently resume serving its stale cache or directory.

        Two situations arise.  Usually the crash was already declared
        while the node was down (heartbeat misses), the survivors purged
        it, and the "you failed" notification to the dead process was
        dropped — so the stale agent is ejected and re-admitted here.  If
        the restart beat the failure detector, the crash is declared
        explicitly first; the membership notification then reaches the
        now-live agent, which ejects and re-admits itself through the
        false-positive path, and this method just awaits that rejoin.
        """
        agent = self.agents.get(node_id)
        if agent is None:
            return (yield from self.create_instance(node_id))
        if node_id in self.ring_template.members:
            self.report_unreachable(node_id)
            for _attempt in range(RESTART_POLL_LIMIT):
                if agent.ejected or node_id not in self.ring_template.members:
                    break
                yield self.sim.sleep(RESTART_POLL_MS)
        if agent.ejected:
            # The false-positive path is already re-admitting the agent;
            # wait for its domain join to commit.
            for _attempt in range(RESTART_POLL_LIMIT):
                if not agent.ejected and node_id in self.ring_template.members:
                    break
                yield self.sim.sleep(RESTART_POLL_MS)
            return agent
        # Declared while the node was down: flush the lost process's
        # in-memory state and re-admit through the join protocol.
        agent.eject()
        yield from self._rejoin(agent)
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
        agent.close()

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
    def report_unreachable(self, peer: str) -> None:
        """A protocol RPC to ``peer`` timed out (Section III-H)."""
        if self.coord is not None:
            self.coord.report_unreachable(self.app, peer)

    def _make_membership_handler(self, agent: CacheAgent):
        def handler(endpoint, src, event: MembershipEvent):
            if event.kind != "failed":
                return None
            if event.member == agent.node_id:
                # False-positive ejection: we are alive but the domain
                # already wrote us off.  Flush everything and rejoin.
                if not agent.ejected:
                    agent.eject()
                    self.sim.spawn(
                        self._rejoin(agent), name=f"rejoin:{agent.node_id}",
                        daemon=True,
                    )
            else:
                yield from self._agent_recover(agent, event.member)
            return None
            yield  # pragma: no cover - generator marker
        return handler

    def _agent_recover(self, agent: CacheAgent, failed_member: str):
        """Local recovery steps at one surviving agent (Section III-F).

        A generator: flat systems never reach a yield (the handler's
        ``yield from`` runs it inline), but on a sharded system an agent
        that inherits shard leadership pays an explicit re-home cost in
        sim time before acking — extending the barrier window by the
        reconfiguration it models.
        """
        if failed_member in agent.ring:
            tracer = self.sim.tracer
            if tracer.active:
                tracer.instant("recovery:survivor", "recovery",
                               app=self.app, node=agent.node_id,
                               member=failed_member)
            obs = self.sim.obs
            if obs.active:
                obs.emit(RECOVERY_SURVIVOR, node=agent.node_id,
                         member=failed_member, app=self.app)
            snapshot = agent.ring.copy()
            agent.raise_barrier(failed_member, snapshot)
            agent.evict_keys_homed_at(failed_member, snapshot)
            agent.directory.remove_sharer_everywhere(failed_member)
            # The removal must land before the failover pause: the new
            # membership is already fact, and an interrupted failover
            # must not resurrect the failed member's ring slot.
            agent.ring.remove(failed_member)  # noqa: INT01
            agent.member_removed(failed_member)
            if self.shard_manager is not None:
                yield from self._shard_failover(agent, failed_member, snapshot)
        agent.endpoint.notify(
            self.controller.endpoint.address, "recovery_ack",
            (failed_member, agent.node_id), size_bytes=16,
            trace=INHERIT,
        )

    def _shard_failover(self, agent: CacheAgent, failed_member: str,
                        snapshot):
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
        router = agent.ring
        gained = [
            shard for shard in range(router.num_shards)
            if snapshot.chain_of(shard)
            and snapshot.chain_of(shard)[0] == failed_member
            and router.chain_of(shard)
            and router.chain_of(shard)[0] == agent.node_id
        ]
        if not gained:
            return
        entries = []
        if self.replication > 1:
            gained_set = set(gained)
            entries = [
                (key, state, sharers)
                for key, (state, sharers) in sorted(agent.dir_mirror.items())
                if router.shard_of(key) in gained_set
            ]
        cost = SHARD_REHOME_MS * len(gained) + ADOPT_ENTRY_MS * len(entries)
        epoch = agent.epoch
        yield self.sim.sleep(cost)
        if agent.epoch != epoch or agent.ejected:
            # The membership moved again while this takeover was being
            # charged for; leadership may already belong to someone else,
            # so installing the adopted entries now would park them away
            # from their true home (or duplicate the new leader's).
            return
        router = agent.ring  # the ring object is replaced on rejoin
        live = router.members
        from repro.caching.base import SHARED  # local: avoid wide import

        for key, state, sharers in entries:
            if not router.chain_of(router.shard_of(key)) or \
                    router.chain_of(router.shard_of(key))[0] != agent.node_id:
                continue  # this shard moved on during the pause
            agent.dir_mirror.pop(key, None)
            pruned = {s for s in sharers
                      if s != failed_member and s in live}
            if not pruned:
                continue
            adopted_state = state if len(pruned) == len(sharers) else SHARED
            agent.directory.install(DirectoryEntry(
                key=key, state=adopted_state, sharers=pruned))
        if self.shard_manager is not None:
            self.shard_manager.record_adoption(
                agent.node_id, gained, len(entries), cost)

    def _rejoin(self, agent: CacheAgent):
        """Re-admit a falsely-ejected agent through the join protocol."""
        yield self.sim.sleep(RETRY_DELAY_MS)
        yield from self.controller.domain_join(agent.node_id)
        self.ring_template.add(agent.node_id)
        if self.coord is not None:
            self.coord.join(self.app, agent.node_id, agent.endpoint.address)

    def _make_recovery_complete_handler(self, agent: CacheAgent):
        def handler(endpoint, src, failed_member):
            agent.lift_barrier(failed_member)
            return None
            yield  # pragma: no cover - generator marker
        return handler

    # -- domain change plumbing -----------------------------------------------------
    def _make_domain_prepare_handler(self, agent: CacheAgent):
        def handler(endpoint, src, args):
            kind, member, participants = args
            if kind == "join":
                yield from self._prepare_join(agent, member, participants)
            else:
                yield from self._prepare_leave(agent, member)
            return Reply("prepared", size_bytes=1)
        return handler

    def _prepare_join(self, agent: CacheAgent, joiner: str, participants: list):
        if agent.node_id == joiner:
            # (Re)build the joiner's ring view from the authoritative
            # member list and block its keys until commit.
            agent.lift_barrier(joiner)
            agent.ring = self.ring_template.with_members(participants)
            agent.raise_barrier(joiner, agent.ring.copy())
            return
        new_ring = ring_with(agent.ring, joiner)
        agent.raise_barrier(joiner, new_ring)
        moving = keys_moving_to_joiner(agent.ring, joiner, agent.directory.keys())
        if moving:
            entries, release = yield from agent.pop_directory_entries_locked(moving)
            try:
                if entries:
                    yield from agent.endpoint.call(
                        f"{joiner}/concord-{self.app}", "dir_install", entries,
                        size_bytes=DIR_ENTRY_WIRE_BYTES * len(entries),
                        timeout=DEFAULT_RPC_TIMEOUT_MS,
                        trace=INHERIT,
                    )
            finally:
                release()

    def _prepare_leave(self, agent: CacheAgent, leaver: str):
        snapshot = agent.ring.copy()
        agent.raise_barrier(leaver, snapshot)
        agent.directory.remove_sharer_everywhere(leaver)
        if agent.node_id != leaver:
            return
        # The departing instance stops serving hits and re-homes all of
        # its directory entries to their consistent-hashing successors.
        agent.cache.clear()
        by_target = new_homes_for_leaver(
            agent.ring, leaver, agent.directory.keys())
        for target, keys in sorted(by_target.items()):
            entries, release = yield from agent.pop_directory_entries_locked(keys)
            try:
                if entries:
                    yield from agent.endpoint.call(
                        f"{target}/concord-{self.app}", "dir_install", entries,
                        size_bytes=DIR_ENTRY_WIRE_BYTES * len(entries),
                        timeout=DEFAULT_RPC_TIMEOUT_MS,
                        trace=INHERIT,
                    )
            finally:
                release()

    def _make_domain_commit_handler(self, agent: CacheAgent):
        def handler(endpoint, src, args):
            kind, member, roster = args
            if kind == "join":
                if member == agent.node_id:
                    # Rebuild from the commit-time roster rather than
                    # incrementing the prepare-time view: members that
                    # failed while this join was in flight were never
                    # announced to the (not-yet-member) joiner.
                    agent.ring = self.ring_template.with_members(roster)
                    agent.epoch += 1
                    agent.ejected = False  # rejoin complete
                else:
                    agent.ring.add(member)
                    agent.epoch += 1
            else:
                agent.ring.remove(member)
                agent.member_removed(member)
            agent.lift_barrier(member)
            self._sweep_strays(agent)
            return Reply("committed", size_bytes=1)
            yield  # pragma: no cover - generator marker
        return handler

    def _make_dir_install_handler(self, agent: CacheAgent):
        def handler(endpoint, src, entries):
            for entry in entries:
                agent.directory.install(entry)
            return Reply("installed", size_bytes=1)
            yield  # pragma: no cover - generator marker
        return handler

    def _sweep_strays(self, agent: CacheAgent) -> None:
        """Re-home directory entries ``agent`` no longer homes.

        The prepare phase transfers the entries that exist when the
        barrier goes up, but a shard failover can *adopt* mirror entries
        into the directory while a domain change is still in flight —
        those escape the transfer and would park at a non-home forever.
        Sweeping after every commit restores the entries-live-at-their-
        home invariant; on a converged ring the sweep finds nothing.
        """
        if agent.ejected or not agent.ring.members:
            return
        stray = [key for key in agent.directory.keys()
                 if agent.ring.home(key) != agent.node_id]
        if stray:
            self.sim.spawn(
                self._forward_strays(agent, stray),
                name=f"concord-strays:{self.app}:{agent.node_id}",
                daemon=True)

    def _forward_strays(self, agent: CacheAgent, keys: list):
        from repro.net.rpc import RpcError

        entries, release = yield from agent.pop_directory_entries_locked(keys)
        keep: list = []
        try:
            if agent.ejected or not agent.ring.members:
                return  # the domain wrote us off; these entries are dead
            by_home: dict[str, list] = {}
            for entry in entries:
                by_home.setdefault(agent.ring.home(entry.key), []).append(entry)
            # Keys a newer membership change re-homed back to us while
            # the sweep was quiescing them stay local (reinstalled in
            # the finally so an interrupt cannot drop them).
            keep = by_home.pop(agent.node_id, [])
            for home, group in sorted(by_home.items()):
                try:
                    yield from agent.endpoint.call(
                        f"{home}/concord-{self.app}", "dir_install", group,
                        size_bytes=DIR_ENTRY_WIRE_BYTES * len(group),
                        timeout=DEFAULT_RPC_TIMEOUT_MS,
                        trace=INHERIT,
                    )
                except RpcError:
                    # Unreachable home: it is (about to be) declared
                    # failed and recovery rebuilds its directory state,
                    # so the stale entries die with the attempt instead
                    # of parking here.
                    pass
        finally:
            for entry in keep:
                agent.directory.install(entry)
            release()

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
            agent.close()
        self.controller.close()
