"""The per-application control plane of a Concord cache.

:class:`AppController` keeps the Node Directory, orchestrates two-phase
domain changes (Section III-D), coordinates failure recovery (Section
III-F) and forwards external writes to their home agent (Section
III-C3).  The per-node halves of those protocols live in
:class:`~repro.core.agent.CacheAgent`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coord.service import MembershipEvent, ping_handler
from repro.core.agent import NotHome
from repro.core.recovery import RecoveryTracker
from repro.net.rpc import RPC_TIMEOUT_MS, Endpoint, RpcError, RpcTimeout
from repro.obs.events import (
    DOMAIN_CHANGE,
    MEMBER_JOIN,
    MEMBER_LEAVE,
    RECOVERY_COMPLETE,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.concord import ConcordSystem


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
        #: Failed member -> ack tracker of its latest declaration.
        self._recoveries: dict[str, RecoveryTracker] = {}
        #: Serializes voluntary domain changes.
        self._domain_busy = False
        #: Failure recoveries driven to completion (barriers lifted).
        self.recoveries_completed = 0
        #: member -> event fired when this controller purges it as failed.
        self._purge_events: dict = {}
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
            self._on_member_failed(event.member, event.declared_ms)
        return None
        yield  # pragma: no cover - generator marker

    def purged(self, member: str):
        """Event fired when this controller next purges ``member`` as
        failed (a restart waits on it before rejoining)."""
        return self._purge_events.setdefault(member, self.sim.event())

    def _on_member_failed(self, member: str, declared_ms: float) -> None:
        if member not in self.ring:
            return
        self.ring.remove(member)
        self.system.ring_template.remove(member)
        if member in self._purge_events:
            self._purge_events.pop(member).succeed()
        manager = self.system.shard_manager
        if manager is not None:
            manager.record_membership_change(self.ring, member, "failed")
        survivors = set(self.ring.members)
        tracker = self._tracker(member, declared_ms)
        self._stop_awaiting(member)
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
        else:
            self._reask_later(member)

    def _stop_awaiting(self, node: str) -> None:
        """``node`` left the domain (failed or gone): stop waiting for its
        acks, and finish each recovery that was waiting on it alone."""
        for pending in list(self._recoveries.values()):
            if (pending.failed_member != node and pending.survivor_lost(node)
                    and self.system.recovery_lease_ms is None):
                self._finish_recovery(pending.failed_member)

    def _reask_later(self, member: str) -> None:
        self.sim.call_at(self.sim.now + RPC_TIMEOUT_MS, self._reask, member)

    def _missing_acks(self, member: str) -> list:
        """Survivors whose ack for ``member`` is missing."""
        tracker = self._recoveries.get(member)
        if (tracker is None or tracker.complete
                or self.system.recovery_lease_ms is not None):
            return []
        return sorted(tracker.awaiting)

    def _reask(self, member: str) -> None:
        """Send the failure of ``member`` again to each survivor whose ack
        is still missing, one RPC timeout after the failure or the last
        ask.

        An ack is a fire-and-forget notify, so a dropped one would leave
        the recovery open for good.  A survivor that already recovered
        only acks again, since ``member`` is off its ring.  A rejoin of
        ``member`` closes the recovery before its commit goes out.
        """
        missing = self._missing_acks(member)
        if not missing:
            return
        event = MembershipEvent("failed", self.app, member,
                                f"{member}/concord-{self.app}",
                                self._recoveries[member].declared_ms)
        for node_id in missing:
            self.endpoint.notify(f"{node_id}/concord-{self.app}",
                                 "membership", event)
        self._reask_later(member)

    def open_recoveries(self) -> list:
        """``(failed member, members whose ack is missing)`` for each
        recovery still waiting on acks; none under a lease."""
        return [(member, missing) for member in sorted(self._recoveries)
                if (missing := self._missing_acks(member))]

    def _lease_expiry(self, member: str, lease_ms: float):
        yield self.sim.sleep(lease_ms)
        self._finish_recovery(member)

    def _tracker(self, member: str, declared_ms: float):
        """The ack tracker of ``member``'s declaration at ``declared_ms``,
        or None for an earlier declaration.  Each declaration gets its own
        tracker (a member fails again only after it rejoined, and the
        join's commit closes the earlier recovery)."""
        tracker = self._recoveries.get(member)
        if tracker is None or tracker.declared_ms < declared_ms:
            tracker = RecoveryTracker(member, declared_ms)
            self._recoveries[member] = tracker
        elif tracker.declared_ms > declared_ms:
            return None
        return tracker

    def _handle_recovery_ack(self, endpoint, src, args):
        failed_member, acking_member, declared_ms = args
        if self.system.recovery_lease_ms is not None:
            return None  # lease mode: completion is time-, not ack-, driven
        # An ack can arrive before the controller's own notification (it
        # is kept as early) or after a later declaration (it is dropped).
        tracker = self._tracker(failed_member, declared_ms)
        if tracker is not None and tracker.ack(acking_member):
            self._finish_recovery(failed_member)
        return None
        yield  # pragma: no cover - generator marker

    def _finish_recovery(self, failed_member: str) -> None:
        """All survivors recovered: lift the read barrier everywhere."""
        self.recoveries_completed += 1
        obs = self.sim.obs
        if obs.active:
            obs.emit(RECOVERY_COMPLETE, member=failed_member, app=self.app)
        for node_id in sorted(self.ring.members):
            self.endpoint.notify(
                f"{node_id}/concord-{self.app}", "recovery_complete", failed_member,
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
            # directory entries whose home moves.
            prepare_calls = [
                self.sim.spawn(self._ask(node_id, "domain_prepare",
                                         (kind, member)),
                               name=f"prep:{node_id}")
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
            # The commit lifts the joiner's barrier everywhere, so it
            # stands in for the acks a recovery of the joiner still
            # misses.  Close that recovery before the commit goes out: a
            # re-ask reaching a survivor after its commit would have it
            # recover from a live member.
            closes_recovery = kind == "join" and bool(
                self._missing_acks(member))
            if closes_recovery:
                self._recoveries[member].complete = True
            commit_calls = [
                self.sim.spawn(self._ask(node_id, "domain_commit",
                                         (kind, member, roster)),
                               name=f"commit:{node_id}")
                # A participant declared failed since the prepare is out.
                for node_id in participants
                if node_id in self.ring or node_id == member
            ]
            yield self.sim.all_of(commit_calls)
            if kind == "join":
                self.ring.add(member)
                if closes_recovery:
                    self._finish_recovery(member)
            else:
                self.ring.remove(member)
                self._stop_awaiting(member)
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

    def _ask(self, node_id: str, method: str, args: tuple):
        """One participant's phase of a domain change (``args`` is
        ``(kind, member, ...)``).  A member declared failed meanwhile is
        no longer awaited, as a recovery stops awaiting its ack, so its
        call failing fails nothing; the joiner's still does."""
        kind, member = args[0], args[1]
        try:
            yield from self.endpoint.call(
                f"{node_id}/concord-{self.app}", method, args, size_bytes=32)
        except RpcError:
            if node_id in self.ring or (kind == "join" and node_id == member):
                raise

    # -- external writes ----------------------------------------------------------
    def forward_external_write(self, key: str, version: int) -> None:
        """Route an external storage update to the key's home agent."""
        self.sim.spawn(
            self._forward_external(key, version),
            name=f"extwrite:{key}",
            daemon=True,
        )

    def _forward_external(self, key: str, version: int):
        for _attempt in range(20):
            if not self.ring.members:
                return
            home = self.ring.home(key)
            try:
                yield from self.endpoint.call(
                    f"{home}/concord-{self.app}", "external_write",
                    (key, "external", version),
                    size_bytes=len(key) + 8,
                )
                return
            except (NotHome, RpcTimeout):
                # Home moved (domain change) or died; re-resolve and retry.
                yield self.sim.sleep(5.0)

    def close(self) -> None:
        self.endpoint.close()
