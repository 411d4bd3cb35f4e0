"""Membership groups with heartbeat-based failure detection.

Each application forms its own group (ZooKeeper hierarchical namespaces,
paper Section III-F): only the members of the failed node's groups are
notified, never unrelated applications.  Detection is by real simulated
heartbeat RPCs with timeouts, so detection latency is
``heartbeat_interval * allowed misses`` as in a real deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import SimConfig
from repro.net.rpc import Endpoint, Reply, RpcTimeout
from repro.obs.events import MEMBER_DECLARE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Network
    from repro.sim import Simulator


@dataclass(frozen=True)
class MembershipEvent:
    """Notification delivered to group members on membership changes."""

    kind: str  # "joined" | "left" | "failed"
    app: str
    member: str  # node id of the affected member
    address: str  # endpoint address of the affected member
    #: When a ``failed`` member was declared: it names the declaration,
    #: so a recovery ack answers one declaration and no later one.
    declared_ms: float = 0.0


class CoordinationService:
    """Tracks per-application membership and detects failed members.

    Members join with the endpoint address that should receive
    ``membership`` notifications and answer ``ping`` heartbeats.  A member
    missing ``config.heartbeat_misses`` consecutive heartbeats is declared
    failed, removed, and the survivors of each of its groups are notified.
    """

    NODE_ID = "coord"

    def __init__(
        self,
        network: "Network",
        config: Optional[SimConfig] = None,
        run_heartbeats: bool = True,
    ):
        self.config = config or SimConfig()
        self.network = network
        self.sim: "Simulator" = network.sim
        self.endpoint = Endpoint(network, self.NODE_ID, "zk")
        #: app -> {node_id: member endpoint address}
        self._groups: dict[str, dict[str, str]] = {}
        #: (app, node_id) -> consecutive missed heartbeats
        self._misses: dict[tuple[str, str], int] = {}
        self.failures_detected: list[tuple[float, str, str]] = []
        metrics = self.sim.metrics
        if metrics.active:
            metrics.counter(
                "coord_failures_declared_total",
                "Members declared failed (per (app, member) declaration).",
                labelnames=(),
            ).set_callback(lambda: len(self.failures_detected))
        if run_heartbeats:
            self.sim.spawn(self._heartbeat_loop(), name="coord:heartbeats", daemon=True)

    # -- membership -----------------------------------------------------------
    def members(self, app: str) -> dict[str, str]:
        """Current members of ``app``'s group: {node_id: address}."""
        return dict(self._groups.get(app, {}))

    def join(self, app: str, node_id: str, address: str) -> None:
        """Add a member and notify the existing members of the group."""
        group = self._groups.setdefault(app, {})
        if node_id in group:
            return
        event = MembershipEvent("joined", app, node_id, address)
        self._notify_group(app, event, exclude=node_id)
        group[node_id] = address

    def leave(self, app: str, node_id: str) -> None:
        """Gracefully remove a member and notify the survivors."""
        group = self._groups.get(app, {})
        address = group.pop(node_id, None)
        if address is None:
            return
        self._misses.pop((app, node_id), None)
        self._notify_group(app, MembershipEvent("left", app, node_id, address))
        if not group:
            del self._groups[app]

    def report_unreachable(self, app: str, node_id: str) -> None:
        """Explicit failure report (a peer timed out talking to the member).

        Paper Section III-H: a node waiting on an unreachable peer informs
        the controller, which removes the peer's cache instance without
        waiting for heartbeat misses to accumulate.  The crash is a
        *node*-level fact, so the member is declared failed in every group
        it belongs to — exactly as when heartbeat misses accumulate — not
        just in the reporting application's group.
        """
        if node_id in self._groups.get(app, {}):
            self._declare_failed(node_id)

    # -- failure detection -------------------------------------------------
    def _heartbeat_loop(self):
        interval = self.config.heartbeat_interval_ms
        while True:
            yield self.sim.timeout(interval)
            targets = [
                (app, node_id, address)
                for app, group in self._groups.items()
                for node_id, address in group.items()
            ]
            for app, node_id, address in targets:
                self.sim.spawn(
                    self._probe(app, node_id, address),
                    name=f"coord:probe:{app}:{node_id}",
                    daemon=True,
                )

    def _probe(self, app: str, node_id: str, address: str):
        key = (app, node_id)
        try:
            yield from self.endpoint.call(
                address, "ping", None,
                timeout=self.config.heartbeat_interval_ms * 0.9,
            )
        except RpcTimeout:
            if node_id not in self._groups.get(app, {}):
                return  # already removed while the probe was in flight
            self._misses[key] = self._misses.get(key, 0) + 1
            if self._misses[key] >= self.config.heartbeat_misses:
                self._declare_failed(node_id, apps=[app])
        else:
            self._misses[key] = 0

    def _declare_failed(self, node_id: str, apps: Optional[list[str]] = None) -> None:
        """Remove ``node_id`` from (some) groups and notify survivors."""
        affected = apps if apps is not None else [
            app for app, group in self._groups.items() if node_id in group
        ]
        for app in affected:
            group = self._groups.get(app, {})
            address = group.pop(node_id, None)
            if address is None:
                continue
            self._misses.pop((app, node_id), None)
            self.failures_detected.append((self.sim.now, app, node_id))
            obs = self.sim.obs
            if obs.active:
                obs.emit(MEMBER_DECLARE, app=app, member=node_id)
            event = MembershipEvent("failed", app, node_id, address,
                                    self.sim.now)
            self._notify_group(app, event)
            # Best-effort notification to the ejected member itself: if it
            # is actually alive (false positive), it must learn that its
            # cache instance was deleted and stop serving from it.
            self.endpoint.notify(address, "membership", event)
            if not group:
                del self._groups[app]

    # -- notification delivery -------------------------------------------------
    def _notify_group(
        self, app: str, event: MembershipEvent, exclude: Optional[str] = None
    ) -> None:
        for member_id, address in self._groups.get(app, {}).items():
            if member_id == exclude or member_id == event.member:
                continue
            self.endpoint.notify(address, "membership", event)


def ping_handler(endpoint: Endpoint, src: str, args: object):
    """Standard heartbeat reply handler for group members."""
    return Reply("pong", size_bytes=1)
    yield  # pragma: no cover - generator marker
