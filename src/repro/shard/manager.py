"""Shard bookkeeping for a sharded :class:`ConcordSystem`.

The :class:`ShardManager` watches the controller's authoritative
:class:`~repro.shard.router.ShardRouter` across membership changes and
keeps the scoreboard the verifier, telemetry, and experiments read:

- **re-homing epochs** — a per-shard counter bumped every time the
  shard's leader changes (crash failover, graceful leave, scale-out
  join).  The verifier uses epochs to phrase its "no stale copies
  survive a shard move" check per epoch transition.
- **failover vs voluntary re-home accounting** — a leader change caused
  by a *failure* is a failover (the chain's next replica takes over); a
  change caused by join/leave is a voluntary re-home.
- **adoption accounting** — when replication is on, the new leader
  adopts its mirrored directory entries; the count and the sim-time cost
  charged for it are recorded here.

All counts are exported as telemetry counters and emitted as
``shard.*`` flight-recorder events, so a topology run's re-homing story
shows up in both the metrics export and the post-mortem timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import SHARD_ADOPT, SHARD_FAILOVER, SHARD_REHOME

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard.router import ShardRouter


class ShardManager:
    """Epoch, failover, and adoption accounting for one sharded system."""

    def __init__(self, system, router: "ShardRouter"):
        self.system = system
        self.sim = system.sim
        self.app = system.app
        self.num_shards = router.num_shards
        self.replication = router.replication
        #: per-shard leader-change count.
        self.epochs: list[int] = [0] * router.num_shards
        #: last known leader table, diffed on every membership change.
        self._leaders: list[str] = [
            chain[0] if chain else "" for chain in router.table()]
        self.rehomes_total = 0
        self.failovers_total = 0
        self.adoptions_total = 0
        self.adopted_entries_total = 0
        self.rehome_cost_ms_total = 0.0
        self._register_metrics()

    def _register_metrics(self) -> None:
        metrics = self.sim.metrics
        if not metrics.active:
            return
        metrics.counter(
            "shard_rehomes_total",
            "Shard leader changes from any membership change.",
            labelnames=("app",),
        ).set_callback(lambda: self.rehomes_total, app=self.app)
        metrics.counter(
            "shard_failovers_total",
            "Shard leader changes caused by a member failure.",
            labelnames=("app",),
        ).set_callback(lambda: self.failovers_total, app=self.app)
        metrics.counter(
            "shard_adopted_entries_total",
            "Mirrored directory entries adopted by new shard leaders.",
            labelnames=("app",),
        ).set_callback(lambda: self.adopted_entries_total, app=self.app)
        gauge = metrics.gauge(
            "shard_leaders",
            "Shards currently led by each node.",
            labelnames=("app", "node", "scheme"),
        )
        for node in sorted(self.system.cluster.node_ids):
            gauge.set_callback(
                self._leader_count_callback(node),
                app=self.app, node=node, scheme="concord")

    def _leader_count_callback(self, node: str):
        return lambda: self._leaders.count(node)

    # -- membership-driven re-homing ---------------------------------------
    def record_membership_change(self, router: "ShardRouter", member: str,
                                 kind: str) -> list[int]:
        """Diff the leader table after a membership change.

        ``kind`` is ``"failed"`` for crash-driven changes, ``"join"`` or
        ``"leave"`` for voluntary domain changes.  Returns the shards
        whose leader moved.
        """
        new_leaders = [chain[0] if chain else ""
                       for chain in router.table()]
        moved = [shard for shard in range(self.num_shards)
                 if new_leaders[shard] != self._leaders[shard]]
        obs = self.sim.obs
        for shard in moved:
            self.epochs[shard] += 1
            self.rehomes_total += 1
            if kind == "failed":
                self.failovers_total += 1
            if obs.active:
                event = SHARD_FAILOVER if kind == "failed" else SHARD_REHOME
                obs.emit(event, app=self.app, shard=shard,
                         old_leader=self._leaders[shard],
                         new_leader=new_leaders[shard],
                         epoch=self.epochs[shard], cause=kind)
        self._leaders = new_leaders
        return moved

    # -- failover adoption --------------------------------------------------
    def record_adoption(self, node_id: str, shards: list[int],
                        entries: int, cost_ms: float) -> None:
        """A new leader adopted its mirrors for ``shards``."""
        self.adoptions_total += 1
        self.adopted_entries_total += entries
        self.rehome_cost_ms_total += cost_ms
        obs = self.sim.obs
        if obs.active:
            obs.emit(SHARD_ADOPT, app=self.app, node=node_id,
                     shards=sorted(shards), entries=entries,
                     cost_ms=cost_ms)
