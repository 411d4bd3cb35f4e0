"""Runtime coherence invariants over a live (quiescent) ConcordSystem.

The model checker (:mod:`repro.verify.model`) explores an abstracted
protocol; this module checks the *implementation* — the actual caches,
directories and rings of a :class:`~repro.core.ConcordSystem` — against
the same invariants, after fault injection and recovery have settled:

- **No stale copies.**  With write-through, every valid (non-speculative)
  cached value equals the durable value in global storage.
- **No dead sharers.**  After recovery completes, no directory entry may
  point at a crashed or ejected node (survivors purge failed sharers,
  Section III-F).
- **Structural validity.**  Exclusive entries have exactly one sharer,
  Shared entries at least one.
- **Correct homing.**  Every directory entry lives at the ring home of
  its key, and each key has at most one directory entry domain-wide.

Sharded systems (``ConcordSystem(shards=N)``) get three extra checks:

- **Shard-table agreement.**  Every live agent's router must resolve
  the same leader chain per shard as the controller's — a disagreement
  means a re-homing epoch left agents routing to different homes.
- **No homeless shards.**  Every shard's replica chain is non-empty
  while members remain (leader election is a pure function of
  membership, so an empty chain is a failover bug, not a fault).
- **No untracked copies.**  Every cached non-speculative key must be
  registered at its shard leader's directory — after a shard moves
  homes, a copy the new leader does not know about could never be
  invalidated (a "stale copy surviving a shard move" in waiting).

Call :func:`check_coherence` when the simulation is quiescent (no
requests in flight — e.g. after a drain phase); in-flight operations
legitimately hold transient states these invariants would flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.events import VERIFY_VIOLATION

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster
    from repro.core import ConcordSystem


class CoherenceViolation(AssertionError):
    """Raised by :func:`assert_coherent` with all violations listed."""


def _live_agents(system: "ConcordSystem", cluster: "Cluster") -> dict:
    """node_id -> agent for agents that are up and serving."""
    live = {}
    for node_id, agent in system.agents.items():
        node = cluster.nodes.get(node_id)
        if node is not None and not node.alive:
            continue
        if agent.ejected:
            continue
        live[node_id] = agent
    return live


def check_coherence(
    system: "ConcordSystem", cluster: Optional["Cluster"] = None,
    strict_tracking: Optional[bool] = None,
) -> list[str]:
    """All invariant violations in ``system``'s current state (quiescent).

    ``strict_tracking`` controls the untracked-copy check (every cached
    key registered at its home's directory).  ``None`` auto-enables it
    for sharded systems, where a copy unknown to a shard's new leader
    can never be invalidated.
    """
    cluster = cluster if cluster is not None else system.cluster
    storage = system.storage
    live = _live_agents(system, cluster)
    violations: list[str] = []
    obs = system.sim.obs
    sharded = getattr(system, "shard_manager", None) is not None
    if strict_tracking is None:
        strict_tracking = sharded

    def flag(key: str, node: str, message: str) -> None:
        violations.append(message)
        # A dump-trigger event: a recorder with a dump_path writes the
        # flight recording out the moment the checker finds a violation.
        if obs.active:
            obs.emit(VERIFY_VIOLATION, node=node, key=key, detail=message)

    # -- no stale cached copies (write-through: cache == storage) -------
    for node_id, agent in live.items():
        for key in agent.cache.keys():
            entry = agent.cache.peek(key)
            if entry is None or entry.speculative:
                continue
            record = storage.peek(key)
            if record is None:
                flag(key, node_id,
                     f"{node_id}: caches {key!r} but storage has no record")
            elif entry.value != record.value:
                flag(key, node_id,
                     f"{node_id}: stale copy of {key!r} "
                     f"(cached {entry.value!r} != stored {record.value!r})")

    # -- directory entries: structure, liveness of sharers, homing ------
    homes_of: dict[str, list[str]] = {}
    for node_id, agent in live.items():
        for entry in agent.directory.entries():
            homes_of.setdefault(entry.key, []).append(node_id)
            if not entry.is_valid():
                flag(entry.key, node_id,
                     f"{node_id}: directory entry for {entry.key!r} is "
                     f"structurally invalid ({entry.state}, "
                     f"{len(entry.sharers)} sharers)")
            for sharer in sorted(entry.sharers):
                if sharer not in live:
                    flag(entry.key, node_id,
                         f"{node_id}: directory entry for {entry.key!r} "
                         f"points at dead/ejected node {sharer!r}")
                elif sharer not in agent.ring.members:
                    flag(entry.key, node_id,
                         f"{node_id}: directory entry for {entry.key!r} "
                         f"lists {sharer!r}, not a ring member")
            if (agent.ring.members
                    and agent.ring.home(entry.key) != node_id):
                flag(entry.key, node_id,
                     f"{node_id}: directory entry for {entry.key!r} parked "
                     f"away from its home "
                     f"{agent.ring.home(entry.key)!r}")
    for key, holders in homes_of.items():
        if len(holders) > 1:
            flag(key, "",
                 f"duplicate directory entries for {key!r} at {holders}")

    # -- sharded topologies: table agreement and homeless shards --------
    if sharded:
        reference = system.controller.ring
        expected = reference.table()
        for shard, chain in enumerate(expected):
            if not chain and reference.members:
                flag("", "",
                     f"shard {shard} has no home (empty replica chain "
                     f"with {len(reference.members)} members)")
        for node_id, agent in live.items():
            router = agent.ring
            if not router.members:
                continue
            table = router.table()
            if table == expected:
                continue
            for shard, chain in enumerate(table):
                if shard < len(expected) and chain != expected[shard]:
                    flag("", node_id,
                         f"{node_id}: shard {shard} chain {chain} disagrees "
                         f"with controller chain {expected[shard]}")
            if len(table) != len(expected):
                flag("", node_id,
                     f"{node_id}: routes {len(table)} shards, controller "
                     f"has {len(expected)}")

    # -- no untracked copies (cached key unknown at its home) -----------
    if strict_tracking:
        for node_id, agent in live.items():
            ring = agent.ring
            if not ring.members:
                continue
            for key in agent.cache.keys():
                cached = agent.cache.peek(key)
                if cached is None or cached.speculative:
                    continue
                home = ring.home(key)
                home_agent = live.get(home)
                if home_agent is None:
                    continue  # dead home is flagged by the checks above
                entry = home_agent.directory.get(key)
                where = (f"shard {ring.shard_of(key)} leader" if sharded
                         else "home")
                if entry is None:
                    flag(key, node_id,
                         f"{node_id}: caches {key!r} untracked at its "
                         f"{where} {home!r} (no directory entry)")
                elif node_id not in entry.sharers:
                    flag(key, node_id,
                         f"{node_id}: caches {key!r} but its {where} "
                         f"{home!r} does not list it as a sharer")

    return violations


def assert_coherent(
    system: "ConcordSystem", cluster: Optional["Cluster"] = None,
    strict_tracking: Optional[bool] = None,
) -> None:
    """Raise :class:`CoherenceViolation` if any invariant is violated."""
    violations = check_coherence(system, cluster, strict_tracking)
    if violations:
        raise CoherenceViolation(
            f"{len(violations)} coherence violation(s):\n  "
            + "\n  ".join(violations))
