"""Key→shard→home routing over the consistent-hash member ring.

A :class:`ShardRouter` is a drop-in replacement for
:class:`~repro.core.hashring.ConsistentHashRing` wherever the protocol
only needs ``home``/``members``/``add``/``remove``/``copy`` — which is
everywhere: agents, barriers, recovery, and domain changes all treat the
ring as an opaque "who owns this key" oracle.  The router answers that
question in two deterministic steps:

1. ``shard_of(key) = md5(key) % num_shards`` — stable across processes
   and ``PYTHONHASHSEED`` values.
2. Each shard's replica chain is the member ring's preference list for
   the shard's token (``"shard:<i>"``): the first ``replication``
   distinct members clockwise.  The chain head is the shard *leader* and
   the key's home.

Leader election and failover need no protocol state: the chain is a pure
function of the membership set, every agent computes it independently,
and removing a member preserves the relative order of the survivors —
so when a leader dies, the next replica in the chain is the new leader
on every node that learns of the failure, with no messages exchanged.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.hashring import ConsistentHashRing, EmptyRingError, _hash_cached


class ShardRouter:
    """Partition the home-node role into replica-chained shards."""

    def __init__(self, members: Iterable[str] = (), num_shards: int = 8,
                 replication: int = 1, virtual_nodes: int = 64):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.num_shards = num_shards
        self.replication = replication
        self._ring = ConsistentHashRing(members, virtual_nodes)
        #: shard -> replica chain (leader first); () while memberless.
        self._chains: list[tuple[str, ...]] = []
        self._rebuild()

    # -- shard resolution ---------------------------------------------------
    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (stable md5 hash, not ``hash()``)."""
        return _hash_cached(key) % self.num_shards

    def chain_of(self, shard: int) -> tuple[str, ...]:
        """Shard ``shard``'s replica chain, leader first."""
        return self._chains[shard]

    def leader_of(self, shard: int) -> str:
        """The member leading ``shard`` (its chain head)."""
        chain = self._chains[shard]
        if not chain:
            raise EmptyRingError(f"shard {shard} has no members")
        return chain[0]

    def followers(self, key: str) -> tuple[str, ...]:
        """Non-leader replicas of ``key``'s shard."""
        return self._chains[self.shard_of(key)][1:]

    def table(self) -> tuple[tuple[str, ...], ...]:
        """The full shard→chain table (order-stable; fingerprintable)."""
        return tuple(self._chains)

    # -- ring-compatible surface -------------------------------------------
    @property
    def virtual_nodes(self) -> int:
        return self._ring.virtual_nodes

    @property
    def members(self) -> set[str]:
        return self._ring.members

    def __len__(self) -> int:
        return len(self._ring)

    def __contains__(self, member: str) -> bool:
        return member in self._ring

    def home(self, key: str) -> str:
        """The leader of ``key``'s shard."""
        return self.leader_of(self.shard_of(key))

    def preference_list(self, key: str, n: int) -> tuple[str, ...]:
        """First ``n`` entries of ``key``'s shard chain (ring fallback
        beyond the chain length)."""
        chain = self._chains[self.shard_of(key)]
        if len(chain) >= n:
            return chain[:n]
        return self._ring.preference_list(f"shard:{self.shard_of(key)}", n)

    def add(self, member: str) -> None:
        self._ring.add(member)
        self._rebuild()

    def remove(self, member: str) -> None:
        self._ring.remove(member)
        self._rebuild()

    def copy(self) -> "ShardRouter":
        """An independent router with the same members and shards.

        The ring is a copy-on-write copy and the chain list is shared
        outright: ``_rebuild`` replaces it, nothing mutates it in place.
        """
        router = ShardRouter((), self.num_shards, self.replication,
                             self._ring.virtual_nodes)
        router._ring = self._ring.copy()
        router._chains = self._chains
        return router

    def with_members(self, members: Iterable[str]) -> "ShardRouter":
        """A new router over ``members`` with this router's parameters."""
        return ShardRouter(members, self.num_shards, self.replication,
                           self._ring.virtual_nodes)

    def rehomed_keys(self, keys: Iterable[str], member: str) -> dict[str, str]:
        """For each key homed at ``member``, its new home once it leaves."""
        if not self._ring.members:
            raise EmptyRingError(
                f"cannot re-home keys from {member!r}: hash ring is empty")
        if self._ring.members == {member}:
            raise EmptyRingError(
                f"cannot re-home keys from {member!r}: removing the last "
                "member leaves the ring empty")
        without = self.copy()
        if member in without:
            without.remove(member)
        return {
            key: without.home(key)
            for key in keys
            if self.home(key) == member
        }

    # -- internals ----------------------------------------------------------
    def _rebuild(self) -> None:
        if len(self._ring):
            self._chains = [
                self._ring.preference_list(f"shard:{shard}", self.replication)
                for shard in range(self.num_shards)
            ]
        else:
            self._chains = [() for _ in range(self.num_shards)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardRouter(shards={self.num_shards}, "
                f"replication={self.replication}, "
                f"members={sorted(self._ring.members)})")
