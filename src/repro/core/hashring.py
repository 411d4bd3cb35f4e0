"""Consistent hashing ring for home-node assignment.

All cache agents of an application form a ring (paper Section III-C1); the
home of a data item is the first agent clockwise from the item's hash.
Virtual nodes smooth the key distribution so that adding/removing one agent
re-homes roughly ``1/n`` of the keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable


class EmptyRingError(LookupError):
    """A lookup or mutation needed members but the ring has none.

    Subclasses :class:`LookupError` so existing ``except LookupError``
    call sites keep working; the dedicated type lets callers distinguish
    "ring drained" from an ordinary missing-key lookup.
    """


def _hash(value: str) -> int:
    """Stable 64-bit position on the ring."""
    return int.from_bytes(hashlib.md5(value.encode()).digest()[:8], "big")


#: value -> position memo shared by all rings (_hash is a pure function,
#: and the workload keyspace is small and closed, so this stays bounded).
_HASH_MEMO: dict[str, int] = {}


def _hash_cached(value: str) -> int:
    position = _HASH_MEMO.get(value)
    if position is None:
        position = _hash(value)
        _HASH_MEMO[value] = position
    return position


class ConsistentHashRing:
    """Maps keys to member ids via consistent hashing.

    Members are arbitrary strings (node ids).  The ring is a value object
    in the sense that two rings with the same members map keys
    identically — every agent computes homes independently yet agrees
    (decentralized re-homing, Section III-D).
    """

    def __init__(self, members: Iterable[str] = (), virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._members: set[str] = set()
        self._positions: list[int] = []      # sorted virtual-node hashes
        self._owners: dict[int, str] = {}    # position -> member
        #: key -> home memo, replaced wholesale on membership change
        #: (home() is a pure function of key + membership).
        self._home_cache: dict[str, str] = {}
        #: The four tables above may be shared with copies of this ring
        #: (copy-on-write): the first add/remove clones them first.
        self._shared = False
        for member in members:
            self.add(member)

    # -- membership -----------------------------------------------------------
    @property
    def members(self) -> set[str]:
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        """Add ``member``; idempotent."""
        if member in self._members:
            return
        self._own()
        self._members.add(member)
        for replica in range(self.virtual_nodes):
            position = _hash_cached(f"{member}#{replica}")
            # Collisions across members are vanishingly unlikely with
            # 64-bit positions; last add wins deterministically if one
            # ever occurs.
            index = bisect.bisect_left(self._positions, position)
            if index < len(self._positions) and self._positions[index] == position:
                self._owners[position] = member
                continue
            self._positions.insert(index, position)
            self._owners[position] = member

    def remove(self, member: str) -> None:
        """Remove ``member``; idempotent on a non-empty ring.

        Removing from an *empty* ring raises :class:`EmptyRingError`: it
        always indicates the caller lost track of membership, and the old
        silent no-op let such bugs surface later as misrouted keys.
        """
        if not self._members:
            raise EmptyRingError(
                f"cannot remove {member!r}: hash ring is empty")
        if member not in self._members:
            return
        self._own()
        self._members.remove(member)
        for replica in range(self.virtual_nodes):
            position = _hash_cached(f"{member}#{replica}")
            if self._owners.get(position) == member:
                index = bisect.bisect_left(self._positions, position)
                if index < len(self._positions) and self._positions[index] == position:
                    self._positions.pop(index)
                del self._owners[position]

    def copy(self) -> "ConsistentHashRing":
        """An independent ring with the same members.

        The tables and the home memo are shared, not cloned: N agents
        holding one membership view cost one table, and whichever ring
        changes membership first clones before it mutates.
        """
        ring = ConsistentHashRing((), self.virtual_nodes)
        ring._members = self._members
        ring._positions = self._positions
        ring._owners = self._owners
        ring._home_cache = self._home_cache
        ring._shared = self._shared = True
        return ring

    def _own(self) -> None:
        """Prepare for a membership change: clone shared tables and start
        a fresh home memo."""
        if self._shared:
            self._members = set(self._members)
            self._positions = list(self._positions)
            self._owners = dict(self._owners)
            self._shared = False
        self._home_cache = {}

    def with_members(self, members: Iterable[str]) -> "ConsistentHashRing":
        """A new ring over ``members`` with this ring's parameters.

        Polymorphic constructor: router-like ring implementations override
        this so joiners rebuild the *same kind* of topology (sharded or
        flat) from a participant list.
        """
        return ConsistentHashRing(members, self.virtual_nodes)

    # -- lookups -----------------------------------------------------------
    def home(self, key: str) -> str:
        """The member owning ``key`` (first clockwise from the key's hash)."""
        member = self._home_cache.get(key)
        if member is not None:
            return member
        if not self._positions:
            raise EmptyRingError("hash ring is empty")
        position = _hash_cached(key)
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0  # wrap around the ring
        member = self._owners[self._positions[index]]
        self._home_cache[key] = member
        return member

    def preference_list(self, key: str, n: int) -> tuple[str, ...]:
        """The first ``n`` *distinct* members clockwise from ``key``.

        Position 0 is ``home(key)``; the rest are the natural replica
        chain for the key (Dynamo-style preference list).  Because member
        removal deletes only the removed member's virtual nodes, the
        surviving entries keep their relative order — so chains evolve by
        dropping dead members in place, which makes "next in chain"
        failover a pure function of the membership set.
        """
        if not self._positions:
            raise EmptyRingError("hash ring is empty")
        position = _hash_cached(key)
        index = bisect.bisect_right(self._positions, position)
        chain: list[str] = []
        seen: set[str] = set()
        count = len(self._positions)
        for step in range(count):
            owner = self._owners[self._positions[(index + step) % count]]
            if owner not in seen:
                seen.add(owner)
                chain.append(owner)
                if len(chain) == n:
                    break
        return tuple(chain)

    def rehomed_keys(self, keys: Iterable[str], member: str) -> dict[str, str]:
        """For each key homed at ``member``, its new home once ``member`` leaves.

        Raises :class:`EmptyRingError` if the ring is empty or removing
        ``member`` would drain it — there is no "new home" to report, and
        silently returning an empty mapping would misroute every key.
        """
        if not self._members:
            raise EmptyRingError(
                f"cannot re-home keys from {member!r}: hash ring is empty")
        if self._members == {member}:
            raise EmptyRingError(
                f"cannot re-home keys from {member!r}: removing the last "
                "member leaves the ring empty")
        without = self.copy()
        without.remove(member)
        return {
            key: without.home(key)
            for key in keys
            if self.home(key) == member
        }
