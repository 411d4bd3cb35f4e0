"""The Data Directory: per-home coherence metadata.

Each cache agent manages the directory entries of the data items homed at
its node (paper Section III-C1).  An entry records the set of cache
instances currently caching the item (the *sharers*) and whether the item
is held Exclusive (single sharer, the *owner*) or Shared.

Because evictions are silent (agents do not inform the home when they drop
an item, Section III-C2), the sharer set is a conservative superset of the
caches that actually hold the item — the protocol tolerates "sharers" that
no longer have the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.caching.base import EXCLUSIVE, SHARED
from repro.obs.events import (
    DIR_EXCLUSIVE,
    DIR_PRUNE,
    DIR_REMOVE,
    DIR_SHARER,
    DIR_TRANSFER,
)
from repro.obs.recorder import NULL_RECORDER

#: Approximate wire size of one marshalled directory entry (used for
#: domain-change transfers and follower replication snapshots alike).
ENTRY_WIRE_BYTES = 48


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one data item."""

    key: str
    state: str = EXCLUSIVE  # EXCLUSIVE or SHARED
    sharers: set = field(default_factory=set)

    @property
    def owner(self) -> Optional[str]:
        """The single sharer when Exclusive, else None."""
        if self.state == EXCLUSIVE and len(self.sharers) == 1:
            return next(iter(self.sharers))
        return None

    def is_valid(self) -> bool:
        """Structural invariant: E implies exactly one sharer."""
        if self.state == EXCLUSIVE:
            return len(self.sharers) == 1
        return self.state == SHARED and len(self.sharers) >= 1


class DataDirectory:
    """The set of directory entries homed at one cache agent.

    Ownership and sharer-set changes are ``dir.*`` flight-recorder events,
    stamped by the recorder's simulator and tied to whatever operation
    span is current; the directory itself has no clock.  The recorder
    defaults to the null one, as :attr:`LruCache.obs
    <repro.caching.base.LruCache.obs>` does.
    """

    def __init__(self, node_id: str, obs=NULL_RECORDER):
        self.node_id = node_id
        #: Flight recorder for ownership/sharer-set change events (the
        #: agent hands in its simulator's recorder).
        self.obs = obs
        self._entries: dict[str, DirectoryEntry] = {}
        # The sharer gauges' aggregates, kept by every mutation once
        # :meth:`register_metrics` has run (None before: an unsampled
        # directory pays nothing): sharer-set size -> entries of that
        # size (sizes with no entry are absent), and the sizes' sum.
        self._sizes: Optional[dict[int, int]] = None
        self._sharer_total = 0

    def register_metrics(self, registry, scheme: str, app: str) -> None:
        """Register sharer-set gauges for this home's directory.

        The sharer gauges read running aggregates, seeded here from the
        current entries and kept by every mutation from now on, so a
        sampling tick costs the same whatever the directory holds.
        """
        if not registry.active:
            return
        self._sizes = {}
        self._sharer_total = 0
        for entry in self._entries.values():
            self._recount(None, len(entry.sharers))
        labels = {"scheme": scheme, "app": app, "node": self.node_id}
        registry.gauge(
            "directory_entries", "Items homed at this directory.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: len(self._entries), **labels)
        registry.gauge(
            "directory_sharers_max", "Largest sharer set homed here.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: max(self._sizes) if self._sizes else 0,
                       **labels)
        registry.gauge(
            "directory_sharers_mean", "Mean sharer-set size homed here.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: (self._sharer_total / len(self._entries)
                                if self._entries else 0.0), **labels)

    def _recount(self, before: Optional[int], after: Optional[int]) -> None:
        """Move one entry from sharer-set size ``before`` to ``after`` in
        the gauge aggregates (None: the entry is absent on that side)."""
        sizes = self._sizes
        if before is not None:
            left = sizes[before] - 1
            if left:
                sizes[before] = left
            else:
                del sizes[before]
            self._sharer_total -= before
        if after is not None:
            sizes[after] = sizes.get(after, 0) + 1
            self._sharer_total += after

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[DirectoryEntry]:
        return self._entries.get(key)

    def keys(self) -> list[str]:
        return list(self._entries.keys())

    def entries(self) -> list[DirectoryEntry]:
        return list(self._entries.values())

    def set_exclusive(self, key: str, owner: str) -> DirectoryEntry:
        """(Re)create the entry with a single exclusive owner."""
        entry = DirectoryEntry(key=key, state=EXCLUSIVE, sharers={owner})
        if self._sizes is not None:
            old = self._entries.get(key)
            self._recount(None if old is None else len(old.sharers), 1)
        self._entries[key] = entry
        obs = self.obs
        if obs.active:
            obs.emit(DIR_EXCLUSIVE, node=self.node_id, key=key, owner=owner)
        return entry

    def add_sharer(self, key: str, sharer: str) -> DirectoryEntry:
        """Add a sharer, downgrading to Shared if needed."""
        entry = self._entries.get(key)
        if entry is None:
            entry = DirectoryEntry(key=key, state=EXCLUSIVE, sharers={sharer})
            self._entries[key] = entry
            if self._sizes is not None:
                self._recount(None, 1)
        else:
            if self._sizes is not None and sharer not in entry.sharers:
                size = len(entry.sharers)
                self._recount(size, size + 1)
            entry.sharers.add(sharer)
            if len(entry.sharers) > 1:
                entry.state = SHARED
        obs = self.obs
        if obs.active:
            obs.emit(DIR_SHARER, node=self.node_id, key=key, sharer=sharer,
                     state=entry.state, sharers=len(entry.sharers))
        return entry

    def remove(self, key: str) -> Optional[DirectoryEntry]:
        entry = self._entries.pop(key, None)
        if entry is not None and self._sizes is not None:
            self._recount(len(entry.sharers), None)
        obs = self.obs
        if entry is not None and obs.active:
            obs.emit(DIR_REMOVE, node=self.node_id, key=key)
        return entry

    def install(self, entry: DirectoryEntry) -> None:
        """Adopt an entry transferred from another home (domain change)."""
        if self._sizes is not None:
            old = self._entries.get(entry.key)
            self._recount(None if old is None else len(old.sharers),
                          len(entry.sharers))
        self._entries[entry.key] = entry
        obs = self.obs
        if obs.active:
            obs.emit(DIR_TRANSFER, node=self.node_id, key=entry.key,
                     state=entry.state, sharers=len(entry.sharers))

    def remove_sharer_everywhere(self, node_id: str) -> list[str]:
        """Prune a departed/failed node from all sharer sets.

        Entries left with no sharers are dropped (nobody caches the item).
        Returns the keys whose entries were modified.
        """
        obs = self.obs
        touched = []
        for key in list(self._entries):
            entry = self._entries[key]
            if node_id not in entry.sharers:
                continue
            entry.sharers.discard(node_id)
            touched.append(key)
            if self._sizes is not None:
                left = len(entry.sharers)
                self._recount(left + 1, left or None)
            if obs.active:
                obs.emit(DIR_PRUNE, node=self.node_id, key=key,
                         pruned=node_id, sharers=len(entry.sharers))
            if not entry.sharers:
                del self._entries[key]
            elif len(entry.sharers) == 1 and entry.state == SHARED:
                # A single surviving sharer keeps state S (it may not even
                # still cache the item); it re-acquires E through a write.
                pass
        return touched

    def pop_entries_for(self, keys: Iterable[str]) -> list[DirectoryEntry]:
        """Remove and return the entries for ``keys`` (re-homing transfer)."""
        popped = []
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is not None:
                popped.append(entry)
                if self._sizes is not None:
                    self._recount(len(entry.sharers), None)
        return popped

    def sharer_counts(self) -> list[int]:
        """Sharer-set sizes of all current entries (Table I sampling)."""
        return [len(entry.sharers) for entry in self._entries.values()]
