"""Old item 1(b), fixed by 4a32ed7: a read grant without a version.

Cut from ``src/repro/core/agent.py`` at ``4a32ed7~1``.  ``_home_read``
dropped the version of the copy it served, so every install from a read
recorded version 0, and a grant that landed after the reader's own
direct-to-storage E write installed the older value over the newer one.
The fix returns the version on every marked line.

Parsed by tests, never imported.
"""

from __future__ import annotations

from repro.caching.base import EXCLUSIVE, SHARED


class CacheAgent:
    def _home_read(self, key: str, requester: str, epoch: int, fn: str):
        """Serve a read; returns (value, state, dir_hit, cacheable)."""
        entry = self.directory.get(key)
        if entry is None:
            # Read miss: fetch from storage, requester becomes E owner.
            value, _version = yield from self.system.storage.read(  # defect
                key, reader=self.node_id)
            if value is None:
                return None, EXCLUSIVE, False, False
            if not self._still_home(key, epoch):
                return value, EXCLUSIVE, False, False
            self.directory.set_exclusive(key, requester)
            self._replicate_entry(key)
            return value, EXCLUSIVE, False, True  # defect: no version

        self._observe_consumer(key, requester, fn)
        if entry.state == EXCLUSIVE:
            owner = entry.owner
            if owner == requester:
                # Requester evicted silently but is still registered;
                # storage is current (write-through).
                value, _version = yield from self.system.storage.read(  # defect
                    key, reader=self.node_id)
                cacheable = self._still_home(key, epoch)
                return value, EXCLUSIVE, True, cacheable  # defect: no version
            value = yield from self._fetch_from_owner(key, owner)  # defect
            if not self._still_home(key, epoch):
                return value, SHARED, True, False
            if value is not None:
                # Owner downgraded to S; both are sharers now.
                self.directory.add_sharer(key, requester)
                self._replicate_entry(key)
                return value, SHARED, True, True  # defect: no version
            # Owner evicted (or died): storage copy is current.
            value, _version = yield from self.system.storage.read(  # defect
                key, reader=self.node_id)
            if not self._still_home(key, epoch):
                return value, EXCLUSIVE, True, False
            self.directory.set_exclusive(key, requester)
            self._replicate_entry(key)
            return value, EXCLUSIVE, True, True  # defect: no version

        # Shared: serve from the home's own cache if present, else storage.
        local = self.cache.get(key)
        if local is not None:
            value = local.value  # defect: local.version dropped
        else:
            value, _version = yield from self.system.storage.read(  # defect
                key, reader=self.node_id)
        if not self._still_home(key, epoch):
            return value, SHARED, True, False
        self.directory.add_sharer(key, requester)
        self._replicate_entry(key)
        return value, SHARED, True, True  # defect: no version
