"""PR 4's three races, fixed by f6efef7: pre-fix replicas in miniature.

The runtime coherence checker caught these when fault injection landed.
Each racy method reproduces one of them; the ``*_fixed`` twin is the
post-fix shape and must stay clean.  Parsed by tests, never imported.
"""

EXCLUSIVE = "E"


class RacyAgent:
    def __init__(self, sim, cache, directory, storage, endpoint, lock):
        self.sim = sim
        self.cache = cache
        self.directory = directory
        self.storage = storage
        self.endpoint = endpoint
        self.lock = lock

    # -- race 1: E-state direct write updated the cache before storage --
    def write_direct(self, key, value):
        entry = self.cache.get(key)
        yield self.lock.acquire()
        try:
            if entry.state == EXCLUSIVE:  # defect
                entry.value = value
                entry.size_bytes = len(value)  # defect
                yield from self.storage.write(key, value)
        finally:
            self.lock.release()

    def write_direct_fixed(self, key, value):
        yield self.lock.acquire()
        try:
            version = yield from self.storage.write(key, value)
            current = self.cache.get(key)
            if current is not None and current.version <= version:
                current.value = value
                current.size_bytes = len(value)
                current.version = version
        finally:
            self.lock.release()

    # -- race 2: grant reply raced recovery; stale snapshot decided the
    # install --------------------------------------------------------------
    def refresh_grant(self, key):
        entry = self.cache.get(key)
        value = yield from self.endpoint.call(
            "node1/home", "rfo", key, size_bytes=8, timeout=1000.0)
        if entry is not None:  # defect
            self.cache.put(key, value)
        return value

    def refresh_grant_fixed(self, key):
        value = yield from self.endpoint.call(
            "node1/home", "rfo", key, size_bytes=8, timeout=1000.0)
        entry = self.cache.get(key)
        if entry is not None:
            self.cache.put(key, value)
        return value

    # -- race 3: directory entry torn across the storage write ----------
    def home_write(self, key, value, requester):
        entry = self.directory.get(key)
        entry.owner = requester  # defect
        yield from self.storage.write(key, value)
        entry.state = EXCLUSIVE  # defect

    def home_write_fixed(self, key, value, requester):
        yield from self.storage.write(key, value)
        entry = self.directory.get(key)
        entry.owner = requester
        entry.state = EXCLUSIVE
