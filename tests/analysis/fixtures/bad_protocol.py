"""Known-bad protocol snippets (PRO*); parsed by tests, never imported."""


class BadAgent:
    def __init__(self, sim, endpoint, lock):
        self.sim = sim
        self.endpoint = endpoint
        self.lock = lock
        self.endpoint.register_handler("orphan", self._handle_orphan)
        self.endpoint.register_handler("ghost", self._handle_ghost)

    def _handle_orphan(self, endpoint, src, args):
        return None
        yield

    def ask(self, key):
        value = yield from self.endpoint.call(
            "node1/peer", "missing_method", key, size_bytes=8,
            timeout=1000.0)
        return value

    def fire(self, key):
        yield from self.endpoint.call(
            "node1/peer", "orphan", key, size_bytes=8)

    def leaky(self, key):
        yield self.lock.acquire()
        yield self.sim.timeout(1.0)
        self.lock.release()

    def never_releases(self):
        yield self.lock.acquire()

    def disciplined(self):
        yield self.lock.acquire()
        try:
            yield self.sim.timeout(1.0)
        finally:
            self.lock.release()

    def sneaky_else_release(self):
        # The release sits in the else: of a try nested in the finally —
        # the handler path leaks the lock.  Containment-style scanning
        # used to accept this.
        yield self.lock.acquire()
        try:
            yield self.sim.timeout(1.0)
        finally:
            try:
                self.flush()
            except OSError:
                pass
            else:
                self.lock.release()

    def escalated_conditional(self):
        # Conditional release in the finally is the accepted idiom: the
        # condition models whether the lock is still held.
        yield self.lock.acquire()
        try:
            yield self.sim.timeout(1.0)
        finally:
            if self.escalated:
                self.lock.release()

    def grant_assigned(self):
        grant = self.lock.acquire()
        yield grant
        try:
            yield self.sim.timeout(1.0)
        finally:
            self.lock.release()

    def flush(self):
        return None

    def leaky_wait(self, key):
        # acquire_wait() is acquire() to the lock rule.
        yield self.lock.acquire_wait()                         # line 79
        yield self.sim.timeout(1.0)
        self.lock.release()

    def guarded_wait(self, span):
        # The assigned form inside somebody else's try/finally: clean.
        try:
            grant = self.lock.acquire_wait()
            yield grant
            try:
                yield self.sim.sleep(1.0)
            finally:
                self.lock.release()
        finally:
            span.end()

    def guarded_but_leaky(self):
        # The kernel withdraws the wait for the grant, not what follows it.
        grant = self.lock.acquire_wait()                       # line 97
        yield grant
        yield self.sim.sleep(1.0)
        self.lock.release()
