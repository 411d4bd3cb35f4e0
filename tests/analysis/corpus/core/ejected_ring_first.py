"""Old item 1(h), fixed by 5046a29: an ejected agent resolving its ring.

Cut from ``src/repro/core/agent.py`` at ``5046a29~1``.  The homeship gate
tested the ring before the ejected flag.  An ejected agent's sharded ring
can have a shard with no members, whose ``home()`` raises
``EmptyRingError``, so the handler died with no reply and the caller
waited out its RPC timeout.  The fix tests ``self.ejected`` first.

Parsed by tests, never imported.
"""

from __future__ import annotations


class CacheAgent:
    def _home(self, op: str, key: str, requester: str, *args):
        """Run home op ``op`` for ``requester`` behind the one homeship gate.

        The gate: a span; barriers waited out and a key homed elsewhere
        turned away before the request queues on the per-key home lock
        (the directory is the write serialization point, Section
        III-C2); then, under the lock, :meth:`_still_home` at the current
        epoch — a membership change may have re-homed the key, or raised
        a barrier over it, while the request queued.  A barrier is never
        waited out under the lock: a domain change's hand-off queues on
        that same lock, and only its commit lifts the barrier.  So the
        gate releases the lock, waits, and queues again.  The body runs
        with the epoch it must re-check before it mutates the directory.
        """
        span_name, body, _encode = self._HOME_OPS[op]
        tracer = self.sim.tracer
        span = (tracer.span(span_name, "agent", key=key, requester=requester)
                if tracer.active else None)
        try:
            if self._barriers:
                yield from self._barrier_wait(key)
            # Ring first: an ejected agent whose sharded ring lost a
            # shard's last member raises EmptyRingError here, not NotHome.
            if self.ring.home(key) != self.node_id or self.ejected:  # defect
                raise NotHome(f"{self.node_id} is not home of {key!r}")
            lock = self._lock(self._key_locks, key)
            while True:
                yield lock.acquire_wait()
                try:
                    epoch = self.epoch
                    if self._still_home(key, epoch):
                        return (yield from body(self, key, requester, epoch,
                                                *args))
                finally:
                    lock.release()
                barrier = self._barrier_on(key)
                if barrier is None:
                    raise NotHome(f"{self.node_id} lost home of {key!r}")
                yield barrier
        finally:
            if span is not None:
                span.end()
