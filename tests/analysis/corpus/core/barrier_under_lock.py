"""Old item 1(c), fixed by c2073f6: the domain-churn deadlock.

Cut from ``src/repro/core/agent.py`` at ``c2073f6~1``.  A home op that
queued on a key's lock while a membership change raised the key's
barrier waited the barrier out while holding the lock.  The domain
change's hand-off queues on that same lock, and only the change's commit
lifts the barrier, so the leave's ``domain_prepare`` timed out and the op
never returned.  The fix waits out barriers before taking the lock.

Parsed by tests, never imported.
"""

from __future__ import annotations


class CacheAgent:
    def _home(self, op: str, key: str, requester: str, *args):
        """Run home op ``op`` for ``requester`` behind the one home prelude.

        The prelude: a span, the per-key home lock (the directory is the
        write serialization point, Section III-C2), a barrier wait and a
        homeship re-check — a domain change may have re-homed the key
        while the request queued on the lock — then the epoch the op
        body must re-check (:meth:`_still_home`) before it mutates the
        directory.
        """
        span_name, body, _encode = self._HOME_OPS[op]
        tracer = self.sim.tracer
        span = (tracer.span(span_name, "agent", key=key, requester=requester)
                if tracer.active else None)
        lock = self._lock(self._key_locks, key)
        try:
            yield lock.acquire_wait()
            try:
                if self._barriers:
                    yield from self._barrier_wait(key)  # defect: lock held
                if self.ring.home(key) != self.node_id or self.ejected:
                    raise NotHome(f"{self.node_id} lost home of {key!r}")
                return (yield from body(self, key, requester, self.epoch,
                                        *args))
            finally:
                lock.release()
        finally:
            if span is not None:
                span.end()
