"""Old item 1(g), fixed by f188f35: a lock leaked by a crash.

Cut from ``src/repro/sim/process.py``, ``src/repro/sim/resources.py`` and
``src/repro/core/agent.py`` at ``f188f35~1``.  ``Process.interrupt``
unhooked the process from the event it waited on but left a
``Resource`` grant that event carried: a request still queued stayed
queued, and a slot ``release()`` had handed over, or that
``acquire_wait()`` had taken for a ``READY`` hop, was never given back.
The homeship gate's bare wait was one such site: at fault-matrix seed 0
x region2, ``node0`` ended with a home key lock held by nobody and 320
requests queued behind it.  The fix has the kernel withdraw the wait.

Parsed by tests, never imported.
"""

from __future__ import annotations

from repro.sim.events import Event
from repro.sim.process import READY


class Process:
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        No-op if the process already finished.  The event the process was
        waiting on is abandoned (its eventual outcome is ignored).
        """
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)  # defect: grant kept
        self._waiting_on = None
        # Orphan any in-flight raw sleep: its wheel entry stays scheduled
        # (exactly like the stale Timeout the old path left in the heap)
        # but the token mismatch makes its firing a no-op.
        self._sleep_token = None
        self.sim.call_soon(self._interrupt_step, cause)


class Resource:
    def acquire_wait(self):
        """Like :meth:`acquire` for the ``yield res.acquire_wait()`` idiom.

        When a slot is free, the granted event's only job is to resume the
        requesting process one schedule slot later — so this fast path
        skips the event entirely and returns ``READY``: the process's
        stepping code either pays that hop on a raw wheel entry, in
        exactly the slot the grant's ``succeed()`` would have used, or —
        when the hop would be the next entry dispatched anyway — carries
        straight on.  Contended requests still return a queued grant
        event.  The caller must yield the result immediately (SIM04) and
        must not need a cancellation handle (``release()`` works as
        usual).
        """
        if self._in_use < self.capacity:
            self._in_use += 1  # defect: taken before the READY hop
            return READY
        grant = Event(self.sim, "acquire:" + self.name)
        self._enqueue(grant)
        return grant


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
            if self.ring.home(key) != self.node_id or self.ejected:
                raise NotHome(f"{self.node_id} is not home of {key!r}")
            lock = self._lock(self._key_locks, key)
            while True:
                yield lock.acquire_wait()  # defect: leaked if interrupted
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
