"""Shared resources for simulation processes.

- :class:`Resource`: a counting semaphore with a FIFO wait queue; models
  CPU cores, per-key locks, bounded concurrency.
- :class:`Store`: an unbounded FIFO of items with blocking ``get``; models
  mailboxes and work queues.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import PENDING, Event
from repro.sim.process import READY

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class _Grant(Event):
    """The event a request for a slot of ``resource`` waits on."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        Event.__init__(self, resource.sim, "acquire:" + resource.name)
        self.resource = resource

    def _abandon(self) -> None:
        """The waiting process was interrupted: give the slot back."""
        if self._state is PENDING:
            self.resource._waiters.remove(self)
        else:
            self.resource.release()


class Resource:
    """Counting semaphore with FIFO granting.

    ``acquire()`` returns an event that fires when a slot is granted; the
    holder must later call ``release()`` exactly once per grant.

    A wait is the process's own business until it resumes: when
    :meth:`Process.interrupt <repro.sim.process.Process.interrupt>`
    reaches a process whose ``yield res.acquire_wait()`` (or ``yield
    res.acquire()``) has not resumed, the kernel withdraws the request
    or releases the slot it was handed, so a caller needs no guard
    around the yield.  Only a grant the process yields itself is
    covered: one raced inside ``any_of`` is the racer's to give back
    (``src`` races none).

    Instances are small on purpose: a run holds one per cached key (the
    agents' per-key locks) and almost none of those is ever contended,
    so the wait queue exists only once somebody has had to wait.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of pending grant events; None until first contention.
        self._waiters: Optional[deque] = None

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters) if self._waiters else 0

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    def register_gauges(self, registry, prefix: str, **labels) -> None:
        """Register pull gauges for this resource's occupancy and queue.

        Intended for long-lived, low-cardinality resources (a node's
        core pool) — not per-key locks, whose label cardinality would
        swamp every export.  Callbacks read the counters the resource
        already maintains, so acquire/release hot paths pay nothing.
        """
        if not registry.active:
            return
        labelnames = tuple(sorted(labels))
        registry.gauge(
            f"{prefix}_in_use", "Granted slots.", labelnames=labelnames,
        ).set_callback(lambda: self._in_use, **labels)
        registry.gauge(
            f"{prefix}_queue_length", "Requests waiting for a slot.",
            labelnames=labelnames,
        ).set_callback(lambda: self.queue_length, **labels)
        registry.gauge(
            f"{prefix}_utilization", "Granted slots / capacity.",
            labelnames=labelnames,
        ).set_callback(lambda: self._in_use / self.capacity, **labels)

    def acquire(self) -> Event:
        """Request a slot; the returned event fires when granted."""
        grant = _Grant(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._enqueue(grant)
        return grant

    def acquire_wait(self):
        """Like :meth:`acquire` for the ``yield res.acquire_wait()`` idiom.

        When a slot is free, the granted event's only job is to resume the
        requesting process one schedule slot later — so this fast path
        skips the event entirely and returns ``READY``: the process's
        stepping code either pays that hop on a raw schedule entry, in
        exactly the slot the grant's ``succeed()`` would have used, or —
        when the hop would be the next entry dispatched anyway — carries
        straight on.  Contended requests still return a queued grant
        event.  The caller must yield the result immediately;
        ``release()`` works as usual.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim._ready = self
            return READY
        grant = _Grant(self)
        self._enqueue(grant)
        return grant

    def _enqueue(self, grant: Event) -> None:
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append(grant)

    def release(self) -> None:
        """Return a slot, granting it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event whose value is the next
    item, firing immediately when one is available.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._get_name = "get:" + name
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (FIFO)."""
        request = Event(self.sim, name=self._get_name)
        if self._items:
            request.succeed(self._items.popleft())
        else:
            self._getters.append(request)
        return request

    def drain(self) -> list[object]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
