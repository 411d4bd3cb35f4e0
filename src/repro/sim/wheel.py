"""The calendar-queue / event-wheel scheduler backing the simulator.

The wheel stores *entries*: small mutable lists ``[time, seq, event, fn,
arg]``.  Exactly one of ``event`` / ``fn`` is set: event entries dispatch
``event._process()``, callback entries dispatch ``fn(arg)`` (the kernel's
allocation-free fast path for process wakeups, bootstraps and fabric
deliveries).  Entries are recycled through a freelist — they are
kernel-private, never escape the scheduler, and are dead the moment they
are popped, so reuse is safe.

Ordering contract (the whole point): entries pop in strictly increasing
``(time, seq)`` order, exactly like the ``heapq`` scheduler this replaced.
The golden identity pins hold the simulator to byte-identical counters,
so the wheel must be a drop-in *ordering* replacement, only faster:

- ``_imm`` — the *current-instant lane*: a plain FIFO of entries whose time
  equals the simulator's current clock.  Most events in a busy simulation
  (zero-delay succeeds, process wakeups, same-node message hand-offs) are
  scheduled for "now"; they bypass all heap machinery.  FIFO equals
  (time, seq) order here because every entry in the lane shares one
  timestamp and sequence numbers are handed out monotonically.
- ``_buckets`` — the wheel proper: future entries hashed by time slot
  (``floor(time / width)``), each slot a small binary heap.
- ``_days`` — a heap of occupied slot indexes: the fallback that makes
  far-future timers (RPC deadlines thousands of ms out) cheap without a
  bounded horizon or entry migration.

Slot granularity is ``width`` ms; within a slot the per-slot heap orders by
(time, seq), across slots the slot index orders by time (slots are disjoint
half-open intervals), so the global pop order is exact.

Cancellation is lazy: :meth:`cancel` blanks the entry in place and it is
skipped when its slot comes up, mirroring how stale one-shot timers have
always drained through the old heap as no-ops.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

__all__ = ["EventWheel"]

#: Freelist bound — enough to absorb steady-state churn without pinning
#: memory after a large burst.
_MAX_FREE = 8192


class EventWheel:
    """Hierarchical calendar queue ordered by ``(time, seq)``.

    ``now`` must be supplied by the caller on ``push``/``pop`` (the
    simulator owns the clock); the wheel itself never advances time, it
    only reports, via :meth:`advance`, the timestamp the next entries
    carry.
    """

    __slots__ = ("width", "_inv_width", "_imm", "_buckets", "_days",
                 "_free", "_live")

    def __init__(self, width: float = 1.0):
        if width <= 0:
            raise ValueError(f"slot width must be positive, got {width}")
        self.width = width
        self._inv_width = 1.0 / width
        #: FIFO lane of entries scheduled for the current instant.
        self._imm: deque = deque()
        #: slot index -> heap of entries within that time slot.
        self._buckets: dict = {}
        #: heap of occupied slot indexes.
        self._days: list = []
        self._free: list = []
        #: Live (non-cancelled) entries — the schedule-drained check.
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # -- scheduling --------------------------------------------------------
    def push(self, time: float, seq: int, now: float,
             event=None, fn=None, arg=None) -> list:
        """Insert an entry; returns it (the cancellation handle)."""
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = event
            entry[3] = fn
            entry[4] = arg
        else:
            entry = [time, seq, event, fn, arg]
        self._live += 1
        if time == now:
            self._imm.append(entry)
            return entry
        day = int(time * self._inv_width)
        buckets = self._buckets
        try:
            heappush(buckets[day], entry)
        except KeyError:
            buckets[day] = [entry]
            heappush(self._days, day)
        return entry

    def cancel(self, entry: list) -> None:
        """Lazily cancel ``entry``: it is skipped when its slot drains."""
        if entry[2] is None and entry[3] is None:
            return  # already cancelled (or recycled — caller bug, benign)
        entry[2] = entry[3] = entry[4] = None
        self._live -= 1

    # -- draining ----------------------------------------------------------
    def peek(self) -> float:
        """Timestamp of the next live entry, or ``inf`` when drained."""
        for entry in self._imm:
            if entry[2] is not None or entry[3] is not None:
                return entry[0]
        days, buckets = self._days, self._buckets
        while days:
            day = days[0]
            bucket = buckets[day]
            while bucket:
                head = bucket[0]
                if head[2] is not None or head[3] is not None:
                    return head[0]
                heappop(bucket)
                self._recycle(head)
            heappop(days)
            del buckets[day]
        return float("inf")

    def advance(self, limit: Optional[float] = None) -> Optional[float]:
        """Refill the current-instant lane from the next occupied slot.

        Returns the timestamp the refilled entries share (the new "now"),
        or None when the wheel is drained — or, with ``limit``, when the
        next entries lie strictly beyond it (nothing is moved then).
        Only call with the lane empty: entries already in the lane belong
        to the old instant and must pop first.
        """
        days, buckets, imm = self._days, self._buckets, self._imm
        while days:
            day = days[0]
            bucket = buckets[day]
            # Find the first live head, discarding cancelled entries.
            while bucket:
                head = bucket[0]
                if head[2] is not None or head[3] is not None:
                    break
                heappop(bucket)
                self._recycle(head)
            if not bucket:
                heappop(days)
                del buckets[day]
                continue
            when = bucket[0][0]
            if limit is not None and when > limit:
                return None
            # Move every entry at exactly `when` into the FIFO lane; their
            # heap order is (time, seq) order, and entries pushed later at
            # this instant carry larger seqs and append behind them.
            while bucket and bucket[0][0] == when:
                imm.append(heappop(bucket))
            if not bucket:
                heappop(days)
                del buckets[day]
            return when
        return None

    def pop(self, now: float) -> Optional[list]:
        """Remove and return the next live entry in (time, seq) order.

        ``now`` is the simulator clock; entries popped from a future slot
        report their own (larger) timestamp in ``entry[0]`` — the caller
        advances its clock to match.  Returns None when drained.  The
        returned entry must be handed back via :meth:`recycle` after
        dispatch.
        """
        imm = self._imm
        while True:
            if imm:
                entry = imm.popleft()
                if entry[2] is None and entry[3] is None:
                    self._recycle(entry)
                    continue
                self._live -= 1
                return entry
            if self.advance() is None:
                return None

    def recycle(self, entry: list) -> None:
        """Return a dispatched entry to the freelist."""
        entry[2] = entry[3] = entry[4] = None
        free = self._free
        if len(free) < _MAX_FREE:
            free.append(entry)

    # -- internals ---------------------------------------------------------
    def _recycle(self, entry: list) -> None:
        # A cancelled entry leaving the schedule: `cancel` already dropped
        # the live count and blanked [2..4] — the freelist invariant that
        # lets the push fast paths set only the fields they use.
        free = self._free
        if len(free) < _MAX_FREE:
            free.append(entry)
