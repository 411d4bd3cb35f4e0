"""The simulation event loop and clock."""

from __future__ import annotations

from bisect import bisect
from collections import deque
from heapq import heappop, heappush
from itertools import count
from math import inf
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import RAW_WAIT, Process, ProcessGenerator, Scope
from repro.obs.recorder import NULL_RECORDER
from repro.sim.rng import RngRegistry
from repro.sim.wheel import _MAX_FREE, EventWheel
from repro.telemetry.registry import NULL_REGISTRY
from repro.trace.tracer import NULL_TRACER

#: How deep zero-delay hops may nest when they are run in place instead
#: of through the wheel (see ``Simulator._tail``).  Beyond it the hop is
#: scheduled as usual — either way is the same execution, so the cap only
#: bounds the Python stack (a chain of N processes each waiting on the
#: next would otherwise finish N frames deep).
_MAX_INLINE_DEPTH = 16

_seq_of = itemgetter(1)


class _Lane:
    """The records of every :meth:`Simulator.call_later` with one delay.

    A record is ``[time, seq, fn, arg]``.  Records join at the back, and
    since the clock never runs backwards and the delay is fixed, the lane
    is in ``(time, seq)`` order by construction.  Only the head holds a
    wheel entry, carrying the head's own ``(time, seq)``, so the wheel
    orders it exactly as a :meth:`Simulator.call_at` entry.  A cancelled
    record behind the head never reaches the wheel at all: RPC deadlines
    (answered, nearly all of them) cost one deque append and no heap push.
    """

    __slots__ = ("sim", "records", "fire")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.records: deque = deque()
        #: The bound dispatch method, made once (it rides in every entry).
        self.fire = self._fire

    def arm(self, record: list) -> None:
        """Give ``record`` (the new head) its wheel entry."""
        wheel = self.sim._wheel
        now = self.sim.now
        seq = record[1]
        entry = wheel.push(record[0], seq, now, fn=self.fire)
        if record[0] == now:
            # Re-armed at the dispatching instant: the push appended it
            # to the current-instant lane, whose entries are in seq order,
            # but the record is older than anything scheduled this instant.
            imm = wheel._imm
            imm.pop()
            imm.insert(bisect(imm, seq, key=_seq_of), entry)

    def _fire(self, _arg=None) -> None:
        """The head's entry is dispatched: pass the entry on, run the head.

        Cancelled records behind the head are dropped unseen; the next
        live one inherits the wheel entry — or, with none live, the last
        record does, so a drained ``run()`` still stops on the clock the
        last of them would have set.  The successor is armed before the
        head's callback runs: its ``call_at`` twin would already be
        queued, and a tail-position hop in the callback must find it so.
        """
        records = self.records
        head = records.popleft()
        while len(records) > 1 and records[0][2] is None:
            records.popleft()
        if records:
            self.arm(records[0])
        fn = head[2]
        if fn is not None:
            arg = head[3]
            head[2] = head[3] = None
            fn(arg)


class Simulator:
    """Owns the event wheel and the simulated clock.

    Time is a float in milliseconds (by convention of this project).  Events
    scheduled at the same instant are processed in schedule order (FIFO),
    which keeps runs fully deterministic.

    The schedule holds two kinds of entries: *events* (the public
    :class:`~repro.sim.events.Event` machinery) and *raw callbacks*
    (:meth:`call_soon` / :meth:`call_at`), the kernel's allocation-free
    path for one-shot continuations — process bootstraps and wakeups,
    fabric message delivery — that used to be modelled as throwaway
    events.  Both kinds share one ``(time, seq)`` sequence space, so their
    relative order is exactly what the old heap scheduler produced.

    **The next-entry rule.**  A zero-delay wake-up is *not* scheduled when
    it would be the very next entry dispatched: the current-instant lane
    is empty (nothing is ahead of it) and the code asking is in *tail
    position* — the last thing its dispatch will do (nothing runs between
    now and the pop).  Running the continuation in place is then the same
    execution with one entry fewer.  ``_tail`` tracks the second
    condition; the sites that apply the rule are :meth:`tail_call`,
    ``Event._tail_trigger`` and the ``READY`` loop of ``Process``.  Every
    other hop goes through the wheel in the slot it has always occupied.
    """

    def __init__(self, seed: int = 0, tracer=None, metrics=None, obs=None):
        #: Current simulated time in milliseconds.  A plain attribute (it
        #: is read several times per protocol step); only the kernel
        #: stores to it.
        self.now = 0.0
        self._wheel = EventWheel()
        #: The wheel's current-instant lane (the deque is never replaced).
        self._imm = self._wheel._imm
        self._seq = 0
        #: Nonzero while the running code is in tail position of its
        #: dispatch; the value is how many more hops may nest in place.
        #: It is only ever lowered and *restored* to what it was — never
        #: set — so a caller that holds it at 0 (``step()``, the
        #: differential tests) gets the un-elided schedule, entry for
        #: entry.  Kernel-owned: nothing outside ``repro/sim`` stores
        #: to it.
        self._tail = _MAX_INLINE_DEPTH
        #: The resource whose free slot the last ``acquire_wait()`` took:
        #: if its ``READY`` hop is paid, ``Process._park`` notes it so an
        #: interrupt before the hop releases the slot.
        self._ready = None
        #: delay -> :class:`_Lane` of the :meth:`call_later` records.
        self._lanes: dict = {}
        #: The process currently being stepped, if any (kernel-written,
        #: like ``now``).
        self.active_process: Optional[Process] = None
        #: Failures of daemon processes, recorded instead of raised.
        self.daemon_failures: list[tuple[Process, BaseException]] = []
        #: The root :class:`Scope`; ``scopes.child(node_id)`` is a node's.
        self.scopes = Scope()
        #: Named deterministic RNG substreams.
        self.rng = RngRegistry(seed)
        self._id_counters: dict = {}  # namespace -> count(1); see ids()
        #: Causal-trace collector (repro.trace); the shared no-op tracer
        #: unless one is attached, so hot paths can gate on tracer.active.
        self.tracer = (tracer if tracer is not None else NULL_TRACER).bind(self)
        #: Telemetry instrument registry (repro.telemetry); the shared
        #: no-op registry unless one is attached, so instrumentation
        #: sites can gate on metrics.active.
        self.metrics = (
            metrics if metrics is not None else NULL_REGISTRY
        ).bind(self)
        #: Flight recorder (repro.obs); the shared no-op recorder unless
        #: one is attached, so emission sites can gate on obs.active.
        self.obs = (obs if obs is not None else NULL_RECORDER).bind(self)

    @property
    def schedule_count(self) -> int:
        """Monotonic count of entries ever scheduled.

        Public so upper layers (the network fabric's same-tick delivery
        batching) can detect "nothing was scheduled in between" without
        touching kernel-private state.
        """
        return self._seq

    def ids(self, namespace: str) -> Iterator[int]:
        """The run's one id counter for ``namespace``: 1, 2, 3, ...

        One name, one iterator: an id is unique within the run whichever
        owner draws it (an RPC endpoint re-created at a removed one's
        address never reissues a request id its predecessor's late reply
        carries).  Each Simulator starts afresh, so identically seeded
        runs in one interpreter number alike: invocation ids are written
        into stored values, transaction ids pick squash victims by string
        order.  Owners fetch their counter once, off the hot path.
        """
        return self._id_counters.setdefault(namespace, count(1))

    # -- event construction ----------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires after ``delay`` ms."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float):
        """Park the *active process* for ``delay`` ms: ``yield sim.sleep(d)``.

        The allocation-free twin of ``yield sim.timeout(d)`` for the
        overwhelmingly common case where the timeout's value is unused and
        nothing else waits on it: instead of a Timeout event plus callback
        registration, one raw wheel entry re-enters the process's step at
        exactly the ``(time, seq)`` slot the Timeout would have occupied.
        Only valid as a direct ``yield`` target inside a process.
        """
        if not 0.0 <= delay < inf:  # also rejects nan
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        process = self.active_process
        if process is None:
            raise SimulationError("sleep() outside a running process")
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        when = now + delay
        # Inlined EventWheel.push; the wakeup receives its own entry as
        # the staleness token (entry[4] = entry), so an interrupt can
        # orphan the sleep without cancelling the wheel entry.
        wheel = self._wheel
        free = wheel._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = seq
            entry[3] = process._sleep_wake
            entry[4] = entry
        else:
            entry = [when, seq, None, process._sleep_wake, None]
            entry[4] = entry
        wheel._live += 1
        process._sleep_token = entry
        if when == now:
            wheel._imm.append(entry)
            return RAW_WAIT
        day = int(when * wheel._inv_width)
        buckets = wheel._buckets
        try:
            heappush(buckets[day], entry)
        except KeyError:
            buckets[day] = [entry]
            heappush(wheel._days, day)
        return RAW_WAIT

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all ``events`` have fired successfully."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def spawn(
        self, generator: ProcessGenerator, name: str = "", daemon: bool = False
    ) -> Process:
        """Start a new process from ``generator``.

        The child inherits the spawner's TraceContext, so work forked from
        inside a traced operation (handlers, invalidations, write-through
        processes) stays attached to that operation's span tree, and its
        :class:`Scope`, so it ends with what started it.  A non-daemon
        child is part of the spawner's answer, so it also inherits the
        spawner's RPC deadline; a daemon is not, and starts without one.
        """
        process = Process(self, generator, name=name, daemon=daemon)
        active = self.active_process
        if active is not None:
            process.trace_ctx = active.trace_ctx
            if not daemon:
                process.deadline = active.deadline
            scope = active.scope
            if scope is not None:
                scope._running[process] = None
                process.scope = scope
        return process

    # -- scheduling / running ----------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        wheel = self._wheel
        if delay == 0.0:
            # Fast lane: the common zero-delay schedule (succeed/fail at
            # the current instant) skips all bucket machinery.
            free = wheel._free
            if free:
                entry = free.pop()
                entry[0] = now
                entry[1] = seq
                entry[2] = event
            else:
                entry = [now, seq, event, None, None]
            wheel._live += 1
            wheel._imm.append(entry)
        else:
            wheel.push(now + delay, seq, now, event=event)

    def call_soon(self, fn, arg=None) -> list:
        """Schedule ``fn(arg)`` at the current instant (after pending work).

        The raw-callback twin of creating and immediately succeeding an
        event: one schedule slot, zero allocations beyond the recycled
        wheel entry.  Returns the wheel entry (a cancellation handle for
        :meth:`cancel`).
        """
        seq = self._seq
        self._seq = seq + 1
        wheel = self._wheel
        free = wheel._free
        if free:
            entry = free.pop()
            entry[0] = self.now
            entry[1] = seq
            entry[3] = fn
            entry[4] = arg
        else:
            entry = [self.now, seq, None, fn, arg]
        wheel._live += 1
        wheel._imm.append(entry)
        return entry

    def tail_call(self, fn, arg=None) -> None:
        """:meth:`call_soon` for a caller in tail position of its dispatch.

        The caller promises that nothing else runs in this dispatch once
        it returns.  If, besides, nothing is queued for the current
        instant, the entry ``call_soon`` would add is the next one popped
        — so ``fn(arg)`` runs here and now instead; otherwise it is
        scheduled exactly as ``call_soon`` would.  The promise cannot be
        checked across calls, so it has one caller
        (``Endpoint._receive``), with nothing after the call in it.
        """
        depth = self._tail
        if depth and not self._imm:
            self._tail = depth - 1
            try:
                fn(arg)
            finally:
                self._tail = depth
        else:
            self.call_soon(fn, arg)

    def call_each(self, fn, args: list) -> None:
        """Call ``fn(arg)`` for every ``arg`` inside one dispatch.

        Only the last call is in tail position: the others are followed
        by their successors, so the hops they cause must be scheduled.
        ``args`` must not be empty.  The caller itself must be in tail
        position: its one caller is ``Network._deliver_batch``.
        """
        last = len(args) - 1
        tail = self._tail
        self._tail = 0
        try:
            for index in range(last):
                fn(args[index])
        finally:
            self._tail = tail
        fn(args[last])

    def call_at(self, when: float, fn, arg=None) -> list:
        """Schedule ``fn(arg)`` at absolute time ``when`` (>= now, finite)."""
        now = self.now
        if not now <= when < inf:
            if when < now:
                raise SimulationError(
                    f"call_at({when}) in the past; clock at {now}")
            raise ValueError(f"call_at({when}): time must be finite")
        seq = self._seq
        self._seq = seq + 1
        # Inlined EventWheel.push (this is the fabric/timer hot path).
        wheel = self._wheel
        free = wheel._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = seq
            entry[3] = fn
            entry[4] = arg
        else:
            entry = [when, seq, None, fn, arg]
        wheel._live += 1
        if when == now:
            wheel._imm.append(entry)
            return entry
        day = int(when * wheel._inv_width)
        buckets = wheel._buckets
        try:
            heappush(buckets[day], entry)
        except KeyError:
            buckets[day] = [entry]
            heappush(wheel._days, day)
        return entry

    def call_later(self, delay: float, fn, arg=None) -> list:
        """Schedule ``fn(arg)`` ``delay`` ms from now, for a shared delay.

        :meth:`call_at` ``(now + delay)`` for a delay that many calls use
        and most cancel (RPC deadlines): the same seq, so the same place
        in the ``(time, seq)`` order and the same :attr:`schedule_count`,
        but the record joins its delay's FIFO lane and only the lane's
        head holds a wheel entry.  A record cancelled before it reaches
        the head is never dispatched.  Returns the record, a handle for
        :meth:`cancel`.
        """
        lane = self._lanes.get(delay)
        if lane is None:
            if not 0.0 <= delay < inf:  # also rejects nan
                raise ValueError(
                    f"call_later({delay}): delay must be finite and >= 0")
            lane = self._lanes[delay] = _Lane(self)
        seq = self._seq
        self._seq = seq + 1
        record = [self.now + delay, seq, fn, arg]
        records = lane.records
        records.append(record)
        if len(records) == 1:
            lane.arm(record)
        return record

    def cancel(self, entry: list) -> None:
        """Cancel an entry of call_soon/call_at or a call_later record."""
        if len(entry) == 4:
            # A lane record: its lane skips it (or, as the armed head,
            # passes its entry on without running it).
            entry[2] = entry[3] = None
        else:
            self._wheel.cancel(entry)

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._wheel.peek()

    def step(self) -> None:
        """Process exactly one schedule entry.

        Nothing is elided under ``step()``: its caller gets control back
        after the dispatch and may schedule same-instant work of its own,
        so no hop asked for here is certain to be the next entry popped.
        The tail-position flag is held down for the dispatch, which makes
        one step one entry of the un-elided schedule — and
        :meth:`run_until_complete` return on exactly the state it always
        did, the awaited process's waiters not yet resumed.
        """
        wheel = self._wheel
        entry = wheel.pop(self.now)
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        when = entry[0]
        if when > self.now:
            self.now = when
        event, fn, arg = entry[2], entry[3], entry[4]
        wheel.recycle(entry)
        tail = self._tail
        self._tail = 0
        try:
            if event is not None:
                event._process()
            else:
                fn(arg)
        finally:
            self._tail = tail

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the schedule drains earlier, so repeated ``run(until=...)``
        calls observe monotonic time.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock already at {self.now}"
            )
        wheel = self._wheel
        imm = wheel._imm
        imm_popleft = imm.popleft
        advance = wheel.advance
        free, days, buckets = wheel._free, wheel._days, wheel._buckets
        while True:
            # Current-instant lane first: FIFO == (time, seq) order here.
            # Entry recycling is inlined (this loop dispatches hundreds of
            # thousands of entries per benchmark); the freelist invariant
            # is that entries return with [2]=[3]=[4]=None, so each branch
            # blanks exactly the fields its entry kind uses.
            if imm:
                entry = imm_popleft()
                event = entry[2]
                if event is not None:
                    wheel._live -= 1
                    entry[2] = None
                    if len(free) < _MAX_FREE:
                        free.append(entry)
                    event._process()
                    continue
                fn = entry[3]
                if fn is not None:
                    arg = entry[4]
                    wheel._live -= 1
                    entry[3] = None
                    entry[4] = None
                    if len(free) < _MAX_FREE:
                        free.append(entry)
                    fn(arg)
                    continue
                # Lazily-cancelled entry draining through (already blanked).
                if len(free) < _MAX_FREE:
                    free.append(entry)
                continue
            # Inlined EventWheel.advance for a live head in the next slot
            # (never empty); a cancelled head takes the wheel's own path.
            if days:
                bucket = buckets[days[0]]
                head = bucket[0]
                if head[2] is not None or head[3] is not None:
                    when = head[0]
                    if until is not None and when > until:
                        break
                    while bucket and bucket[0][0] == when:
                        imm.append(heappop(bucket))
                    if not bucket:
                        del buckets[heappop(days)]
                    self.now = when
                    continue
            advanced = advance(until)
            if advanced is None:
                break
            self.now = advanced
        if until is not None:
            self.now = max(self.now, until)

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> object:
        """Run until ``process`` finishes; return its value.

        Returns as soon as the process has an outcome — before anything
        waiting on it resumes — so it is driven by :meth:`step` and, like
        it, elides no hop.

        Raises :class:`SimulationError` if the schedule drains or ``limit``
        is reached with the process still alive (deadlock guard).
        """
        while not process.triggered:
            if not self._wheel:
                raise SimulationError(
                    f"deadlock: schedule drained but {process.name!r} still alive"
                )
            if self._wheel.peek() > limit:
                raise SimulationError(
                    f"time limit {limit} reached with {process.name!r} still alive"
                )
            self.step()
        return process.value
