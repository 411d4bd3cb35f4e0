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
from repro.sim.events import AllOf, AnyOf, Event, Timeout, _process
from repro.sim.process import RAW_WAIT, Process, ProcessGenerator, Scope
from repro.obs.recorder import NULL_RECORDER
from repro.sim.rng import RngRegistry
from repro.telemetry.registry import NULL_REGISTRY
from repro.trace.tracer import NULL_TRACER

#: How deep zero-delay hops may nest when they are run in place instead
#: of through the schedule (see ``Simulator._tail``).  Beyond it the hop is
#: scheduled as usual — either way is the same execution, so the cap only
#: bounds the Python stack (a chain of N processes each waiting on the
#: next would otherwise finish N frames deep).
_MAX_INLINE_DEPTH = 16

_seq_of = itemgetter(1)


def _cancelled(_arg) -> None:
    """The callback of a cancelled entry (see :meth:`Simulator.cancel`)."""


class _Lane:
    """The records of every :meth:`Simulator.call_later` with one delay.

    A record is ``[time, seq, fn, arg]``.  Records join at the back, and
    since the clock never runs backwards and the delay is fixed, the lane
    is in ``(time, seq)`` order by construction.  Only the head holds a
    schedule entry, carrying the head's own ``(time, seq)``, so the
    schedule orders it exactly as a :meth:`Simulator.call_at` entry.  A
    cancelled record behind the head never reaches the schedule: RPC
    deadlines (answered, nearly all of them) cost one deque append and no
    heap push.
    """

    __slots__ = ("sim", "records", "fire")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.records: deque = deque()
        #: The bound dispatch method, made once (it rides in every entry).
        self.fire = self._fire

    def arm(self, record: list) -> None:
        """Give ``record`` (the new head) its schedule entry."""
        sim = self.sim
        when, seq = record[0], record[1]
        entry = (when, seq, self.fire, None)
        if when == sim.now:
            # Re-armed at the dispatching instant: the record is older than
            # anything scheduled this instant, so it goes among the
            # current-instant lane's entries by seq, not to its back.
            imm = sim._imm
            imm.insert(bisect(imm, seq, key=_seq_of), entry)
        else:
            heappush(sim._heap, entry)

    def _fire(self, _arg=None) -> None:
        """The head's entry is dispatched: pass the entry on, run the head.

        Cancelled records behind the head are dropped unseen; the next
        live one inherits the schedule entry — or, with none live, the
        last record does, so a drained ``run()`` still stops on the clock
        the last of them would have set.  The successor is armed before the
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
    """Owns the schedule and the simulated clock.

    Time is a float in milliseconds (by convention of this project).  Events
    scheduled at the same instant are processed in schedule order (FIFO),
    which keeps runs fully deterministic.

    **The schedule.**  An entry is an immutable tuple ``(time, seq, fn,
    arg)`` and its dispatch is ``fn(arg)``: an event rides as
    ``(..., Event._process, event)``, a raw callback (:meth:`call_soon` /
    :meth:`call_at`: process bootstraps and wakeups, fabric deliveries)
    as itself.  Every entry draws its ``seq`` from one counter, so entries
    pop in strictly increasing ``(time, seq)`` order, ties in schedule
    order.  Entries due at the current instant queue in ``_imm``, a FIFO
    (its entries share one time and join in seq order); later ones sit in
    ``_heap``, one ``heapq``.  When the lane runs dry the heap's next
    instant moves into it — or, alone at its instant, is dispatched
    straight off the heap.  Only the pop order is observable.

    **The next-entry rule.**  A zero-delay wake-up is *not* scheduled when
    it would be the very next entry dispatched: the current-instant lane
    is empty (nothing is ahead of it) and the code asking is in *tail
    position* — the last thing its dispatch will do (nothing runs between
    now and the pop).  Running the continuation in place is then the same
    execution with one entry fewer.  ``_tail`` tracks the second
    condition; the sites that apply the rule are :meth:`tail_call`,
    ``Event._tail_trigger`` and the ``READY`` loop of ``Process``.  Every
    other hop is scheduled in the slot it has always occupied.
    """

    def __init__(self, seed: int = 0, tracer=None, metrics=None, obs=None):
        #: Current simulated time in milliseconds.  A plain attribute (it
        #: is read several times per protocol step); only the kernel
        #: stores to it.
        self.now = 0.0
        #: Entries due at ``now``, in seq order (the deque is never
        #: replaced; the next-entry rule reads it).
        self._imm: deque = deque()
        #: Entries due after ``now``: a ``heapq`` ordered by (time, seq).
        self._heap: list = []
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
        registration, one raw entry re-enters the process's step at
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
        # The wakeup receives its own seq as the staleness token, so an
        # interrupt can orphan the sleep without cancelling the entry.
        process._sleep_token = seq
        if when == now:
            self._imm.append((when, seq, process._sleep_wake, seq))
        else:
            heappush(self._heap, (when, seq, process._sleep_wake, seq))
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
        when = now + delay
        if when == now:
            self._imm.append((when, seq, _process, event))
        else:
            heappush(self._heap, (when, seq, _process, event))

    def call_soon(self, fn, arg=None) -> tuple:
        """Schedule ``fn(arg)`` at the current instant (after pending work).

        The raw-callback twin of creating and immediately succeeding an
        event: one schedule slot, no event.  Returns the entry (a
        cancellation handle for :meth:`cancel`).
        """
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now, seq, fn, arg)
        self._imm.append(entry)
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

    def call_at(self, when: float, fn, arg=None) -> tuple:
        """Schedule ``fn(arg)`` at absolute time ``when`` (>= now, finite)."""
        now = self.now
        if not now <= when < inf:
            if when < now:
                raise SimulationError(
                    f"call_at({when}) in the past; clock at {now}")
            raise ValueError(f"call_at({when}): time must be finite")
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, fn, arg)
        if when == now:
            self._imm.append(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def call_later(self, delay: float, fn, arg=None) -> list:
        """Schedule ``fn(arg)`` ``delay`` ms from now, for a shared delay.

        :meth:`call_at` ``(now + delay)`` for a delay that many calls use
        and most cancel (RPC deadlines): the same seq, so the same place
        in the ``(time, seq)`` order and the same :attr:`schedule_count`,
        but the record joins its delay's FIFO lane and only the lane's
        head holds a schedule entry.  A record cancelled before it reaches
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

    def cancel(self, entry) -> None:
        """Cancel an entry of call_soon/call_at or a call_later record.

        Lazy and exact: a pending entry is swapped, in its place, for a
        twin with the same ``(time, seq)`` that runs :func:`_cancelled`,
        so the schedule keeps its shape (a cancelled entry still fills
        the current-instant lane) and nothing runs.  An entry that has
        run, or was cancelled before, is no longer in the schedule, and
        cancelling it does nothing.
        """
        if entry.__class__ is list:
            # A lane record: its lane skips it (or, as the armed head,
            # passes its entry on without running it).
            entry[2] = entry[3] = None
            return
        when = entry[0]
        if when > self.now:
            queue = self._heap
        elif when == self.now:
            queue = self._imm
        else:
            return
        try:
            index = queue.index(entry)
        except ValueError:
            return
        queue[index] = (when, entry[1], _cancelled, None)

    def peek(self) -> float:
        """Time of the next live entry, or ``inf`` if none."""
        for entry in self._imm:
            if entry[2] is not _cancelled:
                return entry[0]
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not _cancelled:
                return entry[0]
            heappop(heap)
        return inf

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
        imm, heap = self._imm, self._heap
        while True:
            if imm:
                entry = imm.popleft()
            elif heap:
                entry = heappop(heap)
                when = entry[0]
                while heap and heap[0][0] == when:
                    imm.append(heappop(heap))
            else:
                raise SimulationError("step() on an empty schedule")
            if entry[2] is not _cancelled:
                break
        if entry[0] > self.now:
            self.now = entry[0]
        tail = self._tail
        self._tail = 0
        try:
            entry[2](entry[3])
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
        limit = inf if until is None else until
        imm = self._imm
        popleft = imm.popleft
        heap = self._heap
        while True:
            if imm:
                entry = popleft()
                entry[2](entry[3])
                continue
            if not heap or heap[0][0] > limit:
                break
            entry = heappop(heap)
            if entry[2] is _cancelled:
                continue  # a dead head leaves without moving the clock
            when = entry[0]
            self.now = when
            if heap and heap[0][0] == when:
                # The instant has company: it all goes to the lane, where
                # entries scheduled during it queue behind.
                imm.append(entry)
                while heap and heap[0][0] == when:
                    imm.append(heappop(heap))
                continue
            # Alone at its instant: exactly as if popped from the lane.
            entry[2](entry[3])
        if until is not None and until > self.now:
            self.now = until

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> object:
        """Run until ``process`` finishes; return its value.

        Returns as soon as the process has an outcome — before anything
        waiting on it resumes — so it is driven by :meth:`step` and, like
        it, elides no hop.

        Raises :class:`SimulationError` if the schedule drains or ``limit``
        is reached with the process still alive (deadlock guard).
        """
        while not process.triggered:
            when = self.peek()
            if when == inf:
                raise SimulationError(
                    f"deadlock: schedule drained but {process.name!r} still alive"
                )
            if when > limit:
                raise SimulationError(
                    f"time limit {limit} reached with {process.name!r} still alive"
                )
            self.step()
        return process.value
