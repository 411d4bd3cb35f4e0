"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence: it is *triggered* at most once,
either successfully (carrying a value) or with a failure (carrying an
exception).  Processes wait on events by yielding them; arbitrary callbacks
may also be attached.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.errors import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"  # scheduled for processing, value/exc set
PROCESSED = "processed"  # callbacks have run


class Event:
    """A one-shot simulation event.

    Events move through three states: *pending* (created), *triggered*
    (value or failure set, processing scheduled) and *processed*
    (callbacks executed).  Waiting processes are resumed during
    processing.
    """

    __slots__ = ("sim", "name", "_state", "_value", "_exc", "callbacks", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._value: object = None
        self._exc: Optional[BaseException] = None
        self.callbacks: list[Callable[["Event"], None]] = []
        #: True once some party has consumed a failure, suppressing the
        #: "unhandled failed event" crash at the simulator level.
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has fired (value or failure is set)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully.  Requires ``triggered``."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._exc is None

    @property
    def value(self) -> object:
        """The success value (or raises the failure exception)."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None on success / still pending."""
        return self._exc

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator will not re-raise it."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._state = TRIGGERED
        # Inlined Simulator._schedule at zero delay (succeed is the single
        # busiest scheduling site in a run).
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        sim._imm.append((sim.now, seq, _process, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._exc = exc
        self._trigger()
        return self

    def trigger_like(self, other: "Event") -> "Event":
        """Trigger with the same outcome as an already-fired ``other``."""
        if other._exc is not None:
            return self.fail(other._exc)
        return self.succeed(other._value)

    # -- internal --------------------------------------------------------
    def _abandon(self) -> None:
        """A process waiting on this event was interrupted before it
        resumed; nothing takes the outcome up.  A no-op here: a
        :class:`~repro.sim.resources.Resource` grant gives its slot back.
        """

    def _trigger(self) -> None:
        """Schedule processing of the outcome stored in ``_value``/``_exc``."""
        self._state = TRIGGERED
        self.sim._schedule(self)

    def _tail_trigger(self) -> None:
        """:meth:`_trigger` for a caller in tail position of its dispatch.

        The next-entry rule (see :class:`~repro.sim.simulator.Simulator`):
        with nothing queued for this instant and nothing left to run in
        this dispatch, the entry ``_trigger`` would add is the next one
        popped, so the event is processed here instead.  Never call this
        from code a generator frame is running (an ``AnyOf`` constructor,
        a ``succeed()`` in a protocol step): the caller's frame continues
        afterwards, so it is not in tail position whatever ``_tail`` says.
        """
        sim = self.sim
        depth = sim._tail
        if depth and not sim._imm:
            sim._tail = depth - 1
            try:
                self._process()
            finally:
                sim._tail = depth
        else:
            self._trigger()

    def _tail_settle(self, hop, value: object, exc) -> None:
        """Ask for ``hop(self)`` with ``Simulator.tail_call``, where
        ``hop`` is this pending event's first of two hops: if the event
        is still pending, it stores ``value`` / ``exc`` and calls
        :meth:`_tail_trigger`.

        The first hop adds nothing to the lane, so when it would run in
        place with depth left for the second (``_tail`` >= 2, the lane
        empty), both would, back to back: the outcome is stored and
        processed here, in one step.  Otherwise — depth 1, the lane
        occupied — ``hop`` goes through ``tail_call``.  The caller's duty
        is ``tail_call``'s, and so is its one caller
        (``Endpoint._receive``, a response).
        """
        sim = self.sim
        depth = sim._tail
        if depth > 1 and not sim._imm:
            sim._tail = depth - 2
            self._value = value
            self._exc = exc
            try:
                self._process()
            finally:
                sim._tail = depth
        else:
            sim.tail_call(hop, self)

    def _process(self) -> None:
        """Run callbacks; called by the simulator at the scheduled time."""
        self._state = PROCESSED
        callbacks = self.callbacks
        count = len(callbacks)
        if count == 1:
            # Dominant case (a single waiting process): clear in place
            # before invoking — late appends land in the emptied list and
            # are never run, exactly as with the list swap below.
            callback = callbacks[0]
            callbacks.clear()
            callback(self)
        elif count:
            self.callbacks = []
            # Only the last callback is in tail position of this dispatch.
            sim = self.sim
            tail = sim._tail
            sim._tail = 0
            try:
                for index in range(count - 1):
                    callbacks[index](self)
            finally:
                sim._tail = tail
            callbacks[-1](self)
        exc = self._exc  # an Interrupt left alone is a scope's end, no fault
        if exc is not None and not self._defused and exc.__class__ is not Interrupt:
            raise exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or type(self).__name__
        return f"<{label} {self._state}>"


#: The dispatch of an event's schedule entry, ``(time, seq, _process, event)``.
_process = Event._process


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        # Hot path: inlined Event.__init__ with an interned name (the old
        # f"timeout({delay})" label dominated allocation profiles; the
        # delay is still visible via the ``delay`` attribute).
        if not 0.0 <= delay < inf:  # also rejects nan
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        self.sim = sim
        self.name = "timeout"
        self._state = TRIGGERED
        self._value = value
        self._exc = None
        self.callbacks = []
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)


def _defuse_late(event: Event) -> None:
    """What a decided :class:`AnyOf` leaves on each loser it lets go of.

    One shared module-level callback, so a long-lived event holds O(1)
    callbacks however many races it lost; it keeps the documented "later
    failures are defused" behaviour without keeping the race reachable.
    """
    if event._exc is not None:
        event._defused = True


class AllOf(Event):
    """Fires when every child event has fired successfully.

    The value is a list of the children's values, in the order given.  If
    any child fails, :class:`AllOf` fails with that child's exception.
    Once fired it holds no reference to its children.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.processed:
                # Outcome already delivered; account for it immediately.
                # The constructor runs inside its caller's frame, never
                # in tail position: the hop is always scheduled.
                if self._absorb(child):
                    self._trigger()
            else:
                # Pending *or* scheduled (e.g. a Timeout): callbacks run
                # when the child is processed at its scheduled time.
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        """Callback on each child: the last thing the child's dispatch does."""
        if self._absorb(child):
            self._tail_trigger()

    def _absorb(self, child: Event) -> bool:
        """Account for a fired child; True once the outcome is stored."""
        if self._state is not PENDING:
            return False
        if child._exc is not None:
            child._defused = True
            self._children = None
            self._exc = child._exc
            return True
        self._remaining -= 1
        if self._remaining:
            return False
        children, self._children = self._children, None
        self._value = [c._value for c in children]
        return True


class AnyOf(Event):
    """Fires when the first child event fires; value is that child's value.

    A failed first child fails the :class:`AnyOf`.  Later children firing
    are ignored (failures among them are defused).  A decided race lets
    go of its losers: it takes its callback off every child that has not
    fired yet and drops its child list, so a long-lived loser (a
    "member removed" event raced against thousands of short RPCs) does
    not keep every finished race — and the process that won it —
    reachable for the rest of the run.
    """

    __slots__ = ("_children", "first")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("any_of() requires at least one event")
        #: The child that fired first (set when this event triggers).
        self.first: Optional[Event] = None
        for child in self._children:
            if child.processed:
                # Inside the caller's frame, never in tail position: the
                # hop is always scheduled (see AllOf).
                self._absorb(child)
                self._trigger()
                break
            child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        """Callback on each child: the last thing the child's dispatch does."""
        if self._absorb(child):
            self._tail_trigger()

    def _absorb(self, child: Event) -> bool:
        """Let ``child`` decide the race; False if it was decided before."""
        children = self._children
        if children is None:
            return False  # already decided (the same child listed twice)
        self._children = None
        self.first = child
        on_child = self._on_child
        for loser in children:
            if loser is child or loser._state is PROCESSED:
                continue
            callbacks = loser.callbacks
            try:
                callbacks.remove(on_child)
            except ValueError:
                continue  # never attached (a processed sibling decided us)
            if _defuse_late not in callbacks:
                callbacks.append(_defuse_late)
        if child._exc is not None:
            child._defused = True
            self._exc = child._exc
        else:
            self._value = child._value
        return True
