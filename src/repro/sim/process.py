"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

ProcessGenerator = Generator[Event, object, object]


class _Sentinel:
    """A non-event a process may yield; the kernel matches it by identity."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self._label}>"


#: Yielded by :meth:`Simulator.sleep`: the wakeup entry is already
#: scheduled (by ``sleep``), so there is no event to attach a
#: callback to — the process just parks until the entry fires.
RAW_WAIT = _Sentinel("raw-wait")

#: Yielded by :meth:`Resource.acquire_wait` when it took a free slot: the
#: wait is already over and the process is owed one zero-delay hop.  The
#: stepping code pays it as a schedule entry (``_park``) unless the
#: next-entry rule says the hop would be the next entry dispatched — then
#: it just sends again.  Whoever returns ``READY`` must have scheduled
#: nothing and named the resource in ``sim._ready``, and the caller must
#: yield it at once.
READY = _Sentinel("ready")


class Process(Event):
    """A simulation process.

    Wraps a generator that yields :class:`~repro.sim.events.Event` objects.
    The process itself *is* an event: it fires when the generator returns
    (value = the generator's return value) or raises (failure).  This lets
    processes wait on each other by yielding a :class:`Process`.

    ``daemon`` processes have failures recorded on the simulator instead of
    crashing the run; use for background services whose crash is itself a
    simulated condition (for example a process on a failed node).  An
    uncaught :class:`Interrupt` is no failure: its :class:`Scope` ended it.

    Constructing one starts nothing: :meth:`Simulator.spawn` schedules
    its first step, and ``Endpoint._receive`` asks for it in tail
    position (``Simulator.tail_call``).
    """

    __slots__ = ("generator", "daemon", "trace_ctx", "trace_lane", "scope",
                 "deadline", "_waiting_on", "_send", "_throw", "_sleep_token",
                 "_ready_of")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str = "",
        daemon: bool = False,
        trace_ctx=None,
        deadline: Optional[float] = None,
        scope: Optional["Scope"] = None,
    ):
        # Inlined Event.__init__ (spawns are a hot allocation site).
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._state = PENDING
        self._value = None
        self._exc = None
        self.callbacks = []
        self._defused = False
        self.generator = generator
        self.daemon = daemon
        #: Ambient TraceContext this process runs under (see repro.trace).
        #: Inherited from the spawning process; updated as spans open/close.
        self.trace_ctx = trace_ctx
        #: Chrome-export lane id, assigned by the tracer on first use.
        self.trace_lane = None
        #: The :class:`Scope` this process is a member of, if any: it
        #: joins ``scope`` here.
        self.scope = scope
        if scope is not None:
            scope._running[self] = None
        #: Absolute sim ms by which the request this process serves must
        #: be answered, or None (see Endpoint.call).
        self.deadline = deadline
        #: The event this process is currently blocked on, if any.
        self._waiting_on: Optional[Event] = None
        #: Seq of the entry of an in-flight raw sleep or paid ``READY``
        #: hop (see Simulator.sleep).
        self._sleep_token: Optional[int] = None
        #: The resource whose slot a pending paid ``READY`` hop holds.
        self._ready_of = None
        # Bound generator methods, cached: _step runs a few hundred
        # thousand times per benchmark and the attribute walk shows up.
        self._send = generator.send
        self._throw = generator.throw

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        No-op if the process already finished.  The event the process was
        waiting on is abandoned (its eventual outcome is ignored).  A
        :class:`~repro.sim.resources.Resource` wait that the process has
        not taken up is withdrawn: a queued request leaves the queue, and
        a slot already handed over — or taken by ``acquire_wait()``
        behind a paid ``READY`` hop — is released.  Its one caller is
        :meth:`Scope.cancel`.
        """
        if self.triggered:
            return
        self._detach()
        self.sim.call_soon(self._interrupt_step, cause)

    # -- internal --------------------------------------------------------
    def _detach(self) -> None:
        """Let go of the wait in progress, if any."""
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
            target._abandon()
        self._waiting_on = None
        ready = self._ready_of
        if ready is not None:
            self._ready_of = None
            ready.release()
        # Orphan any in-flight raw sleep: its entry stays scheduled
        # (exactly like the stale Timeout the old path left in the heap)
        # but the token mismatch makes its firing a no-op.
        self._sleep_token = None

    def _interrupt_step(self, cause: object) -> None:
        self._detach()  # interrupted while it ran, it may have parked since
        self._step(throw=Interrupt(cause))

    def _sleep_wake(self, token: int) -> None:
        """Fire a raw sleep (see Simulator.sleep); stale tokens are no-ops.

        The token is the entry's seq, the very int object stored in
        ``_sleep_token``, so identity is the check.

        Steps the generator itself rather than through :meth:`_step`: a
        live token means the process is parked on this very entry, so it
        is pending by construction and there is nothing to send or throw.
        """
        if self._sleep_token is not token:
            return
        self._sleep_token = None
        sim = self.sim
        sim.active_process = self
        try:
            target = self._send(None)
            while target is READY and sim._tail and not sim._imm:
                target = self._send(None)
        except StopIteration as stop:
            self._value = stop.value
        except BaseException as exc:  # noqa: BLE001 - crashed
            self._crash(exc)
        else:
            sim.active_process = None
            if target is not RAW_WAIT:
                self._park(target)
            return
        sim.active_process = None
        scope = self.scope
        if scope is not None:  # finished: leave it, scheduling nothing
            del scope._running[self]
            self.scope = None
        self._tail_trigger()

    def _ready_wake(self, token: int) -> None:
        """Fire a paid ``READY`` hop: from here the process holds the slot."""
        self._ready_of = None
        self._sleep_wake(token)

    def _resume(self, event: Event) -> None:
        """Callback attached to the event the process waits on."""
        self._waiting_on = None
        if event._exc is not None:
            event._defused = True
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: object = None, throw: Optional[BaseException] = None) -> None:
        """Run the generator to its next real wait — or to its end.

        Always the last thing its dispatch does (a bootstrap or wake-up
        entry, or the callback of an event being processed), which is
        what lets it apply the next-entry rule: a ``READY`` yield is
        answered by sending again while the hop it stands for would be
        the next entry popped anyway, and the finished process is
        processed in place on the same condition (``_tail_trigger``).
        The generator's end — return or crash — is only *recorded* in
        the ``except`` blocks and acted on after them, so whatever runs in
        place does not inherit the ``StopIteration`` or the crash as its
        exception context (a traceback that would keep the finished
        frames alive).
        """
        if self._state is not PENDING:
            return
        sim = self.sim
        sim.active_process = self
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = self._send(send)
            while target is READY and sim._tail and not sim._imm:
                target = self._send(None)
        except StopIteration as stop:
            self._value = stop.value
        except BaseException as exc:  # noqa: BLE001 - crashed
            self._crash(exc)
        else:
            sim.active_process = None
            # RAW_WAIT: Simulator.sleep already planted the wakeup entry;
            # nothing to wait on — the entry re-enters the generator at
            # its scheduled time.
            if target is not RAW_WAIT:
                self._park(target)
            return
        sim.active_process = None
        scope = self.scope
        if scope is not None:  # finished: leave it, scheduling nothing
            del scope._running[self]
            self.scope = None
        self._tail_trigger()

    def _crash(self, exc: BaseException) -> None:
        """The generator raised: note the failure (daemons record it and
        carry on); the caller triggers once it has left its ``except``."""
        if self.daemon and exc.__class__ is not Interrupt:
            self.sim.daemon_failures.append((self, exc))
            self._defused = True
        self._exc = exc

    def _park(self, target) -> None:
        """Wait for what the generator yielded (anything but RAW_WAIT)."""
        if target is READY:
            # The hop is not the next entry to be dispatched: pay it, in
            # the slot a granted acquire has always taken.
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            sim._imm.append((sim.now, seq, self._ready_wake, seq))
            self._sleep_token = seq
            self._ready_of = sim._ready
            return
        if target.__class__ is not Event and not isinstance(target, Event):
            if self.scope is not None:
                self.scope.leave(self)
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        self._waiting_on = target
        if target._state is PROCESSED:
            # Already-processed events resume the process immediately
            # (at the current simulated time) via a raw wakeup entry —
            # the same schedule slot the old wakeup event occupied.
            self.sim.call_soon(self._resume, target)
        else:
            target.callbacks.append(self._resume)


class Scope:
    """The live processes of one owner, in join order, and its children.

    A process spawned by a member joins the spawner's scope and leaves it
    in the kernel's finish path.  :meth:`cancel` interrupts the child
    scopes' members (children in creation order), then its own, taking
    each out as it goes: cancelling twice does nothing.
    """

    __slots__ = ("_running", "_children")

    def __init__(self):
        self._running: dict = {}  # process -> None, a set in join order
        self._children: dict = {}  # key -> Scope, in creation order

    @property
    def members(self) -> list:
        return list(self._running)

    def child(self, key) -> "Scope":
        """The child scope named ``key``, made on first use."""
        scope = self._children.get(key)
        if scope is None:
            scope = self._children[key] = Scope()
        return scope

    def join(self, process: Process) -> Optional["Scope"]:
        """Move ``process`` into this scope; returns the scope it left."""
        outer = process.scope
        if outer is not None:
            del outer._running[process]
        self._running[process] = None
        process.scope = self
        return outer

    def leave(self, process: Process, outer: Optional["Scope"] = None):
        """Move ``process`` back to ``outer``, unless a cancel took it."""
        if process.scope is self:
            del self._running[process]
            process.scope = None
            if outer is not None:
                outer.join(process)

    def cancel(self, cause: object = None) -> None:
        """Interrupt every live process below and in this scope (a member
        that cancels its own scope is interrupted at its next wait)."""
        for child in list(self._children.values()):
            child.cancel(cause)
        live, self._running = self._running, {}
        for process in live:
            process.scope = None
            process.interrupt(cause)
