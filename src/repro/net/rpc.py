"""Request/response RPC endpoints on top of the message fabric.

Handlers are generator functions (simulation processes) registered by
method name::

    def handle_read(endpoint, src, args):
        yield endpoint.sim.timeout(0.1)
        return Reply({"value": ...}, size_bytes=4096)

    endpoint.register_handler("read", handle_read)

Callers use :meth:`Endpoint.call`, which yields the response value or
raises :class:`RpcTimeout` when the peer never answers (crashed node,
dropped message) — mirroring how the real system detects unreachable
peers.

The budget a call waits is its call chain's, as in gRPC's deadline
propagation: a request carries its absolute deadline, the handler (and
every non-daemon process it spawns) inherits it, and a call made there
waits only what is left of it, less a hop's margin.  So the innermost
wait of a chain gives up first, and it is the node that owes that reply
which gets reported unreachable.  A call outside any handler starts a
chain with :data:`RPC_TIMEOUT_MS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.net.fabric import Message, Network
from repro.net.sizes import sizeof
from repro.obs.events import RPC_RESET, RPC_TIMEOUT
from repro.sim.errors import Interrupt
from repro.sim.events import PENDING, Event
from repro.sim.process import Process
from repro.trace.tracer import (  # noqa: F401 - re-export
    INHERIT, SERVER_END, SERVER_START, SpanNames, TraceContext)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

#: The budget of a call that starts a chain (no inherited deadline).
RPC_TIMEOUT_MS = 5000.0

#: What a nested call leaves its handler, and the step nested budgets
#: round down to.  It must cover what a handler does after its nested
#: wait ends plus one reply: on the E-owner write path a storage write
#: after the invalidation (30 ms RTT, up to 60 ms more across regions)
#: and the reply (1-31 ms).  Rounding to one step also bounds the
#: deadline lanes (Simulator.call_later) to RPC_TIMEOUT_MS / HOP_MS.
HOP_MS = 250.0


class RpcError(Exception):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """The peer did not answer within the timeout."""

    def __init__(self, dst: str, method: str, timeout: float):
        super().__init__(f"rpc {method!r} to {dst} timed out after {timeout}ms")
        self.dst = dst
        self.method = method
        self.timeout = timeout


class DeadlineExceeded(RpcError):
    """The calling chain's budget was spent before the call was sent.

    Not an :class:`RpcTimeout`: no peer failed to answer, so none is
    reported unreachable for the caller's own lateness.
    """


class PeerDown(RpcTimeout):
    """The peer's node is down; the transport failed the call fast.

    Raised instead of waiting out the full RPC timeout when the fabric
    runs with ``fail_fast`` (armed by the fault injector): the caller
    gets connection-reset semantics after one propagation delay.
    Subclassing :class:`RpcTimeout` makes the error retriable everywhere
    the protocol already handles unanswered calls.
    """

    def __init__(self, dst: str, method: str, after_ms: float = 0.0):
        super().__init__(dst, method, after_ms)


class UnreachableError(RpcError):
    """Raised by a handler to signal the destination rejected the call."""


@dataclass
class Reply:
    """A handler's response value plus its wire size.

    ``meta`` piggybacks scheme-level metadata on the response message
    (the causal scheme's vector clocks); callers retrieve it by passing
    ``with_meta=True`` to :meth:`Endpoint.call`.
    """

    value: object
    size_bytes: Optional[int] = None
    meta: Optional[object] = None

    def wire_size(self) -> int:
        return self.size_bytes if self.size_bytes is not None else sizeof(self.value)


@dataclass
class _RemoteFailure:
    """Marshalled handler exception travelling back to the caller."""

    exception: BaseException


Handler = Callable[["Endpoint", str, object], Generator]

#: request kind -> interned "reply:<kind>" string (method names form a
#: small closed set, so the memo stays tiny).
_REPLY_KINDS: dict = {}
#: Client / server span names per method.
_CALL_SPANS = SpanNames("rpc:")
_SERVE_SPANS = SpanNames("serve:")


class _RpcWaiter(Event):
    """The client-side gate one in-flight RPC blocks on.

    Replaces the old response-``Event`` + 5000 ms ``Timeout`` + ``AnyOf``
    triple with a single event plus two raw schedule entries, while
    occupying the exact same ``(time, seq)`` slots so pop order — and
    therefore every simulated counter — is unchanged:

    - the *deadline* is a :meth:`Simulator.call_later` record in the
      slot the old ``Timeout`` used; it fires :meth:`_deadline`, which
      triggers the gate only if nothing else already has.  A response or
      a fail-fast reset cancels it, so an answered call's deadline never
      reaches the schedule (its firing would be a no-op anyway);
    - response delivery records the payload on the waiter
      (unconditionally — a same-tick-as-deadline response must still win,
      matching the old code where the response event fired independently
      of the race) and, if the gate is still pending, hops to
      :meth:`_fire` in the slot the old response event's processing
      used; ``_fire`` then triggers the gate in the slot the old
      ``AnyOf`` hop used.  Both hops are asked for in tail position
      (``Event._tail_settle``: ``Simulator.tail_call``, then
      ``Event._tail_trigger``), so on the common path — nothing else
      queued for the delivery instant — the caller resumes inside the
      delivery's own dispatch, in one step, and neither entry exists.

    The caller inspects ``resp_done`` after the yield: the old code's
    ``response.triggered`` check, verbatim.

    ``dst`` / ``method`` name the call, so a declared node crash can find
    and fail the calls addressed to it (:meth:`Endpoint.fail_calls_to`).
    """

    __slots__ = ("dst", "method", "resp_done", "resp_value", "resp_exc",
                 "resp_meta", "deadline", "served")

    def __init__(self, sim, dst: str, method: str):
        self.sim = sim
        self.dst = dst
        self.method = method
        self.name = "rpc-wait"
        self._state = PENDING
        self._value = None
        self._exc = None
        self.callbacks = []
        self._defused = False
        #: Whether a response (value or remote failure) was delivered.
        self.resp_done = False
        self.resp_value = None
        self.resp_exc: Optional[BaseException] = None
        #: Metadata piggybacked on the response (Reply.meta), if any.
        self.resp_meta = None
        #: The call_later record of the call's deadline.  A response or
        #: a fail-fast reset cancels it when it lies ahead; one due at
        #: this very instant is left to fire as a no-op, as every
        #: deadline used to (it may already be queued for this instant,
        #: and pulling it out could change what runs in place).
        self.deadline = None
        #: Traced: the server's ``(start_ms, end_ms)`` from the response.
        #: Set only when a traced response carries it, and read only by
        #: a traced call.

    def _fire(self) -> None:
        """First hop of response delivery (the old response event's
        slot); the gate it triggers takes the old AnyOf hop's.

        Runs as the whole of its dispatch or in place from
        :meth:`Endpoint._receive` — in tail position either way, so the
        gate's own entry is subject to the next-entry rule.  When both
        would run in place, ``Event._tail_settle`` does its work without
        it.
        """
        if self._state is PENDING:
            self._exc = self.resp_exc
            self._value = self.resp_value
            self._tail_trigger()

    def _deadline(self) -> None:
        """RPC deadline reached; a no-op if the gate already fired.

        Scheduled unbound, ``(_RpcWaiter._deadline, waiter)``: no bound
        method per call."""
        if self._state is PENDING:
            self.succeed(None)

    def _reject(self, error: BaseException) -> None:
        """Fail-fast rejection hop (scheduled by Endpoint.reject_call)."""
        if self._state is PENDING:
            self.fail(error)


class Endpoint:
    """A named RPC party attached to the network.

    One endpoint per (node, service); the address is
    ``"<node_id>/<service>"``.  Incoming requests spawn one handler process
    each, a member of :attr:`scope` (by default the node's scope's child
    named by the service), so a node crash ends every handler in flight
    (their responses are never sent).
    """

    def __init__(
        self,
        network: Network,
        node_id: str,
        service: str,
        service_time_ms: float = 0.0,
        cpu=None,
        scope=None,
    ):
        self.network = network
        self.sim: "Simulator" = network.sim
        #: Ids of the calls this endpoint issues, matched in ``_pending``.
        self._ids = self.sim.ids("rpc")
        self.node_id = node_id
        self.service = service
        self.address = f"{node_id}/{service}"
        self._handlers: dict[str, Handler] = {}
        #: Methods whose handler takes the request's piggybacked metadata
        #: as a fourth argument (dict used as a set; membership only).
        self._meta_handlers: dict = {}
        #: method -> interned handler-process name "rpc:<addr>:<method>".
        self._spawn_names: dict[str, str] = {}
        #: dst address -> the fabric's link to its node (Network.link).
        self._links: dict = {}
        #: request_id -> waiter of every in-flight call (insertion-
        #: ordered: fail_calls_to() rejects in issue order, never in hash
        #: order).
        self._pending: dict[int, "_RpcWaiter"] = {}
        #: The scope every handler joins.
        self.scope = (scope if scope is not None
                      else self.sim.scopes.child(node_id).child(service))
        #: CPU cost of accepting one request.  A server process handles
        #: requests one at a time for this slice, so a hot endpoint (e.g.
        #: the cache agent homing a popular key) becomes a queueing
        #: contention point under load — the effect Concord's local hits
        #: avoid and the versioning/single-home baselines suffer.
        self.service_time_ms = service_time_ms
        #: Optional CPU resource (the node's cores): the service slice
        #: competes with function execution for compute, so remote-heavy
        #: caching schemes lose cluster capacity to coherence work.
        self._cpu = cpu
        self._server = None
        #: Client-side calls that never got an answer (peer crashed or
        #: message dropped); sampled as rpc_timeouts_total.
        self.timeouts = 0
        #: Client-side calls failed fast with :class:`PeerDown`
        #: (fail-fast fabric only); sampled as rpc_peer_resets_total.
        self.resets = 0
        if service_time_ms > 0.0:
            from repro.sim.resources import Resource

            self._server = Resource(self.sim, capacity=1, name=f"srv:{self.address}")
        network.register(self)
        metrics = self.sim.metrics
        if metrics.active:
            metrics.gauge(
                "rpc_inflight", "Client calls awaiting a response.",
                labelnames=("node", "service"),
            ).set_callback(lambda: len(self._pending),
                           node=node_id, service=service)
            metrics.counter(
                "rpc_timeouts_total", "Client calls that timed out.",
                labelnames=("node", "service"),
            ).set_callback(lambda: self.timeouts,
                           node=node_id, service=service)
            metrics.counter(
                "rpc_peer_resets_total",
                "Client calls failed fast because the peer node was down.",
                labelnames=("node", "service"),
            ).set_callback(lambda: self.resets,
                           node=node_id, service=service)

    def close(self) -> None:
        """Detach from the network."""
        self.network.unregister(self.address)

    def _link(self, dst: str):
        """The fabric's link to ``dst``'s node, kept for the next send."""
        link = self._links[dst] = self.network.link(self.address, dst)
        return link

    # -- server side ---------------------------------------------------------
    def register_handler(self, method: str, handler: Handler,
                         meta: bool = False) -> None:
        """Register the generator function serving ``method``.

        With ``meta=True`` the handler receives the request's piggybacked
        metadata as a fourth argument: ``handler(endpoint, src, args,
        meta)``.  Handlers return metadata to the caller via
        :class:`Reply`'s ``meta`` field.
        """
        self._handlers[method] = handler
        if meta:
            self._meta_handlers[method] = None

    # -- fail-fast plumbing (fault injection) -------------------------------
    def reject_call(self, request_id: int, error: RpcError) -> None:
        """Fail the pending call ``request_id`` with ``error`` (idempotent)."""
        waiter = self._pending.pop(request_id, None)
        if waiter is not None and not waiter.resp_done:
            sim = self.sim
            deadline = waiter.deadline
            if deadline[0] > sim.now:
                sim.cancel_later(deadline)
            self.resets += 1
            obs = sim.obs
            if obs.active:
                obs.emit(RPC_RESET, node=self.address, reason=type(error).__name__)
            # Two schedule hops to the caller (reject entry, then the
            # waiter's own processing) — the same slots the old
            # response-event failure + AnyOf hop occupied.
            sim.call_soon(waiter._reject, error)

    def fail_calls_to(self, node_id: str) -> None:
        """Fail every in-flight call addressed to ``node_id`` fast."""
        node_of = Network.node_of
        matching = [
            (request_id, waiter) for request_id, waiter in self._pending.items()
            if node_of(waiter.dst) == node_id
        ]
        for request_id, waiter in matching:
            self.reject_call(request_id, PeerDown(waiter.dst, waiter.method))

    def _receive(self, message: Message) -> None:
        if message.is_response:
            waiter = self._pending.pop(message.request_id, None)
            if waiter is not None:
                payload = message.payload
                if isinstance(payload, _RemoteFailure):
                    value = None
                    exc = waiter.resp_exc = payload.exception
                else:
                    value = waiter.resp_value = payload
                    exc = None
                    waiter.resp_meta = message.meta
                if message.trace is not None:
                    waiter.served = message.trace
                # Recorded even when the deadline already fired this tick:
                # the caller resumes later in the tick and must see the
                # response (the old response event fired independently of
                # the AnyOf race, and call() checked response.triggered).
                waiter.resp_done = True
                sim = self.sim
                deadline = waiter.deadline
                if deadline[0] > sim.now:
                    sim.cancel_later(deadline)
                if waiter._state is PENDING:
                    # Delivery is the last thing its dispatch does (the
                    # fabric sees to that for batches), so the hop to
                    # _fire falls under the next-entry rule, and so does
                    # the gate's own hop after it.
                    waiter._tail_settle(_RpcWaiter._fire, value, exc)
            return
        method, args = message.payload
        handler = self._handlers.get(method)
        if handler is None:
            self._respond(message, _RemoteFailure(RpcError(
                f"no handler for {method!r} at {self.address}")), 0)
            return
        name = self._spawn_names.get(method)
        if name is None:
            name = f"rpc:{self.address}:{method}"
            self._spawn_names[method] = name
        # The handler joins the caller's span tree: its ambient context is
        # whatever TraceContext travelled with the request.  It answers
        # by the caller's deadline.  It joins the scope here, not in
        # _serve: a crash between this start and the handler's first
        # step must still find (and interrupt) it.
        process = Process(self.sim, self._serve(handler, message), name, True,
                          message.trace, message.deadline, self.scope)
        # Last, in tail position: the first step runs in place when it
        # would be the next entry popped, else in the slot spawn() gives.
        self.sim.tail_call(process._step)

    def _serve(self, handler: Handler, message: Message):
        # Traced, the serving interval covers service slice, handler and
        # response.  A call's interval rides back on its response and
        # lands on the client's ``rpc`` span, and the handler runs in
        # that span's context; a one-way notify has no client span, so
        # it gets an ``rpc.server`` span of its own.
        # A finished handler has no callback: nothing waits on it and
        # its completion needs no dispatch at all.
        tracer = self.sim.tracer
        span = start = None
        if tracer.active:
            if message.request_id is None:
                span = tracer.span(_SERVE_SPANS[message.kind], "rpc.server",
                                   src=message.src, addr=self.address)
            else:
                start = self.sim.now
        try:
            if self._server is not None:
                yield self._server.acquire_wait()
                try:
                    if self._cpu is not None:
                        yield self._cpu.acquire_wait()
                        try:
                            yield self.sim.sleep(self.service_time_ms)
                        finally:
                            self._cpu.release()
                    else:
                        yield self.sim.sleep(self.service_time_ms)
                finally:
                    self._server.release()
            if message.kind in self._meta_handlers:
                result = yield from handler(
                    self, message.src, message.payload[1], message.meta)
            else:
                result = yield from handler(
                    self, message.src, message.payload[1])
        except Interrupt:
            # Crashed mid-handling; no response ever leaves, so the
            # serving interval is filed as a span of its own.
            if start is not None:
                span = tracer.span(_SERVE_SPANS[message.kind], "rpc.server",
                                   src=message.src, addr=self.address)
                span.start_ms = start
            return
        except RpcError as exc:
            self._respond(message, _RemoteFailure(exc), 0, None,
                          None if start is None else (start, self.sim.now))
            return
        else:
            served = None if start is None else (start, self.sim.now)
            if isinstance(result, Reply):
                self._respond(message, result.value, result.wire_size(),
                              result.meta, served)
            else:
                self._respond(message, result, sizeof(result), None, served)
        finally:
            if span is not None:
                span.end()

    def _respond(self, request: Message, value: object, size_bytes: int,
                 meta: Optional[object] = None,
                 served: Optional[tuple] = None) -> None:
        if request.request_id is None:
            return  # one-way notify: nobody is waiting
        kind = request.kind
        reply_kind = _REPLY_KINDS.get(kind)
        if reply_kind is None:
            reply_kind = "reply:" + kind
            _REPLY_KINDS[kind] = reply_kind
        # A response's ``trace`` is the serving interval, when traced.
        dst = request.src
        self.network.send(Message(
            self.address, dst, reply_kind, value, size_bytes,
            request.request_id, True, served, meta),
            self._links.get(dst) or self._link(dst))

    # -- client side ---------------------------------------------------------
    def call(
        self,
        dst: str,
        method: str,
        args: object = None,
        size_bytes: Optional[int] = None,
        timeout: Optional[float] = None,
        trace=INHERIT,
        meta: Optional[object] = None,
        with_meta: bool = False,
    ):
        """Issue an RPC; yields from a generator returning the response.

        ``meta`` piggybacks scheme-level metadata on the request (the
        handler sees it when registered with ``meta=True``); with
        ``with_meta=True`` the call returns ``(value, reply_meta)``
        instead of the bare value, where ``reply_meta`` is whatever the
        handler attached to its :class:`Reply` (None otherwise).

        Usage inside a process::

            value = yield from endpoint.call("node1/agent", "read", {...})

        Raises :class:`RpcTimeout` if no response arrives within the
        call's budget, and re-raises any :class:`RpcError` the handler
        failed with.  The budget is the chain's: outside a handler it is
        ``timeout`` or :data:`RPC_TIMEOUT_MS`; inside one it is what is
        left of the inherited deadline, rounded down to a multiple of
        :data:`HOP_MS`, less one ``HOP_MS`` (``timeout`` caps it).  A
        spent budget raises :class:`DeadlineExceeded` and sends nothing.

        ``trace`` names the call's position in the span tree:
        the default :data:`INHERIT` attaches to the calling process's
        ambient :class:`TraceContext`; pass an explicit context/span to
        re-parent, or ``None`` to start a fresh trace.  The context
        travels with the request, and the client span survives the
        timeout path (ended in a ``finally`` with ``status=timeout``),
        so retries issued afterwards join the same operation's trace.
        An answered call's span carries the server's serving interval as
        ``server_start_ms`` / ``server_end_ms``.
        """
        sim = self.sim
        process = sim.active_process
        deadline = process.deadline if process is not None else None
        if deadline is None:
            limit = timeout if timeout is not None else RPC_TIMEOUT_MS
        else:
            limit = (deadline - sim.now) // HOP_MS * HOP_MS - HOP_MS
            if timeout is not None and timeout < limit:
                limit = timeout
            if limit <= 0.0:
                raise DeadlineExceeded(f"{method!r} to {dst}: budget spent")
        tracer = sim.tracer
        span = None
        ctx = None
        if tracer.active:
            span = tracer.span(_CALL_SPANS[method], "rpc", parent=trace, dst=dst)
            ctx = span.context
        try:
            request_id = next(self._ids)
            waiter = _RpcWaiter(sim, dst, method)
            self._pending[request_id] = waiter
            try:
                self.network.send(Message(
                    self.address, dst, method, (method, args),
                    size_bytes if size_bytes is not None else sizeof(args),
                    request_id, False, ctx, meta, sim.now + limit),
                    self._links.get(dst) or self._link(dst))
                # In the slot the old Timeout used.  A response cancels
                # it; an interrupted call keeps it, and it fires (and
                # schedules the gate) exactly as it always has.
                waiter.deadline = sim.call_later(
                    limit, _RpcWaiter._deadline, waiter)
                yield waiter
                if waiter.resp_done:
                    if span is not None:
                        served = getattr(waiter, "served", None)
                        if served is not None:
                            attrs = span.attrs
                            attrs[SERVER_START], attrs[SERVER_END] = served
                    exc = waiter.resp_exc
                    if exc is not None:
                        # Late same-tick remote failure (deadline fired
                        # first): the old code raised it from
                        # response.value; re-raise it here unchanged.
                        raise exc
                    if with_meta:
                        return waiter.resp_value, waiter.resp_meta
                    return waiter.resp_value
                self.timeouts += 1
                obs = sim.obs
                if obs.active:
                    obs.emit(RPC_TIMEOUT, node=self.address, dst=dst,
                             method=method, limit_ms=limit)
                if span is not None:
                    span.set("status", "timeout")
                raise RpcTimeout(dst, method, limit)
            finally:
                # The in-flight window closes on every exit.  Response
                # delivery already popped the entry; the timeout path —
                # and an Interrupt thrown at the yield when the caller's
                # node crashes — must not leak it (the rpc_inflight gauge
                # and fail_calls_to() scans would keep seeing it).
                self._pending.pop(request_id, None)
        finally:
            if span is not None:
                span.end()

    def notify(
        self,
        dst: str,
        method: str,
        args: object = None,
        size_bytes: Optional[int] = None,
        trace=INHERIT,
        meta: Optional[object] = None,
    ) -> None:
        """Fire-and-forget one-way message (no response expected).

        ``trace`` works as in :meth:`call`: the resolved TraceContext
        rides along so the receiving handler joins the span tree, but no
        client span is opened (there is nothing to wait for).  ``meta``
        piggybacks scheme metadata exactly as in :meth:`call`.
        """
        tracer = self.sim.tracer
        ctx = tracer.resolve(trace) if tracer.active else None
        self.network.send(Message(
            self.address, dst, method, (method, args),
            size_bytes if size_bytes is not None else sizeof(args),
            None, False, ctx, meta), self._links.get(dst) or self._link(dst))
