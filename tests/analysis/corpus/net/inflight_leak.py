"""PR 6's in-flight leak, fixed by 909923c.

Cut from ``src/repro/net/rpc.py`` at ``909923c~1``.  ``Endpoint.call``
registered the request in ``_pending`` / ``_pending_dst`` and popped it
only on the timeout path: an ``Interrupt`` thrown at the yield (the
caller's node crashed) left the entry behind, where the ``rpc_inflight``
gauge and ``fail_calls_to()`` kept seeing it.  The fix pops both in a
``finally``.

Parsed by tests, never imported.
"""

from __future__ import annotations

from typing import Optional

from repro.net.fabric import Message, Network
from repro.net.sizes import sizeof
from repro.sim.events import Event
from repro.trace.tracer import INHERIT


class Endpoint:
    def call(
        self,
        dst: str,
        method: str,
        args: object = None,
        size_bytes: Optional[int] = None,
        timeout: Optional[float] = None,
        trace=INHERIT,
    ):
        """Issue an RPC; yields from a generator returning the response.

        Usage inside a process::

            value = yield from endpoint.call("node1/agent", "read", {...})

        Raises :class:`RpcTimeout` if no response arrives within
        ``timeout`` ms (default 5000), and re-raises any :class:`RpcError`
        the handler failed with.

        ``trace`` names the call's position in the span tree (TRC01):
        the default :data:`INHERIT` attaches to the calling process's
        ambient :class:`TraceContext`; pass an explicit context/span to
        re-parent, or ``None`` to start a fresh trace.  The context
        travels with the request, and the client span survives the
        timeout path (ended in a ``finally`` with ``status=timeout``),
        so retries issued afterwards join the same operation's trace.
        """
        tracer = self.sim.tracer
        span = None
        ctx = None
        if tracer.active:
            span = tracer.span(f"rpc:{method}", "rpc", parent=trace, dst=dst)
            ctx = span.context
        try:
            request_id = next(self._ids)
            response = Event(self.sim, name=f"rpc-resp:{method}")
            self._pending[request_id] = response  # defect
            self._pending_dst[request_id] = (  # defect
                Network.node_of(dst), dst, method)
            self.network.send(Message(
                src=self.address,
                dst=dst,
                kind=method,
                payload=(method, args),
                size_bytes=size_bytes if size_bytes is not None else sizeof(args),
                request_id=request_id,
                trace=ctx,
            ))
            limit = timeout if timeout is not None else DEFAULT_RPC_TIMEOUT_MS
            timer = self.sim.timeout(limit)
            winner = yield self.sim.any_of([response, timer])
            if not response.triggered:
                self._pending.pop(request_id, None)  # defect: timeout only
                self._pending_dst.pop(request_id, None)  # defect: timeout only
                self.timeouts += 1
                if span is not None:
                    span.set("status", "timeout")
                raise RpcTimeout(dst, method, limit)
            del winner
            return response.value
        finally:
            if span is not None:
                span.end()
