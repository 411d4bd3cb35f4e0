"""The invocation context handed to function handlers.

Wraps the node the invocation runs on and the application's caching
scheme, and accounts where the invocation's time goes (compute vs storage)
for the Figure-1 breakdown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.caching.base import AccessContext
from repro.trace.tracer import Step

#: A traced compute interval: a step counted on the span it runs under.
_COMPUTE = Step("compute")

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.base import StorageAPI
    from repro.cluster import Node
    from repro.sim import Simulator


class InvocationContext:
    """Runtime services available to one function invocation."""

    __slots__ = ("sim", "node", "app", "function", "storage", "inputs",
                 "invocation_id", "access", "storage_ms", "compute_ms")

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        app: str,
        function: str,
        storage: "StorageAPI",
        inputs: Optional[dict] = None,
        invocation_id: int = 0,
        txn_id: Optional[str] = None,
    ):
        self.sim = sim
        self.node = node
        self.app = app
        self.function = function
        self.storage = storage
        self.inputs = inputs or {}
        self.invocation_id = invocation_id
        self.access = AccessContext(
            function=function, invocation_id=invocation_id, txn_id=txn_id,
        )
        #: Time accounting for the response-time breakdown (Figure 1).
        self.storage_ms = 0.0
        self.compute_ms = 0.0

    # -- storage -----------------------------------------------------------
    def read(self, key: str):
        """Read ``key`` through the app's caching scheme (yield from)."""
        start = self.sim.now
        value = yield from self.storage.read(self.node.id, key, self.access)
        self.storage_ms += self.sim.now - start
        return value

    def write(self, key: str, value: object):
        """Write ``key`` through the app's caching scheme (yield from)."""
        start = self.sim.now
        yield from self.storage.write(self.node.id, key, value, self.access)
        self.storage_ms += self.sim.now - start
        return None

    # -- compute ------------------------------------------------------------
    def compute(self, ms: float):
        """Burn ``ms`` of CPU on this node's cores (queues when busy).

        Traced, the interval is a step (:meth:`Tracer.begin_step
        <repro.trace.tracer.Tracer.begin_step>`): it opens no span, and
        is counted on the span it runs under (the invocation's) as
        ``compute.n`` / ``compute.ms``.
        """
        tracer = self.sim.tracer
        step = tracer.begin_step() if tracer.active else None
        start = self.sim.now
        cores = self.node.cores
        try:
            yield cores.acquire_wait()
            try:
                yield self.sim.sleep(ms)
            finally:
                cores.release()
            self.compute_ms += self.sim.now - start
            return None
        finally:
            if step is not None:
                tracer.end_step(_COMPUTE, step)
