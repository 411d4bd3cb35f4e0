"""Old item 1(d), fixed by 27bc0c9: an endpoint's private id counter.

Cut from ``src/repro/net/rpc.py`` at ``27bc0c9~1`` (``Endpoint.__init__``
up to its pending table).  Each endpoint numbered its calls from 1, so an
endpoint re-created at a removed one's address took its predecessor's
late reply for its own pending call.  The fix draws request ids from the
run's one ``sim.ids("rpc")``.  DET04, which flags this line, was written
after the defect had been found.

Parsed by tests, never imported.
"""

from __future__ import annotations

import itertools


class Endpoint:
    def __init__(
        self,
        network: Network,
        node_id: str,
        service: str,
        service_time_ms: float = 0.0,
        cpu=None,
    ):
        #: Request ids of the calls this endpoint issues (responses are
        #: matched in its own ``_pending``).  Per endpoint, not per class:
        #: two runs in one interpreter must not share any counter.
        self._ids = itertools.count(1)  # defect
        self.network = network
        self.sim: "Simulator" = network.sim
        self.node_id = node_id
        self.service = service
        self.address = f"{node_id}/{service}"
        self._handlers: dict[str, Handler] = {}
        #: Methods whose handler takes the request's piggybacked metadata
        #: as a fourth argument (dict used as a set; membership only).
        self._meta_handlers: dict = {}
        #: method -> interned handler-process name "rpc:<addr>:<method>".
        self._spawn_names: dict[str, str] = {}
        #: request_id -> waiter of every in-flight call (insertion-
        #: ordered: fail_calls_to() rejects in issue order, never in hash
        #: order).
        self._pending: dict[int, "_RpcWaiter"] = {}
