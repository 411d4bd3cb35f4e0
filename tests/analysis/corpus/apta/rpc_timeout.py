"""PR 1's missing-``timeout=`` finding, fixed by 8fa75c5.

Cut from ``src/repro/apta/system.py`` at ``8fa75c5~1``.  Thirteen RPC
call sites relied on the library's default timeout without naming it, so
a dead peer stalled the caller on a value no call site stated.  The fix
passes ``timeout=DEFAULT_RPC_TIMEOUT_MS`` at each.  Of the thirteen, this
one is cut because its layer has no rule written later (the sites in
``core/`` and ``caching/`` predate the ``trace=`` argument TRC01 asked
for).

Parsed by tests, never imported.
"""

from __future__ import annotations

from repro.faas.scheduler import Scheduler


class AptaScheduler(Scheduler):
    def pre_pick(self, platform, app: str, function: str, inputs: dict):
        """Query every memory node for stale compute nodes (a generator).

        This is the per-invocation overhead the paper measures as a 2.8x
        scheduler response-time increase.
        """
        system = self.systems.get(app)
        if system is None:
            return
        endpoint = self._scheduler_endpoint(platform.cluster.network)
        queries = [
            platform.sim.spawn(
                endpoint.call(  # defect: no timeout=
                    memory_node.endpoint.address, "stale_query", None,
                    size_bytes=8,
                ),
                name="stale-q",
            )
            for memory_node in system.memory.values()
        ]
        if queries:
            yield platform.sim.all_of(queries)
        self.scheduling_queries += 1
