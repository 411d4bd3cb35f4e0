"""Old item 1(a), fixed by 88f5ca7: an E-state write vs a downgrade at
its own home.

Cut from ``src/repro/core/agent.py`` at ``88f5ca7~1``.  A node that is
both the home and the E owner of a key downgraded (``_fetch_from_owner``)
or invalidated (``_send_invalidations``) its own copy without waiting for
the owner lock of an in-flight direct-to-storage write, as the remote
handlers do.  A reader could install the pre-write value as S.  The fix
waits for a held owner lock first on both marked lines.

Parsed by tests, never imported.
"""

from __future__ import annotations

from repro.caching.base import SHARED
from repro.obs.events import CACHE_DOWNGRADE, INV_SEND


class CacheAgent:
    def _fetch_from_owner(self, key: str, owner: str):
        """Ask the E-state owner for the data (downgrades it to S)."""
        if owner == self.node_id:  # defect: no owner-lock wait
            local = self.cache.get(key)
            if local is None:
                return None
            local.state = SHARED
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_DOWNGRADE, node=self.node_id, key=key,
                         version=local.version)
            return local.value
        tracer = self.sim.tracer
        span = (tracer.span("fetch_owner", "agent", key=key, owner=owner)
                if tracer.active else None)
        try:
            reply = yield from self._call_peer(
                owner, "fetch_downgrade", key, f"fetch:{key}:{owner}")
            return None if isinstance(reply, NotCached) else reply
        finally:
            if span is not None:
                span.end()

    def _send_invalidations(self, key: str, sharers: list):
        """Issue invalidations; returns the ack-wait processes.

        The sends serialize on the agent's NIC/syscall path (``send_ms``
        each) before the round trips overlap — the reason wide-fan-out
        writes creep up with sharer count (Figure 11: 30 -> 32.4 ms).
        """
        pending = []
        for sharer in sharers:
            if sharer == self.node_id:  # defect: no owner-lock wait
                self._invalidate_local(key)
                continue
            yield self.sim.sleep(self.system.latency.send_ms)
            self.invalidations_sent += 1
            obs = self.sim.obs
            if obs.active:
                obs.emit(INV_SEND, node=self.node_id, key=key, sharer=sharer)
            pending.append(self.sim.spawn(
                self._invalidate_one(key, sharer), name=f"inv:{key}:{sharer}",
            ))
        return pending
