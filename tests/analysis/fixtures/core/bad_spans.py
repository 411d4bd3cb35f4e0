"""Known-bad tracer sites (OBS01 Null-sink gating); parsed, never imported.

Lives under a ``core/`` directory on purpose: the tracer half of OBS01
only applies to the hot layers (``core/``, ``caching/``, ``net/``,
``faas/``).
"""


class BadSpanAgent:
    def __init__(self, sim):
        self.sim = sim

    def unguarded_with_span(self, key, owner):
        with self.sim.tracer.span("fetch_owner", "agent",
                                  key=key, owner=owner):       # line 14
            yield self.sim.timeout(1.0)

    def unguarded_instant(self, member):
        tracer = self.sim.tracer
        tracer.instant("recovery:complete", "recovery",
                       member=member)                          # line 20

    def guard_on_the_wrong_branch(self, key):
        tracer = self.sim.tracer
        if not tracer.active:
            pass  # falls through: the span below still runs untraced
        span = tracer.span("op", "agent", key=key)             # line 27
        span.end()

    def unguarded_traced_twin_call(self, key):
        return self._traced_read(key)                          # line 31

    def _traced_read(self, key):
        with self.sim.tracer.span("read", "op", key=key):
            yield self.sim.timeout(1.0)
