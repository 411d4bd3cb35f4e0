"""Clean twin of bad_spans.py: every guard shape OBS01 accepts; no finding."""


class CleanSpanAgent:
    def __init__(self, sim):
        self.sim = sim

    def if_guard(self, member):
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("recovery:complete", "recovery", member=member)

    def conditional_expression_guard(self, key, owner):
        tracer = self.sim.tracer
        span = (tracer.span("fetch_owner", "agent", key=key, owner=owner)
                if tracer.active else None)
        try:
            yield self.sim.timeout(1.0)
        finally:
            if span is not None:
                span.end()

    def early_return_guard(self, key):
        tracer = self.sim.tracer
        if not tracer.active:
            return (yield from self._impl(key))
        with tracer.span("home_read", "agent", key=key):
            return (yield from self._impl(key))

    def guarded_dispatcher(self, key):
        if not self.sim.tracer.active:
            return self._impl(key)
        return self._traced_read(key)

    def _traced_read(self, key):
        # Only ever entered through guarded_dispatcher.
        with self.sim.tracer.span("read", "op", key=key):
            return (yield from self._impl(key))

    def bare_span_has_no_attrs(self):
        # No keyword attrs: one NullTracer call, nothing built.
        with self.sim.tracer.span("sweep", "agent"):
            yield self.sim.timeout(1.0)

    def parent_only(self, ctx):
        return self.sim.tracer.span("rpc", "rpc", parent=ctx)

    def unrelated_span(self, layout, rows):
        # .span() on a non-tracer receiver is not OBS01's business.
        return layout.span("header", cols=len(rows))

    def _impl(self, key):
        yield self.sim.timeout(1.0)
        return key
