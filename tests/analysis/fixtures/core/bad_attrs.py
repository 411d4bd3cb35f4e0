"""Span / event attrs the packed logs cannot keep; OBS01 must fire at the
marked lines.  Parsed, never imported; under ``core/`` because the check
is scoped to the protocol layers."""

from repro.obs.events import CACHE_INSTALL


class BadAttrs:
    def __init__(self, sim):
        self.sim = sim
        self.sharers = ["node0", "node1"]

    def set_attr(self, key):
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, key=key,
                     holders={"node0", "node1"})               # line 17

    def set_comprehension_attr(self, key):
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, key=key,
                     holders={name for name in self.sharers})  # line 23

    def dict_attr(self, key):
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("install", "agent",
                           versions={"node0": 1})              # line 29

    def dict_comprehension_attr(self, key):
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("install", "agent", versions={
                name: 0 for name in self.sharers})             # line 34

    def lambda_attr(self, key):
        tracer = self.sim.tracer
        if tracer.active:
            with tracer.span("read", "op", key=key,
                             resolve=lambda: key):             # line 41
                pass

    def generator_attr(self, key):
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("fanout", "agent", targets=(
                name for name in self.sharers))                # line 47
