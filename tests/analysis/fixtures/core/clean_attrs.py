"""Clean twin of bad_attrs.py: the same records with attrs the packed
logs keep as they are; no finding."""

from repro.obs.events import CACHE_INSTALL


class CleanAttrs:
    def __init__(self, sim):
        self.sim = sim
        self.sharers = ["node0", "node1"]

    def sorted_list_attr(self, key, holders):
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, key=key, holders=sorted(holders))

    def reduced_attr(self, key):
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, key=key, holders=len(self.sharers))

    def atomic_attrs(self, key, version):
        tracer = self.sim.tracer
        if tracer.active:
            tracer.instant("install", "agent", key=key, version=version,
                           fresh=True, owner=None, cost_ms=0.5)

    def joined_names_attr(self, key):
        tracer = self.sim.tracer
        if tracer.active:
            with tracer.span("fanout", "agent", key=key,
                             targets=",".join(self.sharers)):
                pass

    def unrelated_receiver(self, signal):
        signal.emit("clicked", where={"x": 1})
