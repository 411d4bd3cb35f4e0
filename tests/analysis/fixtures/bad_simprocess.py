"""Known-bad sim-process snippets (SIM*); parsed by tests, never imported."""


def bad_yield_process(sim):
    yield sim.timeout(1.0)
    yield 42


def blocking_process(sim, path):
    yield sim.timeout(1.0)
    data = open(path).read()
    yield sim.timeout(float(len(data)))


def value_generator(items):
    # Host-side data generator: yields only tuples, never stepped by the
    # kernel — must NOT be flagged by SIM01.
    for item in items:
        yield (item, len(item))


def peeking_process(sim):
    yield sim.timeout(sim._seq + 1.0)


class ClockWriter:
    def __init__(self, sim):
        self.sim = sim

    def fast_forward(self, when):
        self.sim.now = when                                    # line 31

    def skip(self, sim, delta):
        sim.now += delta                                       # line 34

    def impersonate(self, process):
        self.sim.active_process = process                      # line 37
