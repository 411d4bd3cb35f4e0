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

    def jump_the_queue(self):
        self.sim._tail = 16                                    # line 40


def stashing_process(sim, lock, helper):
    grant = lock.acquire_wait()                                # line 44
    sim.spawn(helper(sim))  # scheduled before the hop the grant stands for
    yield grant
    lock.release()


def racing_process(sim, lock):
    # READY is not an event: any_of cannot wait on it.
    yield sim.any_of([lock.acquire_wait(), sim.timeout(5.0)])  # line 52


def dropped_grant(lock):
    lock.acquire_wait()                                        # line 56
    lock.release()


class TailPositionClaimer:
    """Claims tail position of its dispatch on its own say-so."""

    def __init__(self, sim):
        self.sim = sim

    def _receive(self, waiter):
        # Right name, wrong module: only the audited site may ask.
        self.sim.tail_call(waiter.fire)                        # line 68

    def fan_out(self, deliver, batch):
        self.sim.call_each(deliver, batch)                     # line 71
        self.sim.call_soon(self.done)   # ...and it was not even last

    def resuming_process(self, gate):
        # A generator frame carries on after the call: never tail position.
        gate._tail_trigger()                                   # line 76
        yield self.sim.timeout(1.0)
