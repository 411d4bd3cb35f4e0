"""Clean twin of bad_simprocess.py: the same shapes done right; no SIM* finding."""


def good_yield_process(sim):
    yield sim.timeout(1.0)
    return 42


def reading_process(sim):
    # Reading the public clock / active process is what they are for.
    started = sim.now
    me = sim.active_process
    yield sim.timeout(sim.peek() - started if me is not None else 1.0)


class ClockReader:
    def __init__(self, sim):
        self.sim = sim
        self.now = 0.0          # a clock of its own is not the kernel's

    def sample(self):
        self.now = self.sim.now
        return self.now

    def wait_until(self, when):
        yield self.sim.timeout(max(0.0, when - self.sim.now))


class Stopwatch:
    """Not a simulator: storing to ``watch.now`` is nobody's business."""

    def reset(self, watch):
        watch.now = 0.0


def granted_process(sim, lock):
    yield lock.acquire_wait()
    try:
        yield sim.timeout(1.0)
    finally:
        lock.release()


def guarded_process(sim, lock):
    # The assigned form: the grant is yielded in the very next statement
    # (the kernel withdraws the wait if the process is interrupted in it).
    grant = lock.acquire_wait()
    yield grant
    try:
        yield sim.sleep(1.0)
    finally:
        lock.release()


class Batcher:
    """Several deliveries at one instant without claiming tail position:
    one entry each, so every delivery is the whole of its dispatch."""

    def __init__(self, sim):
        self.sim = sim
        self._tail = None       # an attribute of its own is not the kernel's

    def deliver_all(self, deliver, batch):
        for message in batch:
            self.sim.call_soon(deliver, message)

    def call_each(self, items):
        # A method of its own that happens to share the kernel's name.
        return [self.deliver_all(print, [item]) for item in items]

    def again(self, items):
        return self.call_each(items)
