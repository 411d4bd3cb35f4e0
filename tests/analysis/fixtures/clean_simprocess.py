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
