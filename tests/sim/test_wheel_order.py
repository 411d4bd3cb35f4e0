"""Property suite: the schedule pops in exact heap (time, seq) order.

The golden identity pins hold the simulator to byte-identical counters,
which reduces to one kernel invariant: :class:`repro.sim.Simulator` must
dispatch entries in exactly the order a plain ``heapq`` of ``(time,
seq)`` gives — strictly increasing ``(time, seq)``, same-instant ties
broken by schedule order, cancelled entries silently skipped.  Hypothesis
drives random interleavings of ``call_at`` pushes (zero-delay, sub-ms,
far-future), ``step()`` dispatches and lazy cancellations — of pending
entries, and of entries that already ran or were cancelled before, which
must change nothing — against that reference model, and drains the rest
through ``step()`` or ``run()``.
"""

import heapq
from math import inf

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import Simulator, SimulationError  # noqa: E402

#: Delays covering every schedule path: the current-instant lane (0.0),
#: sub-millisecond ties, instants shared by several entries, and
#: far-future timers.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.0, 64.0, 5000.0)


class _Model:
    """A ``heapq`` of ``(time, seq)`` with lazy cancellation."""

    def __init__(self):
        self.heap: list = []
        self.cancelled: set = set()

    def push(self, key) -> None:
        heapq.heappush(self.heap, key)

    def cancel(self, key) -> None:
        self.cancelled.add(key)

    def _drop_dead(self) -> None:
        while self.heap and self.heap[0] in self.cancelled:
            heapq.heappop(self.heap)

    def peek(self) -> float:
        self._drop_dead()
        return self.heap[0][0] if self.heap else inf

    def pop(self):
        self._drop_dead()
        return heapq.heappop(self.heap) if self.heap else None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wheel_pops_in_heap_order(data):
    sim = Simulator()
    model = _Model()
    ran: list = []        # keys in dispatch order
    live: dict = {}       # key -> entry handle, not yet run or cancelled
    spent: list = []      # handles that ran or were cancelled
    popped, expected = [], []

    def step():
        if sim.peek() == inf:
            return None
        sim.step()
        key = ran[-1]
        spent.append(live.pop(key))
        return key

    for _ in range(data.draw(st.integers(min_value=10, max_value=120))):
        op = data.draw(st.sampled_from(("push", "push", "push", "pop",
                                        "cancel", "cancel_spent")))
        if op == "push":
            when = sim.now + data.draw(st.sampled_from(DELAYS))
            key = (when, sim.schedule_count)
            live[key] = sim.call_at(when, ran.append, key)
            model.push(key)
        elif op == "pop":
            popped.append(step())
            expected.append(model.pop())
        elif op == "cancel" and live:
            key = data.draw(st.sampled_from(sorted(live)))
            handle = live.pop(key)
            sim.cancel(handle)
            spent.append(handle)
            model.cancel(key)
        elif op == "cancel_spent" and spent:
            # Already run, or cancelled before: a no-op.
            sim.cancel(data.draw(st.sampled_from(spent)))
        assert sim.peek() == model.peek()

    # Drain both completely; the total orders must match element-wise.
    if data.draw(st.booleans()):
        while True:
            got, want = step(), model.pop()
            popped.append(got)
            expected.append(want)
            if got is None and want is None:
                break
    else:
        before = len(ran)
        sim.run()
        popped.extend(ran[before:])
        while (want := model.pop()) is not None:
            expected.append(want)
    assert popped == expected
    assert sim.peek() == inf
    with pytest.raises(SimulationError):
        sim.step()


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.sampled_from(DELAYS), min_size=1, max_size=60))
def test_same_tick_entries_pop_fifo(delays):
    """Entries sharing a timestamp pop in push (seq) order."""
    sim = Simulator()
    order = []
    for seq, delay in enumerate(delays):
        sim.call_at(delay, order.append, (delay, seq))
    sim.run()
    assert order == sorted(order)
    assert len(order) == len(delays)


def _two_timers(sim, log):
    """One entry at the current instant, one in the heap."""
    return (sim.call_soon(log.append, "soon"),
            sim.call_at(5.0, log.append, "later"))


def test_cancelling_an_entry_that_ran_is_a_no_op():
    sim = Simulator()
    log = []
    soon, later = _two_timers(sim, log)
    sim.step()
    assert log == ["soon"]
    sim.cancel(soon)
    sim.call_soon(log.append, "after")
    assert sim.peek() == 0.0
    sim.run()
    assert log == ["soon", "after", "later"]
    sim.cancel(later)
    assert sim.peek() == inf
    assert sim.now == 5.0


def test_cancelling_twice_is_a_no_op():
    sim = Simulator()
    log = []
    soon, later = _two_timers(sim, log)
    tail = sim.call_at(7.0, log.append, "tail")
    for handle in (soon, soon, later, later):
        sim.cancel(handle)
    assert sim.peek() == 7.0
    count = sim.schedule_count
    sim.run()
    assert log == ["tail"]
    assert sim.now == 7.0
    assert sim.schedule_count == count
    sim.cancel(tail)
    assert sim.peek() == inf


def test_a_schedule_of_cancelled_entries_is_drained():
    """No residue: what only cancelled entries are left in is a drained
    schedule to ``peek``, ``step`` and ``run_until_complete``, and the
    clock stays where the last live entry left it."""
    sim = Simulator()
    log = []
    for handle in _two_timers(sim, log):
        sim.cancel(handle)
        sim.cancel(handle)
    assert sim.peek() == inf
    with pytest.raises(SimulationError, match="empty schedule"):
        sim.step()

    def stuck():
        yield sim.event()

    process = sim.spawn(stuck())
    sim.cancel(sim.call_at(3.0, log.append, "dead"))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)
    sim.run()
    assert log == [] and sim.now == 0.0
