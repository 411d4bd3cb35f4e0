"""Property suite: the event wheel pops in exact heap (time, seq) order.

The golden identity pins hold the simulator to byte-identical counters,
which reduces to one kernel invariant: :class:`repro.sim.wheel.EventWheel`
must hand back entries in exactly the order the old ``heapq`` scheduler did —
strictly increasing ``(time, seq)``, same-tick ties broken by schedule
order, cancelled entries silently skipped.  Hypothesis drives random
interleavings of pushes (zero-delay, slot-local, far-future), pops and
lazy cancellations against a plain ``heapq`` reference model.
"""

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.wheel import EventWheel  # noqa: E402

#: Delays covering every wheel path: the current-instant lane (0.0),
#: intra-slot ties (< 1.0 ms slot width), slot boundaries, multi-slot
#: hops and far-future timers (the heap-of-days fallback).
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.0, 64.0, 5000.0)


def _noop(_arg):
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wheel_pops_in_heap_order(data):
    wheel = EventWheel()
    reference: list = []       # heap of (time, seq)
    cancelled: set = set()     # (time, seq) cancelled before popping
    live: dict = {}            # (time, seq) -> wheel entry handle
    seq = 0
    now = 0.0
    popped = []
    expected = []

    def reference_pop():
        while reference:
            candidate = heapq.heappop(reference)
            if candidate not in cancelled:
                return candidate
        return None

    def wheel_pop():
        nonlocal now
        entry = wheel.pop(now)
        if entry is None:
            return None
        if entry[0] > now:
            now = entry[0]
        key = (entry[0], entry[1])
        live.pop(key, None)
        wheel.recycle(entry)
        return key

    for _ in range(data.draw(st.integers(min_value=10, max_value=120))):
        op = data.draw(st.sampled_from(("push", "push", "push", "pop",
                                        "cancel")))
        if op == "push":
            when = now + data.draw(st.sampled_from(DELAYS))
            handle = wheel.push(when, seq, now, fn=_noop)
            heapq.heappush(reference, (when, seq))
            live[(when, seq)] = handle
            seq += 1
        elif op == "cancel" and live:
            key = data.draw(st.sampled_from(sorted(live)))
            wheel.cancel(live.pop(key))
            cancelled.add(key)
        elif op == "pop":
            popped.append(wheel_pop())
            expected.append(reference_pop())

    assert len(wheel) == len(live)

    # Drain both completely; the total orders must match element-wise.
    while True:
        got = wheel_pop()
        want = reference_pop()
        popped.append(got)
        expected.append(want)
        if got is None and want is None:
            break

    assert popped == expected
    assert len(wheel) == 0
    assert not wheel


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.sampled_from(DELAYS), min_size=1, max_size=60))
def test_same_tick_entries_pop_fifo(delays):
    """Entries sharing a timestamp pop in push (seq) order."""
    wheel = EventWheel()
    now = 0.0
    for seq, delay in enumerate(delays):
        wheel.push(now + delay, seq, now, fn=_noop)
    order = []
    while True:
        entry = wheel.pop(now)
        if entry is None:
            break
        now = max(now, entry[0])
        order.append((entry[0], entry[1]))
        wheel.recycle(entry)
    assert order == sorted(order)
    assert len(order) == len(delays)
