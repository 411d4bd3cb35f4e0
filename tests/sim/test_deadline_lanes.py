"""Deadline lanes: an answered call's deadline never reaches the wheel.

``Simulator.call_later(delay, fn, arg)`` is ``call_at(now + delay, ...)``
for a delay many calls share (DESIGN.md §12).  Its records queue in the
delay's FIFO lane and only the lane's head holds a wheel entry, carrying
the head's own ``(time, seq)``.  The contract pinned here: a live record
runs in exactly the slot its ``call_at`` twin would, a cancelled one is
never dispatched, the schedule count is the ``call_at`` path's, and a
drained ``run()`` ends on the clock the stale deadlines used to leave.
"""

from math import inf

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.net import Endpoint, Reply, RpcTimeout
from repro.net import rpc as rpc_module
from repro.sim import Simulator

#: Calls driven through one endpoint by the wheel-entry budget.
CALLS = 1000
#: Wheel entries a lane may hold, however many of its records are
#: pending.  Before lanes every call kept its deadline's entry for the
#: whole timeout: a thousand answered calls left a thousand entries.
ENTRIES_PER_LANE = 1


def _lane_entries(sim) -> int:
    """Live wheel entries that dispatch a lane."""
    wheel = sim._wheel
    entries = list(wheel._imm)
    for bucket in wheel._buckets.values():
        entries.extend(bucket)
    fires = {id(lane.fire) for lane in sim._lanes.values()}
    return sum(1 for entry in entries
               if entry[3] is not None and id(entry[3]) in fires)


def parent_deadlines(sim):
    """Run every ``call_later`` as the parent ran RPC deadlines: a
    ``call_at`` entry nothing removes.  The handle returned never lies
    ahead of the clock, so the endpoint never cancels it."""
    def call_later(delay, fn, arg=None):
        sim.call_at(sim.now + delay, fn, arg)
        return [-inf, None, None, None]

    sim.call_later = call_later
    return sim


def _rpc_world(service_ms=0.0):
    sim = Simulator()
    cluster = Cluster(sim, SimConfig(num_nodes=2, cores_per_node=2))
    client = Endpoint(cluster.network, "node0", "client")
    server = Endpoint(cluster.network, "node1", "server",
                      service_time_ms=service_ms,
                      cpu=cluster.node("node1").cores)

    def echo(endpoint, src, args):
        return Reply(args, size_bytes=8)
        yield  # pragma: no cover - makes this a generator

    server.register_handler("echo", echo)
    return sim, client


def test_an_answered_calls_deadline_callback_never_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(rpc_module._RpcWaiter, "_deadline",
                        lambda waiter, _arg=None: ran.append(waiter))
    sim, client = _rpc_world()
    answers = []

    def caller():
        for index in range(50):
            answers.append((yield from client.call(
                "node1/server", "echo", index, timeout=1000.0)))

    sim.spawn(caller())
    sim.run()
    assert answers == list(range(50))
    assert ran == []  # not even as a no-op, and the run has drained


def test_a_thousand_answered_calls_hold_one_wheel_entry_per_lane():
    sim, client = _rpc_world(service_ms=0.3)
    peak = []

    def caller(calls, timeout):
        for index in range(calls):
            yield from client.call("node1/server", "echo", index,
                                   timeout=timeout)
            peak.append(_lane_entries(sim))

    # Two lanes (two timeouts), calls overlapping in flight.
    for worker in range(4):
        sim.spawn(caller(CALLS // 4, 1000.0 if worker % 2 else 5000.0))
    sim.run(until=900.0)  # all answered, no deadline due yet
    assert len(peak) == CALLS
    assert len(sim._lanes) == 2
    assert max(peak) <= ENTRIES_PER_LANE * len(sim._lanes), (
        f"{max(peak)} lane entries in the wheel (budget "
        f"{ENTRIES_PER_LANE} per lane)")
    # Every record is still pending (the timeouts lie ahead), unanswered
    # by the wheel: the lanes hold them, not the heap.
    assert sum(len(lane.records) for lane in sim._lanes.values()) == CALLS


def _twins(build):
    """Run ``build(sim, later, log)`` once with ``later`` scheduling by
    call_later and once by call_at; return both (log, schedule count,
    clock) triples."""
    results = []
    for lanes in (True, False):
        sim = Simulator()
        log = []

        def note(tag, sim=sim, log=log):
            log.append((sim.now, tag))

        def later(delay, tag, sim=sim, lanes=lanes, note=note):
            if lanes:
                return sim.call_later(delay, note, tag)
            return sim.call_at(sim.now + delay, note, tag)

        build(sim, later, log)
        sim.run()
        results.append((log, sim.schedule_count, sim.now))
    return results


def test_a_live_record_fires_in_its_call_at_twins_slot():
    """Same-instant neighbours of lower and higher seq on both sides, two
    lanes, and a head whose successor is re-armed at the current instant
    (r2 goes back between b and c by seq, not to the end of the lane)."""
    def build(sim, later, log):
        def note(tag):
            return lambda _arg: log.append((sim.now, tag))

        sim.call_at(10.0, note("a"))
        later(10.0, "r1")
        sim.call_at(10.0, note("b"))
        later(10.0, "r2")
        sim.call_at(10.0, note("c"))

        def at_four(_arg):
            later(6.0, "r3")  # another lane, same instant, higher seq
            sim.call_at(10.0, note("d"))
            later(10.0, "r4")

        sim.call_at(4.0, at_four)

    (lanes, reference) = _twins(build)
    assert lanes == reference
    assert [tag for _, tag in lanes[0]] == [
        "a", "r1", "b", "r2", "c", "r3", "d", "r4"]
    assert lanes[2] == 14.0


def test_cancelling_the_armed_head():
    sim = Simulator()
    log = []
    head = sim.call_later(5.0, log.append, "head")
    assert _lane_entries(sim) == 1

    def later(_arg):
        sim.call_later(5.0, log.append, "second")  # time 6, behind head

    sim.call_at(1.0, later)
    sim.cancel(head)
    sim.cancel(head)  # idempotent
    sim.run(until=5.0)
    # The head's entry was dispatched at 5: it passed itself on unrun.
    assert log == [] and _lane_entries(sim) == 1
    assert sim.peek() == 6.0
    sim.run()
    assert log == ["second"] and sim.now == 6.0
    # A lone cancelled head still moves the clock, as a stale deadline
    # did, and leaves the lane empty; the next record arms afresh.
    sim.cancel(sim.call_later(5.0, log.append, "gone"))
    sim.run()
    assert sim.now == 11.0 and _lane_entries(sim) == 0
    sim.call_later(5.0, log.append, "fresh")
    sim.run()
    assert log == ["second", "fresh"] and sim.now == 16.0


def test_a_record_cancelled_at_its_own_instant_by_an_earlier_entry():
    sim = Simulator()
    log = []
    holder = []
    sim.call_at(3.0, lambda _arg: sim.cancel(holder[0]))
    holder.append(sim.call_later(3.0, log.append, "cancelled"))
    sim.call_later(3.0, log.append, "kept")
    sim.run()
    assert log == ["kept"]


def test_call_later_rejects_a_bad_delay():
    sim = Simulator()
    for delay in (-1.0, inf, float("nan")):
        with pytest.raises(ValueError):
            sim.call_later(delay, print)
    assert sim.schedule_count == 0


def _rpc_run(lanes: bool, down: bool):
    """Answered calls, calls to a node that never answers, a mid-call
    crash of the caller: the outcome log, schedule count and clock."""
    sim, client = _rpc_world(service_ms=0.3)
    if not lanes:
        parent_deadlines(sim)
    if down:
        sim._tail = 0
    log = []

    def caller(tag, dst, calls, gap):
        for index in range(calls):
            try:
                value = yield from client.call(dst, "echo", index,
                                               timeout=40.0)
                log.append((sim.now, tag, value))
            except RpcTimeout:
                log.append((sim.now, tag, "timeout"))
            yield sim.sleep(gap)

    sim.spawn(caller("ok", "node1/server", 30, 0.7))
    sim.spawn(caller("lost", "node1/absent", 3, 11.3))
    sim.spawn(caller("mixed", "node1/server", 10, 3.1))
    victim = sim.spawn(caller("interrupted", "node1/absent", 1, 0.0),
                       daemon=True)
    sim.call_at(7.0, lambda _arg: victim.interrupt("crash"))
    sim.run()
    return log, sim.schedule_count, sim.now, victim.is_alive


@pytest.mark.parametrize("down", [False, True])
def test_schedule_count_and_clock_match_the_call_at_path(down):
    lanes, reference = _rpc_run(True, down), _rpc_run(False, down)
    assert lanes == reference
    log, _count, now, _alive = lanes
    assert sum(1 for entry in log if entry[2] == "timeout") == 3
    # A drained run ends where the last (answered) call's deadline was
    # due: the last-record rule, not the last response.
    assert now > max(entry[0] for entry in log)


def test_an_interrupted_call_keeps_its_deadline():
    """The caller's node crashed mid-call: nothing answers, nothing
    cancels, and the deadline fires at its time and schedules the gate's
    processing, one entry, exactly as before lanes."""
    sim, client = _rpc_world()

    def caller():
        yield from client.call("node1/absent", "echo", 1, timeout=50.0)

    process = sim.spawn(caller(), daemon=True)
    sim.run(until=1.0)
    (waiter,) = client._pending.values()
    process.interrupt("crash")
    sim.run(until=49.0)
    assert not client._pending and not waiter.triggered
    before = sim.schedule_count
    sim.run()
    assert waiter.processed and sim.now == 50.0
    assert sim.schedule_count == before + 1


def test_a_dropped_record_can_let_one_more_hop_run_in_place():
    """The one schedule difference lanes make.  A cancelled record that
    is neither its lane's head nor its last is dropped unseen; its no-op
    entry used to sit in the current-instant lane of its instant.  An
    earlier entry of that instant asking for a tail-position hop found
    the lane occupied and paid the hop; now it runs it in place.  Same
    callbacks, same times, same order: one entry fewer."""
    def run(lanes: bool):
        sim = Simulator()
        log, cancelled, records = [], set(), {}

        def timer(tag):
            if tag not in cancelled:
                log.append((sim.now, tag))

        def later(tag):
            if lanes:
                records[tag] = sim.call_later(10.0, timer, tag)
            else:
                sim.call_at(sim.now + 10.0, timer, tag)

        def cancel(tag):
            if lanes:
                sim.cancel(records[tag])
            else:
                cancelled.add(tag)

        def hop(_arg):
            log.append((sim.now, "x"))
            sim.tail_call(lambda _arg: log.append((sim.now, "hop")))

        sim.call_at(11.0, hop)
        later("r0")                                  # due 10, the head
        sim.call_at(1.0, lambda _arg: later("r1"))   # due 11, with x
        sim.call_at(2.0, lambda _arg: later("r2"))   # due 12, the last
        sim.call_at(5.0, lambda _arg: cancel("r1"))
        sim.run()
        return log, sim.schedule_count, sim.now

    (log, count, now), reference = run(True), run(False)
    assert (log, now) == (reference[0], reference[2])
    assert log == [(10.0, "r0"), (11.0, "x"), (11.0, "hop"), (12.0, "r2")]
    assert count == reference[1] - 1
