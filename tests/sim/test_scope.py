"""Scopes: what a process starts joins its scope, and a cancel ends it."""

import pytest

from repro.sim import Interrupt, Scope, Simulator


@pytest.fixture
def sim():
    return Simulator()


def _waiter(sim, log, name, delay=100.0):
    """Wait ``delay`` ms; log ``name`` when interrupted."""
    try:
        yield sim.sleep(delay)
    except Interrupt:
        log.append((name, sim.now))


def test_members_are_interrupted_in_join_order_children_first(sim):
    """A cancel interrupts the child scopes' members first (children in
    creation order), then its own, each set in join order — not in spawn
    order."""
    log = []
    scope = Scope()
    inner = scope.child("inner")
    spawned = {name: sim.spawn(_waiter(sim, log, name), name=name)
               for name in ("a", "b", "c", "d")}
    for name in ("c", "a"):
        scope.join(spawned[name])
    for name in ("d", "b"):
        inner.join(spawned[name])
    assert scope.members == [spawned["c"], spawned["a"]]
    sim.run(until=5.0)
    scope.cancel("test")
    sim.run()
    assert log == [("d", 5.0), ("b", 5.0), ("c", 5.0), ("a", 5.0)]
    assert scope.members == inner.members == []


def test_a_finished_member_leaves_without_a_wheel_entry(sim):
    """Leaving happens in the kernel's finish path: a run with every
    process in a scope schedules exactly the entries of the same run
    outside one."""
    def program(sim, scope):
        def worker(delay):
            yield sim.sleep(delay)
            return delay

        def parent():
            if scope is not None:
                scope.join(sim.active_process)
            children = [sim.spawn(worker(d)) for d in (1.0, 2.0, 0.0)]
            values = yield sim.all_of(children)
            return values

        process = sim.spawn(parent())
        sim.run()
        return process.value, sim.schedule_count

    scope = Scope()
    assert program(sim, scope) == program(Simulator(), None)
    assert scope.members == []


def test_a_child_inherits_its_spawners_scope(sim):
    scope = Scope()
    seen = {}

    def child():
        yield sim.sleep(1.0)

    def parent():
        seen["outside"] = sim.spawn(child())
        outer = scope.join(sim.active_process)
        seen["inside"] = sim.spawn(child())
        scope.leave(sim.active_process, outer)
        seen["after"] = sim.spawn(child())
        yield sim.sleep(0.5)
        seen["members"] = scope.members

    sim.spawn(parent())
    sim.run()
    assert seen["outside"].scope is None and seen["after"].scope is None
    assert seen["members"] == [seen["inside"]]
    assert seen["inside"].value is None and seen["inside"].scope is None


def test_cancelling_an_empty_scope_or_twice_does_nothing(sim):
    log = []
    scope = Scope()
    scope.child("empty")
    before = sim.schedule_count
    scope.cancel()
    assert sim.schedule_count == before
    scope.join(sim.spawn(_waiter(sim, log, "w")))
    sim.run(until=1.0)
    scope.cancel()
    after_first = sim.schedule_count
    scope.cancel()
    assert sim.schedule_count == after_first
    sim.run()
    assert log == [("w", 1.0)]


def test_a_member_may_cancel_its_own_scope(sim):
    """The canceller is interrupted at its next wait, in the same
    instant, and the wait it parked on no longer resumes it."""
    log = []
    scope = Scope()

    def canceller():
        yield sim.sleep(2.0)
        scope.cancel("self")
        try:
            yield sim.timeout(50.0)
        except Interrupt as interrupt:
            log.append(("canceller", sim.now, interrupt.cause))
        yield sim.sleep(100.0)
        log.append(("resumed", sim.now))

    scope.join(sim.spawn(canceller()))
    scope.join(sim.spawn(_waiter(sim, log, "other")))
    sim.run()
    assert log == [("canceller", 2.0, "self"), ("other", 2.0),
                   ("resumed", 102.0)]
    assert scope.members == []


def test_an_uncaught_cancel_is_an_end_not_a_failure(sim):
    """A member that does not catch the Interrupt, and whatever waited
    on it from inside the scope, end quietly: no daemon failure, nothing
    raised out of the run."""
    scope = Scope()

    def child():
        yield sim.sleep(100.0)

    def parent():
        yield sim.all_of([sim.spawn(child()), sim.spawn(child())])

    def daemon():
        yield sim.sleep(100.0)

    def start():
        scope.join(sim.active_process)
        sim.spawn(parent())
        sim.spawn(daemon(), daemon=True)
        yield sim.sleep(1.0)
        scope.cancel()

    sim.spawn(start())
    sim.run()
    assert sim.daemon_failures == []
    assert scope.members == []
