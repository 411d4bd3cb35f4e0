"""Unit tests for the event primitives."""

import gc

import pytest

from repro.sim import Event, SimulationError, Simulator
from repro.sim.events import AnyOf
from repro.sim.process import Process


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_pending_event_not_triggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_value_raises_original(self, sim):
        ev = sim.event()
        ev.fail(KeyError("k"))
        assert not ev.ok
        with pytest.raises(KeyError):
            _ = ev.value

    def test_callbacks_run_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # callbacks deferred until processed
        sim.run()
        assert seen == ["x"]

    def test_unhandled_failure_propagates_from_run(self, sim):
        ev = sim.event()
        ev.fail(ValueError("unhandled"))
        with pytest.raises(ValueError):
            sim.run()

    def test_defused_failure_does_not_propagate(self, sim):
        ev = sim.event()
        ev.fail(ValueError("handled"))
        ev.defuse()
        sim.run()  # does not raise

    def test_trigger_like_copies_success(self, sim):
        a, b = sim.event(), sim.event()
        a.succeed(7)
        b.trigger_like(a)
        assert b.value == 7

    def test_trigger_like_copies_failure(self, sim):
        a, b = sim.event(), sim.event()
        a.fail(RuntimeError("r"))
        a.defuse()
        b.trigger_like(a)
        b.defuse()
        assert isinstance(b.exception, RuntimeError)


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        t = sim.timeout(5.0, value="done")
        sim.run()
        assert sim.now == 5.0
        assert t.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_leave_the_schedule_untouched(self, bad):
        """A rejected sleep, timeout or call_at schedules nothing: no
        sequence number spent, no phantom live entry that would turn a
        deadlock report into "step() on an empty schedule"."""
        sim = Simulator()
        outcomes = []

        def sleeper():
            with pytest.raises(ValueError):
                sim.sleep(bad)
            outcomes.append((sim.schedule_count, sim.peek()))
            yield sim.sleep(1.0)

        sim.spawn(sleeper())
        sim.run()
        # The bootstrap entry was dispatched; nothing else was scheduled.
        assert outcomes == [(1, float("inf"))]
        assert sim.peek() == float("inf")
        for schedule in (lambda: sim.timeout(bad),
                         lambda: sim.call_at(bad, print)):
            before = sim.schedule_count
            with pytest.raises(ValueError):
                schedule()
            assert sim.schedule_count == before
            assert sim.peek() == float("inf")

        def stuck_body():
            yield sim.event()  # never fires

        stuck = sim.spawn(stuck_body())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(stuck)

    def test_timeouts_order_deterministically(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).callbacks.append(
                lambda _e, d=delay: order.append(d)
            )
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(1.0).callbacks.append(lambda _e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_waits_for_all(self, sim):
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(3.0, "b")
        combined = sim.all_of([t1, t2])
        sim.run()
        assert combined.value == ["a", "b"]
        assert sim.now == 3.0

    def test_empty_fires_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered
        sim.run()
        assert combined.value == []

    def test_failure_of_child_fails_all(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        combined = sim.all_of([good, bad])
        bad.fail(RuntimeError("child"))
        combined.defuse()
        sim.run()
        assert isinstance(combined.exception, RuntimeError)

    def test_pre_triggered_children(self, sim):
        a = sim.event()
        a.succeed(1)
        b = sim.timeout(2.0, 2)
        combined = sim.all_of([a, b])
        sim.run()
        assert combined.value == [1, 2]

    def test_fired_all_of_holds_no_children(self, sim):
        combined = sim.all_of([sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
        assert len(combined._children) == 2
        sim.run()
        assert combined.value == ["a", "b"]
        assert combined._children is None

    def test_failed_all_of_holds_no_children(self, sim):
        bad = sim.event()
        combined = sim.all_of([sim.timeout(5.0), bad])
        bad.fail(RuntimeError("child"))
        combined.defuse()
        sim.run()
        assert combined._children is None


class TestAnyOf:
    def test_first_wins(self, sim):
        slow, fast = sim.timeout(10.0, "slow"), sim.timeout(1.0, "fast")
        race = sim.any_of([slow, fast])
        sim.run()
        assert race.value == "fast"
        assert race.first is fast

    def test_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_late_failure_is_defused(self, sim):
        fast = sim.timeout(1.0, "ok")
        late = sim.event()
        race = sim.any_of([fast, late])
        sim.run()
        late.fail(RuntimeError("late"))
        sim.run()  # must not raise
        assert race.value == "ok"

    def test_failed_first_child_fails_race(self, sim):
        bad = sim.event()
        slow = sim.timeout(5.0)
        race = sim.any_of([bad, slow])
        bad.fail(KeyError("x"))
        race.defuse()
        sim.run()
        assert isinstance(race.exception, KeyError)


def _finished_race_objects() -> int:
    """AnyOf events and finished processes alive anywhere on the heap."""
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, AnyOf)
               or (isinstance(obj, Process) and obj.triggered))


class TestDecidedRaceLetsGoOfItsLosers:
    """A long-lived event raced against many short processes (the
    ``any_of([rpc, removed:<peer>])`` idiom of core/agent.py) must not
    keep every finished race reachable: heap at quiescence is
    proportional to live work, not to races ever decided."""

    RACES = 1000

    def _race_all(self, sim, long_lived):
        def short(index):
            yield sim.timeout(1.0 + index % 7)
            return index

        def racer(index):
            call = sim.spawn(short(index))
            yield sim.any_of([call, long_lived])
            assert call.triggered and call.value == index

        for index in range(self.RACES):
            sim.spawn(racer(index))
        sim.run()

    def test_long_lived_loser_holds_constant_callbacks(self, sim):
        long_lived = sim.event("removed:peer")
        self._race_all(sim, long_lived)
        assert not long_lived.triggered
        assert len(long_lived.callbacks) <= 1

    def test_no_finished_race_survives_collection(self, sim):
        before = _finished_race_objects()
        long_lived = sim.event("removed:peer")
        self._race_all(sim, long_lived)
        # The event is still alive (and pending) right here; nothing that
        # finished may be reachable from it — or from anywhere else.
        assert _finished_race_objects() == before
        assert not long_lived.triggered

    def test_the_long_lived_event_can_still_win_later_races(self, sim):
        long_lived = sim.event("removed:peer")
        self._race_all(sim, long_lived)
        outcome = []

        def waiter():
            slow = sim.timeout(50.0, "slow")
            race = sim.any_of([slow, long_lived])
            outcome.append((yield race))
            outcome.append(race.first)

        sim.spawn(waiter())
        long_lived.succeed("gone")
        sim.run()
        assert outcome == ["gone", long_lived]

    def test_loser_failing_after_the_decision_is_defused(self, sim):
        # Pins the semantics the detach must keep (true before it too).
        fast = sim.timeout(1.0, "fast")
        late = sim.event()
        other = sim.event()
        races = [sim.any_of([fast, late]), sim.any_of([fast, late, other])]
        sim.run()
        assert [race.value for race in races] == ["fast", "fast"]
        assert all(race.first is fast for race in races)
        late.fail(RuntimeError("late"))
        sim.run()  # must not raise: the failure is defused

    def test_losers_share_one_defuser(self, sim):
        fast = sim.timeout(1.0, "fast")
        late = sim.event()
        races = [sim.any_of([fast, late]) for _ in range(5)]
        sim.run()
        assert all(race.triggered for race in races)
        assert len(late.callbacks) == 1  # not one per race lost

    def test_processed_sibling_decides_without_attaching_further(self, sim):
        done = sim.event()
        done.succeed("done")
        sim.run()
        pending_before, pending_after = sim.event(), sim.event()
        race = sim.any_of([pending_before, done, pending_after])
        assert race.triggered and race.first is done
        assert race._on_child not in pending_before.callbacks
        assert pending_after.callbacks == []
        sim.run()
        assert race.value == "done"

    def test_same_instant_losers_are_released_too(self, sim):
        first, second = sim.event(), sim.event()
        race = sim.any_of([first, second])
        first.succeed("first")
        second.succeed("second")  # triggered, not yet processed
        sim.run()
        assert race.value == "first" and race.first is first
        assert second.callbacks == []
