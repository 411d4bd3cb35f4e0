"""The next-entry rule is order-exact: eliding a hop never reorders anything.

The kernel does not schedule a zero-delay wake-up that would be the very
next entry dispatched (DESIGN.md §12).  The oracle needs no second
kernel: with the tail-position flag held at 0 every hop is paid as a
schedule entry, which *is* the schedule from before the rule existed.  So the
differential here runs one random program twice — flag as found, flag
held down — and demands the identical ordered log.  Around it: the
entry budgets that make a re-added hop fail tier-1, and the corners the
rule has to respect (constructors, multi-waiter events, deep chains,
``step()`` / ``run_until_complete``).

The same programs also carry fixed-delay ``call_later`` timers, and a
second differential holds those to the schedule of the deadlines they
replaced: ``call_at`` entries that a cancellation leaves in the
schedule, to fire as no-ops (DESIGN.md §12, deadline lanes).

Tier-1 runs a fixed hundred programs.  The nightly job sets
``ELISION_EXAMPLES`` (a fresh seed then) and ``ELISION_ARTIFACTS``, a
directory that receives the failing program as JSON — Hypothesis replays
the minimised one last, so that is what is left there.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.faas.context import InvocationContext
from repro.net import Endpoint, Reply
from repro.obs import jsonl_dumps as obs_jsonl_dumps
from repro.session import Session
from repro.sim import Interrupt, Resource, SimulationError, Simulator
from repro.storage import DataItem

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_EXAMPLES = os.environ.get("ELISION_EXAMPLES")
_ARTIFACTS = os.environ.get("ELISION_ARTIFACTS")
_SETTINGS = (
    settings(max_examples=int(_EXAMPLES), deadline=None, print_blob=True)
    if _EXAMPLES else
    settings(max_examples=100, derandomize=True, deadline=None))


def hold_down(sim: Simulator) -> Simulator:
    """Every hop through the schedule from here on (test-side only)."""
    sim._tail = 0
    return sim


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

class Boom(Exception):
    pass


N_EVENTS = 3
CAPACITIES = (1, 2)

_delay = st.sampled_from((0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5))
#: call_later delays: a few, so timers share lanes, and the same instants
#: the other ops use, so lane heads meet same-instant neighbours.
_later_delay = st.sampled_from((0.0, 1.0, 1.0, 2.5))
#: When a call_later timer is cancelled: never, right away, halfway, or
#: at its own instant by an entry queued ahead of it or behind it.
_later_cancel = st.sampled_from(
    ("never", "never", "now", "before", "at_ahead", "at_behind"))
_event = st.integers(0, N_EVENTS - 1)
_resource = st.integers(0, len(CAPACITIES) - 1)

_later_op = st.tuples(st.just("later"), _later_delay, _event, _later_cancel)
_leaf_op = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("acquire"), _resource, st.lists(_delay, max_size=2)),
    st.tuples(st.just("acquire_event"), _resource, _delay),
    st.tuples(st.just("wait"), _event),
    st.tuples(st.just("fire"), _event),
    st.tuples(st.just("fire_later"), _event, _delay),
    # A timer cancelled at once: a dead entry (often a slot's head) that
    # every way of draining the schedule has to step over.
    st.tuples(st.just("cancel"), _event, st.sampled_from((0.5, 1.0, 3.0))),
    _later_op,
    st.tuples(st.just("fail"), _event),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("die")),
)
_child_body = st.lists(_leaf_op, max_size=4)
_awaited = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("event"), _event),
    st.tuples(st.just("child"), _child_body),
    st.tuples(st.just("done")),
    st.tuples(st.just("done")),
)
#: What a process does between building a combinator and yielding it —
#: the frame that called the constructor is still running, which is why
#: the constructor may never process in place.
_between = st.one_of(
    st.none(),
    st.tuples(st.just("fire"), _event),
    st.tuples(st.just("fire"), _event),
    st.tuples(st.just("spawn"), _child_body),
)
_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("spawn"), _child_body),
    st.tuples(st.just("join"), _child_body),
    st.tuples(st.just("any_of"),
              st.lists(_awaited, min_size=1, max_size=3), _between),
    st.tuples(st.just("all_of"), st.lists(_awaited, max_size=3), _between),
)
_program = st.lists(st.lists(_op, max_size=6), min_size=1, max_size=4)
#: Programs dense in timers, for the lane differential: lanes with many
#: records, heads re-armed among same-instant neighbours.
_timer_program = st.lists(
    st.lists(st.one_of(_op, _later_op, _later_op, _later_op), max_size=6),
    min_size=1, max_size=4)


class _World:
    """One run of a program: its simulator, shared objects and log.

    ``lanes=False`` runs every ``later`` timer the way RPC deadlines ran
    before ``call_later``: a ``call_at`` entry that cancelling does not
    remove — it fires at its time and does nothing.
    """

    def __init__(self, down: bool, lanes: bool = True):
        self.sim = Simulator(seed=0)
        if down:
            hold_down(self.sim)
        sim = self.sim
        self.lanes = lanes
        #: Per ``later`` timer: its call_later record (lanes) or None.
        self.timers: list = []
        #: Tokens of the cancelled timers (the call_at reference).
        self.cancelled: set = set()
        self.events = [sim.event(f"e{i}") for i in range(N_EVENTS)]
        self.resources = [Resource(sim, capacity, f"r{i}")
                          for i, capacity in enumerate(CAPACITIES)]
        #: Processed long before anybody can wait on it.
        self.done = sim.event("done").succeed("done")
        self.processes: list = []
        self.log: list = []

    def spawn(self, body):
        pid = len(self.processes)
        process = self.sim.spawn(self._run(pid, body), name=f"p{pid}",
                                 daemon=True)
        self.processes.append(process)
        return process

    def _fire(self, k) -> None:
        if not self.events[k].triggered:
            self.events[k].succeed(k)

    def _later(self, spec) -> None:
        token, k = spec
        if token in self.cancelled:
            return  # the reference's stale timer: fires, does nothing
        self.log.append((self.sim.now, "later", token))
        # The whole of its dispatch either way, so in tail position: the
        # hop runs in place only if nothing (a same-instant successor
        # record, say) is queued for this instant.
        self.sim.tail_call(self._later_hop, spec)

    def _later_hop(self, spec) -> None:
        self.log.append((self.sim.now, "hop", spec[0]))
        self._fire(spec[1])

    def _cancel_later(self, token) -> None:
        if self.lanes:
            self.sim.cancel(self.timers[token])
        else:
            self.cancelled.add(token)

    def _start_later(self, delay, k, cancel) -> None:
        sim = self.sim
        token = len(self.timers)
        if cancel == "at_ahead":
            sim.call_at(sim.now + delay, self._cancel_later, token)
        if self.lanes:
            self.timers.append(sim.call_later(delay, self._later, (token, k)))
        else:
            self.timers.append(None)
            sim.call_at(sim.now + delay, self._later, (token, k))
        if cancel == "now":
            self._cancel_later(token)
        elif cancel == "before":
            sim.call_at(sim.now + delay / 2, self._cancel_later, token)
        elif cancel == "at_behind":
            sim.call_at(sim.now + delay, self._cancel_later, token)

    def _awaited(self, spec):
        kind = spec[0]
        if kind == "timeout":
            return self.sim.timeout(spec[1], value="t")
        if kind == "event":
            return self.events[spec[1]]
        if kind == "child":
            return self.spawn(spec[1])
        return self.done

    def _run(self, pid, body):
        sim, log = self.sim, self.log
        for index, op in enumerate(body):
            try:
                note = yield from self._execute(pid, op)
            except Interrupt as interrupt:
                note = f"interrupted:{interrupt.cause}"
            except Boom:
                note = "boom"
            log.append((sim.now, pid, index, op[0], note))
            if op[0] == "die":
                raise Boom(pid)
        return pid

    def _execute(self, pid, op):
        sim = self.sim
        kind = op[0]
        if kind == "sleep":
            yield sim.sleep(op[1])
        elif kind == "timeout":
            return (yield sim.timeout(op[1], value="t"))
        elif kind == "acquire":
            resource = self.resources[op[1]]
            yield resource.acquire_wait()
            try:
                for delay in op[2]:
                    yield sim.sleep(delay)
            finally:
                resource.release()
        elif kind == "acquire_event":
            resource = self.resources[op[1]]
            yield resource.acquire()
            try:
                yield sim.sleep(op[2])
            finally:
                resource.release()
        elif kind == "wait":
            return (yield self.events[op[1]])
        elif kind == "fire":
            self._fire(op[1])
        elif kind == "fire_later":
            sim.call_at(sim.now + op[2], self._fire, op[1])
        elif kind == "cancel":
            sim.cancel(sim.call_at(sim.now + op[2], self._fire, op[1]))
        elif kind == "later":
            self._start_later(op[1], op[2], op[3])
        elif kind == "fail":
            event = self.events[op[1]]
            if not event.triggered:
                event.fail(Boom(op[1]))
                event.defuse()  # waiters still see it; nobody is no crash
        elif kind == "interrupt":
            target = self.processes[op[1] % len(self.processes)]
            if target is not self.processes[pid]:
                target.interrupt(pid)
        elif kind == "spawn":
            self.spawn(op[1])
        elif kind == "join":
            return (yield self.spawn(op[1]))
        elif kind in ("any_of", "all_of"):
            children = [self._awaited(spec) for spec in op[1]]
            combinator = (sim.any_of if kind == "any_of"
                          else sim.all_of)(children)
            if op[2] is not None:
                yield from self._execute(pid, op[2])
            value = yield combinator
            if kind == "any_of":
                return (children.index(combinator.first), value)
            return value
        return None


def run_program(program, down: bool, chunk_ms=None,
                stepped: bool = False, lanes: bool = True) -> dict:
    """Run ``program`` to the end: through ``run()`` (cut every
    ``chunk_ms`` if given) or, ``stepped``, one ``step()`` per entry."""
    world = _World(down, lanes)
    for body in program:
        world.spawn(body)
    sim = world.sim
    while sim.peek() != float("inf"):
        # An unhandled failure (a failed race whose waiter was interrupted
        # away) stops run(); where it does is part of the log.
        try:
            if stepped:
                sim.step()
            else:
                sim.run(until=None if chunk_ms is None
                        else sim.now + chunk_ms)
        except Boom as exc:
            world.log.append((sim.now, "crash", repr(exc)))
    return {
        "log": world.log,
        "now": sim.now,
        "entries": sim.schedule_count,
        "alive": [p.name for p in world.processes if p.is_alive],
        "failures": [(p.name, repr(exc)) for p, exc in sim.daemon_failures],
        "in_use": [r.in_use for r in world.resources],
        "queued": [r.queue_length for r in world.resources],
    }


def _save_failing(program, chunked, **flags) -> None:
    if _ARTIFACTS:
        os.makedirs(_ARTIFACTS, exist_ok=True)
        with open(os.path.join(_ARTIFACTS, "elision-failing-program.json"),
                  "w") as handle:
            json.dump({"program": program, "chunked": chunked, **flags},
                      handle, indent=1)


@_SETTINGS
@given(program=_program, chunked=st.booleans())
def test_elided_run_is_the_unelided_run_with_fewer_entries(program, chunked):
    try:
        # The chunked variant also cuts the elided run at clock boundaries
        # the reference never sees: run(until=...) must not notice
        # elision either.
        elided = run_program(program, down=False,
                             chunk_ms=0.75 if chunked else None)
        reference = run_program(program, down=True)
        assert elided["log"] == reference["log"]
        for key in ("alive", "failures", "in_use", "queued"):
            assert elided[key] == reference[key], key
        if not chunked:
            assert elided["now"] == reference["now"]
        assert elided["entries"] <= reference["entries"]
    except Exception:
        _save_failing(program, chunked)
        raise


@_SETTINGS
@given(program=_program, chunked=st.booleans())
def test_run_drains_the_wheel_exactly_like_step(program, chunked):
    """``run()`` dispatches an entry alone at its instant straight off
    the heap and drops a cancelled heap head unseen; ``step()`` moves
    every instant through the current-instant lane.  With the flag held
    down both dispatch the same entries in the same order."""
    try:
        ran = run_program(program, down=True,
                          chunk_ms=0.75 if chunked else None)
        stepped = run_program(program, down=True, stepped=True)
        assert ran["log"] == stepped["log"]
        assert ran["entries"] == stepped["entries"]
        if not chunked:  # run(until=...) leaves the clock at the cut
            assert ran["now"] == stepped["now"]
        for key in ("alive", "failures", "in_use", "queued"):
            assert ran[key] == stepped[key], key
    except Exception:
        _save_failing(program, chunked)
        raise


@_SETTINGS
@given(program=_timer_program, down=st.booleans(), chunked=st.booleans())
# Two records due at one instant: the second is re-armed while the first
# runs, so the first's tail-position hop must not run in place.
@example(program=[[("later", 1.0, 0, "never"), ("later", 1.0, 0, "never")]],
         down=False, chunked=False)
# ... and goes back among this instant's entries by seq, ahead of the
# sleep that was scheduled after it.
@example(program=[[("later", 0.0, 0, "never"), ("later", 0.0, 1, "never"),
                   ("sleep", 0.0)]], down=True, chunked=False)
def test_lane_timers_run_like_the_call_at_timers_they_replace(
        program, down, chunked):
    """Deadline lanes: every live ``call_later`` callback runs at the time
    and in the order its ``call_at`` twin ran, and so does everything
    else.  With the flag held down the schedule counts agree exactly (a
    record takes its seq where ``call_at`` took it); as found, a
    cancelled record that never reaches the schedule can leave the
    current-instant lane empty where its no-op entry did not, so at most
    an extra hop is elided."""
    try:
        lanes = run_program(program, down=down,
                            chunk_ms=0.75 if chunked else None)
        reference = run_program(program, down=down, lanes=False)
        assert lanes["log"] == reference["log"]
        for key in ("alive", "failures", "in_use", "queued"):
            assert lanes[key] == reference[key], key
        if not chunked:
            # The last-record rule: a drained run ends where the stale
            # timers left the clock.
            assert lanes["now"] == reference["now"]
        if down:
            assert lanes["entries"] == reference["entries"]
        else:
            assert lanes["entries"] <= reference["entries"]
    except Exception:
        _save_failing(program, chunked, down=down, lanes=True)
        raise


def test_the_lane_differential_exercises_cancelled_records():
    """Guard against a vacuous oracle: timers sharing a lane and an
    instant, cancelled every way, and one left live behind them."""
    program = [[("later", 1.0, 0, "never"), ("later", 1.0, 1, "now"),
                ("later", 1.0, 2, "at_ahead"), ("later", 1.0, 0, "never"),
                ("sleep", 0.5), ("later", 1.0, 1, "before"),
                ("later", 1.0, 2, "at_behind"), ("wait", 2)],
               [("later", 0.0, 1, "never"), ("later", 0.0, 2, "at_ahead"),
                ("sleep", 1.0), ("sleep", 0.0), ("fire", 2)]]
    lanes = run_program(program, down=True)
    reference = run_program(program, down=True, lanes=False)
    assert lanes["log"] == reference["log"]
    assert lanes["entries"] == reference["entries"]
    fired = [entry[2] for entry in lanes["log"] if entry[1] == "later"]
    # 1 (now), 2 and 5 (at, ahead) and 6 (before) are cancelled; 7 is
    # cancelled at its instant by an entry behind it, so it still runs.
    assert fired == [4, 0, 3, 7]


def test_a_protocol_session_is_the_unelided_session_with_fewer_entries():
    """The same oracle over the whole stack: a three-node Concord run with
    writes and reads gives the same recorder dump, ``AccessStats`` and
    version checks with the flag as found and held down."""
    def run(down: bool):
        session = Session(nodes=3, seed=9, scheme="concord", obs=True)
        if down:
            hold_down(session.sim)
        session.preload({f"k{i}": DataItem("v0", 64) for i in range(4)})
        for i in range(4):
            session.sim.spawn(session.system.write(
                "node0", f"k{i}", DataItem(f"v{i}", 64)))
            session.sim.spawn(session.system.read("node1", f"k{i}"))
            session.sim.spawn(session.system.read("node2", f"k{i}"))
        found = session.sim._tail
        session.sim.run(until=800.0)
        assert session.sim._tail == found  # restored as found
        session.close()
        stats = session.system.stats
        return (obs_jsonl_dumps(session.obs),
                {kind.value: (histogram.count, histogram.mean,
                              histogram.percentile(99))
                 for kind, histogram in stats.latency.items()},
                stats.version_checks,
                session.sim.schedule_count)

    elided, reference = run(False), run(True)
    assert elided[:3] == reference[:3]
    assert len(elided[1]) >= 3 and elided[0].count("\n") > 20
    assert elided[3] < reference[3]  # what was elided, and only that


def test_the_differential_exercises_elision():
    """Guard against a vacuous oracle: the sample program really elides."""
    program = [[("acquire", 0, [1.0]), ("join", [("sleep", 0.0)]),
                ("any_of", [("child", [("sleep", 0.5)]), ("event", 0)], None)],
               [("sleep", 2.5), ("acquire", 0, []), ("fire", 0)]]
    elided = run_program(program, down=False)
    reference = run_program(program, down=True)
    assert elided["log"] == reference["log"]
    assert elided["entries"] < reference["entries"]


# ---------------------------------------------------------------------------
# Corners of the rule
# ---------------------------------------------------------------------------

class TestTailPosition:
    def test_combinators_over_processed_children_keep_their_slot(self):
        """The constructor path: built inside a generator frame, so the
        hop is scheduled even though the lane is empty — the frame that
        built the combinator runs on first."""
        for build in (Simulator.any_of, Simulator.all_of):
            sim = Simulator()
            done = sim.event().succeed("v")
            sim.run()
            order = []

            def waiter(combinator):
                yield combinator
                order.append("combinator processed")

            def builder():
                yield sim.sleep(1.0)
                before = sim.schedule_count
                combinator = build(sim, [done])
                assert not combinator.processed
                assert sim.schedule_count == before + 1
                sim.spawn(waiter(combinator))
                order.append("builder went on")

            sim.spawn(builder())
            sim.run()
            assert order == ["builder went on", "combinator processed"]

    def test_only_the_last_waiter_of_an_event_runs_on_in_place(self):
        logs = {}
        for down in (False, True):
            sim = Simulator()
            if down:
                hold_down(sim)
            gate = sim.event()
            lock = Resource(sim, capacity=3)
            log = logs[down] = []

            def waiter(tag):
                yield gate
                log.append((tag, "woke"))
                yield lock.acquire_wait()
                log.append((tag, "granted"))
                lock.release()

            for tag in "abc":
                sim.spawn(waiter(tag))
            sim.run()
            gate.succeed()
            sim.run()
        assert logs[False] == logs[True] == [
            ("a", "woke"), ("b", "woke"), ("c", "woke"),
            ("a", "granted"), ("b", "granted"), ("c", "granted")]

    def test_flag_is_restored_not_set(self):
        sim = hold_down(Simulator())
        gate = sim.event()

        def waiter():
            yield gate

        for _ in range(2):
            sim.spawn(waiter())
        sim.run()
        gate.succeed()
        sim.run()  # a two-callback _process lowers and restores the flag
        sim.call_each(lambda _arg: None, [1, 2, 3])
        assert sim._tail == 0
        sim = Simulator()
        found = sim._tail
        assert found > 0

        def crash(_arg):
            raise Boom()

        with pytest.raises(Boom):
            sim.call_each(crash, [1, 2])
        with pytest.raises(Boom):
            sim.tail_call(crash)
        assert sim._tail == found

    def test_ten_thousand_process_wait_chain(self):
        """Each link finishes in place and wakes the next: the depth cap
        turns that recursion into scheduled hops before the stack notices."""
        sim = Simulator()

        def link(previous):
            if previous is None:
                yield sim.sleep(1.0)
                return 0
            return (yield previous) + 1

        process = None
        for _ in range(10_000):
            process = sim.spawn(link(process))
        sim.run()
        assert process.value == 9_999
        # 10 000 bootstraps, one sleep, and a paid hop per exhausted cap —
        # not the 10 000 completion events of the un-elided schedule.
        assert sim.schedule_count < 11_000

    def test_unhandled_failure_still_stops_the_run(self):
        for down in (False, True):
            sim = Simulator()
            if down:
                hold_down(sim)
            lock = Resource(sim)

            def doomed():
                yield lock.acquire_wait()
                raise Boom("unhandled")

            def bystander():
                yield sim.sleep(5.0)

            sim.spawn(doomed())
            late = sim.spawn(bystander())
            with pytest.raises(Boom):
                sim.run()
            assert sim.now == 0.0 and late.is_alive
            sim.run()  # the kernel is still usable afterwards
            assert sim.now == 5.0 and not late.is_alive


    def test_work_run_in_place_after_a_crash_does_not_inherit_it(self):
        """A crashed process is triggered after its ``except`` block has
        been left: what its waiters raise carries no ``__context__`` (whose
        traceback would keep the crashed frames alive), as when the
        failure is dispatched from the schedule."""
        for down in (False, True):
            sim = Simulator()
            if down:
                hold_down(sim)

            def crashing():
                yield sim.sleep(1.0)
                raise ValueError("crashed")

            def waiter_raises(_event):
                raise Boom("from the waiter")

            child = sim.spawn(crashing(), daemon=True)
            child.callbacks.append(waiter_raises)
            with pytest.raises(Boom) as caught:
                sim.run()
            assert caught.value.__context__ is None
            assert isinstance(child.exception, ValueError)


class TestSteppingApis:
    @staticmethod
    def _scenario(down):
        sim = Simulator()
        if down:
            hold_down(sim)
        lock = Resource(sim, capacity=2)
        log = []

        def worker(tag, hold):
            yield lock.acquire_wait()
            log.append((sim.now, tag, "in"))
            yield sim.sleep(hold)
            lock.release()
            log.append((sim.now, tag, "out"))
            return tag

        def main():
            first = sim.spawn(worker("a", 1.0))
            second = sim.spawn(worker("b", 2.0))
            third = sim.spawn(worker("c", 0.0))
            results = yield sim.all_of([first, second, third])
            log.append((sim.now, "main", tuple(results)))
            return results

        return sim, sim.spawn(main()), log

    def test_run_until_complete_returns_the_same_value_at_the_same_time(self):
        outcomes = []
        for down in (False, True):
            sim, main, log = self._scenario(down)
            value = sim.run_until_complete(main)
            sim.run()
            outcomes.append((value, sim.now, log))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ["a", "b", "c"]

    def test_step_is_one_entry_of_the_unelided_schedule(self):
        """step() hands control back after each dispatch, so nothing it
        runs is certain to be followed by the hop it asks for: it holds
        the flag down itself and elides nothing."""
        outcomes, steps = [], []
        for down in (False, True):
            sim, main, log = self._scenario(down)
            found = sim._tail
            count = 0
            while sim.peek() != float("inf"):
                sim.step()
                count += 1
            with pytest.raises(SimulationError):
                sim.step()
            assert sim._tail == found  # restored, also by the failed step
            assert count == sim.schedule_count
            outcomes.append((main.value, sim.now, log))
            steps.append(count)
        assert outcomes[0] == outcomes[1]
        assert steps[0] == steps[1]

    def test_driver_work_spawned_after_run_until_complete_keeps_its_turn(self):
        """run_until_complete returns when the process has its outcome,
        before its waiters resume; what the driver then spawns at that
        instant runs ahead of every hop those waiters go on to take —
        with elision under step() the parent would run through its free
        grants first."""
        logs = []
        for down in (False, True):
            sim = Simulator()
            if down:
                hold_down(sim)
            lock = Resource(sim)
            log = []

            def child():
                yield sim.sleep(1.0)
                return "done"

            def parent(awaited):
                value = yield awaited
                log.append((sim.now, "parent", value))
                for hop in range(3):
                    yield lock.acquire_wait()
                    lock.release()
                    log.append((sim.now, "parent", hop))

            def other():
                log.append((sim.now, "other", "start"))
                yield sim.sleep(0.0)
                log.append((sim.now, "other", "end"))

            awaited = sim.spawn(child())
            sim.spawn(parent(awaited))
            assert sim.run_until_complete(awaited) == "done"
            assert log == []  # the waiter has not resumed yet
            sim.spawn(other())
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert logs[0][:3] == [(1.0, "parent", "done"),
                               (1.0, "other", "start"),
                               (1.0, "parent", 0)]

    def test_deadlock_guard_still_fires(self):
        sim = Simulator()
        never = sim.event()

        def stuck():
            yield Resource(sim).acquire_wait()
            yield never

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(sim.spawn(stuck()))


# ---------------------------------------------------------------------------
# Entry budgets: a re-added hop fails here, on a count, not on a clock
# ---------------------------------------------------------------------------

def _entries_of(sim, operation, repeat=10):
    """Wheel entries per ``operation()`` run back to back in one process."""
    spent = []

    def driver():
        yield from operation()  # warm-up: installs, cold paths
        before = sim.schedule_count
        for _ in range(repeat):
            yield from operation()
        spent.append(sim.schedule_count - before)

    # Driven by run(): step() / run_until_complete() elide nothing.
    process = sim.spawn(driver())
    for _ in range(1200):
        if not process.is_alive:
            break
        sim.run(until=sim.now + 50.0)
    assert spent[0] % repeat == 0
    return spent[0] // repeat


class TestEntryBudget:
    def test_local_read_hit_is_one_entry(self):
        session = Session(nodes=2, seed=5, scheme="concord")
        session.preload({"k": DataItem("v", 64)})
        assert _entries_of(
            session.sim, lambda: session.system.read("node1", "k")) == 1
        session.close()

    def test_uncontended_compute_is_one_entry(self):
        sim = Simulator()
        cluster = Cluster(sim, SimConfig(num_nodes=1, cores_per_node=2))
        ctx = InvocationContext(sim, cluster.node("node0"), "app", "fn",
                                storage=None)
        assert _entries_of(sim, lambda: ctx.compute(3.0)) == 1

    def test_hops_asked_for_with_the_lane_occupied_are_paid(self):
        sim = Simulator()
        cluster = Cluster(sim, SimConfig(num_nodes=1, cores_per_node=1))
        node = cluster.node("node0")
        done = []

        def invocation(tag):
            ctx = InvocationContext(sim, node, "app", tag, storage=None)
            yield from ctx.compute(2.0)
            done.append((sim.now, tag))

        sim.spawn(invocation("first"))
        sim.spawn(invocation("second"))
        sim.run()
        assert done == [(2.0, "first"), (4.0, "second")]
        # Paid, because the lane was not empty when they were asked for:
        # first's free grant (second's bootstrap was queued behind it)
        # and first's completion (it had just handed second the core).
        # With 2 bootstraps, 2 sleeps and the queued grant's event: 7.
        assert sim.schedule_count == 7

    @pytest.mark.parametrize("service_ms, budget", [(0.0, 4), (1.2, 5)])
    def test_uncontended_cross_node_rpc_round_trip(self, service_ms, budget):
        """Request delivery, deadline, handler bootstrap, response
        delivery (+ the service slice when the agent charges one).  At
        the parent: three more — the handler's completion event and the
        two-hop response gate — plus the server-slot and core grants."""
        sim = Simulator()
        cluster = Cluster(sim, SimConfig(num_nodes=2, cores_per_node=2))
        network = cluster.network
        client = Endpoint(network, "node0", "client")
        server = Endpoint(network, "node1", "server",
                          service_time_ms=service_ms,
                          cpu=cluster.node("node1").cores)

        def echo(endpoint, src, args):
            return Reply(args, size_bytes=8)
            yield  # pragma: no cover - makes this a generator

        server.register_handler("echo", echo)
        assert _entries_of(
            sim, lambda: client.call("node1/server", "echo", 1,
                                     timeout=1000.0)) == budget
        assert server.scope.members == []


# ---------------------------------------------------------------------------
# One dispatch loop
# ---------------------------------------------------------------------------

def test_only_the_kernel_pops_the_wheel():
    """``Simulator.run`` / ``step()`` are the only code that dispatches
    schedule entries, so the elision contract above has no second loop
    to keep in step with: nothing else pops the current-instant lane
    (``_imm``) or ``heappop``s the heap (``_heap``)."""
    def names(node, *wanted):
        return ((isinstance(node, ast.Name) and node.id in wanted)
                or (isinstance(node, ast.Attribute) and node.attr in wanted))

    source = Path(__file__).resolve().parents[2] / "src" / "repro"
    popping = set()
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            lane_pop = (isinstance(node, ast.Attribute)
                        and node.attr in ("pop", "popleft")
                        and names(node.value, "imm", "_imm"))
            heap_pop = (isinstance(node, ast.Call)
                        and names(node.func, "heappop")
                        and node.args and names(node.args[0], "heap", "_heap"))
            if lane_pop or heap_pop:
                popping.add(path.relative_to(source).as_posix())
    assert popping == {"sim/simulator.py"}
