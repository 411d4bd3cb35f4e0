"""A crash leaves no agent lock held by a process it ended, and no
recovery open.

Replays fault-matrix cells (the matrix's own plan and scenario
arguments).  In seed 0 × ``region2`` the crash of ``node0`` interrupts
the handler that holds a home key lock; its ``finally`` hands the slot
to the oldest waiter, a request the same crash also ends.  Unless the
kernel gives back a grant whose process dies before taking it up, the
slot is never returned: every later request for that key queues behind
nobody, times out, and re-declares a live node failed.
"""

import importlib.util
from pathlib import Path

from repro.core import ConcordSystem
from repro.session import Session
from repro.sim.errors import Interrupt

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "fault_matrix.py"


def _fault_matrix():
    spec = importlib.util.spec_from_file_location("fault_matrix", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_cell(seed: int, topology: str):
    return _fault_matrix().run_cell(seed, topology)


def _held_with_waiters(system) -> dict:
    """``(node, table, key) -> (in_use, queued)`` of every agent lock that
    is held while requests queue behind it."""
    stuck = {}
    for node_id, agent in sorted(system.agents.items()):
        for table in ("_key_locks", "_owner_locks"):
            for key, lock in sorted(getattr(agent, table).items()):
                if lock.in_use and lock.queue_length:
                    stuck[node_id, table, key] = (lock.in_use,
                                                  lock.queue_length)
    return stuck


def test_a_crash_leaks_no_home_key_lock():
    outcome = _run_cell(0, "region2")
    assert _held_with_waiters(outcome.system) == {}
    assert outcome.problems == []


def test_a_recovery_missing_a_dropped_ack_still_completes():
    """Seed 2 × ``flat`` drops ``node3``'s fire-and-forget ack for the
    crash of ``node0``.  ``node0`` rejoins within one RPC timeout, so
    its join's commit completes the recovery (a crash with no restart is
    re-asked instead: ``tests/core/test_recovery.py``)."""
    outcome = _run_cell(2, "flat")
    assert outcome.recoveries_completed >= 1
    assert outcome.problems == []


def test_an_interrupted_hand_off_gives_back_the_locks_it_took():
    """``pop_directory_entries_locked`` takes its keys' home locks one at
    a time.  Interrupted while it waits for the second, it must release
    the first: a request queued behind it would wait forever."""

    s = Session.compose(nodes=2, seed=3, scheme="nocache")
    sim = s.sim
    agent = ConcordSystem(s.cluster, app="app1").agents["node0"]
    first, second = (agent._lock(agent._key_locks, key)
                     for key in ("k1", "k2"))
    second.acquire()  # a home op holds k2: the hand-off stops there

    def hand_off_keys():
        try:
            yield from agent.pop_directory_entries_locked(["k1", "k2"])
        except Interrupt:
            pass

    hand_off = sim.spawn(hand_off_keys())
    sim.run(until=sim.now + 1.0)
    granted = []

    def request():
        yield first.acquire_wait()
        granted.append(sim.now)
        first.release()

    sim.spawn(request())
    sim.run(until=sim.now + 1.0)
    assert (first.in_use, first.queue_length) == (1, 1)
    hand_off.interrupt()
    sim.run(until=sim.now + 1.0)
    assert not hand_off.is_alive
    assert granted  # the queued request got k1
    assert (first.in_use, first.queue_length) == (0, 0)
    second.release()
