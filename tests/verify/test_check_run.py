"""``check_run``: each rule names its planted defect, and a clean run is ``[]``."""

from repro.config import SimConfig
from repro.core.controller import AppController
from repro.core.recovery import RecoveryTracker
from repro.faults import FaultPlan, NodeCrash, NodeRestart, run_fault_scenario
from repro.session import Session
from repro.storage import DataItem
from repro.verify import check_run

LOAD_MS = 1000.0

#: ``node1`` fails, rejoins and fails again.
FAILS_TWICE = FaultPlan(events=(
    NodeCrash(at_ms=1000.0, node="node1"),
    NodeRestart(at_ms=2500.0, node="node1"),
    NodeCrash(at_ms=4500.0, node="node1"),
))


def _fail_twice():
    return run_fault_scenario(FAILS_TWICE, seed=0, num_nodes=4,
                              duration_ms=6000.0, rps=20.0, settle_ms=8000.0)


def _concord(**settings) -> Session:
    config = SimConfig(num_nodes=4, heartbeat_interval_ms=100.0,
                       heartbeat_misses=3)
    return Session.compose(config=config, seed=42, **settings)


def _loaded(until_ms: float) -> Session:
    s = _concord(apps=("SocNet",))
    s.sim.spawn(s.platform.open_loop("SocNet", 20.0, LOAD_MS,
                                     s.factories["SocNet"]), name="load")
    s.sim.run(until=until_ms)
    return s


def test_a_drained_run_is_clean():
    assert check_run(_loaded(LOAD_MS + 2000.0)) == []


def test_a_request_in_flight_at_the_cut():
    s = _loaded(LOAD_MS / 2)
    inflight = s.deployed["SocNet"].inflight
    assert inflight
    assert f"SocNet: {inflight} request(s) unfinished" in check_run(s)


def test_an_app_that_completed_nothing():
    assert check_run(_concord(apps=("SocNet",))) == [
        "SocNet: no request completed"]


def test_a_stale_cached_copy():
    s = _concord()
    s.preload({"k": DataItem("v0", 64)})
    s.read("node1", "k")
    s.preload({"k": DataItem("v1", 64)})  # behind the protocol's back
    assert any("stale copy of 'k'" in problem for problem in check_run(s))


def test_a_declared_live_node():
    s = _concord()
    s.coord.report_unreachable(s.app, "node2")
    s.advance(100.0)
    assert "node2 was declared failed but never crashed" in check_run(s)


def test_a_crash_never_declared():
    s = _concord(faults=FaultPlan(events=(
        NodeCrash(at_ms=100.0, node="node3"),)))
    s.injector.start()
    s.advance(101.0)  # crashed, not yet missed three heartbeats
    assert "node3 crashed but was never declared failed" in check_run(s)


def test_a_daemon_that_dies():
    s = _concord()

    def boom():
        yield s.sim.timeout(1.0)
        raise RuntimeError("planted")

    s.sim.spawn(boom(), name="boom", daemon=True)
    s.advance(10.0)
    assert "daemon boom died: RuntimeError: planted" in check_run(s)


def test_a_recovery_waiting_on_a_dropped_ack():
    s = _concord()
    survivor = s.system.agents["node2"]
    send = survivor.endpoint.notify

    def notify(dst, method, args=None, **kwargs):
        if method != "recovery_ack":
            send(dst, method, args, **kwargs)

    survivor.endpoint.notify = notify
    s.cluster.crash_node("node1")
    s.advance(2000.0)
    assert ("app: recovery of node1 still waits on acks from ['node2']"
            in check_run(s))


def test_a_barrier_left_up(monkeypatch):
    """A member that fails twice, with each declaration's own tracker
    taken away: the second recovery never completes, yet no recovery
    reads as open, and requests wait on the barrier for good."""
    def reused(self, member, declared_ms):
        return self._recoveries.setdefault(
            member, RecoveryTracker(member, declared_ms))

    monkeypatch.setattr(AppController, "_tracker", reused)
    outcome = _fail_twice()
    assert outcome.recoveries_completed == 1
    barriers = [f"SocNet: {node} still holds the barrier of ['node1']"
                for node in ("node0", "node2", "node3")]
    assert [problem for problem in outcome.problems
            if "barrier" in problem or "recovery" in problem] == barriers


def test_a_member_failing_twice_recovers_twice():
    outcome = _fail_twice()
    assert outcome.recoveries_completed == 2
    assert outcome.problems == []
