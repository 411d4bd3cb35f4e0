"""Unit tests for the coordination service."""

import pytest

from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.coord.service import ping_handler
from repro.net import Endpoint, Network
from repro.obs import FlightRecorder
from repro.obs.events import MEMBER_DECLARE
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def config():
    return SimConfig(heartbeat_interval_ms=100.0, heartbeat_misses=3)


@pytest.fixture
def net(sim, config):
    return Network(sim, config.latency)


def make_member(net, node_id):
    """A member endpoint that answers pings and records notifications."""
    ep = Endpoint(net, node_id, "agent")
    ep.events = []
    ep.register_handler("ping", ping_handler)

    def on_membership(endpoint, src, event):
        ep.events.append(event)
        return None
        yield  # pragma: no cover

    ep.register_handler("membership", on_membership)
    return ep


class TestMembership:
    def test_join_and_members(self, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        coord.join("app1", "node0", "node0/agent")
        coord.join("app1", "node1", "node1/agent")
        assert coord.members("app1") == {
            "node0": "node0/agent", "node1": "node1/agent",
        }

    def test_join_notifies_existing_members(self, sim, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        m0 = make_member(net, "node0")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", "node1/agent")
        sim.run()
        assert [e.kind for e in m0.events] == ["joined"]
        assert m0.events[0].member == "node1"

    def test_duplicate_join_is_noop(self, sim, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        m0 = make_member(net, "node0")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node0", m0.address)
        sim.run()
        assert m0.events == []

    def test_leave_notifies_survivors(self, sim, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        m0 = make_member(net, "node0")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", "node1/agent")
        sim.run()
        coord.leave("app1", "node1")
        sim.run()
        kinds = [e.kind for e in m0.events]
        assert kinds == ["joined", "left"]

    def test_leave_unknown_member_is_noop(self, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        coord.leave("app1", "ghost")  # no exception

    def test_groups_are_isolated(self, sim, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        m0 = make_member(net, "node0")
        coord.join("app1", "node0", m0.address)
        coord.join("app2", "node1", "node1/agent2")
        coord.leave("app2", "node1")
        sim.run()
        assert m0.events == []  # app1 member never hears about app2


class TestFailureDetection:
    def test_crashed_member_is_detected(self, sim, net, config):
        coord = CoordinationService(net, config)
        m0 = make_member(net, "node0")
        m1 = make_member(net, "node1")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", m1.address)
        sim.run(until=500.0)
        net.fail_node("node1")
        sim.run(until=3000.0)
        assert coord.members("app1") == {"node0": m0.address}
        fails = [e for e in m0.events if e.kind == "failed"]
        assert len(fails) == 1
        assert fails[0].member == "node1"

    def test_detection_latency_within_budget(self, sim, net, config):
        coord = CoordinationService(net, config)
        m0 = make_member(net, "node0")
        m1 = make_member(net, "node1")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", m1.address)
        sim.run(until=200.0)
        net.fail_node("node1")
        crash_time = sim.now
        sim.run(until=5000.0)
        assert coord.failures_detected
        detected_at = coord.failures_detected[0][0]
        # Misses accumulate over ~3 heartbeat rounds + probe timeouts.
        budget = config.heartbeat_interval_ms * (config.heartbeat_misses + 2)
        assert detected_at - crash_time <= budget

    def test_healthy_members_not_declared_failed(self, sim, net, config):
        coord = CoordinationService(net, config)
        m0 = make_member(net, "node0")
        m1 = make_member(net, "node1")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", m1.address)
        sim.run(until=5000.0)
        assert coord.failures_detected == []
        assert set(coord.members("app1")) == {"node0", "node1"}

    def test_only_affected_groups_notified(self, sim, net, config):
        coord = CoordinationService(net, config)
        m0 = make_member(net, "node0")   # app1 only
        m2 = make_member(net, "node2")   # app2 only
        failing = make_member(net, "node1")  # app1 only
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", failing.address)
        coord.join("app2", "node2", m2.address)
        sim.run(until=200.0)
        net.fail_node("node1")
        sim.run(until=3000.0)
        assert any(e.kind == "failed" for e in m0.events)
        assert not any(e.kind == "failed" for e in m2.events)

    def test_report_unreachable_is_immediate(self, sim, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        m0 = make_member(net, "node0")
        coord.join("app1", "node0", m0.address)
        coord.join("app1", "node1", "node1/agent")
        coord.report_unreachable("app1", "node1")
        sim.run()
        assert coord.members("app1") == {"node0": m0.address}
        assert any(e.kind == "failed" for e in m0.events)

    def test_report_unreachable_unknown_member_noop(self, net, config):
        coord = CoordinationService(net, config, run_heartbeats=False)
        coord.join("app1", "node0", "node0/agent")
        coord.report_unreachable("app1", "ghost")
        assert coord.members("app1") == {"node0": "node0/agent"}


class TestDeclareEvent:
    """Each failure declaration is recorded once, as ``member.declare``."""

    @staticmethod
    def wired(config, run_heartbeats):
        recorder = FlightRecorder()
        net = Network(Simulator(obs=recorder), config.latency)
        coord = CoordinationService(net, config, run_heartbeats=run_heartbeats)
        return net, coord, recorder

    @staticmethod
    def declarations(recorder):
        return [(event.t, event.attrs["app"], event.attrs["member"])
                for event in recorder.events() if event.type == MEMBER_DECLARE]

    def test_heartbeat_path(self, config):
        net, coord, recorder = self.wired(config, run_heartbeats=True)
        for node_id in ("node0", "node1"):
            coord.join("app1", node_id, make_member(net, node_id).address)
        net.sim.run(until=500.0)
        net.fail_node("node1")
        net.sim.run(until=3000.0)
        assert [member for _, _, member in coord.failures_detected] == [
            "node1"]
        assert self.declarations(recorder) == coord.failures_detected

    def test_report_unreachable_path(self, config):
        net, coord, recorder = self.wired(config, run_heartbeats=False)
        for app in ("app1", "app2"):
            for node_id in ("node0", "node1"):
                coord.join(app, node_id, f"{node_id}/{app}")
        coord.report_unreachable("app1", "node1")
        coord.report_unreachable("app2", "node1")  # already declared
        net.sim.run()
        assert [app for _, app, _ in coord.failures_detected] == [
            "app1", "app2"]
        assert self.declarations(recorder) == coord.failures_detected
