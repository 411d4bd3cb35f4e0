"""Fail-fast RPC semantics: calls to dead nodes get PeerDown, not a timeout.

When the fault injector arms ``Network.fail_fast``, a request addressed
to a crashed node is answered with a connection-reset-style
:class:`~repro.net.rpc.PeerDown` after one propagation delay instead of
silently waiting out the full RPC timeout.  ``PeerDown`` subclasses
``RpcTimeout`` so every existing timeout handler treats it as retriable.
"""

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.faults import FaultInjector, FaultPlan, NodeCrash
from repro.net import Endpoint, Reply
from repro.net.rpc import RPC_TIMEOUT_MS, PeerDown, RpcTimeout
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=11)


@pytest.fixture
def cluster(sim):
    return Cluster(sim, SimConfig(num_nodes=3, cores_per_node=1))


def echo_handler(endpoint, src, args):
    return Reply(args)
    yield  # pragma: no cover - generator marker


def call_once(sim, client, address, **kwargs):
    """Run one call; returns (outcome, exception_or_value, finish_time)."""

    def caller(sim):
        try:
            value = yield from client.call(address, "echo", "hi", **kwargs)
        except RpcTimeout as exc:
            return ("error", exc, sim.now)
        return ("ok", value, sim.now)

    process = sim.spawn(caller(sim))
    sim.run()
    return process.value


class TestPeerDown:
    def test_is_a_retriable_timeout(self):
        assert issubclass(PeerDown, RpcTimeout)

    def test_call_to_crashed_node_fails_fast(self, sim, cluster):
        Endpoint(cluster.network, "node1", "svc").register_handler(
            "echo", echo_handler)
        client = Endpoint(cluster.network, "node0", "svc")
        # The injector arms fail_fast and crashes node1 at t=10.
        FaultInjector(cluster, FaultPlan(events=(
            NodeCrash(at_ms=10.0, node="node1"),
        ))).start()
        sim.run(until=20.0)

        outcome, exc, when = call_once(sim, client, "node1/svc")
        assert outcome == "error"
        assert isinstance(exc, PeerDown)
        # One propagation delay, not the 5000 ms library timeout.
        assert when - 20.0 < RPC_TIMEOUT_MS / 10

    def test_without_fail_fast_the_same_call_times_out(self, sim, cluster):
        Endpoint(cluster.network, "node1", "svc").register_handler(
            "echo", echo_handler)
        client = Endpoint(cluster.network, "node0", "svc")
        cluster.crash_node("node1")
        assert cluster.network.fail_fast is False

        outcome, exc, when = call_once(sim, client, "node1/svc", timeout=300.0)
        assert outcome == "error"
        assert not isinstance(exc, PeerDown)
        assert when == pytest.approx(300.0)

    def test_crash_resets_in_flight_calls(self, sim, cluster):
        server = Endpoint(cluster.network, "node1", "svc")

        def never_replies(endpoint, src, args):
            yield endpoint.sim.timeout(10_000.0)
            return Reply("too late")

        server.register_handler("echo", never_replies)
        client = Endpoint(cluster.network, "node0", "svc")
        cluster.network.fail_fast = True

        def crasher(sim):
            yield sim.timeout(50.0)
            cluster.crash_node("node1")

        sim.spawn(crasher(sim), name="crasher", daemon=True)
        outcome, exc, when = call_once(sim, client, "node1/svc")
        assert outcome == "error"
        assert isinstance(exc, PeerDown)
        # Failed at the crash (plus one propagation delay), not at the
        # 5000 ms timeout and certainly not at the handler's 10 s sleep.
        assert when < 100.0
