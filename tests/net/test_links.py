"""The fabric's links: what one (src node, dst node) pair must keep.

``Network`` makes one link per ordered node pair and every endpoint keeps
the links it sends on, so the contract below is the pair's, not an
endpoint's: one FIFO clock for every service on the two nodes, for an
endpoint re-created there too, and one cross-region count per message.
The fail-fast reject of a request to a down node is the fabric's own,
installed fault rules or not.
"""

import pytest

from repro.config import LatencyModel
from repro.net import Endpoint, Message, Network
from repro.net.regions import RegionTopology
from repro.net.rpc import PeerDown
from repro.sim import Simulator

BIG = 512 * 1024


@pytest.fixture
def sim():
    return Simulator(seed=3)


@pytest.fixture
def net(sim):
    return Network(sim, LatencyModel())


def sink(net, node, service, log):
    """An endpoint that logs ``(kind, arrival ms)`` of what it receives."""
    endpoint = Endpoint(net, node, service)
    endpoint._receive = lambda m: log.append((m.kind, net.sim.now))
    return endpoint


def test_services_on_one_node_pair_share_one_fifo_clock(sim, net):
    log = []
    sink(net, "node1", "b", log)
    sink(net, "node1", "d", log)
    Endpoint(net, "node0", "a")
    Endpoint(net, "node0", "c")
    net.send(Message("node0/c", "node1/d", "big", "x", BIG))
    net.send(Message("node0/a", "node1/b", "small", "y", 1))
    sim.run()
    big_at = net.latency.one_way(BIG)
    # Other services, same two nodes: the small message waits its turn.
    assert log == [("big", big_at), ("small", big_at)]
    assert net.link("node0/a", "node1/b") is net.link("node0/c", "node1/d")


def test_fail_fast_without_fault_rules_rejects_a_request_to_a_down_node(
        sim, net):
    Endpoint(net, "node1", "svc")
    client = Endpoint(net, "node0", "svc")
    net.fail_fast = True
    net.fail_node("node1")
    assert net.faults is None
    outcome = []

    def caller():
        try:
            yield from client.call("node1/svc", "echo", "hi")
        except PeerDown as exc:
            outcome.append((exc.dst, sim.now))

    sim.spawn(caller())
    sim.run(until=100.0)
    # Reset after one propagation delay, not the call's 5000 ms budget.
    assert outcome == [("node1/svc", net.latency.one_way(0))]
    assert net.stats.dropped == 1 and net.stats.messages == 0


def test_cross_region_counts_each_ordered_pair_once_per_message(sim):
    topology = RegionTopology.even(["node0", "node1", "node2"],
                                   extra_rtt_ms=60.0)  # east, west, east
    net = Network(sim, LatencyModel(), topology=topology)
    log = []
    sink(net, "node1", "svc", log)
    sink(net, "node2", "svc", log)
    sink(net, "node0", "in", log)
    Endpoint(net, "node0", "svc")
    Endpoint(net, "node1", "out")
    for kind in ("ew-1", "ew-2"):
        net.send(Message("node0/svc", "node1/svc", kind, "x", 0))
    net.send(Message("node1/out", "node0/in", "we", "x", 0))
    net.send(Message("node0/svc", "node2/svc", "ee", "x", 0))  # one region
    net.send(Message("node0/svc", "node0/in", "local", "x", 0))
    sim.run()
    assert net.cross_region == {("east", "west"): 2, ("west", "east"): 1}
    one_way = net.latency.one_way(0)
    assert sorted(log) == sorted([
        ("ew-1", one_way + 30.0), ("ew-2", one_way + 30.0),
        ("we", one_way + 30.0), ("ee", one_way), ("local", 0.0)])


def test_an_endpoint_recreated_on_a_restarted_node_keeps_the_fifo_floor(
        sim, net):
    log = []
    sink(net, "node1", "svc", log)
    before = Endpoint(net, "node0", "svc")
    before.notify("node1/svc", "big", size_bytes=BIG)
    # node0 restarts while the big message is in flight, and its service
    # comes back as a new endpoint at the same address.
    net.fail_node("node0")
    before.close()
    net.restore_node("node0")
    after = Endpoint(net, "node0", "svc")
    after.notify("node1/svc", "small", size_bytes=1)
    sim.run()
    big_at = net.latency.one_way(BIG)
    assert log == [("big", big_at), ("small", big_at)]
