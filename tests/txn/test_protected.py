"""Tests for protected (escalated) transaction execution."""

import pytest

from repro.config import SimConfig
from repro.session import Session
from repro.storage import DataItem
from repro.txn import ConcordTxnRuntime
from repro.txn.manager import TxnContext


@pytest.fixture
def session():
    return Session.compose(config=SimConfig(num_nodes=4), seed=77, app="prot")


@pytest.fixture
def sim(session):
    return session.sim


@pytest.fixture
def cluster(session):
    return session.cluster


@pytest.fixture
def concord(session):
    return session.system


@pytest.fixture
def runtime(concord):
    return ConcordTxnRuntime(concord)


def V(tag):
    return DataItem(tag, 128)


class TestProtection:
    def test_escalated_txn_cannot_be_squashed(self, sim, cluster, runtime, concord):
        """Force escalation via the internal threshold, then verify a
        hostile plain writer waits rather than squashing."""
        cluster.storage.preload({"x": V("x0")})
        runtime.ESCALATION_THRESHOLD = 0  # first attempt is escalated
        plain_done = []

        def txn_body(txn):
            yield from txn.write("x", V("x-final"))
            yield txn.runtime.sim.timeout(100.0)  # long speculation window
            return "ok"

        def hostile(sim):
            yield sim.timeout(20.0)
            yield from concord.write("node2", "x", V("hostile"))
            plain_done.append(sim.now)

        txn_proc = sim.spawn(runtime.run("node0", txn_body))
        sim.spawn(hostile(sim))
        sim.run(until=sim.now + 60_000.0)
        assert txn_proc.value == "ok"
        assert runtime.aborts == 0  # never squashed
        assert plain_done  # the hostile writer eventually proceeded
        # The hostile write was serialized after the txn's commit.
        assert cluster.storage.peek("x").value == V("hostile")

    def test_local_access_waits_for_protected_txn(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"y": V("y0")})
        runtime.ESCALATION_THRESHOLD = 0
        observed = []

        def txn_body(txn):
            yield from txn.write("y", V("y-committed"))
            yield txn.runtime.sim.timeout(80.0)
            return "done"

        def local_reader(sim):
            yield sim.timeout(10.0)
            value = yield from concord.read("node0", "y")
            observed.append((sim.now, value))

        sim.spawn(runtime.run("node0", txn_body))
        sim.spawn(local_reader(sim))
        sim.run(until=sim.now + 60_000.0)
        when, value = observed[0]
        # The reader either serialized before the transaction (old value)
        # or waited for the commit — it must never observe the speculative
        # value while the transaction is still open (commit is at ~80ms+).
        if value == V("y-committed"):
            assert when > 80.0
        else:
            assert value == V("y0")

    def test_two_escalated_txns_serialize(self, sim, cluster, runtime):
        cluster.storage.preload({"z": V("z0")})
        runtime.ESCALATION_THRESHOLD = 0
        order = []

        def make_body(tag):
            def body(txn):
                value = yield from txn.read("z")
                yield txn.runtime.sim.timeout(30.0)
                yield from txn.write("z", V(tag))
                order.append((tag, value.payload))
                return tag
            return body

        p1 = sim.spawn(runtime.run("node0", make_body("first")))
        p2 = sim.spawn(runtime.run("node1", make_body("second")))
        sim.run(until=sim.now + 120_000.0)
        assert p1.triggered and p2.triggered
        assert runtime.commits == 2
        # The second to run observed the first one's committed value.
        later = order[1]
        assert later[1] in ("first", "second", "z0")
        assert len({o[0] for o in order}) == 2

    def test_done_event_fires_on_abort_too(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"w": V("w0")})

        def txn_body(txn):
            yield from txn.read("w")
            yield txn.runtime.sim.timeout(50.0)
            return "ok"

        def conflicting_writer(sim):
            yield sim.timeout(10.0)
            yield from concord.write("node2", "w", V("boom"))

        txn_proc = sim.spawn(runtime.run("node0", txn_body, max_attempts=5))
        sim.spawn(conflicting_writer(sim))
        sim.run(until=sim.now + 120_000.0)
        assert txn_proc.triggered  # retried (possibly escalated) and finished
        # No transaction context may linger.
        for manager in runtime.managers.values():
            assert manager.active == {}
