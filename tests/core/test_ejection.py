"""Tests for false-failure ejection and rejoin (Section III-H timeouts)."""

import pytest

from repro.core import ConcordSystem, EmptyRingError
from repro.core.agent import NotHome
from repro.storage import DataItem


def V(tag, size=64):
    return DataItem(tag, size)


class TestEjection:
    def test_eject_flushes_state(self, do, concord, cluster):
        cluster.storage.preload({"k": V("v0")})
        do(concord.read("node1", "k"))
        agent = concord.agents["node1"]
        epoch_before = agent.epoch
        agent.end_incarnation()
        assert agent.ejected
        assert len(agent.cache) == 0
        assert len(agent.directory) == 0
        assert "node1" not in agent.ring.members
        assert agent.epoch > epoch_before
        agent.end_incarnation()  # again: still flushed

    def test_report_unreachable_ejects_and_rejoins_live_node(
            self, sim, do, concord, cluster, coord):
        """A live node falsely reported unreachable flushes, rejoins, and
        keeps serving coherently."""
        cluster.storage.preload({"k": V("v0")})
        do(concord.read("node1", "k"))
        # Some peer claims node1 is unreachable (it is actually fine).
        coord.report_unreachable("app1", "node1")
        sim.run(until=sim.now + 5000.0)
        agent = concord.agents["node1"]
        assert not agent.ejected  # rejoined
        assert "node1" in agent.ring.members
        assert "node1" in concord.controller.ring.members
        # And it still serves coherent data.
        assert do(concord.read("node1", "k")) == V("v0")
        do(concord.write("node2", "k", V("v1")))
        assert do(concord.read("node1", "k")) == V("v1")

    def test_ejected_node_rejoins_coordination_group(
            self, sim, do, concord, cluster, coord):
        coord.report_unreachable("app1", "node2")
        sim.run(until=sim.now + 5000.0)
        assert "node2" in coord.members("app1")

    def test_writes_during_ejection_window_stay_coherent(
            self, sim, concord, cluster, coord):
        cluster.storage.preload({"k": V("v0")})
        results = []

        def reader(sim):
            for _ in range(6):
                yield sim.timeout(40.0)
                value = yield from concord.read("node1", "k")
                results.append(value)

        def writer(sim):
            yield sim.timeout(50.0)
            yield from concord.write("node3", "k", V("v1"))

        def suspect(sim):
            yield sim.timeout(30.0)
            coord.report_unreachable("app1", "node1")

        sim.spawn(reader(sim))
        sim.spawn(writer(sim))
        sim.spawn(suspect(sim))
        sim.run(until=sim.now + 30_000.0)
        # The final reads converged on the committed value.
        assert results[-1] == V("v1")
        # At quiescence every cached copy equals storage.
        for agent in concord.agents.values():
            entry = agent.cache.peek("k")
            if entry is not None:
                assert entry.value == cluster.storage.peek("k").value


class TestSpentBudget:
    def test_a_home_whose_budget_is_spent_still_invalidates(
            self, sim, do, concord, cluster):
        """The home's invalidation of a live sharer is lost and times out
        after the epoch moved (the other sharer was declared meanwhile),
        so the home asks again with the write's budget spent: the call
        goes out outside that budget, and the sharer drops its copy
        instead of being skipped."""
        cluster.storage.preload({"k": V("v0")})
        home = concord.controller.ring.home("k")
        live, crashed, writer = [node for node in sorted(concord.agents)
                                 if node != home]
        do(concord.read(live, "k"))
        do(concord.read(crashed, "k"))
        now = sim.now
        cluster.network.fault_rules().add_drop(
            now, now + 4000.0, 1.0, src=home, dst=live)
        sim.spawn(concord.write(writer, "k", V("v1")))
        sim.run(until=now + 100.0)
        cluster.crash_node(crashed)
        sim.run(until=now + 10_000.0)
        assert cluster.storage.peek("k").value == V("v1")
        assert concord.agents[live].cache.get("k") is None
        assert live in concord.controller.ring


class TestEjectedShardedHome:
    def test_ejected_agent_with_an_empty_shard_is_not_home(
            self, do, cluster, coord):
        """The homeship gate turns the op away with NotHome before it
        resolves the ring, whose home() raises EmptyRingError here: a
        handler that dies on it sends no reply at all."""
        concord = ConcordSystem(cluster, app="app1", coord=coord, shards=4)
        agent = concord.agents["node1"]
        for member in sorted(agent.ring.members - {"node1"}):
            agent.ring.remove(member)
        agent.end_incarnation()
        with pytest.raises(EmptyRingError):
            agent.ring.home("k")
        caller = concord.agents["node2"]

        def read_at_node1():
            return (yield from caller.endpoint.call(
                caller._address_of("node1"), "read", ("k", "node2", ""),
                timeout=1000.0))

        with pytest.raises(NotHome):
            do(read_at_node1())

    def test_a_local_read_at_the_ejected_agent_waits_for_the_rejoin(
            self, sim, do, cluster, coord):
        """The requester side of the same drained ring: the read must not
        resolve a home on it (EmptyRingError) but wait, behind the ended
        incarnation's barrier, until the rejoin commits."""
        cluster.storage.preload({"k": V("v0")})
        concord = ConcordSystem(cluster, app="app1", coord=coord, shards=4)
        agent = concord.agents["node1"]
        for member in sorted(agent.ring.members - {"node1"}):
            agent.ring.remove(member)
        agent.end_incarnation()
        read = sim.spawn(concord.read("node1", "k"))
        sim.run(until=sim.now + 1000.0)
        assert not read.triggered  # parked, not failed
        do(agent.rejoin())
        sim.run(until=sim.now + 1000.0)
        assert read.triggered and read.value == V("v0")
        assert not agent.ejected


class TestBarriers:
    def test_barrier_blocks_only_covered_keys(self, sim, do, concord, cluster):
        cluster.storage.preload({
            f"bk-{i}": V(f"v{i}") for i in range(30)
        })
        agent = concord.agents["node0"]
        member = "node2"
        snapshot = agent.ring.copy()
        covered = [k for k in (f"bk-{i}" for i in range(30))
                   if snapshot.home(k) == member]
        uncovered = [k for k in (f"bk-{i}" for i in range(30))
                     if snapshot.home(k) != member][:3]
        assert covered and uncovered
        agent.raise_barrier(member, snapshot)

        blocked = sim.spawn(concord.read("node0", covered[0]))
        sim.run(until=sim.now + 500.0)
        assert not blocked.triggered  # waiting on the barrier

        for key in uncovered:
            assert do(concord.read("node0", key)) is not None  # unaffected

        agent.lift_barrier(member)
        sim.run(until=sim.now + 1000.0)
        assert blocked.triggered

    def test_lift_without_raise_is_noop(self, concord):
        concord.agents["node0"].lift_barrier("ghost")

    def test_raise_is_idempotent(self, sim, concord):
        agent = concord.agents["node0"]
        snapshot = agent.ring.copy()
        agent.raise_barrier("node1", snapshot)
        first = agent._barriers["node1"][1]
        agent.raise_barrier("node1", snapshot)
        assert agent._barriers["node1"][1] is first
        agent.lift_barrier("node1")
