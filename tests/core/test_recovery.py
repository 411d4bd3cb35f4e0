"""Fault-tolerance tests: node crashes, recovery, data consistency.

These exercise the guarantees of paper Sections III-F and III-H: the
coordination service detects failed cache instances, survivors evict items
homed at the failed node, the ring is rebuilt, and no combination of reads
observes an inconsistent mix of old and new values.
"""

import pytest

from repro.net.rpc import RPC_TIMEOUT_MS
from repro.storage import DataItem


def home_of(concord, key):
    return concord.ring_template.home(key)


def settle(sim, ms=5000.0):
    sim.run(until=sim.now + ms)


class TestCrashRecovery:
    def test_home_crash_evicts_its_keys_everywhere(self, sim, do, concord, cluster):
        key = "k-crash"
        cluster.storage.preload({key: DataItem("v0", size_bytes=100)})
        home = home_of(concord, key)
        survivors = [n for n in concord.agents if n != home][:2]
        for node in survivors:
            do(concord.read(node, key))
        assert all(concord.agents[n].cache.peek(key) for n in survivors)

        cluster.crash_node(home)
        settle(sim)  # heartbeats detect, recovery runs
        for node in survivors:
            assert concord.agents[node].cache.peek(key) is None
            assert home not in concord.agents[node].ring.members

    def test_read_after_home_crash_returns_latest(self, sim, do, concord, cluster):
        key = "k-crash2"
        cluster.storage.preload({key: DataItem("v0", size_bytes=100)})
        home = home_of(concord, key)
        reader = [n for n in concord.agents if n != home][0]
        do(concord.read(reader, key))
        cluster.crash_node(home)
        settle(sim)
        value = do(concord.read(reader, key))
        assert value == DataItem("v0", size_bytes=100)
        # A new home now has the directory entry.
        new_home = concord.agents[reader].ring.home(key)
        assert new_home != home
        assert concord.agents[new_home].directory.get(key) is not None

    def test_unrelated_keys_survive_recovery(self, sim, do, concord, cluster):
        cluster.storage.preload({
            f"key-{i}": DataItem(f"v{i}", size_bytes=50) for i in range(40)
        })
        victim = "node1"
        reader = "node2"
        kept = [
            f"key-{i}" for i in range(40)
            if home_of(concord, f"key-{i}") != victim
        ]
        for key in kept[:5]:
            do(concord.read(reader, key))
        cluster.crash_node(victim)
        settle(sim)
        for key in kept[:5]:
            assert concord.agents[reader].cache.peek(key) is not None

    def test_sharer_crash_does_not_block_writes(self, sim, do, concord, cluster):
        key = "k-sharer"
        cluster.storage.preload({key: DataItem("v0", size_bytes=50)})
        home = home_of(concord, key)
        sharers = [n for n in concord.agents if n != home][:2]
        for node in sharers:
            do(concord.read(node, key))
        cluster.crash_node(sharers[1])
        # Write immediately: the invalidation to the dead sharer times out,
        # gets reported, and the write still completes.
        value = DataItem("v1", size_bytes=50)
        do(concord.write(sharers[0], key, value), limit=120_000.0)
        assert cluster.storage.peek(key).value == value

    def test_writer_retries_when_home_dies_mid_write(self, sim, do, concord, cluster):
        """The critical case: home crashes after committing to storage but
        before invalidating the sharers (Section III-F)."""
        key = "k-critical"
        cluster.storage.preload({key: DataItem("old", size_bytes=50)})
        home = home_of(concord, key)
        writer, stale = [n for n in concord.agents if n != home][:2]
        do(concord.read(writer, key))
        do(concord.read(stale, key))  # both cache it Shared

        # Crash the home at the exact instant the storage commit lands.
        new_value = DataItem("new", size_bytes=50)

        def crash_on_commit(k, value, version, tag):
            if k == key and value == new_value and cluster.node(home).alive:
                cluster.crash_node(home)

        cluster.storage.add_write_listener(crash_on_commit)

        def writing(sim):
            yield from concord.write(writer, key, new_value)

        writing_proc = sim.spawn(writing(sim))
        sim.run(until=sim.now + 60_000.0)
        assert writing_proc.triggered  # the write eventually completed

        # After recovery, nobody holds the old value and every read
        # observes the new one.
        assert concord.agents[stale].cache.peek(key) is None
        for node in concord.agents:
            if node == home:
                continue
            assert do(concord.read(node, key)) == new_value

    def test_no_mixed_reads_during_recovery(self, sim, do, concord, cluster):
        """While recovery is in progress, a node that cannot see the stale
        copy must not read the new value from storage (the read barrier)."""
        key = "k-barrier"
        cluster.storage.preload({key: DataItem("old", size_bytes=50)})
        home = home_of(concord, key)
        others = [n for n in concord.agents if n != home]
        stale_holder, fresh_reader = others[0], others[1]
        do(concord.read(stale_holder, key))

        new_value = DataItem("new", size_bytes=50)

        def crash_on_commit(k, value, version, tag):
            if k == key and value == new_value and cluster.node(home).alive:
                cluster.crash_node(home)

        cluster.storage.add_write_listener(crash_on_commit)

        log = []

        def writing(sim):
            yield from concord.write(home, key, new_value)

        def fresh_read(sim):
            # Issued while the crash is being detected.
            yield sim.timeout(50.0)
            value = yield from concord.read(fresh_reader, key)
            log.append(("fresh", sim.now, value))

        def stale_read(sim):
            yield sim.timeout(50.0)
            value = yield from concord.read(stale_holder, key)
            log.append(("stale", sim.now, value))

        sim.spawn(writing(sim))
        sim.spawn(fresh_read(sim))
        sim.spawn(stale_read(sim))
        sim.run(until=sim.now + 60_000.0)

        fresh = [e for e in log if e[0] == "fresh"][0]
        stale = [e for e in log if e[0] == "stale"][0]
        # If the fresh reader saw the new value, the stale holder must not
        # have read its old copy *after* that (mixed old/new views).
        if fresh[2] == new_value:
            assert not (
                stale[2] == DataItem("old", size_bytes=50) and stale[1] > fresh[1]
            )

    def test_two_failures_in_sequence(self, sim, do, concord, cluster):
        cluster.storage.preload({
            f"kk-{i}": DataItem(f"v{i}", size_bytes=20) for i in range(20)
        })
        reader = "node3"
        for i in range(20):
            do(concord.read(reader, f"kk-{i}"))
        cluster.crash_node("node0")
        settle(sim)
        cluster.crash_node("node1")
        settle(sim)
        assert set(concord.agents[reader].ring.members) == {"node2", "node3"}
        for i in range(20):
            value = do(concord.read(reader, f"kk-{i}"))
            assert value == DataItem(f"v{i}", size_bytes=20)

    def test_coordination_only_informs_affected_apps(self, sim, cluster, coord, config):
        from repro.core import ConcordSystem

        app_a = ConcordSystem(cluster, app="appA", coord=coord,
                              node_ids=["node0", "node1"])
        app_b = ConcordSystem(cluster, app="appB", coord=coord,
                              node_ids=["node2", "node3"])
        sim.run(until=500.0)
        cluster.crash_node("node1")
        settle(sim)
        assert "node1" not in app_a.agents["node0"].ring.members
        # appB never had node1; its rings are untouched and intact.
        assert set(app_b.agents["node2"].ring.members) == {"node2", "node3"}


def drop_recovery_acks(sim, agent, count=None):
    """Drop ``agent``'s first ``count`` recovery acks (all if None);
    returns the list of times an ack was dropped."""
    send = agent.endpoint.notify
    dropped = []

    def notify(dst, method, args=None, **kwargs):
        if method == "recovery_ack" and (count is None
                                         or len(dropped) < count):
            dropped.append(sim.now)
            return
        send(dst, method, args, **kwargs)

    agent.endpoint.notify = notify
    return dropped


class TestDroppedRecoveryAck:
    def test_the_controller_asks_again_after_an_rpc_timeout(
            self, sim, concord, cluster):
        survivor = concord.agents["node2"]
        dropped = drop_recovery_acks(sim, survivor, count=1)
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        controller = concord.controller
        assert dropped
        assert controller.open_recoveries() == [("node1", ["node2"])]
        assert "node1" in survivor._barriers
        # Asked again, the survivor that already recovered only acks.
        settle(sim, RPC_TIMEOUT_MS)
        assert controller.open_recoveries() == []
        assert controller.recoveries_completed == 1
        assert "node1" not in survivor._barriers

    def test_a_rejoin_closes_the_recovery_before_its_commit(
            self, sim, do, concord, cluster):
        """A re-ask that fires after a survivor committed the failed
        member's rejoin, but before the controller put it back in its
        own ring, finds no ack missing: the survivor keeps the member."""
        survivor = concord.agents["node2"]
        drop_recovery_acks(sim, survivor)
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        controller = concord.controller
        assert controller.open_recoveries() == [("node1", ["node2"])]
        commit = survivor.endpoint._handlers["domain_commit"]

        def commit_then_reask(endpoint, src, args):
            reply = yield from commit(endpoint, src, args)
            assert "node1" not in controller.ring
            controller._reask("node1")
            return reply

        survivor.endpoint.register_handler("domain_commit", commit_then_reask)
        cluster.restart_node("node1")
        do(concord.restart_instance("node1"))
        settle(sim, 1000.0)
        assert "node1" in controller.ring
        for node_id, agent in concord.agents.items():
            assert agent.ring.members == controller.ring.members, node_id
            assert "node1" not in agent._barriers, node_id
        assert controller.open_recoveries() == []
        assert controller.recoveries_completed == 1

    def test_a_survivor_leaving_with_its_ack_missing_ends_the_wait(
            self, sim, do, concord, cluster):
        drop_recovery_acks(sim, concord.agents["node2"])
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        controller = concord.controller
        assert controller.open_recoveries() == [("node1", ["node2"])]
        do(concord.remove_instance("node2"))
        settle(sim, 100.0)
        assert controller.open_recoveries() == []
        assert controller.recoveries_completed == 1
        for node_id in ("node0", "node3"):
            assert "node1" not in concord.agents[node_id]._barriers

    def test_a_survivor_failing_with_its_ack_missing_ends_the_wait(
            self, sim, concord, cluster):
        drop_recovery_acks(sim, concord.agents["node2"])
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        controller = concord.controller
        assert controller.open_recoveries() == [("node1", ["node2"])]
        cluster.crash_node("node2")
        settle(sim, 2000.0)
        assert controller.open_recoveries() == []
        # node1's recovery and node2's.
        assert controller.recoveries_completed == 2
        for node_id in ("node0", "node3"):
            barriers = concord.agents[node_id]._barriers
            assert "node1" not in barriers and "node2" not in barriers


class TestSecondFailure:
    def test_an_ack_of_the_first_declaration_does_not_count(
            self, sim, do, concord, cluster, coord):
        """A member that fails again after it rejoined gets a recovery of
        its own, which an ack of its first declaration must not complete
        (``tests/verify/test_check_run.py`` runs the plan end to end)."""
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        cluster.restart_node("node1")
        do(concord.restart_instance("node1"))
        settle(sim, 1000.0)
        controller = concord.controller
        assert controller.recoveries_completed == 1
        survivors = ("node0", "node2", "node3")
        for node_id in survivors:
            drop_recovery_acks(sim, concord.agents[node_id])
        cluster.crash_node("node1")
        settle(sim, 2000.0)
        first_ms, second_ms = [at for at, _app, node in coord.failures_detected
                               if node == "node1"]
        assert first_ms < second_ms
        # Each survivor's ack of the first declaration arrives again (sent
        # past the filter that drops the survivors' own acks).
        for node_id in survivors:
            endpoint = concord.agents[node_id].endpoint
            type(endpoint).notify(
                endpoint, controller.endpoint.address, "recovery_ack",
                ("node1", node_id, first_ms), size_bytes=16)
        settle(sim, 100.0)
        assert controller.recoveries_completed == 1
        assert controller.open_recoveries() == [("node1", list(survivors))]
