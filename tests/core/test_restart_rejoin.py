"""End-to-end: a crashed node restarts and rejoins the coherence domain."""

import pytest

from repro.storage import DataItem

KEYS = [f"rk-{i}" for i in range(20)]


def V(tag):
    return DataItem(tag, 64)


class TestRestartRejoin:
    def test_restarted_node_rejoins_and_serves(self, sim, do, concord,
                                               cluster, coord):
        cluster.storage.preload({k: V(f"v-{k}") for k in KEYS})
        for key in KEYS[:8]:
            do(concord.read("node1", key))

        # Crash and let the heartbeat detection + recovery run.
        cluster.crash_node("node1")
        sim.run(until=sim.now + 5000.0)
        survivors = concord.agents["node0"].ring.members
        assert "node1" not in survivors

        # The node comes back (fresh, empty) and rejoins the domain.
        cluster.restart_node("node1")
        old_agent = concord.agents.pop("node1")
        old_agent.endpoint.close()
        do(concord.create_instance("node1"))
        sim.run(until=sim.now + 1000.0)

        assert "node1" in concord.agents["node0"].ring.members
        assert "node1" in concord.controller.ring.members
        # It serves coherent data again.
        for key in KEYS[:8]:
            assert do(concord.read("node1", key)) == V(f"v-{key}")
        # And participates in coherence: a write elsewhere invalidates it.
        do(concord.write("node2", KEYS[0], V("fresh")))
        assert concord.agents["node1"].cache.peek(KEYS[0]) is None
        assert do(concord.read("node1", KEYS[0])) == V("fresh")

    def test_full_cycle_preserves_directory_uniqueness(self, sim, do,
                                                       concord, cluster, coord):
        cluster.storage.preload({k: V(f"v-{k}") for k in KEYS})
        for key in KEYS:
            do(concord.read("node0", key))
        cluster.crash_node("node2")
        sim.run(until=sim.now + 5000.0)
        cluster.restart_node("node2")
        concord.agents.pop("node2").endpoint.close()
        do(concord.create_instance("node2"))
        for key in KEYS:
            do(concord.read("node3", key))
        # Exactly one directory entry per key, at its ring home.
        homes = {}
        for node_id, agent in concord.agents.items():
            for key in agent.directory.keys():
                assert key not in homes, f"duplicate directory entry: {key}"
                homes[key] = node_id
        ring = concord.agents["node0"].ring
        for key, node_id in homes.items():
            assert ring.home(key) == node_id
