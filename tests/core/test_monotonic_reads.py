"""Monotonic-read coherence: no node ever reads backwards in time.

With an invalidation protocol and write-through storage, once any node has
observed version N of a key, no later read anywhere may return an older
version — the stale copies were invalidated before version N committed.
This pins down the ordering guarantee the Faa$T baseline only provides
lazily (its nodes *can* read stale values between version checks).
"""

import pytest

from repro.config import SimConfig
from repro.session import Session
from repro.storage import DataItem

KEYS = [f"mk-{i}" for i in range(4)]


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_reads_never_go_backwards(seed):
    s = Session.compose(config=SimConfig(num_nodes=4), seed=seed, app="mono")
    sim, cluster, concord = s.sim, s.cluster, s.system
    cluster.storage.preload({key: DataItem((key, 0), 128) for key in KEYS})

    # Map committed value -> its storage version, recorded at commit time.
    committed_version = {(key, 0): 1 for key in KEYS}

    def on_commit(key, value, version, writer):
        committed_version[value.payload] = version

    cluster.storage.add_write_listener(on_commit)

    rng = sim.rng.stream("mono-ops")
    reads = []  # (node, key, end_time, payload)

    def worker(node_id, worker_id):
        sequence = 0
        for _ in range(50):
            yield sim.timeout(rng.expovariate(1 / 4.0))
            key = rng.choice(KEYS)
            if rng.random() < 0.7:
                value = yield from concord.read(node_id, key)
                reads.append((node_id, key, sim.now, value.payload))
            else:
                sequence += 1
                yield from concord.write(
                    node_id, key,
                    DataItem((key, f"{worker_id}.{sequence}"), 128))

    for index, node_id in enumerate(concord.agents):
        sim.spawn(worker(node_id, index))
    sim.run(until=300_000.0)
    assert len(reads) > 100

    # Per (node, key), the observed storage versions are non-decreasing.
    last_seen = {}
    for node, key, _when, payload in reads:
        version = committed_version[payload]
        previous = last_seen.get((node, key), 0)
        assert version >= previous, (
            f"{node} read {key} version {version} after seeing {previous}"
        )
        last_seen[(node, key)] = version

    # Cross-node monotonicity: reads ordered by completion time observe
    # versions that only move forward, modulo reads that overlapped the
    # same write (their completion order vs commit order can interleave
    # by one version legitimately).
    reads.sort(key=lambda r: r[2])
    per_key_high = {}
    for _node, key, _when, payload in reads:
        version = committed_version[payload]
        high = per_key_high.get(key, 0)
        assert version >= high - 1, (
            f"{key}: read version {version} long after version {high} was seen"
        )
        per_key_high[key] = max(high, version)


def test_run_all_cli_lists_and_runs():
    from repro.experiments import run_all

    assert run_all.main(["--list"]) == 0
    assert "fig07" in run_all.EXPERIMENTS
    assert run_all.main(["--only", "ablation_virtual_nodes"]) == 0
    with pytest.raises(SystemExit):
        run_all.main(["--only", "nope"])
