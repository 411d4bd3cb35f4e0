#!/usr/bin/env python3
"""Fault tolerance demo: crash the home node mid-workload.

While readers and a writer hammer a shared item, its home node crashes at
the worst possible moment — right after a write committed to storage but
before the sharers were invalidated.  Watch the coordination service
detect the failure, the survivors evict the affected items and rebuild the
hash ring, and every subsequent read return the latest value.

Run:  python examples/failure_recovery.py
"""

from repro.config import SimConfig
from repro.session import Session
from repro.storage import DataItem


def main() -> None:
    s = Session(seed=11, app="resilient",
                config=SimConfig(num_nodes=4, heartbeat_interval_ms=100.0))
    sim, cluster, coord, concord = s.sim, s.cluster, s.coord, s.system

    key = "inventory:widget"
    s.preload({key: DataItem("stock=100", size_bytes=512)})
    home = concord.ring_template.home(key)
    others = [n for n in cluster.node_ids if n != home]
    print(f"'{key}' is homed at {home}; cluster = {cluster.node_ids}\n")

    # Spread copies across the cluster.
    for node in others:
        s.read(node, key)
    print(f"[{sim.now:8.1f} ms] {len(others)} nodes cached the item (Shared)")

    # Crash the home the instant the next write hits storage — the
    # critical window of Section III-F.
    new_value = DataItem("stock=99", size_bytes=512)

    def crash_at_commit(k, value, version, writer):
        if k == key and value == new_value and cluster.node(home).alive:
            print(f"[{sim.now:8.1f} ms] *** {home} CRASHES (write committed, "
                  f"invalidations unsent) ***")
            cluster.crash_node(home)

    cluster.storage.add_write_listener(crash_at_commit)

    def writer(sim):
        print(f"[{sim.now:8.1f} ms] {others[0]} writes '{new_value.payload}'")
        yield from concord.write(others[0], key, new_value)
        print(f"[{sim.now:8.1f} ms] write completed (retried through the "
              f"new home after recovery)")

    sim.spawn(writer(sim))
    sim.run(until=sim.now + 30_000.0)

    detected = coord.failures_detected
    if detected:
        when, app, node = detected[0]
        print(f"[{when:8.1f} ms] coordination service declared {node} failed")

    survivors = [n for n in concord.agents if cluster.node(n).alive]
    new_home = concord.agents[survivors[0]].ring.home(key)
    print(f"\nafter recovery: ring = {sorted(concord.agents[survivors[0]].ring.members)}")
    print(f"new home of '{key}': {new_home}")

    for node in survivors:
        value = s.read(node, key)
        assert value == new_value, f"stale read at {node}!"
        print(f"  {node} reads '{value.payload}'  (coherent)")
    print("\nno node ever observed a stale value — recovery preserved "
          "consistency.")


if __name__ == "__main__":
    main()
