"""The large-scale grid point: 100 nodes, one million cache requests.

Usage::

    python -m repro.experiments.scale

prints the full-size point's simulated counters as sorted JSON.
"""

from __future__ import annotations

import json

from repro.session import Session
from repro.storage import DataItem

__all__ = ["scale_point"]


def scale_point(seed: int = 1009, num_nodes: int = 100,
                requests_per_node: int = 10_000,
                working_set: int = 1000) -> dict:
    """The large-scale grid point: 100 nodes, one million cache requests.

    Per-node driver processes issue sequential Concord reads over a
    shared working set (offsets staggered so every node sweeps the whole
    set); after the first sweep the steady state is the local-hit fast
    path, which is exactly what the kernel overhaul accelerated.  At the
    pre-overhaul dispatch rate this point would not finish inside any
    reasonable timeout; post-overhaul it completes in well under a
    minute.  Reduced-scale variants (the keyword arguments) back the
    cross-``PYTHONHASHSEED`` byte-identity test and a golden pin.
    """
    s = Session(nodes=num_nodes, cores_per_node=2, seed=seed, app="scale")
    sim, cluster, system = s.sim, s.cluster, s.system
    keys = [f"scale-{index}" for index in range(working_set)]
    s.preload({key: DataItem("v", size_bytes=1024) for key in keys})

    completed = [0]

    def driver(node_id, count, offset):
        for index in range(count):
            yield from system.read(node_id, keys[(offset + index) % working_set])
            completed[0] += 1

    drivers = [
        sim.spawn(driver(node_id, requests_per_node, position * 7),
                  name="scale-driver")
        for position, node_id in enumerate(cluster.node_ids)
    ]
    remaining = [len(drivers)]
    finished_ms = [0.0]

    def on_driver_done(_event):
        remaining[0] -= 1
        if remaining[0] == 0:
            finished_ms[0] = sim.now

    for process in drivers:
        process.callbacks.append(on_driver_done)
    # Chunked run(until=...) keeps the dispatch on the simulator's inlined
    # hot loop; cluster services never drain the schedule on their own.
    while remaining[0]:
        sim.run(until=sim.now + 5000.0)
    return {
        "num_nodes": num_nodes,
        "requests_completed": completed[0],
        "simulated_ms": round(finished_ms[0], 3),
        "simulated_rps": round(
            completed[0] / (finished_ms[0] / 1000.0), 2),
    }


if __name__ == "__main__":
    print(json.dumps(scale_point(), sort_keys=True))
