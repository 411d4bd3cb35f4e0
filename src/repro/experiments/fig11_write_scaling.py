"""Figure 11: write latency vs number of sharing nodes (1-30).

All nodes cache the item, one writes: the home's invalidations travel in
parallel with the storage update, so the write grows from ~30 ms to only
~32.4 ms at 30 nodes.  A Faa$T write never invalidates (flat ~30 ms), but
a Faa$T *local read hit* costs a version round trip (3.8 ms vs Concord's
1.6 ms) — the trade the paper calls out.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.experiments.tables import ExperimentResult
from repro.session import Session
from repro.storage import DataItem

NODE_COUNTS = (1, 2, 4, 8, 16, 24, 30)


def _measure(system_name: str, num_nodes: int, seed: int) -> tuple:
    """Returns (write_ms, read_hit_ms) for one system at one scale."""
    s = Session(config=SimConfig(num_nodes=num_nodes), seed=seed,
                scheme=system_name, app="bench")
    cluster, system = s.cluster, s.system
    key = "shared-item"
    s.preload({key: DataItem("v0", size_bytes=8 * 1024)})

    def timed(gen):
        return s.run(gen, limit_ms=600_000.0).duration_ms

    # Load the item into every node's cache.
    for node_id in cluster.node_ids:
        timed(system.read(node_id, key))

    # Non-home reader/writer exercise the interesting paths.
    home = system.ring.home(key) if system_name == "faast" else (
        system.ring_template.home(key))
    others = [n for n in cluster.node_ids if n != home]
    reader = others[0] if others else home
    writer = others[-1] if others else home

    read_hit_ms = timed(system.read(reader, key))
    write_ms = timed(
        system.write(writer, key, DataItem("v1", size_bytes=8 * 1024)))
    return write_ms, read_hit_ms


def run(scale: float = 1.0, seed: int = 117) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 11",
        title="Write latency vs sharers; local read hit latency",
        columns=["nodes", "concord_write_ms", "faast_write_ms",
                 "concord_read_hit_ms", "faast_read_hit_ms"],
        note=("Paper: Concord writes 30->32.4ms over 1..30 nodes; Faa$T flat; "
              "read hits 1.6ms (Concord) vs 3.8ms (Faa$T)."),
    )
    counts = NODE_COUNTS if scale >= 1.0 else NODE_COUNTS[:4]
    for nodes in counts:
        concord_write, concord_read = _measure("concord", nodes, seed)
        faast_write, faast_read = _measure("faast", nodes, seed)
        result.data.append({
            "nodes": nodes,
            "concord_write_ms": concord_write,
            "faast_write_ms": faast_write,
            "concord_read_hit_ms": concord_read,
            "faast_read_hit_ms": faast_read,
        })
    return result
