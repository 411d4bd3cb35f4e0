"""Ablations of Concord design choices (DESIGN.md section 5).

- E-state direct-to-storage writes on/off: the paper motivates the E state
  by the write-hop reduction (Section VII: 28.6 % fewer hops per write).
- Invalidations parallel vs serialized with the storage update: the paper
  argues parallelism hides invalidation latency (Section III-C2).
- Faa$T read-only annotations: with only 5 % of objects read-only, the
  annotations barely help (Related Work).
- Consistent-hashing virtual nodes: re-home volume and balance trade-off.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core import ConsistentHashRing
from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult
from repro.schemes import build_scheme
from repro.session import Session
from repro.storage import DataItem


def run_estate(scale: float = 1.0, seed: int = 201) -> ExperimentResult:
    """Writes with and without the E-state storage-direct fast path."""
    s = Session(config=SimConfig(num_nodes=4), seed=seed, app="ab-True",
                estate_writes=True)
    result = ExperimentResult(
        experiment="Ablation: E-state writes",
        title="Repeated writes by one node, with/without E-state bypass",
        columns=["variant", "write_ms", "coherence_msgs"],
        note="The E state exists to cut hops on repeated single-writer "
             "updates (paper Section VII).",
    )
    network = s.cluster.network.stats
    for variant, estate in (("with E-state", True), ("without", False)):
        # The second variant is a sibling app added to the same cluster.
        system = s.system if estate else build_scheme(
            "concord", s.cluster, s.coord, app="ab-False",
            estate_writes=False)
        key = f"counter-{estate}"
        s.run(system.write("node1", key, DataItem(0, 8)))  # acquire E
        messages_before = network.messages
        start = s.sim.now
        repeats = 5
        for index in range(repeats):
            s.run(system.write("node1", key, DataItem(index + 1, 8)))
        result.data.append({
            "variant": variant,
            "write_ms": (s.sim.now - start) / repeats,
            "coherence_msgs": network.messages - messages_before,
        })
    return result


def run_parallel_inv(scale: float = 1.0, seed: int = 203) -> ExperimentResult:
    """Write latency with invalidations parallel vs serialized."""
    result = ExperimentResult(
        experiment="Ablation: parallel invalidations",
        title="Write to a widely shared item: parallel vs serial invalidation",
        columns=["variant", "write_ms"],
        note="Parallel invalidations hide behind the storage round trip.",
    )
    for variant, parallel in (("parallel", True), ("serialized", False)):
        s = Session(config=SimConfig(num_nodes=8), seed=seed, app="abinv",
                    parallel_invalidations=parallel)
        key = "shared"
        s.preload({key: DataItem("v", 1024)})
        for node_id in s.cluster.node_ids:
            s.read(node_id, key)
        write = s.run(s.system.write("node0", key, DataItem("w", 1024)))
        result.data.append({"variant": variant,
                            "write_ms": write.duration_ms})
    return result


def run_faast_annotations(scale: float = 1.0, seed: int = 205) -> ExperimentResult:
    """Faa$T with and without developer read-only annotations."""
    result = ExperimentResult(
        experiment="Ablation: Faa$T read-only annotations",
        title="Faa$T mean latency with/without read-only annotations",
        columns=["variant", "mean_ms", "version_checks"],
        note="Only ~5% of objects are read-only, so annotations help little "
             "and Concord still wins (paper Related Work).",
    )
    for variant, annotated in (("plain", False), ("annotated", True)):
        outcome = run_mixed_workload(
            scheme="faast", nodes=8, cores_per_node=4, utilization=0.5,
            read_only_annotations=annotated,
            duration_ms=3000.0 * scale, warmup_ms=1200.0 * scale, seed=seed)
        result.data.append({
            "variant": variant,
            "mean_ms": outcome.mean_latency(),
            "version_checks": outcome.access.version_checks,
        })
    return result


def run_virtual_nodes(scale: float = 1.0, seed: int = 207) -> ExperimentResult:
    """Hash-ring virtual-node count: balance vs churn disruption."""
    result = ExperimentResult(
        experiment="Ablation: hash-ring virtual nodes",
        title="Key balance and re-home volume when 1 of 16 members leaves",
        columns=["virtual_nodes", "max/mean_keys", "rehomed_pct"],
        note="More virtual nodes -> better balance; re-home volume stays "
             "~1/16 either way (consistent hashing).",
    )
    members = [f"node{i}" for i in range(16)]
    keys = [f"key-{i}" for i in range(4000)]
    for virtual_nodes in (1, 8, 64, 256):
        ring = ConsistentHashRing(members, virtual_nodes=virtual_nodes)
        counts = {m: 0 for m in members}
        before = {}
        for key in keys:
            home = ring.home(key)
            counts[home] += 1
            before[key] = home
        ring.remove("node7")
        rehomed = sum(1 for key in keys if ring.home(key) != before[key])
        mean_keys = len(keys) / len(members)
        result.data.append({
            "virtual_nodes": virtual_nodes,
            "max/mean_keys": max(counts.values()) / mean_keys,
            "rehomed_pct": 100.0 * rehomed / len(keys),
        })
    return result
