"""Figure 19 (extension): sharded-directory scale across topologies.

Not a paper figure — the paper's directory is flat (every key homes
directly on the member ring).  This run quantifies what the sharded
directory layer adds and costs: the same fixed-seed workload and the
same fault class (crash a directory home mid-load; partition a region
for the regional cell) run against each named topology preset, and we
compare completion, failover/re-home churn, and the coherence verdict.

The interesting contrasts:

* ``flat`` vs ``shard4`` — routing through shard leaders instead of
  per-key homes concentrates directory state; a single crash now takes
  out whole shards, not a hash-arc of keys.
* ``shard4`` vs ``shard4rep`` — replica chains turn the crash into a
  deterministic leader failover (mirror adoption) instead of a cold
  directory rebuild.
* ``shard4rep`` vs ``region2`` — the same protocol spread over two
  regions pays cross-region RTT on every remote hop and must also ride
  out a region partition.

Violations must be zero in every cell: sharding changes *where*
directory state lives, never *whether* it is coherent.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentResult
from repro.shard.topologies import (
    DURATION_MS,
    TOPOLOGIES,
    run_topology_scenario,
    smoke_plan,
)

#: Matrix order: flat first so the sharded rows read as deltas.
VARIANTS = ("flat", "shard4", "shard4rep", "region2")


def run(scale: float = 1.0, seed: int = 7) -> ExperimentResult:
    del scale  # The cells share one fixed shape; scaling would decouple
    #            them from the topology presets they mirror.
    result = ExperimentResult(
        experiment="Figure 19",
        title="Sharded directory under faults, by topology",
        columns=["topology", "shards", "replication", "regions",
                 "completed", "failed", "completion_ratio",
                 "failovers", "rehomed", "violations"],
        note="Extension run: each topology preset under its canonical "
             "smoke plan (crash a shard leader; region2 also partitions "
             "a region); coherence violations must be 0 in every cell.",
    )
    for name in VARIANTS:
        topology = TOPOLOGIES[name]
        outcome = run_topology_scenario(name, seed=seed, plan=smoke_plan(name))
        total = outcome.completed + outcome.failed
        result.data.append({
            "topology": name,
            "shards": topology.shards or 0,
            "replication": topology.replication,
            "regions": topology.regions or 0,
            "completed": outcome.completed,
            "failed": outcome.failed,
            "completion_ratio": (outcome.completed / total if total
                                 else float("nan")),
            "failovers": outcome.shard_failovers,
            "rehomed": outcome.shards_rehomed,
            "violations": len(outcome.violations),
        })
    return result


#: Simulated milliseconds each cell covers (pre-settle), for reporting.
CELL_DURATION_MS = DURATION_MS
