"""Sharded directory topologies for the Concord coherence protocol.

The flat protocol homes every key directly on the member ring.  This
package partitions the directory/home-node role into a fixed number of
*shards* (consistent ``hash(key) % num_shards``), assigns each shard a
deterministic replica chain of members via the ring's preference list,
and routes a key to its shard's chain head (the *leader*).

Public surface:

- :class:`~repro.shard.router.ShardRouter` -- drop-in ring replacement
  with key→shard→home resolution and replica chains.
- :class:`~repro.shard.manager.ShardManager` -- per-system bookkeeping:
  re-homing epochs, failover accounting, telemetry, ``shard.*`` events.
- :mod:`~repro.shard.topologies` -- named topology presets and their
  smoke scenarios (each one a golden pin).
"""

from repro.shard.router import ShardRouter
from repro.shard.manager import ShardManager
from repro.shard.topologies import (
    TOPOLOGIES,
    Topology,
    run_topology_scenario,
    smoke_plan,
)

__all__ = ["ShardRouter", "ShardManager", "TOPOLOGIES", "Topology",
           "run_topology_scenario", "smoke_plan"]
