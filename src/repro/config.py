"""Global calibration constants for the simulated cluster.

All times are in **milliseconds** of simulated time.  The constants are
calibrated against the numbers the paper states explicitly (Sections
III-C2, VI-A, VI-B and Figure 3):

- a round trip to global storage takes ~30 ms,
- an internode invalidation round trip takes ~2 ms,
- a local cache read hit in Concord takes ~1.6 ms (runtime interception +
  local lookup),
- fetching and checking a version number costs about the same as fetching
  the data itself for payloads of 64 KB or less.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class LatencyModel:
    """Latency parameters shared by all simulated components.

    The per-message network cost decomposes as::

        one_way = rpc_overhead + payload_bytes / serialization_bytes_per_ms
                  + internode_rtt / 2

    which reproduces the Figure-3 curve: a fixed-size version probe and a
    <=64 KB data fetch cost about the same, while multi-hundred-KB payloads
    are dominated by the serialization term.
    """

    #: Round trip to global storage (paper Section VI-B: "a round trip to
    #: storage takes around 30ms").
    storage_rtt: float = 30.0

    #: Whole-stack internode round trip (paper Section VI-E: "~2ms").
    internode_rtt: float = 2.0

    #: Local cache access, including runtime interception of the storage
    #: API call (calibrated to Concord's 1.6 ms local read hit).
    local_access: float = 1.6

    #: Fixed per-RPC software overhead (gRPC encoding, dispatch).
    rpc_overhead: float = 0.2

    #: CPU time a cache-agent server spends accepting one request.  Hot
    #: home agents serialize on this, which is the contention-point
    #: effect Concord's design minimizes (Section III, "minimize
    #: contention").
    agent_service_ms: float = 0.3

    #: Sender-side cost of putting one message on the wire (syscall + NIC
    #: doorbell).  Fan-out sends serialize on this, which is why the
    #: paper's write latency creeps from 30 ms to 32.4 ms as the sharer
    #: count grows to 30 (Figure 11).
    send_ms: float = 0.08

    #: Effective serialization throughput in bytes per millisecond.  At
    #: 100 KB/ms, a 64 KB payload adds 0.64 ms (comparable to the 2 ms
    #: version probe) while a 1 MB payload adds ~10 ms (clearly larger),
    #: matching Figure 3's crossover.
    serialization_bytes_per_ms: float = 100.0 * KB

    #: Storage-side per-byte cost (blob service ingestion/egestion).
    storage_bytes_per_ms: float = 200.0 * KB

    def one_way(self, payload_bytes: int = 0) -> float:
        """Time for one internode message carrying ``payload_bytes``."""
        return (
            self.rpc_overhead
            + payload_bytes / self.serialization_bytes_per_ms
            + self.internode_rtt / 2.0
        )

    def storage_read(self, payload_bytes: int = 0) -> float:
        """Round trip to global storage returning ``payload_bytes``."""
        return self.storage_rtt + payload_bytes / self.storage_bytes_per_ms

    def storage_write(self, payload_bytes: int = 0) -> float:
        """Round trip to global storage sending ``payload_bytes``."""
        return self.storage_rtt + payload_bytes / self.storage_bytes_per_ms


@dataclass(frozen=True)
class SimConfig:
    """Top-level configuration for a simulated cluster run."""

    #: Number of compute nodes in the cluster (paper: 16).
    num_nodes: int = 16

    #: Cores per node (paper: Intel Xeon Silver, 20 cores).
    cores_per_node: int = 20

    #: Memory per node in bytes (paper: 192 GB; we only track the slice
    #: relevant to FaaS containers).
    memory_per_node: int = 192 * 1024 * MB

    #: Per-container memory allocation (paper: 128 MB OpenWhisk minimum).
    container_memory: int = 128 * MB

    #: Container keep-alive grace period (paper Section III-D: ~10 min).
    grace_period_ms: float = 10.0 * 60.0 * 1000.0

    #: Heartbeat interval of the coordination service.
    heartbeat_interval_ms: float = 500.0

    #: Heartbeats missed before a node is declared failed.
    heartbeat_misses: int = 3

    #: Latency model shared by all components.
    latency: LatencyModel = field(default_factory=LatencyModel)

    #: Optional :class:`~repro.net.regions.RegionTopology` layering a
    #: multi-region network model over the cluster: cross-region messages
    #: and storage operations pay the region pair's extra RTT on top of
    #: the base latency model.  ``None`` keeps the flat single-region
    #: fabric.
    regions: object = None

    #: Root RNG seed; every component derives a named substream.
    seed: int = 0x5EED
