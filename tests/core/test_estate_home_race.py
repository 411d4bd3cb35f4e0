"""An E-state write racing a downgrade at the writer's own home.

When a node is both the home and the E owner of a key, a read from
another node downgrades the owner's copy through the home's *local*
branch rather than a ``fetch_downgrade`` RPC.  That branch must wait out
the owner's in-flight direct-to-storage write exactly as the RPC handler
does; otherwise the reader installs the pre-write value as S and the
write then updates only the owner, leaving a stale copy.  The same holds
for the local branch of the invalidation fan-out.

Seed 8 of the ``faas_mixed`` benchmark shape (8 nodes x 4 cores, all
seven applications, 67 req/s, 1.2 ms agent) with E-state writes on
reproduces the downgrade race at ~7 s of load: ``node1`` is home and E
owner of ``MediaServ:e53:i1`` when ``node0``'s read arrives.
"""

from dataclasses import replace

from repro.config import MB, LatencyModel, SimConfig
from repro.session import Session
from repro.verify import check_scheme_invariants
from repro.workloads import ALL_PROFILES

LOAD_MS = 8_000.0
DRAIN_MS = 6_000.0
TOTAL_RPS = 67.0


def test_home_local_downgrade_waits_for_the_estate_write():
    s = Session.compose(
        seed=8, scheme="concord", apps=tuple(ALL_PROFILES),
        config=SimConfig(num_nodes=8, cores_per_node=4,
                         latency=replace(LatencyModel(),
                                         agent_service_ms=1.2)),
        capacity=64 * MB, estate_writes=True)
    for name, factory in s.factories.items():
        s.sim.spawn(s.platform.open_loop(name, TOTAL_RPS / len(s.factories),
                                         LOAD_MS, factory),
                    name=f"load:{name}")
    s.sim.run(until=LOAD_MS + DRAIN_MS)

    violations = [str(violation) for system in s.schemes.values()
                  for violation in check_scheme_invariants(system, s.cluster)]
    assert violations == []
    assert sum(app.requests_completed for app in s.deployed.values()) > 400
