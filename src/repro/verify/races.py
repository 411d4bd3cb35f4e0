"""E-state race shapes: load shapes whose seeds must end with no stale copy.

An exclusive (E) owner writes straight to storage, bypassing the home
(paper Section III-C2).  Such a write races whatever the home is doing
with the same key, and a lost race leaves a cached copy older than
storage.  Each shape below exposed one such race on one of its seeds:

- ``faas_mixed``: 8 nodes x 4 cores, all seven applications, 67 req/s
  for 22 s.  A write raced a downgrade at the writer's own home.
- ``sharded_regions``: 12 nodes x 4 cores in two regions, 8 shards with
  replication 2, SocNet + HotelBook + TrainT at 120 req/s for 27 s.  A
  read grant that carried no version was installed over a newer write.

Shared by the seed replays in ``tests/core/test_estate_home_race.py``
and the nightly sweep (``scripts/estate_sweep.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import MB, LatencyModel, SimConfig
from repro.session import Session
from repro.verify.schemes import check_scheme_invariants
from repro.workloads import ALL_PROFILES

#: Cache-agent service time of the scaled-down clusters.
AGENT_SERVICE_MS = 1.2

#: shape -> (Session.compose keywords, total req/s, load ms, drain ms).
SHAPES = {
    "faas_mixed": (
        dict(nodes=8, cores=4, apps=tuple(ALL_PROFILES)),
        67.0, 22_000.0, 6_000.0),
    "sharded_regions": (
        dict(nodes=12, cores=4, apps=("SocNet", "HotelBook", "TrainT"),
             regions=2, shards=8, replication=2),
        120.0, 27_000.0, 5_000.0),
}


def run_shape(shape: str, seed: int, load_ms: Optional[float] = None):
    """Drive one seed of ``shape`` with E-state writes on, open loop,
    then drain it: ``(violations, completed, issued)``, the invariant
    violations as strings.  ``load_ms`` shortens the load phase."""
    settings, total_rps, shape_load_ms, drain_ms = SHAPES[shape]
    if load_ms is None:
        load_ms = shape_load_ms
    settings = dict(settings)
    config = SimConfig(num_nodes=settings.pop("nodes"),
                       cores_per_node=settings.pop("cores"),
                       latency=replace(LatencyModel(),
                                       agent_service_ms=AGENT_SERVICE_MS))
    s = Session.compose(seed=seed, scheme="concord", config=config,
                        capacity=64 * MB, estate_writes=True, **settings)
    loaders = [
        s.sim.spawn(s.platform.open_loop(name, total_rps / len(s.factories),
                                         load_ms, factory),
                    name=f"load:{name}")
        for name, factory in s.factories.items()]
    s.sim.run(until=load_ms + drain_ms)
    violations = [str(violation) for system in s.schemes.values()
                  for violation in check_scheme_invariants(system, s.cluster)]
    issued = sum(loader.value for loader in loaders if loader.triggered)
    completed = sum(app.requests_completed for app in s.deployed.values())
    return violations, completed, issued
