"""Seed-sweep shapes: load shapes whose every seed must end clean.

Each shape once exposed a defect on one of its seeds, and
:func:`run_shape` gives the :func:`~repro.verify.verdict.check_run`
verdict on one seed of it:

- ``churn``: Figure 13's setup (16 nodes, SocNet at 40 req/s) with one
  cache instance removed and re-created every 2.5 s for 60 s, then a
  10 s drain.  A removed instance's calls once timed out into failure
  declarations of live nodes, and its requests never finished.
- ``faas_mixed``: 8 nodes x 4 cores, all seven applications, 67 req/s
  for 22 s, E-state writes on.  An exclusive (E) owner writes straight
  to storage, bypassing the home (paper Section III-C2); such a write
  raced a downgrade at the writer's own home and left a cached copy
  older than storage.
- ``sharded_regions``: 12 nodes x 4 cores in two regions, 8 shards with
  replication 2, SocNet + HotelBook + TrainT at 120 req/s for 27 s,
  E-state writes on.  A read grant that carried no version was
  installed over a newer write.

Shared by the seed replays in ``tests/core/test_estate_home_race.py``
and the nightly sweep (``scripts/seed_sweep.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import MB, LatencyModel, SimConfig
from repro.experiments.fig13_churn import churn_run
from repro.session import Session
from repro.verify.verdict import check_run
from repro.workloads import ALL_PROFILES

#: Cache-agent service time of the scaled-down clusters.
AGENT_SERVICE_MS = 1.2

#: Removals (and re-creations) per minute of the churn shape.
CHURN_PER_MIN = 24


def _race(settings: dict, total_rps: float):
    """Start an E-state race shape: ``Session.compose`` keywords plus
    the open-loop load, split evenly over the apps."""
    def start(seed: int, load_ms: float) -> Session:
        kwargs = dict(settings)
        config = SimConfig(num_nodes=kwargs.pop("nodes"),
                           cores_per_node=kwargs.pop("cores"),
                           latency=replace(LatencyModel(),
                                           agent_service_ms=AGENT_SERVICE_MS))
        s = Session.compose(seed=seed, scheme="concord", config=config,
                            capacity=64 * MB, estate_writes=True, **kwargs)
        for name, factory in s.factories.items():
            s.sim.spawn(s.platform.open_loop(name, total_rps / len(s.factories),
                                             load_ms, factory),
                        name=f"load:{name}")
        return s
    return start


def _churn(seed: int, load_ms: float) -> Session:
    return churn_run(CHURN_PER_MIN, load_ms, seed)


#: shape -> (nightly seeds, load ms, drain ms, start(seed, load_ms)).
SHAPES = {
    "churn": (range(1, 11), 60_000.0, 10_000.0, _churn),
    "faas_mixed": (
        range(1, 31), 22_000.0, 6_000.0,
        _race(dict(nodes=8, cores=4, apps=tuple(ALL_PROFILES)), 67.0)),
    "sharded_regions": (
        range(1, 31), 27_000.0, 5_000.0,
        _race(dict(nodes=12, cores=4, apps=("SocNet", "HotelBook", "TrainT"),
                   regions=2, shards=8, replication=2), 120.0)),
}


def drive_shape(shape: str, seed: int,
                load_ms: Optional[float] = None) -> Session:
    """Run one seed of ``shape`` through its load and drain; returns the
    drained session.  ``load_ms`` shortens the load phase."""
    _seeds, shape_load_ms, drain_ms, start = SHAPES[shape]
    if load_ms is None:
        load_ms = shape_load_ms
    s = start(seed, load_ms)
    s.sim.run(until=load_ms + drain_ms)
    return s


def run_shape(shape: str, seed: int, load_ms: Optional[float] = None) -> list:
    """The :func:`check_run` verdict on one seed of ``shape``."""
    return check_run(drive_shape(shape, seed, load_ms))
