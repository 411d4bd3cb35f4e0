"""Benchmark suites: named collections of :class:`JobSpec`.

The ``tier1`` suite is the CI counter gate — fixed-seed simulator points
expressed as bench jobs so their simulated counters flow through the
journal and are compared exactly against ``BENCH_baseline.json``:

* ``fig08_point`` — one throughput grid point (8 nodes, mixed apps,
  near the SLO knee): the protocol + FaaS fast path.
* ``fig13_churn_point`` — one churn run (16 nodes, 24 removals/min):
  membership changes, directory transfers, barrier churn.
* ``topo_*`` / ``scheme_*`` — fault-free topology matrix cells and zoo
  schemes (see :func:`topology_point` and :func:`scheme_point`).

Job targets return **simulated counters only**.  The executor times
each job for its deadline and progress line, but no wall time enters a
report; host-clock measurement belongs to ``perfbench/``.
"""

from __future__ import annotations

from typing import List

from repro.bench.job import JobSpec, resolve_target
from repro.experiments.fig13_churn import _throughput_at
from repro.experiments.runner import MixedRunConfig, run_mixed_workload
from repro.session import Session
from repro.storage import DataItem

__all__ = ["DEFAULT_SEED", "SUITES", "fig08_point", "fig13_churn_point",
           "load_suite", "scale_point", "scale_suite", "scheme_point",
           "tier1_suite", "topology_point"]

DEFAULT_SEED = 1009


def fig08_point(seed: int = DEFAULT_SEED) -> dict:
    """One fig08 throughput grid point; returns simulated counters."""
    config = MixedRunConfig(
        scheme="concord", num_nodes=8, cores_per_node=4,
        utilization=None, total_rps=115,
        duration_ms=5000.0, warmup_ms=1500.0, seed=seed,
    )
    outcome = run_mixed_workload(config)
    completed = sum(s.completed for s in outcome.per_app.values())
    return {
        "simulated_ms": config.duration_ms,
        "requests_completed": completed,
        "simulated_rps": round(completed / (config.duration_ms / 1000.0), 2),
    }


def fig13_churn_point(seed: int = DEFAULT_SEED) -> dict:
    """One fig13 churn run; returns simulated counters."""
    duration_ms = 8000.0
    throughput, _registry = _throughput_at(24, duration_ms=duration_ms,
                                           seed=seed)
    return {
        "simulated_ms": duration_ms,
        "simulated_rps": round(throughput, 2),
    }


def scale_point(seed: int = DEFAULT_SEED, num_nodes: int = 100,
                requests_per_node: int = 10_000,
                working_set: int = 1000) -> dict:
    """The large-scale grid point: 100 nodes, one million cache requests.

    Per-node driver processes issue sequential Concord reads over a
    shared working set (offsets staggered so every node sweeps the whole
    set); after the first sweep the steady state is the local-hit fast
    path, which is exactly what the kernel overhaul accelerated.  At the
    pre-overhaul dispatch rate this point would not finish inside any
    reasonable bench timeout; post-overhaul it completes in well under a
    minute.  Reduced-scale variants (the keyword arguments) back the
    cross-``PYTHONHASHSEED`` byte-identity test.
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


def topology_point(topology: str, seed: int = DEFAULT_SEED) -> dict:
    """One fault-free run of a named topology matrix cell.

    Exercises the routing layer the topology adds — shard resolution,
    replica mirroring, cross-region latency — without any injected
    faults, so the counters isolate steady-state topology overhead.
    Every returned key is a simulated counter and gates bit-exactly.
    """
    from repro.faults.plan import FaultPlan
    from repro.shard.topologies import DURATION_MS, run_topology_scenario

    outcome = run_topology_scenario(
        topology, seed=seed, plan=FaultPlan(events=()))
    return {
        "simulated_ms": DURATION_MS,
        "requests_completed": outcome.completed,
        "simulated_rps": round(outcome.completed / (DURATION_MS / 1000.0), 2),
        "shards": len(outcome.shard_table),
        "shards_rehomed": outcome.shards_rehomed,
        "shard_failovers": outcome.shard_failovers,
        "violations": len(outcome.violations),
    }


def scheme_point(scheme: str, seed: int = DEFAULT_SEED) -> dict:
    """One fault-free canonical-scenario run of a zoo scheme.

    Exercises a scheme's full data path (per-node caches, flush daemons,
    replication fan-out, pull syncs) under the standard single-app
    Poisson load, plus the scheme's own invariant checker at the end.
    Every returned key is a simulated counter and gates bit-exactly;
    scheme-specific counters (flushes, syncs, migrations) ride along so
    a regression in the scheme's *internal* traffic pattern gates too.
    """
    from repro.faults.plan import FaultPlan
    from repro.faults.scenario import run_fault_scenario

    duration_ms = 4000.0
    outcome = run_fault_scenario(
        FaultPlan(events=()), seed=seed, num_nodes=6,
        duration_ms=duration_ms, rps=30.0, scheme=scheme,
        settle_ms=2000.0)
    counters = {
        "simulated_ms": duration_ms,
        "requests_completed": outcome.completed,
        "simulated_rps": round(outcome.completed / (duration_ms / 1000.0), 2),
        "violations": len(outcome.violations),
    }
    system = outcome.system
    for attribute in ("writes_enqueued", "writes_flushed", "writes_lost",
                      "syncs", "sync_failures", "migrations"):
        if hasattr(system, attribute):
            counters[attribute] = getattr(system, attribute)
    return counters


def tier1_suite(seed: int = DEFAULT_SEED) -> List[JobSpec]:
    """The CI perf-gate suite."""
    return [
        JobSpec(name="fig08_point",
                target="repro.bench.suite:fig08_point", seed=seed),
        JobSpec(name="fig13_churn_point",
                target="repro.bench.suite:fig13_churn_point", seed=seed),
        JobSpec(name="topo_flat",
                target="repro.bench.suite:topology_point",
                args={"topology": "flat"}, seed=seed),
        JobSpec(name="topo_shard4",
                target="repro.bench.suite:topology_point",
                args={"topology": "shard4"}, seed=seed),
        JobSpec(name="topo_region2",
                target="repro.bench.suite:topology_point",
                args={"topology": "region2"}, seed=seed),
        JobSpec(name="scheme_wb",
                target="repro.bench.suite:scheme_point",
                args={"scheme": "write-behind"}, seed=seed),
        JobSpec(name="scheme_causal",
                target="repro.bench.suite:scheme_point",
                args={"scheme": "causal"}, seed=seed),
    ]


def scale_suite(seed: int = DEFAULT_SEED) -> List[JobSpec]:
    """The ≥100-node / ≥1M-request scale point (post-overhaul only)."""
    return [
        JobSpec(name="scale_point",
                target="repro.bench.suite:scale_point", seed=seed,
                timeout_s=300.0),
    ]


#: Named suites the CLI accepts directly.
SUITES = {"tier1": tier1_suite, "scale": scale_suite}


def load_suite(name: str, seed: int = DEFAULT_SEED) -> List[JobSpec]:
    """A named suite, or any ``"pkg.module:callable"`` returning specs."""
    if name in SUITES:
        specs = SUITES[name](seed=seed)
    elif ":" in name:
        specs = resolve_target(name)(seed=seed)
    else:
        known = ", ".join(sorted(SUITES))
        raise ValueError(
            f"unknown suite {name!r}: pick one of [{known}] or pass a "
            "'pkg.module:callable' suite factory")
    specs = list(specs)
    if not specs or not all(isinstance(s, JobSpec) for s in specs):
        raise ValueError(f"suite {name!r} must yield a non-empty list of "
                         "JobSpec")
    return specs
