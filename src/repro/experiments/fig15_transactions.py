"""Figure 15: transaction latency — Saga vs Beldi vs Concord.

Five transactional applications, each a 6-8 function chain, run with
concurrent clients contending on popular entities.  Concord detects
conflicts through coherence messages and rolls back by flushing caches;
Saga re-reads storage and compensates; Beldi logs every access.  Paper:
Concord cuts average latency by 54 % vs Saga and 20 % vs Beldi.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.experiments.tables import ExperimentResult, with_average
from repro.metrics import Histogram
from repro.session import Session
from repro.storage import DataItem
from repro.txn import BeldiRunner, ConcordTxnRuntime, SagaRunner, TXN_APPS

SYSTEMS = ("saga", "beldi", "concord")


def _preload(cluster, app):
    cluster.storage.preload({
        key: DataItem("init", 256) for key in app.keyspace()
    })


def _concord_body(app, entity):
    def body(txn):
        for step in app.steps:
            yield txn.runtime.sim.timeout(step.compute_ms)
            for template in step.reads:
                yield from txn.read(template.format(e=entity))
            for template in step.writes:
                key = template.format(e=entity)
                yield from txn.write(key, DataItem((key, "concord"), 256))
        return True
    return body


def _measure_system(system: str, app, clients: int, txns_per_client: int,
                    seed: int) -> float:
    # Saga and Beldi run on storage alone: a session that caches nothing.
    s = Session(config=SimConfig(num_nodes=4), seed=seed, app=app.name,
                scheme="concord" if system == "concord" else "nocache")
    sim, cluster = s.sim, s.cluster
    if system == "concord":
        runtime = ConcordTxnRuntime(s.system)
    else:
        runtime = (SagaRunner if system == "saga" else BeldiRunner)(cluster)
    _preload(cluster, app)
    latencies = Histogram()

    rng = sim.rng.stream("txn-clients")

    def client(index: int):
        node = f"node{index % cluster.config.num_nodes}"
        for sequence in range(txns_per_client):
            yield sim.timeout(rng.expovariate(1 / 40.0))
            entity = rng.randrange(3)  # few entities -> real contention
            start = sim.now
            if system == "concord":
                yield from runtime.run(node, _concord_body(app, entity))
            else:
                yield from runtime.run(app, entity, writer_tag=f"c{index}")
            latencies.record(sim.now - start)

    for index in range(clients):
        sim.spawn(client(index), name=f"client{index}")
    sim.run(until=3_000_000.0)
    return latencies.mean


def run(scale: float = 1.0, seed: int = 125) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 15",
        title="Transaction latency: Saga vs Beldi vs Concord",
        columns=["app", "saga_ms", "beldi_ms", "concord_ms",
                 "vs_saga_pct", "vs_beldi_pct"],
        note="Paper: Concord reduces latency 54% vs Saga, 20% vs Beldi.",
    )
    txns = max(2, int(6 * scale))
    cells = {
        (name, system): _measure_system(system, app, 4, txns, seed)
        for name, app in TXN_APPS.items() for system in SYSTEMS
    }
    rows = []
    for name in TXN_APPS:
        saga, beldi, concord = (cells[name, system] for system in SYSTEMS)
        rows.append({
            "app": name, "saga_ms": saga, "beldi_ms": beldi,
            "concord_ms": concord,
            "vs_saga_pct": 100.0 * (1 - concord / saga),
            "vs_beldi_pct": 100.0 * (1 - concord / beldi),
        })
    result.data = with_average(rows, "vs_saga_pct", "vs_beldi_pct")
    return result
