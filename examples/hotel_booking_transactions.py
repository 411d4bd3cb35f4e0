#!/usr/bin/env python3
"""Transactional hotel booking: Concord transactions vs Saga vs Beldi.

Four concurrent clients book rooms for the same few hotels — a contended
workload.  Concord detects conflicts through coherence messages and
buffers speculative writes in its caches; Saga compensates via storage;
Beldi logs every access.  The example prints commits/aborts and mean
latencies for all three.

Run:  python examples/hotel_booking_transactions.py
"""

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.metrics import Histogram
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem
from repro.txn import BeldiRunner, ConcordTxnRuntime, SagaRunner, TXN_APPS

CLIENTS = 4
BOOKINGS_PER_CLIENT = 5
HOTELS = 3


def booking_body(app, hotel: int):
    """One booking transaction: check availability, reserve, charge..."""
    def body(txn):
        for step in app.steps:
            yield txn.runtime.sim.timeout(step.compute_ms)
            for template in step.reads:
                yield from txn.read(template.format(e=hotel))
            for template in step.writes:
                key = template.format(e=hotel)
                yield from txn.write(key, DataItem((key, "booked"), 256))
        return f"booked hotel {hotel}"
    return body


def run_system(system_name: str) -> dict:
    config = SimConfig(num_nodes=4)
    if system_name == "concord":
        s = Session(config=config, seed=7, app="hotel")
        sim, cluster = s.sim, s.cluster
        runtime = ConcordTxnRuntime(s.system)
    else:
        # Saga and Beldi run on storage alone: no coordination service.
        sim = Simulator(seed=7)
        cluster = Cluster(sim, config)
        runtime = (SagaRunner if system_name == "saga" else BeldiRunner)(cluster)
    app = TXN_APPS["HotelBooking"]
    cluster.storage.preload({k: DataItem("init", 256) for k in app.keyspace()})

    rng = sim.rng.stream("clients")
    latencies = Histogram()

    def client(index: int):
        node = f"node{index % 4}"
        for _ in range(BOOKINGS_PER_CLIENT):
            yield sim.timeout(rng.expovariate(1 / 50.0))
            hotel = rng.randrange(HOTELS)
            start = sim.now
            if system_name == "concord":
                yield from runtime.run(node, booking_body(app, hotel))
            else:
                yield from runtime.run(app, hotel, writer_tag=f"client{index}")
            latencies.record(sim.now - start)

    for index in range(CLIENTS):
        sim.spawn(client(index), name=f"client{index}")
    sim.run(until=3_000_000.0)

    stats = {"mean_ms": latencies.mean, "p99_ms": latencies.p99,
             "commits": runtime.commits}
    if system_name == "concord":
        stats["aborts"] = runtime.aborts
    elif system_name == "saga":
        stats["compensations"] = runtime.compensations
    else:
        stats["aborts"] = runtime.aborts
    return stats


def main() -> None:
    print(f"{CLIENTS} clients x {BOOKINGS_PER_CLIENT} bookings over "
          f"{HOTELS} contended hotels (6-step transactions)\n")
    results = {name: run_system(name) for name in ("saga", "beldi", "concord")}
    for name, stats in results.items():
        extras = ", ".join(f"{k}={v}" for k, v in stats.items()
                           if k not in ("mean_ms", "p99_ms"))
        print(f"{name:8s} mean={stats['mean_ms']:8.1f} ms  "
              f"p99={stats['p99_ms']:8.1f} ms  ({extras})")
    saga, concord = results["saga"]["mean_ms"], results["concord"]["mean_ms"]
    beldi = results["beldi"]["mean_ms"]
    print(f"\nConcord reduces mean transaction latency by "
          f"{100 * (1 - concord / saga):.0f}% vs Saga and "
          f"{100 * (1 - concord / beldi):.0f}% vs Beldi "
          f"(paper: 54% and 20%).")


if __name__ == "__main__":
    main()
