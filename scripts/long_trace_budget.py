#!/usr/bin/env python
"""Long-trace memory budget: a long traced run and its export must fit.

One ``faas_mixed``-shaped :class:`~repro.session.Session` (perfbench's
headline workload: 7 apps, 67 req/s open loop, 8 nodes x 4 cores, Concord)
runs traced and recorded for ``--seconds`` of simulated time and is then
written out with ``export_chrome`` — all under an address-space limit this
script sets on itself (``RLIMIT_AS``, ``--limit-mb``).  200 simulated
seconds finish ~1.5 million spans: kept as one tuple and one dict each
they are ~0.6 GB before an export that builds the document in memory
triples that, so the default 1.5 GB limit holds only while the sinks pack
their finished records (:mod:`repro.packedlog`) *and* the exporters
stream.  Exceeding the limit surfaces as ``MemoryError``: exit status 1.

Usage::

    PYTHONPATH=src python scripts/long_trace_budget.py
        [--seconds S] [--limit-mb MB] [--seed N]
"""

import argparse
import os
import resource
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import MB, LatencyModel, SimConfig  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads import ALL_PROFILES  # noqa: E402

RPS = 67.0
DRAIN_MS = 6_000.0


def traced_run(seed: int, load_ms: float, trace_path: str) -> dict:
    apps = tuple(ALL_PROFILES)
    config = SimConfig(
        num_nodes=8, cores_per_node=4,
        latency=replace(LatencyModel(), agent_service_ms=1.2))
    s = Session(seed=seed, config=config, scheme="concord", apps=apps,
                trace=True, obs=True, capacity=64 * MB, estate_writes=False)
    for name in apps:
        s.sim.spawn(s.platform.open_loop(name, RPS / len(apps), load_ms,
                                         s.factories[name]),
                    name=f"load:{name}")
    s.sim.run(until=load_ms + DRAIN_MS)
    completed = sum(app.requests_completed for app in s.deployed.values())
    s.export_trace(trace_path)
    s.close()
    return {
        "requests": completed,
        "spans": sum(1 for _ in s.tracer.iter_dicts()),
        "events": len(s.obs) + s.obs.dropped,
        "trace_mb": os.path.getsize(trace_path) / 2 ** 20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=200.0,
                        help="simulated seconds of load (default 200)")
    parser.add_argument("--limit-mb", type=int, default=1536,
                        help="RLIMIT_AS for this process (default 1536)")
    parser.add_argument("--seed", type=int, default=1009)
    args = parser.parse_args(argv)

    limit = args.limit_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    with tempfile.TemporaryDirectory() as scratch:
        try:
            summary = traced_run(args.seed, args.seconds * 1000.0,
                                 os.path.join(scratch, "trace.json"))
        except MemoryError:
            print(f"long-trace budget: FAILED — the traced run or its "
                  f"export needed more than {args.limit_mb} MB of address "
                  f"space", file=sys.stderr)
            return 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"long-trace budget: ok — {args.seconds:g} s simulated, "
          f"{summary['requests']} requests, {summary['spans']} spans, "
          f"{summary['events']} events, {summary['trace_mb']:.1f} MB of "
          f"Chrome trace; peak RSS {peak_mb:.1f} MB under a "
          f"{args.limit_mb} MB address-space limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
