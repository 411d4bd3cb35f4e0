#!/usr/bin/env python3
"""Quickstart: a Concord distributed cache on a 4-node simulated cluster.

Shows the core API through the :class:`repro.session.Session` facade:

- build a cluster + coordination service + per-application Concord system
  with one object (explicit wiring stays supported, see DESIGN.md),
- read/write through the coherence protocol from different nodes,
- inspect cache states (E/S), the data directory, and access statistics,
- optionally capture a causal trace of every operation.

Run:  python examples/quickstart.py [--trace out.json]

With ``--trace``, a Chrome trace is written on exit — load it in
Perfetto / chrome://tracing, or summarize it with
``repro-inspect breakdown out.json``.
"""

import argparse

from repro.session import Session
from repro.storage import DataItem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace of the run to PATH")
    cli = parser.parse_args()

    with Session(nodes=4, seed=42, scheme="concord", app="demo",
                 trace=cli.trace or False) as s:
        concord = s.system

        # Durable data lives in global storage (~30 ms away).
        s.preload({"user:42": DataItem("profile-v0", size_bytes=2048)})

        def show(label: str) -> None:
            home = concord.ring_template.home("user:42")
            holders = {
                node: f"{entry.state}"
                for node, agent in concord.agents.items()
                if (entry := agent.cache.peek("user:42")) is not None
            }
            directory = concord.agents[home].directory.get("user:42")
            print(f"{label:42s} holders={holders} directory={directory}")

        print(f"home of 'user:42' is {concord.ring_template.home('user:42')}\n")

        t0 = s.sim.now
        value = s.read("node1", "user:42")
        print(f"node1 read -> {value.payload!r}  "
              f"({s.sim.now - t0:.1f} ms, storage miss)")
        show("after first read (Exclusive at node1):")

        t0 = s.sim.now
        s.read("node1", "user:42")
        print(f"\nnode1 read again                ({s.sim.now - t0:.1f} ms, "
              f"local hit)")

        t0 = s.sim.now
        s.read("node2", "user:42")
        print(f"node2 read                      ({s.sim.now - t0:.1f} ms, "
              f"remote hit)")
        show("after second reader (both Shared):")

        t0 = s.sim.now
        s.write("node3", "user:42", DataItem("profile-v1", size_bytes=2048))
        print(f"\nnode3 write                     ({s.sim.now - t0:.1f} ms, "
              f"invalidates node1+node2 in parallel with storage)")
        show("after the write (node3 Exclusive):")

        value = s.read("node1", "user:42")
        print(f"\nnode1 re-read -> {value.payload!r} (coherent)")

        print("\naccess statistics:")
        for kind, count in sorted(concord.stats.ops.items(),
                                  key=lambda kv: kv[0].value):
            mean = concord.stats.latency[kind].mean
            print(f"  {kind.value:18s} x{count}  mean {mean:.1f} ms")

    if cli.trace:
        print(f"\nwrote Chrome trace to {cli.trace} "
              f"(open in Perfetto, or run: repro-inspect breakdown "
              f"{cli.trace})")


if __name__ == "__main__":
    main()
