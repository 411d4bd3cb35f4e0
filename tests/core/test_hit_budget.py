"""A local read hit pays one Python call per layer it uses.

The hit is the operation Concord's case rests on (paper §III-C2), so its
Python-level call count is pinned: the scheme's ``_do_read``, the agent's
generator (started, then resumed by its wake-up), ``Simulator.sleep``,
``Process._sleep_wake`` and ``AccessStats.record``.  The wheel advance,
the LRU lookup and touch, the histogram append and the op dispatch cost
no call of their own.
"""

import sys
from collections import Counter

from repro.config import SimConfig
from repro.metrics import OpKind
from repro.session import Session
from repro.storage import DataItem

HITS = 200
#: Python-level calls one local read hit may make (the parent of this
#: budget made 10).
CALLS_PER_HIT = 6


def test_a_local_read_hit_makes_at_most_six_python_calls():
    # Heartbeats far apart: no coordination traffic lands among the hits.
    session = Session(seed=7, scheme="concord",
                      config=SimConfig(num_nodes=3,
                                       heartbeat_interval_ms=60_000.0))
    system, sim = session.system, session.sim
    session.preload({"k": DataItem("v", 64)})
    assert session.read("node0", "k") == DataItem("v", 64)  # miss: installs
    session.read("node0", "k")  # first hit: builds the kind's histogram
    hits_before = system.stats.count(OpKind.LOCAL_READ_HIT)
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is not driver_code:
            calls[frame.f_code.co_qualname] += 1

    def driver():
        sys.setprofile(profile)
        try:
            for _ in range(HITS):
                yield from system.read("node0", "k")
        finally:
            sys.setprofile(None)

    driver_code = driver.__code__
    sim.spawn(driver())
    try:
        sim.run(until=sim.now + 2 * HITS * session.config.latency.local_access)
    finally:
        sys.setprofile(None)  # also when the driver did not finish
    assert system.stats.count(OpKind.LOCAL_READ_HIT) - hits_before == HITS
    listing = "\n".join(f"{count / HITS:6.2f}  {name}"
                        for name, count in calls.most_common())
    assert sum(calls.values()) <= CALLS_PER_HIT * HITS, (
        f"{sum(calls.values()) / HITS:.2f} calls per local hit "
        f"(budget {CALLS_PER_HIT}):\n{listing}")
