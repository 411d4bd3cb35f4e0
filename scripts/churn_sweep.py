#!/usr/bin/env python
"""Churn sweep: seeds 1-10 of 60 s churn at 24 removals/min must end clean.

Each seed runs Figure 13's churn setup (16 nodes, SocNet at 40 req/s,
one cache instance removed and re-created every 2.5 s) through
:func:`repro.experiments.fig13_churn.churn_run`, then drains for 10 s
after the load stops.  A seed is dirty if any request is still
unfinished after the drain, if any node was declared failed (the run
injects no crash, so every declaration is false), or if a request died
with ``KeyError`` or ``EmptyRingError``.  The script prints one line
per seed and exits 1 naming every dirty seed.

Usage::

    PYTHONPATH=src python scripts/churn_sweep.py [SEED ...]
"""

import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.fig13_churn import churn_run  # noqa: E402

SEEDS = range(1, 11)
DURATION_MS = 60_000.0
CHURN_PER_MIN = 24
DRAIN_MS = 10_000.0
#: Failures that mean a request ran into a removed or ejected instance.
MEMBERSHIP_ERRORS = ("KeyError", "EmptyRingError")


def main(argv) -> int:
    seeds = [int(arg) for arg in argv] or list(SEEDS)
    dirty = []
    for seed in seeds:
        s = churn_run(CHURN_PER_MIN, DURATION_MS, seed)
        app = s.deployed["SocNet"]
        rps = app.requests_completed / (DURATION_MS / 1000.0)
        s.sim.run(until=DURATION_MS + DRAIN_MS)
        failures = Counter(type(exc).__name__
                           for _process, exc in s.sim.daemon_failures)
        declared = len(s.coord.failures_detected)
        clean = (app.inflight == 0 and declared == 0
                 and not any(failures[name] for name in MEMBERSHIP_ERRORS))
        print(f"seed {seed}: {rps:.2f} req/s declared={declared} "
              f"unfinished={app.inflight} failed={app.requests_failed} "
              f"rescheduled={app.requests_rescheduled} "
              f"errors={dict(sorted(failures.items()))} -> "
              f"{'ok' if clean else 'DIRTY'}", flush=True)
        if not clean:
            dirty.append(str(seed))
    if dirty:
        print("dirty seeds: " + ", ".join(dirty))
        return 1
    print("no dirty seed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
