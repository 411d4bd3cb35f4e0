"""The host-speed probe: a fixed piece of work of the benchmark's own.

This box is a few vCPUs of a shared host whose speed moves by 1.4-1.8x
in phases of tens of seconds (README, "Noise"): CPU time inflates with
wall time, and no amount of repetition inside one run escapes a phase
longer than the run.  So ``round.py`` runs this probe before and after
every slice of the timed region, and ``report.norm_wall_s`` scales each
slice's time by how much slower than nominal the probes beside it ran.

The probe is a miniature event loop - a heap of a thousand generators
that sleep - because a host phase slows that mix of work as it slows the
simulator (a bare arithmetic loop tracked it half as well, a loop bound
by cache misses no better).  It imports nothing from the program, so no
change to the program can move it.
"""

from __future__ import annotations

import heapq

#: What one probe takes between two slices on the reference box when it
#: is quiet; throughput is reported in seconds of a host that runs the
#: probe in this time.
PROBE_NOMINAL_S = 0.006
_PROCESSES = 1000
_WAKEUPS = 6


def _sleeper():
    for index in range(_WAKEUPS):
        yield (index * 7919 % 13) + 1.0


def probe() -> int:
    heap: list = []
    tally: dict = {}
    order = 0
    for process in [_sleeper() for _ in range(_PROCESSES)]:
        order += 1
        heapq.heappush(heap, (0.0, order, process))
    while heap:
        now, _, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        order += 1
        tally[order & 1023] = tally.get(order & 1023, 0) + 1
        heapq.heappush(heap, (now + delay, order, process))
    return order
