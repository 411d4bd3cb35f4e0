"""A profiled drop-in for ``Simulator.run`` (kernel side).

:func:`profiled_run` dispatches schedule entries exactly like
:meth:`Simulator.run` — same (time, seq) pop order, same clock
advancement, same dispatch semantics — while letting a caller-supplied
pair of hooks attribute the wall cost of each dispatch:

* ``classify(event, fn) -> key`` runs *before* dispatch and maps the
  entry to an attribution bucket (the obs layer maps it to the repo
  package whose code resumes);
* ``observe(key, seconds)`` runs *after* dispatch with the measured
  duration.

The wall clock itself is injected (``clock``) so this module stays free
of wall-time imports; :mod:`repro.obs.selfprof` passes
``time.perf_counter``.  Simulated behaviour is identical to the plain
run loop — only the measurement differs — so a profiled run produces
the same counters, traces and flight recordings as an unprofiled one.

What is profiled is the *un-elided* schedule: the plain loop skips a
zero-delay hop that would be the next entry dispatched anyway (the
next-entry rule, DESIGN.md §12), which would fold several suspension
points into one measured dispatch and book a process's wake-up to
whatever delivered to it.  ``profiled_run`` holds the kernel's
tail-position flag down for its duration, so every hop is paid through
the wheel, entry for entry as before that rule existed — the same
simulated outcome by construction, and the oracle the elision tests
compare against.

This lives in the ``sim`` package because the loop must touch kernel
internals (it advances ``now`` and reads the wheel entry layout); SIM03
keeps that privilege out of every other layer.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.errors import SimulationError

__all__ = ["profiled_run"]


def profiled_run(
    sim,
    clock: Callable[[], float],
    classify: Callable[[object, object], str],
    observe: Callable[[str, float], None],
    until: Optional[float] = None,
) -> None:
    """Run ``sim`` like ``Simulator.run(until=...)`` with per-dispatch hooks."""
    if until is not None and until < sim.now:
        raise SimulationError(
            f"cannot run until {until}; clock already at {sim.now}")
    wheel = sim._wheel
    # Held down (and put back as found): every zero-delay hop is paid
    # through the wheel, so one dispatch is still one suspension point
    # resuming and the hooks see each of them.
    tail = sim._tail
    sim._tail = 0
    try:
        while True:
            if until is not None and wheel.peek() > until:
                break
            entry = wheel.pop(sim.now)
            if entry is None:
                break
            when = entry[0]
            if when > sim.now:
                sim.now = when
            event, fn, arg = entry[2], entry[3], entry[4]
            wheel.recycle(entry)
            key = classify(event, fn)
            begin = clock()
            if event is not None:
                event._process()
            else:
                fn(arg)
            observe(key, clock() - begin)
    finally:
        sim._tail = tail
    if until is not None and until > sim.now:
        sim.now = until
