"""Simulator self-profiling: wheel gauges + per-layer wall attribution.

Two complementary views of where the simulator itself spends its effort:

* :func:`install_wheel_gauges` exposes the event wheel's occupancy and
  lag as ordinary pull-callback gauges on the run's MetricsRegistry —
  live entry count, current-instant lane depth, occupied future slots,
  freelist fill, and the horizon to the next scheduled entry.  These
  read only simulator state at sampling instants, so they are fully
  deterministic and safe to leave on in replay runs.

* :class:`SelfProfiler` is an opt-in *profiled run loop*: it dispatches
  schedule entries exactly like :meth:`Simulator.run` (same pop order,
  same clock advancement — simulated behaviour is unchanged) while
  attributing the wall time of each dispatch to the repo layer whose
  code resumes.  For a process that is the *executing frame*: the
  innermost generator of its ``yield from`` chain, not the root the
  process was spawned with (a FaaS request suspended inside the cache
  agent resumes ``core`` code, not ``faas``); an event entry is booked
  to the process waiting on it.  Beside the per-layer table it keeps a
  ``sites`` table keyed by the suspension point (``function:line``), so
  "which wake-ups cost the most" is one ``render_profile`` call.  This
  answers "where does wall time go" for the ROADMAP perf work without
  cProfile's overhead (which taxes calls, not native work) or its loss
  of the dispatch as a unit.  Pauses of CPython's cyclic collector are
  timed through ``gc.callbacks`` and reported per generation *beside*
  the layers: a collection is triggered by whichever allocation crosses
  the threshold but its cost is set by everything the run retains, so
  booking it to the allocating layer (as cProfile does) misleads.  Wall
  readings are measurement, not simulation — they vary run to run and
  are deliberately kept out of metric exports and flight-recorder dumps
  (the determinism contract, DESIGN.md §13).
"""

from __future__ import annotations

import gc
# Wall-clock self-measurement only, never simulation time.
import time  # noqa: DET01
from typing import Optional

from repro.sim.profiled import profiled_run

__all__ = ["SelfProfiler", "install_wheel_gauges", "render_profile"]

_INF = float("inf")


def install_wheel_gauges(sim) -> None:
    """Register event-wheel occupancy/lag gauges on ``sim.metrics``.

    No-op under the Null registry.  Callbacks read kernel state only at
    sampling instants (zero hot-path cost, deterministic values).
    """
    metrics = sim.metrics
    if not metrics.active:
        return
    wheel = sim._wheel
    metrics.gauge(
        "sim_wheel_live_entries",
        "Live (non-cancelled) entries in the event wheel.",
        labelnames=(),
    ).set_callback(lambda: len(wheel))
    metrics.gauge(
        "sim_wheel_imm_depth",
        "Entries queued in the current-instant FIFO lane.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._imm))
    metrics.gauge(
        "sim_wheel_pending_days",
        "Occupied future time slots (calendar days) in the wheel.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._days))
    metrics.gauge(
        "sim_wheel_freelist_entries",
        "Recycled entries parked on the wheel freelist.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._free))
    metrics.gauge(
        "sim_wheel_horizon_ms",
        "Sim-time lag from now to the next scheduled entry "
        "(-1 when the schedule is drained).",
        labelnames=(),
    ).set_callback(
        lambda: -1.0 if (nxt := wheel.peek()) == _INF else nxt - sim.now)
    metrics.counter(
        "sim_schedule_entries_total",
        "Entries ever scheduled (events and raw callbacks).",
        labelnames=(),
    ).set_callback(lambda: sim.schedule_count)


def _layer_from_path(filename: str) -> str:
    """Map a code filename to its repo layer (``repro/<layer>/...``)."""
    marker = "repro/"
    pos = filename.replace("\\", "/").rfind(marker)
    if pos < 0:
        return "external"
    rest = filename.replace("\\", "/")[pos + len(marker):]
    segment = rest.split("/", 1)[0]
    return segment[:-3] if segment.endswith(".py") else segment


def _layer_from_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro":
        return "external"
    return parts[1] if len(parts) > 1 else "repro"


def _resuming_frame(generator):
    """The innermost suspended generator of a ``yield from`` chain.

    That is the frame a wake-up actually re-enters; the outer generators
    only pass the value through.  Delegation to a plain iterator (no
    ``gi_code``) stops the walk.
    """
    while True:
        inner = getattr(generator, "gi_yieldfrom", None)
        if getattr(inner, "gi_code", None) is None:
            return generator
        generator = inner


def _waiting_process(event):
    """The first process parked on ``event``, if any."""
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if getattr(owner, "generator", None) is not None:
            return owner
    return None


def _site_of(event, fn) -> tuple:
    """Attribute one schedule entry, before dispatch: ``(layer, site)``.

    ``site`` names the suspension point that resumes — ``function:line``
    of the innermost generator frame — or, for entries that wake no
    process (fabric deliveries, timers, condition hops), the callback or
    event itself.
    """
    owner = getattr(fn, "__self__", None) if fn is not None else event
    if getattr(owner, "generator", None) is None and event is not None:
        owner = _waiting_process(event) or owner
    generator = getattr(owner, "generator", None)
    if generator is not None:
        generator = _resuming_frame(generator)
        code = generator.gi_code
        frame = generator.gi_frame
        line = frame.f_lineno if frame is not None else code.co_firstlineno
        return (_layer_from_path(code.co_filename),
                f"{code.co_qualname}:{line}")
    if fn is not None:
        module = getattr(fn, "__module__", None)
        layer = _layer_from_module(module) if module else "external"
        return layer, getattr(fn, "__qualname__", repr(fn))
    kind = type(event)
    return _layer_from_module(kind.__module__), f"<{kind.__name__}>"


class SelfProfiler:
    """Wall-time attribution over a profiled run loop.

    ``profiler.run(sim, until=...)`` is a drop-in for ``sim.run`` with
    per-dispatch wall measurement; accumulated attribution lands in
    ``wall_s`` / ``dispatches`` (layer-keyed dicts), in ``sites``
    (suspension point -> ``[wall_s, dispatches]``) and, for the cyclic
    collector, in ``gc_s`` / ``gc_collections`` (indexed by generation;
    that time is in no layer's ``wall_s``).
    """

    def __init__(self):
        self.wall_s: dict = {}
        self.dispatches: dict = {}
        self.sites: dict = {}
        self.gc_s: list = [0.0, 0.0, 0.0]
        self.gc_collections: list = [0, 0, 0]

    def run(self, sim, until: Optional[float] = None) -> None:
        """Dispatch like ``Simulator.run`` while attributing wall time.

        Pop order, clock advancement and dispatch semantics match the
        plain run loop entry for entry, so the simulated outcome is
        identical; only the measurement differs.
        """
        wall_s = self.wall_s
        dispatches = self.dispatches
        sites = self.sites
        clock = time.perf_counter
        gc_began = 0.0
        gc_in_dispatch = 0.0

        def on_gc(phase: str, info: dict) -> None:
            nonlocal gc_began, gc_in_dispatch
            if phase == "start":
                gc_began = clock()
            else:
                spent = clock() - gc_began
                self.gc_s[info["generation"]] += spent
                self.gc_collections[info["generation"]] += 1
                gc_in_dispatch += spent

        def classify(event, fn) -> tuple:
            nonlocal gc_in_dispatch
            key = _site_of(event, fn)
            # The dispatch is timed from here on; a pause before it
            # belongs to no layer.
            gc_in_dispatch = 0.0
            return key

        def observe(key: tuple, spent: float) -> None:
            layer, site = key
            spent -= gc_in_dispatch
            wall_s[layer] = wall_s.get(layer, 0.0) + spent
            dispatches[layer] = dispatches.get(layer, 0) + 1
            cell = sites.get(site)
            if cell is None:
                sites[site] = [spent, 1]
            else:
                cell[0] += spent
                cell[1] += 1

        gc.callbacks.append(on_gc)
        try:
            profiled_run(sim, clock, classify, observe, until=until)
        finally:
            gc.callbacks.remove(on_gc)

    def report(self) -> list:
        """Attribution rows sorted by wall share, descending."""
        total = sum(self.wall_s.values()) or 1.0
        rows = [{
            "layer": layer,
            "wall_s": self.wall_s[layer],
            "share": self.wall_s[layer] / total,
            "dispatches": self.dispatches.get(layer, 0),
        } for layer in self.wall_s]
        rows.sort(key=lambda row: (-row["wall_s"], row["layer"]))
        return rows

    def site_report(self, top: Optional[int] = None) -> list:
        """Suspension-point rows sorted by wall, descending (``top`` first)."""
        rows = [{"site": site, "wall_s": wall, "dispatches": count,
                 "us_per_dispatch": wall / count * 1e6}
                for site, (wall, count) in self.sites.items()]
        rows.sort(key=lambda row: (-row["wall_s"], row["site"]))
        return rows if top is None else rows[:top]

    def gc_report(self) -> list:
        """Collector rows, one per generation that ran."""
        return [{"generation": generation, "wall_s": self.gc_s[generation],
                 "collections": self.gc_collections[generation]}
                for generation in range(3)
                if self.gc_collections[generation]]


def render_profile(profiler: SelfProfiler, top: int = 15) -> str:
    """Text tables: per-layer wall attribution, then the ``top`` sites."""
    rows = profiler.report()
    total_wall = sum(row["wall_s"] for row in rows)
    total_disp = sum(row["dispatches"] for row in rows)
    lines = [f"self-profile: {total_disp} dispatches, "
             f"{total_wall * 1e3:.1f} ms wall",
             f"{'layer':<12} {'wall_ms':>10} {'share':>7} {'dispatches':>11}"]
    for row in rows:
        lines.append(f"{row['layer']:<12} {row['wall_s'] * 1e3:>10.2f} "
                     f"{row['share'] * 100:>6.1f}% {row['dispatches']:>11}")
    for row in profiler.gc_report():
        # Beside the layers, not among them: no share, and the count is
        # of collections, not dispatches.
        lines.append(f"{'gc gen' + str(row['generation']):<12} "
                     f"{row['wall_s'] * 1e3:>10.2f} {'':>7} "
                     f"{row['collections']:>11}")
    site_rows = profiler.site_report(top)
    if site_rows:
        lines.append(f"top {len(site_rows)} of {len(profiler.sites)} sites "
                     "(suspension point that resumes)")
        lines.append(f"{'wall_ms':>10} {'share':>7} {'dispatches':>11} "
                     f"{'us/disp':>8}  site")
        for row in site_rows:
            lines.append(
                f"{row['wall_s'] * 1e3:>10.2f} "
                f"{row['wall_s'] / (total_wall or 1.0) * 100:>6.1f}% "
                f"{row['dispatches']:>11} {row['us_per_dispatch']:>8.2f}  "
                f"{row['site']}")
    return "\n".join(lines) + "\n"
