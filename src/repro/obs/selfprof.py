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
  code resumes: the package of the process generator being stepped, or
  of the callback/event owner.  This answers "where does wall time go"
  for the ROADMAP perf work without cProfile's overhead or its
  per-function granularity.  Pauses of CPython's cyclic collector are
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


def _layer_of(event, fn) -> str:
    """Attribute one schedule entry to a repo layer before dispatch."""
    if fn is not None:
        owner = getattr(fn, "__self__", None)
        generator = getattr(owner, "generator", None)
        code = getattr(generator, "gi_code", None)
        if code is not None:
            return _layer_from_path(code.co_filename)
        module = getattr(fn, "__module__", None)
        if module:
            return _layer_from_module(module)
        return "external"
    return _layer_from_module(type(event).__module__)


class SelfProfiler:
    """Wall-time attribution over a profiled run loop.

    ``profiler.run(sim, until=...)`` is a drop-in for ``sim.run`` with
    per-dispatch wall measurement; accumulated attribution lands in
    ``wall_s`` / ``dispatches`` (layer-keyed dicts) and, for the cyclic
    collector, in ``gc_s`` / ``gc_collections`` (indexed by generation;
    that time is in no layer's ``wall_s``).
    """

    def __init__(self):
        self.wall_s: dict = {}
        self.dispatches: dict = {}
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

        def classify(event, fn) -> str:
            nonlocal gc_in_dispatch
            layer = _layer_of(event, fn)
            # The dispatch is timed from here on; a pause before it
            # belongs to no layer.
            gc_in_dispatch = 0.0
            return layer

        def observe(layer: str, spent: float) -> None:
            wall_s[layer] = wall_s.get(layer, 0.0) + spent - gc_in_dispatch
            dispatches[layer] = dispatches.get(layer, 0) + 1

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

    def gc_report(self) -> list:
        """Collector rows, one per generation that ran."""
        return [{"generation": generation, "wall_s": self.gc_s[generation],
                 "collections": self.gc_collections[generation]}
                for generation in range(3)
                if self.gc_collections[generation]]


def render_profile(profiler: SelfProfiler) -> str:
    """Text table of per-layer wall attribution."""
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
    return "\n".join(lines) + "\n"
