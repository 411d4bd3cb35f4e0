"""The flight recorder: a bounded ring buffer of protocol events.

A :class:`FlightRecorder` collects :class:`ProtoEvent` records — typed,
sim-clock-stamped protocol transitions (see :mod:`repro.obs.events`) —
from every instrumented layer.  Design constraints mirror the tracer and
the metrics registry:

* **Simulated time only** (DET01): events are stamped with ``sim.now``;
  the recorder never reads a wall clock.
* **Deterministic identity** (DET03): event sequence numbers come from
  the run's ``sim.ids`` counter, so two identically-seeded runs produce
  byte-identical dumps regardless of ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_RECORDER` whose ``active`` flag lets emission sites skip
  argument packing entirely.
* **Purely passive**: recording appends to a Python list and never
  schedules, yields or otherwise touches the schedule, so a run with
  the recorder enabled is schedule-identical — and therefore
  counter-identical — to the same run without it (the golden identity
  pins hold this).

**Cross-signal correlation.**  Every event carries the ambient
``TraceContext`` (``trace``/``span`` ids, 0 when tracing is off) and the
``tick`` — the metric registry's sample count at emission time — so
post-mortem tooling can join the event log with the span tree and the
sampled timelines of the same run without timestamps alone.

**Ring-buffer semantics.**  The buffer holds the most recent
``capacity`` events; older ones fall out and are counted in
``dropped``.  Emission order is sim-time order (the clock is monotonic
within a run), so eviction always discards a prefix — the survivors stay
sorted by ``(t, seq)``.

**Storage layout.**  One row of atomics per event — ``(seq, t, type,
node, key, trace, span, tick)`` — and its attrs dict, never an object
per event, filed with a :class:`~repro.packedlog.PackedLog` whose
*window* is the ring: the newest events are staged in flat lists (rows
end to end, attrs' keys and values end to end, one attr count per
event), every ``packedlog.BATCH`` of them is replaced by one ``marshal``
blob (~70 bytes an event instead of ~360), whole batches that fell out
of the window are dropped and the batch the window's edge runs through
is cut when read.  It is the tracer's layout, for the tracer's reasons
(see :mod:`repro.trace.tracer`, "Storage layout").
:meth:`FlightRecorder.events` builds :class:`ProtoEvent` views on
demand.

**Automatic dump.**  When constructed with ``dump_path``, emitting a
dump-trigger event (fault injection, coherence violation) writes the
full buffer to that JSONL path immediately, so the flight recording of a
failing run survives even if the driver crashes before exporting.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import DUMP_TRIGGERS
from repro.packedlog import PackedLog

__all__ = ["FlightRecorder", "NullRecorder", "NULL_RECORDER", "ProtoEvent",
           "DEFAULT_CAPACITY"]

#: Default ring capacity: generous for post-mortems, bounded for soak runs.
DEFAULT_CAPACITY = 65536


class ProtoEvent:
    """One recorded protocol event (a read-side view of one ring row)."""

    __slots__ = ("seq", "t", "type", "node", "key", "trace", "span",
                 "tick", "attrs")

    def __init__(self, seq, t, type, node, key, trace, span, tick, attrs):
        self.seq = seq
        self.t = t
        self.type = type
        self.node = node
        self.key = key
        self.trace = trace
        self.span = span
        self.tick = tick
        self.attrs = attrs

    def to_dict(self) -> dict:
        return _event_dict((self.seq, self.t, self.type, self.node, self.key,
                            self.trace, self.span, self.tick), self.attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProtoEvent(#{self.seq} t={self.t} {self.type} "
                f"node={self.node!r} key={self.key!r})")


def _event_dict(row: tuple, attrs: dict) -> dict:
    """The JSON-ready export record of one ring row."""
    seq, t, etype, node, key, trace, span, tick = row
    return {
        "seq": seq,
        "t": t,
        "type": etype,
        "node": node,
        "key": key,
        "trace": trace,
        "span": span,
        "tick": tick,
        "attrs": attrs,
    }


class FlightRecorder:
    """Bounded in-memory protocol event log bound to one Simulator."""

    active = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 dump_path: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.dump_path = dump_path
        self._sim = None
        # The ring (see "Storage layout" above).
        self._log = PackedLog(window=capacity)
        #: Automatic full dumps written (fault / violation triggers).
        self.autodumps = 0

    # -- wiring -------------------------------------------------------
    def bind(self, sim) -> "FlightRecorder":
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "FlightRecorder is already bound to another Simulator")
        self._sim = sim
        self._next_seq = sim.ids("obs-event")
        return self

    @property
    def sim(self):
        return self._sim

    # -- recording ----------------------------------------------------
    def emit(self, etype: str, node: str = "", key: str = "",
             **attrs) -> None:
        """Record one event, stamped with sim time, trace ids and tick.

        Purely passive: one append to the log, no simulator
        interaction.  Callers gate on ``recorder.active`` so
        the Null sink never evaluates the arguments.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("FlightRecorder.emit() before bind(): attach "
                               "the recorder via Simulator(obs=...)")
        # ``Tracer.current()``, inline: 26 events a request.
        process = sim.active_process
        context = (process.trace_ctx if process is not None
                   else sim.tracer._ambient)
        if context is None:
            trace = span = 0
        else:
            trace, span = context
            # An event names its span, so a leaf it names stays a span
            # (Span.end); a context implies an active Tracer.
            leaves = sim.tracer._leaves
            if span in leaves:
                del leaves[span]
        self._log.append((next(self._next_seq), sim.now, etype, node, key,
                          trace, span, sim.metrics.samples), attrs)
        if self.dump_path is not None and etype in DUMP_TRIGGERS:
            self._autodump()

    # -- inspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    @property
    def dropped(self) -> int:
        """Events overwritten by ring eviction."""
        return self._log.dropped

    def events(self) -> list:
        """Recorded events, oldest first (built on demand)."""
        return [ProtoEvent(*row, attrs) for row, attrs in self._log]

    def iter_dicts(self):
        """Events as JSON-ready dicts, oldest first, one at a time."""
        for row, attrs in self._log:
            yield _event_dict(row, attrs)

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return list(self.iter_dicts())

    def clear(self) -> None:
        self._log.clear()

    # -- dumping ------------------------------------------------------
    def _autodump(self) -> None:
        """Write the full ring to ``dump_path`` (fault/violation hook)."""
        from repro.obs.export import export_jsonl

        export_jsonl(self, self.dump_path)
        self.autodumps += 1


class NullRecorder:
    """Inactive recorder: every operation is a no-op.

    ``active`` is False so emission sites skip argument packing; code
    that emits unconditionally still works and pays only the call.
    """

    active = False

    def bind(self, sim) -> "NullRecorder":
        return self

    @property
    def sim(self):
        return None

    capacity = 0
    dump_path = None
    dropped = 0
    autodumps = 0

    def emit(self, etype, node="", key="", **attrs) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def events(self) -> list:
        return []

    def iter_dicts(self):
        return iter(())

    def to_dicts(self) -> list:
        return []

    def clear(self) -> None:
        return None


#: Shared inactive recorder; the default for every Simulator.
NULL_RECORDER = NullRecorder()
