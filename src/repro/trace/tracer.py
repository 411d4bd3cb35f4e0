"""Deterministic causal tracing clocked off the simulated clock.

A :class:`Tracer` collects :class:`Span` records describing what one
logical operation did as a tree linked by ``(trace_id, span_id,
parent_id)``.  Spans open only at the four boundaries a reader follows —
``request``, ``invoke``, ``op`` and ``rpc`` — and every protocol step
inside them (a home op, an owner fetch, an invalidation, a storage
access, a compute burst) is a :class:`Step`: a count on the span it ran
under (:meth:`Tracer.begin_step` / :meth:`Tracer.end_step`).  The tracer
records intervals only: a point transition (a directory change, a
recovery step, an injected fault) is a flight-recorder event
(:mod:`repro.obs.events`), which carries the ambient span id.  The
design constraints mirror the repository's analysis rules:

* **Simulated time only** (DET01): spans are stamped with ``sim.now``;
  the tracer never reads a wall clock.
* **Deterministic identity** (DET03): trace/span ids come from the run's
  ``sim.ids`` counters, never ``id()`` or hashes, so two identically-seeded
  runs produce byte-identical exports regardless of ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_TRACER` whose ``active`` flag lets hot paths skip span
  construction entirely.

Context propagation is ambient: every :class:`~repro.sim.process.Process`
carries a ``trace_ctx`` slot, inherited from its spawner and updated as
spans open and close, so generator-based protocol code rarely needs to
thread contexts by hand.  RPC boundaries carry the context explicitly in
``Message.trace``; passing ``trace=INHERIT`` at a call site (the default)
says "attach to whatever operation this process is serving".

**Storage layout.**  A long traced run finishes hundreds of thousands of
spans; what each one costs while the run goes on is what bounds the run.
A :class:`Span` object exists only while its span is open, and
:meth:`Tracer.span` fills its slots without an ``__init__`` frame.
Ending it files one row of atomics — ``(trace_id, span_id, parent_id,
name, category, start_ms, end_ms, tid)`` — and the attrs dict with the
tracer's :class:`~repro.packedlog.PackedLog`, in closure order.  The log
copies both into flat lists (the rows end to end, the attrs' keys and
values end to end, one attr count per span), so a finished span keeps no
tuple or dict of its own alive, and every ``packedlog.BATCH`` records
replaces them by one ``marshal.dumps`` blob: ~70 bytes a span instead of
the ~380 of a live tuple and dict, and one object per batch of spans for
the allocator and the cyclic collector to know about.  ``spans``,
``to_dicts()`` and the exporters unpack one batch at a time.

* *Why flat lists, not a tuple and a dict per span.*  CPython counts a
  GC-capable object towards the next young collection from its
  allocation until it is freed, tracked or not: staging a row tuple and
  the attrs dict per span until the batch is packed triggered a young
  collection every ~350 records (DESIGN.md §7).  Copied into flat lists,
  both are freed as soon as they are filed.
* *Why batches.*  Packing per record would pay ``dumps``' fixed cost and
  lose its back-references once a record; one blob per run would
  double the peak while it is built.  The hot path (``Span.end``) gains
  a width check and one length check.
* *Why* ``marshal`` *and not typed columns.*  ``array`` columns plus a
  table of attr shapes reach the same bytes per span but have to take
  every row apart in Python — 1.1 µs a row fully vectorised against
  0.4 µs for ``dumps`` on the host where both were prototyped (ISSUE 24;
  ``dumps`` measures 0.6–0.85 µs here, EXPERIMENTS.md "Packed signal
  logs") — for five times the code.
  ``marshal`` writes str/int/float/bool/None and lists / dicts of them
  exactly, and a 5-byte reference for an object it has already written,
  which is why names are ``sys.intern``-ed below and the per-method,
  per-app and per-function span names come from :class:`SpanNames`:
  one object per distinct name, not one string per span.
* *What falls back.*  A batch with an attr ``marshal`` refuses stays in
  the log as the lists it was.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left
from typing import NamedTuple, Optional

from repro.packedlog import PackedLog


class TraceContext(NamedTuple):
    """Position inside one span tree, carried across process boundaries."""

    trace_id: int
    span_id: int


#: ``TraceContext(a, b)`` runs the NamedTuple's Python-level ``__new__``;
#: :meth:`Tracer.span` (once per span) goes to the C constructor.
_tuple_new = tuple.__new__
#: Allocates a :class:`Span` with no ``__init__`` frame.
_new_span = object.__new__


class SpanNames(dict):
    """``key -> sys.intern(prefix + key)``, each name built once.

    For span sites named per RPC method, app or function (closed sets):
    a hit is one C dict lookup where an f-string would build and intern
    a new string per span.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key: str) -> str:
        name = self[key] = sys.intern(self.prefix + key)
        return name


class _Inherit:
    """Sentinel: resolve the parent from the current process context."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INHERIT"


#: Pass as ``parent=``/``trace=`` to propagate the ambient TraceContext.
INHERIT = _Inherit()


class Span:
    """One timed node of a trace tree.  Usable as a context manager.

    Live while the span is open: ending it files the row with the tracer
    and drops the references (tracer, process, previous context) that
    would otherwise keep the process that opened it reachable.

    :meth:`Tracer.span` fills the slots itself, so opening a span runs
    no ``__init__`` frame; ``context`` — this span's position, as handed
    to children and RPC messages — is the one home of its trace and
    span ids.
    """

    __slots__ = ("context", "parent_id", "name", "category", "start_ms",
                 "end_ms", "attrs", "tid", "_tracer", "_process",
                 "_prev_ctx")

    @property
    def trace_id(self) -> int:
        return self.context[0]

    @property
    def span_id(self) -> int:
        return self.context[1]

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms

    def set(self, key: str, value) -> "Span":
        """Attach/overwrite one attribute (e.g. ``status`` on timeout)."""
        self.attrs[key] = value
        return self

    def end(self) -> None:
        """Close the span at ``sim.now``; a second call is a no-op.

        A leaf (opened with ``leaf=``) that nothing named while it was
        open — no span opened or step began under it, no recorder event
        stamped with it — and whose parent is still open is *folded*:
        its duration is counted on the parent (:meth:`fold`) and no row
        is filed.
        """
        tracer = self._tracer
        if tracer is None:
            return
        self._tracer = None
        trace_id, span_id = self.context
        end_ms = self.end_ms = tracer._sim.now
        del tracer._open[span_id]
        leaves = tracer._leaves
        if span_id in leaves:
            keys = leaves.pop(span_id)
            parent = tracer._open.get(self.parent_id)
        else:
            parent = None
        if parent is None:
            tracer._log.append((trace_id, span_id, self.parent_id,
                                self.name, self.category, self.start_ms,
                                end_ms, self.tid), self.attrs)
        else:
            parent.fold(keys, self.start_ms)
        # Restore the context on whichever process opened the span, but
        # only if that span is still its current context (spans closed
        # out of order keep whatever the inner code installed).
        process = self._process
        if process is not None:
            holder_ctx = process.trace_ctx
            if holder_ctx is not None and holder_ctx[1] == span_id:
                process.trace_ctx = self._prev_ctx
            self._process = None
        else:
            holder_ctx = tracer._ambient
            if holder_ctx is not None and holder_ctx[1] == span_id:
                tracer._ambient = self._prev_ctx
        self._prev_ctx = None

    def fold(self, keys: tuple, start_ms: float) -> None:
        """Count the leaf or step interval ``[start_ms, now]`` on this
        open span: one more under ``keys[0]``, its duration added under
        ``keys[1]`` (:func:`fold_keys`).  A no-op once the span has
        ended."""
        tracer = self._tracer
        if tracer is None:
            return
        count_key, ms_key = keys
        attrs = self.attrs
        ms = tracer._sim.now - start_ms
        count = attrs.get(count_key)
        if count is None:
            attrs[count_key] = 1
            attrs[ms_key] = ms
        else:
            attrs[count_key] = count + 1
            attrs[ms_key] += ms

    def to_dict(self) -> dict:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        trace_id, span_id = self.context
        return _span_dict((trace_id, span_id, self.parent_id, self.name,
                           self.category, self.start_ms, end, self.tid),
                          self.attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ms is None else f"{self.duration_ms:.3f}ms"
        return (f"Span({self.category}:{self.name} "
                f"t{self.trace_id}/s{self.span_id} {state})")


def _span_dict(row: tuple, attrs: dict) -> dict:
    """The JSON-ready export record of one finished-span row."""
    (trace_id, span_id, parent_id, name, category, start_ms, end_ms,
     tid) = row
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "category": category,
        "start_ms": start_ms,
        "end_ms": end_ms,
        "duration_ms": end_ms - start_ms,
        "attrs": attrs,
        "tid": tid,
    }


def _finished_span(row: tuple, attrs: dict) -> Span:
    """A closed :class:`Span` view of one finished-span row."""
    span = _new_span(Span)
    (trace_id, span_id, span.parent_id, span.name, span.category,
     span.start_ms, span.end_ms, span.tid) = row
    span.context = _tuple_new(TraceContext, (trace_id, span_id))
    span.attrs = attrs
    span._tracer = span._process = span._prev_ctx = None
    return span


#: label -> its ``(count key, ms key)`` attr names, built once each.
_FOLD_KEYS: dict = {}
_COUNT_SUFFIX = ".n"
_MS_SUFFIX = ".ms"


def fold_keys(label: str) -> tuple:
    """The attr names a folded leaf labelled ``label`` is counted under.

    A label is ``<category>`` or ``<category>:<detail>`` (``compute``,
    ``op:concord:read``); its parent carries ``<label>.n`` (leaves
    folded) and ``<label>.ms`` (their summed duration).
    """
    keys = _FOLD_KEYS.get(label)
    if keys is None:
        keys = _FOLD_KEYS[label] = (sys.intern(label + _COUNT_SUFFIX),
                                    sys.intern(label + _MS_SUFFIX))
    return keys


def folded_leaves(attrs: dict):
    """``(label, count, summed_ms)`` of every leaf kind folded into a
    span with these attrs."""
    for key, count in attrs.items():
        if key.endswith(_COUNT_SUFFIX):
            label = key[:-len(_COUNT_SUFFIX)]
            yield label, count, attrs[label + _MS_SUFFIX]


#: Attrs on a client ``rpc`` span: when the server began and finished
#: serving the call (its ``_serve`` interval, carried on the response).
SERVER_START = "server_start_ms"
SERVER_END = "server_end_ms"


class Step:
    """One kind of protocol step, counted on the span it runs under.

    ``category`` and ``name`` make its label ``<category>:<name>`` (just
    ``<category>`` without a name), and the label its fold keys
    (:func:`fold_keys`); both name the span a step is filed as when the
    span it ran under ended first (:meth:`Tracer.end_step`).
    """

    __slots__ = ("category", "name", "keys")

    def __init__(self, category: str, name: Optional[str] = None):
        self.category = sys.intern(category)
        self.name = sys.intern(name or category)
        self.keys = fold_keys(category if name is None
                              else f"{category}:{name}")


def _pair_span_id(pair: tuple) -> int:
    """Sort key of a ``(row, attrs)`` pair: the row's span id."""
    return pair[0][1]


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()
    context = None

    def set(self, key, value):
        return self

    def end(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-run span collector bound to one :class:`Simulator`.

    Spans are handed out by :meth:`span` (context manager) and recorded
    in *closure* order once ended; only completed spans are exported.
    ``open_spans()`` exposes whatever is still running — a drained
    simulation must leave it empty.
    """

    active = True

    def __init__(self):
        self._sim = None
        # Finished spans, closure order (see "Storage layout" above).
        self._log = PackedLog()
        # span id -> Span not yet ended, in opening order.
        self._open: dict = {}
        # Chrome-export lanes, numbered by first use so the numbering is
        # deterministic.  A process carries its lane in its own
        # ``trace_lane`` slot (a Process-keyed table here would keep
        # every finished process of the run alive); code outside any
        # process shares the "driver" lane.
        # Lane id -> name: the list index is the id.
        self._lane_names: list = []
        self._driver_lane: Optional[int] = None
        # Context for code running outside any sim process.
        self._ambient: Optional[TraceContext] = None
        # span id -> fold keys of every open leaf (``span(leaf=...)``)
        # that nothing has named yet; a child span, a step or an event
        # drops it.
        self._leaves: dict = {}

    # -- wiring -------------------------------------------------------

    def bind(self, sim) -> "Tracer":
        if self._sim is not None and self._sim is not sim:
            raise ValueError("Tracer is already bound to another Simulator")
        self._sim = sim
        self._trace_ids = sim.ids("trace")
        self._span_ids = sim.ids("span")
        return self

    @property
    def sim(self):
        return self._sim

    # -- context handling ---------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The TraceContext of the running process (or ambient code)."""
        process = self._sim.active_process if self._sim is not None else None
        if process is not None:
            return process.trace_ctx
        return self._ambient

    def resolve(self, parent) -> Optional[TraceContext]:
        """Normalize a ``parent=``/``trace=`` argument to a context."""
        if parent is INHERIT:
            return self.current()
        if parent is None or isinstance(parent, TraceContext):
            return parent
        if isinstance(parent, Span):
            return parent.context
        raise TypeError(f"not a trace parent: {parent!r}")

    def _new_lane(self, process) -> int:
        """Number the next lane for ``process`` (None: the driver)."""
        lane = len(self._lane_names)
        if process is None:
            self._driver_lane = lane
            self._lane_names.append("driver")
        else:
            process.trace_lane = lane
            # Interned: many processes share a name
            # (``fetch:<key>:<owner>``).
            self._lane_names.append(sys.intern(process.name
                                               or f"process-{lane}"))
        return lane

    # -- span lifecycle -----------------------------------------------

    def span(self, name: str, category: str = "span",
             parent=INHERIT, leaf: Optional[tuple] = None,
             **attrs) -> Span:
        """Open a span; it becomes the current context until ended.

        ``leaf`` (:func:`fold_keys`) makes it a leaf that
        :meth:`Span.end` may fold into its parent as a count.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("Tracer.span() before bind(): attach the "
                               "tracer via Simulator(tracer=...)")
        process = sim.active_process
        current = process.trace_ctx if process is not None else self._ambient
        if parent is INHERIT:
            parent_ctx = current
        elif parent is None:
            parent_ctx = None
        else:
            parent_ctx = self.resolve(parent)
        if parent_ctx is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id, parent_id = parent_ctx
            if parent_id in self._leaves:
                del self._leaves[parent_id]
        span_id = next(self._span_ids)
        context = _tuple_new(TraceContext, (trace_id, span_id))
        if process is not None:
            process.trace_ctx = context
            lane = process.trace_lane
        else:
            self._ambient = context
            lane = self._driver_lane
        if lane is None:
            lane = self._new_lane(process)
        span = _new_span(Span)
        span.context = context
        span.parent_id = parent_id
        # Retain one copy per distinct name, not one per span.
        span.name = sys.intern(name)
        span.category = category
        span.start_ms = sim.now
        span.end_ms = None
        span.attrs = attrs
        span.tid = lane
        span._tracer = self
        span._process = process
        span._prev_ctx = current
        self._open[span_id] = span
        if leaf is not None:
            self._leaves[span_id] = leaf
        return span

    # -- protocol steps -----------------------------------------------

    def begin_step(self) -> tuple:
        """Start a protocol step: ``(context, start_ms)``, the context
        it runs under and now, for :meth:`end_step`.

        A step opens no span: it is counted on its context's span.  If
        that span is an open leaf, the step names it, so it is filed,
        exactly as when a child span opens.
        """
        sim = self._sim
        process = sim.active_process
        context = process.trace_ctx if process is not None else self._ambient
        if context is not None:
            self._leaves.pop(context[1], None)
        return context, sim.now

    def end_step(self, step: Step, begun: tuple) -> None:
        """End the step :meth:`begin_step` returned ``begun`` for: count
        ``[start_ms, now]`` on its context's span as ``<label>.n`` /
        ``<label>.ms`` attrs.

        If that span has ended already (the caller's call timed out,
        say), or there is none, the step is filed as a span of its own
        under the context (a root without one): nothing is dropped.
        """
        context, start_ms = begun
        if context is not None:
            span = self._open.get(context[1])
            if span is not None:
                span.fold(step.keys, start_ms)
                return
            trace_id, parent_id = context
        else:
            trace_id, parent_id = next(self._trace_ids), None
        process = self._sim.active_process
        lane = (process.trace_lane if process is not None
                else self._driver_lane)
        if lane is None:
            lane = self._new_lane(process)
        self._log.append((trace_id, next(self._span_ids), parent_id,
                          step.name, step.category, start_ms, self._sim.now,
                          lane), {})

    # -- inspection / export ------------------------------------------

    @property
    def spans(self) -> list:
        """Completed spans, in the order they ended (built on demand)."""
        return [_finished_span(row, attrs) for row, attrs in self._log]

    def open_spans(self) -> list:
        """Spans begun but not yet ended (should drain to empty)."""
        return list(self._open.values())

    def lane_names(self) -> dict:
        """Chrome-export lane id -> human-readable process name."""
        return dict(enumerate(self._lane_names))

    def __len__(self) -> int:
        """Spans filed so far (read off the log; builds no span)."""
        return len(self._log)

    def iter_dicts(self):
        """Completed spans as JSON-ready dicts, sorted by span id.

        Spans are filed as they end and exported as they began.  A span
        can be emitted once no later batch of the log holds a smaller id,
        so only the spans that ended out of order wait in memory, not the
        run.
        """
        lowest = [min(row[1] for row in rows)
                  for rows, _ in self._log.batches()]
        # floors[i]: the smallest span id in any batch after batch i.
        floors = list(itertools.accumulate(
            reversed(lowest[1:] + [float("inf")]), min))[::-1]
        waiting: list = []
        for (rows, attrs), floor in zip(self._log.batches(), floors):
            waiting.extend(zip(rows, attrs))
            waiting.sort(key=_pair_span_id)
            ready = bisect_left(waiting, floor, key=_pair_span_id)
            for row, row_attrs in waiting[:ready]:
                yield _span_dict(row, row_attrs)
            del waiting[:ready]

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return list(self.iter_dicts())


class NullTracer:
    """Inactive tracer: every operation is a no-op.

    ``active`` is False so hot paths can skip attribute packing; code
    that opens spans unconditionally still works and pays only a couple
    of attribute lookups.
    """

    active = False
    #: Read by :meth:`FlightRecorder.emit
    #: <repro.obs.recorder.FlightRecorder.emit>` as a tracer's context
    #: outside any process: there is none.
    _ambient = None

    def bind(self, sim) -> "NullTracer":
        return self

    @property
    def sim(self):
        return None

    def current(self) -> Optional[TraceContext]:
        return None

    def resolve(self, parent) -> Optional[TraceContext]:
        return None

    def span(self, name, category="span", parent=INHERIT, leaf=None,
             **attrs):
        return NULL_SPAN

    @property
    def spans(self) -> list:
        return []

    def open_spans(self) -> list:
        return []

    def lane_names(self) -> dict:
        return {}

    def iter_dicts(self):
        return iter(())

    def to_dicts(self) -> list:
        return []


#: Shared inactive tracer; the default for every Simulator.
NULL_TRACER = NullTracer()
