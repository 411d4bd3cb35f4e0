"""Flight-recorder and Null-sink rules (OBS*).

The protocol event log (:mod:`repro.obs`) promises three things its call
sites can silently break — and the last two bind the tracer's call
sites on the protocol hot paths just the same:

- **Interned event types.**  Every ``recorder.emit(...)`` names its
  event with one of the interned constants from
  :mod:`repro.obs.events`.  A string literal at the call site may
  typo-fork the taxonomy ("cache.instal") and defeats identity-based
  dispatch in post-mortem tooling; a formatted string additionally
  allocates per emission.
- **Zero-cost Null sink.**  Emission sites gate on ``recorder.active``
  so a run without a recorder never evaluates the event arguments.  An
  *unguarded* emit whose arguments do real work (calls, f-strings,
  arithmetic, comprehensions) pays that work on every run — including
  the benchmark runs whose wall times gate CI.  Inside the hot layers
  (``core/``, ``caching/``, ``net/``, ``faas/``) the same holds for
  ``tracer.span(...)`` / ``tracer.instant(...)``: keyword attrs build a
  dict and call into the ``NullTracer`` once per protocol step with
  tracing off.  A guard is an enclosing ``if``/conditional expression
  testing ``.active``, an earlier ``if not <x>.active: return ...`` in
  the same block, or — by convention — living in a ``_traced_*``
  function, whose own call sites must then be guarded.
- **Byte-deterministic dumps.**  Event attrs are exported verbatim
  (JSONL, byte-compared across ``PYTHONHASHSEED`` values), so an attr
  that materializes a bare set in iteration order leaks hash order into
  the dump — same contract as MET01's sampler callbacks.
- **Attrs are atomics.**  A finished record is kept as a row of atomics
  plus a dict of atomic values, which the collector never tracks and
  :mod:`repro.packedlog` packs with ``marshal``.  A set attr would come
  back in another order, a dict attr makes the record tracked, and a
  lambda or generator cannot be packed at all (its whole batch stays
  unpacked).  In the protocol layers (``core/``, ``caching/``, ``net/``,
  ``faas/``, ``shard/``) an attr value that is *syntactically* one of
  those is flagged; a sorted list of atomics is fine.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    ModuleInfo,
    Rule,
    in_layers,
    receiver_name,
    register,
)
from repro.analysis.setness import ModuleSetFacts, is_setish

#: Receiver names that identify a flight recorder at a call site.
_RECORDER_NAMES = frozenset({"obs", "recorder"})

#: Layers whose tracer sites sit on per-operation protocol paths.
_HOT_LAYERS = frozenset({"core", "caching", "net", "faas"})

#: Layers whose records fill the packed logs of a long run.
_PROTOCOL_LAYERS = _HOT_LAYERS | {"shard"}

#: Attr values a record must not hold, by syntax (see "Attrs are atomics").
_NOT_ATOMIC = {ast.Set: "set", ast.SetComp: "set", ast.Dict: "dict",
               ast.DictComp: "dict", ast.Lambda: "lambda",
               ast.GeneratorExp: "generator expression"}

#: Tracer methods that take span attrs as keywords.
_SPAN_METHODS = frozenset({"span", "instant"})

#: Functions only ever entered with tracing on (their callers dispatch
#: on ``tracer.active``); calling one is itself a guarded site.
_TRACED_PREFIX = "_traced_"

#: Statements that leave the enclosing block.
_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)

#: Wrappers that preserve their argument's (hash) order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed",
                               "enumerate"})

#: Argument shapes that do real work when evaluated.
_EXPENSIVE = (ast.Call, ast.JoinedStr, ast.BinOp, ast.ListComp,
              ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_recorder_receiver(node: ast.AST) -> bool:
    """Whether an attribute-call receiver looks like a FlightRecorder."""
    name = receiver_name(node)
    return (name in _RECORDER_NAMES
            or name.endswith("_obs") or name.endswith("_recorder"))


def _is_tracer_receiver(node: ast.AST) -> bool:
    """Whether an attribute-call receiver looks like a Tracer."""
    name = receiver_name(node)
    return name == "tracer" or name.endswith("_tracer")


def _tests_active(test: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "active"
               for sub in ast.walk(test))


@register
class ObsDisciplineRule(Rule):
    """OBS01: interned event types; cheap, order-safe emission sites."""

    id = "OBS01"
    name = "obs-discipline"
    description = (
        "recorder.emit(...) must name its event with an interned "
        "constant from repro.obs.events (never a string literal or "
        "formatted string), must not pass attrs that materialize bare "
        "sets in hash order (dumps are byte-compared across "
        "PYTHONHASHSEED), and emits with computed arguments must sit "
        "under an `if <recorder>.active:` guard so the Null sink stays "
        "zero-cost; in core/, caching/, net/ and faas/ the same guard is "
        "required of tracer.span()/instant() sites carrying keyword attrs "
        "and of calls to `_traced_*` functions; in those layers and "
        "shard/ no span or event attr may be a set, dict, lambda or "
        "generator expression (records are packed as atomics)"
    )

    def check_module(self, module: ModuleInfo):
        facts = ModuleSetFacts(module.tree)
        hot = in_layers(module, _HOT_LAYERS)
        protocol = in_layers(module, _PROTOCOL_LAYERS)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            is_emit = (func.attr == "emit"
                       and _is_recorder_receiver(func.value))
            if is_emit:
                yield from self._check_event_type(module, node)
                yield from self._check_set_order(module, node, facts)
                yield from self._check_guard(module, node)
            elif hot:
                yield from self._check_tracer_site(module, node, func)
            if protocol and (is_emit or (func.attr in _SPAN_METHODS
                                         and _is_tracer_receiver(func.value))):
                yield from self._check_atomic_attrs(module, node, func)

    # -- (a) interned event types ----------------------------------------
    def _check_event_type(self, module: ModuleInfo, node: ast.Call):
        if not node.args:
            return
        etype = node.args[0]
        if isinstance(etype, (ast.Name, ast.Attribute)):
            return
        yield self.finding(
            module, etype,
            f"emit() event type {ast.unparse(etype)!r} is not an "
            "interned constant: name events with the constants from "
            "repro.obs.events so the taxonomy cannot typo-fork and "
            "emission stays allocation-free")

    # -- (b) hash-order-free attrs ---------------------------------------
    def _check_set_order(self, module: ModuleInfo, node: ast.Call,
                         facts: ModuleSetFacts):
        values = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in _ORDER_PRESERVING
                        and sub.args
                        and is_setish(sub.args[0], facts, set())):
                    yield self.finding(
                        module, sub,
                        f"emit() attr materializes set expression "
                        f"{ast.unparse(sub)!r} in hash order: recorded "
                        "attrs are dumped byte-for-byte across "
                        "PYTHONHASHSEED values; sort the set or record "
                        "an order-insensitive reduction (len/sum)")

    # -- (c) Null-sink gating --------------------------------------------
    def _check_guard(self, module: ModuleInfo, node: ast.Call):
        values = list(node.args) + [kw.value for kw in node.keywords]
        if not any(isinstance(value, _EXPENSIVE) for value in values):
            return
        if self._under_active_guard(module, node):
            return
        yield self.finding(
            module, node,
            "emit() with computed arguments outside an `if "
            "<recorder>.active:` guard: the arguments are evaluated "
            "even under the Null sink, taxing every unrecorded run; "
            "hoist the emit under an active check")

    # -- (d) tracer sites on the protocol hot paths ------------------------
    def _check_tracer_site(self, module: ModuleInfo, node: ast.Call,
                           func: ast.Attribute):
        if func.attr.startswith(_TRACED_PREFIX):
            what = (f"call to {func.attr}(), which opens its span "
                    "unconditionally,")
        elif (func.attr in _SPAN_METHODS
              and _is_tracer_receiver(func.value)
              and any(kw.arg != "parent" for kw in node.keywords)):
            what = f"tracer.{func.attr}() with keyword attrs"
        else:
            return
        if self._under_active_guard(module, node):
            return
        yield self.finding(
            module, node,
            f"{what} outside a `.active` guard: with tracing off every "
            "call still builds the attrs dict and enters the NullTracer, "
            "once per protocol step; test `tracer.active` first (or move "
            "the span into a `_traced_*` twin chosen by a guarded "
            "dispatcher)")

    # -- (e) attrs the packed logs can keep --------------------------------
    def _check_atomic_attrs(self, module: ModuleInfo, node: ast.Call,
                            func: ast.Attribute):
        for keyword in node.keywords:
            kind = _NOT_ATOMIC.get(type(keyword.value))
            if kind is None or keyword.arg is None:
                continue
            yield self.finding(
                module, keyword.value,
                f"{func.attr}() attr {keyword.arg}= is a {kind}: finished "
                "records are kept as atomics and packed with marshal "
                "(repro.packedlog); record a str/int/float/bool/None or "
                "a sorted list of them")

    def _under_active_guard(self, module: ModuleInfo,
                            node: ast.AST) -> bool:
        child, current = node, module.parent(node)
        while current is not None:
            if (isinstance(current, (ast.If, ast.IfExp))
                    and _tests_active(current.test)):
                return True
            if (isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and current.name.startswith(_TRACED_PREFIX)):
                return True
            # An earlier `if not <x>.active: return ...` in this block.
            for field in ("body", "orelse", "finalbody"):
                block = getattr(current, field, None)
                if isinstance(block, list) and child in block:
                    if any(self._is_inactive_exit(stmt)
                           for stmt in block[:block.index(child)]):
                        return True
            child, current = current, module.parent(current)
        return False

    @staticmethod
    def _is_inactive_exit(stmt: ast.AST) -> bool:
        return (isinstance(stmt, ast.If)
                and isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)
                and _tests_active(stmt.test)
                and isinstance(stmt.body[-1], _EXITS))
