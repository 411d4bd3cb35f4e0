"""Telemetry rules (MET*).

The metrics layer (:mod:`repro.telemetry`) promises byte-identical
exports across runs and ``PYTHONHASHSEED`` values.  Two source-level
disciplines keep that promise:

- **Explicit label sets.**  ``registry.counter/gauge/histogram`` must
  state ``labelnames=`` at the call site.  The registry rejects
  conflicting label sets at runtime, but only when both sites actually
  execute; the static check catches the unlabeled-instrument collision
  (two layers registering the same metric name with different implied
  label sets) before any simulation runs.
- **Order-safe sampler callbacks.**  Callbacks handed to
  ``set_callback`` run at every sampling instant and their return values
  land verbatim in exported timelines, so a callback that iterates a
  bare ``set`` (or materializes one with ``list``/``tuple``) feeds hash
  order straight into the byte-determinism contract.  Order-insensitive
  reductions (``sum``/``min``/``max``/``len``/...) stay allowed, same as
  DET02.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.engine import ModuleInfo, Rule, receiver_name, register
from repro.analysis.rules.determinism import UnorderedIterationRule
from repro.analysis.setness import (
    ModuleSetFacts,
    is_setish,
    local_set_names,
)

#: Instrument-constructing methods of MetricsRegistry.
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Receiver names that identify a metrics registry at a call site.
_REGISTRY_NAMES = frozenset({"metrics", "registry"})

#: Wrappers that preserve their argument's (hash) order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed",
                               "enumerate"})

_ORDER_INSENSITIVE = UnorderedIterationRule.ORDER_INSENSITIVE


def _is_registry_receiver(node: ast.AST) -> bool:
    """Whether an attribute-call receiver looks like a MetricsRegistry."""
    name = receiver_name(node)
    return (name in _REGISTRY_NAMES
            or name.endswith("_metrics") or name.endswith("_registry"))


@register
class TelemetryDisciplineRule(Rule):
    """MET01: explicit label sets; hash-order-free sampler callbacks."""

    id = "MET01"
    name = "telemetry-discipline"
    description = (
        "registry.counter/gauge/histogram calls must pass an explicit "
        "labelnames= (empty tuple for unlabeled instruments), and "
        "callbacks passed to set_callback must not iterate or "
        "materialize bare sets — sampled values are exported "
        "byte-for-byte, so hash order would leak into timelines"
    )

    def check_module(self, module: ModuleInfo):
        facts = ModuleSetFacts(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (func.attr in _INSTRUMENT_METHODS
                    and _is_registry_receiver(func.value)):
                yield from self._check_instrument_call(module, node, func)
            elif func.attr == "set_callback" and node.args:
                yield from self._check_callback(module, node.args[0], facts)

    # -- (a) explicit label sets -----------------------------------------
    def _check_instrument_call(self, module: ModuleInfo, node: ast.Call,
                               func: ast.Attribute):
        if any(kw.arg == "labelnames" for kw in node.keywords):
            return
        yield self.finding(
            module, node,
            f"{ast.unparse(func.value)}.{func.attr}(...) without an "
            "explicit labelnames=: state the label set at the call site "
            "(labelnames=() for unlabeled instruments) so same-named "
            "instruments from different layers cannot silently collide")

    # -- (b) order-safe callbacks ----------------------------------------
    def _check_callback(self, module: ModuleInfo, callback: ast.AST,
                        facts: ModuleSetFacts):
        body = self._callback_body(module, callback)
        if body is None:
            return
        local_names = (local_set_names(body, facts)
                       if isinstance(body, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       else set())
        nodes = (ast.walk(body.body) if isinstance(body, ast.Lambda)
                 else ast.walk(body))
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_setish(node.iter, facts, local_names):
                    yield self._order_finding(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if self._consumed_order_insensitively(module, node):
                    continue
                for generator in node.generators:
                    if is_setish(generator.iter, facts, local_names):
                        yield self._order_finding(module, generator.iter)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_PRESERVING
                    and node.args
                    and is_setish(node.args[0], facts, local_names)):
                yield self._order_finding(module, node)

    def _callback_body(self, module: ModuleInfo,
                       callback: ast.AST) -> Optional[ast.AST]:
        """The AST to scan: a lambda, or the local def a name points at."""
        if isinstance(callback, ast.Lambda):
            return callback
        if isinstance(callback, ast.Name):
            enclosing = module.enclosing_function(callback)
            scopes = [enclosing] if enclosing is not None else []
            scopes.append(module.tree)
            for scope in scopes:
                for node in ast.walk(scope):
                    if (isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and node.name == callback.id):
                        return node
        return None

    def _consumed_order_insensitively(self, module: ModuleInfo,
                                      node: ast.AST) -> bool:
        parent = module.parent(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE)

    def _order_finding(self, module: ModuleInfo, node: ast.AST):
        return self.finding(
            module, node,
            f"sampler callback walks set expression "
            f"{ast.unparse(node)!r}: its hash order varies with "
            "PYTHONHASHSEED and the sampled value is exported verbatim; "
            "reduce order-insensitively (sum/min/max/len) or sort first")
