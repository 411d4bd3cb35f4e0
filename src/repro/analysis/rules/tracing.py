"""Causal-tracing rules (TRC*).

The tracing layer (:mod:`repro.trace`) propagates a
:class:`~repro.trace.TraceContext` across RPC boundaries: ``call()`` and
``notify()`` take a ``trace=`` keyword defaulting to ``INHERIT`` (the
caller's ambient context).  That default keeps untraced code working, but
inside the protocol layers — ``core/`` and ``caching/`` — every RPC site
must *state* its parentage: an explicit ``trace=INHERIT`` (or an explicit
span/context) documents that the span tree stays connected, and makes an
accidental ``trace=None`` (detaching the subtree) visible in review.
TRC01 flags protocol-layer RPC sites that omit the keyword.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, Rule, in_layers, register
from repro.analysis.rules.protocol import _looks_like_rpc

#: Directories whose RPC sites must annotate trace parentage.
_TRACED_LAYERS = frozenset({"core", "caching"})


@register
class TraceContextRule(Rule):
    """TRC01: protocol-layer RPC sites must carry the trace context."""

    id = "TRC01"
    name = "rpc-trace-context"
    description = (
        "endpoint.call()/notify() sites inside core/ and caching/ must "
        "pass an explicit trace= (normally trace=INHERIT) so the incoming "
        "TraceContext is visibly propagated rather than silently dropped"
    )

    def check_module(self, module: ModuleInfo):
        if not in_layers(module, _TRACED_LAYERS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr not in ("call", "notify")
                    or len(node.args) < 2):
                continue
            if not _looks_like_rpc(node, func):
                continue
            if any(kw.arg == "trace" for kw in node.keywords):
                continue
            yield self.finding(
                module, node,
                f"endpoint.{func.attr}({ast.unparse(node.args[1])}) does "
                "not state its trace parentage; pass trace=INHERIT (or an "
                "explicit parent context) so the causal span tree stays "
                "connected across this RPC")
