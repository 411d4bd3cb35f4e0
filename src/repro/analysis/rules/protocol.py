"""Protocol-surface rules (PRO*).

The RPC layer (:mod:`repro.net.rpc`) is stringly-typed: method names are
literals at both the ``register_handler`` and the ``call``/``notify``
sites, and nothing ties the two together at import time.  A typo'd or
removed handler only surfaces as a 5-second simulated timeout deep inside
an experiment.  These rules close that gap statically, and enforce the
two RPC/locking disciplines every agent relies on:

- every called method is registered somewhere, every registered method is
  exercised, and registered handler references resolve (PRO01);
- every client-side ``call`` has an explicit timeout path — an explicit
  ``timeout=`` or an enclosing handler for ``RpcTimeout`` (PRO02);
- every ``Resource.acquire()`` / ``acquire_wait()`` is matched by a
  ``release()`` on all exit paths, exceptional ones included (PRO03).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis import cfg
from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    register,
)

#: Exception names that constitute a timeout path when caught.
_TIMEOUT_HANDLERS = {"RpcTimeout", "RpcError", "Exception", "BaseException"}


def _string_arg(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _dict_literal_keys(func: ast.AST, name: str) -> list[tuple[str, ast.AST]]:
    """String keys (and value nodes) of ``name = {...}`` inside ``func``."""
    results = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Dict)):
            for key, value in zip(node.value.keys, node.value.values):
                literal = _string_arg(key) if key is not None else None
                if literal is not None:
                    results.append((literal, value))
    return results


class _RpcSite:
    """One register_handler / call / notify occurrence."""

    def __init__(self, module: ModuleInfo, node: ast.AST, method: str,
                 handler_expr: Optional[ast.AST] = None):
        self.module = module
        self.node = node
        self.method = method
        self.handler_expr = handler_expr


def _loop_dict_name(func: ast.AST, var: str) -> Optional[str]:
    """Dict iterated as ``for var, ... in <dict>.items():`` inside ``func``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.For):
            continue
        target = node.target
        if isinstance(target, ast.Tuple) and target.elts:
            target = target.elts[0]  # the key variable
        if not (isinstance(target, ast.Name) and target.id == var):
            continue
        it = node.iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr == "items"
                and isinstance(it.func.value, ast.Name)):
            return it.func.value.id
    return None


def _iter_rpc_sites(module: ModuleInfo) -> Iterator[tuple[str, _RpcSite]]:
    """Yield ("register"|"call"|"notify", site) for one module."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "register_handler" and len(node.args) >= 2:
            method = _string_arg(node.args[0])
            if method is not None:
                yield "register", _RpcSite(module, node, method, node.args[1])
            elif isinstance(node.args[0], ast.Name):
                # The agent idiom: handlers = {"read": self._handle_read,
                # ...}; for method, handler in handlers.items():
                # register_handler(method, handler) — resolve the dict the
                # loop iterates and take its literal keys.
                enclosing = module.enclosing_function(node)
                if enclosing is not None:
                    dict_name = _loop_dict_name(enclosing, node.args[0].id)
                    if dict_name is not None:
                        for literal, value in _dict_literal_keys(
                                enclosing, dict_name):
                            yield "register", _RpcSite(
                                module, node, literal, value)
        elif ((func.attr in ("call", "notify")
               or func.attr.startswith("_call")) and len(node.args) >= 2):
            # `_call_*` covers per-class wrappers that forward the method
            # name to endpoint.call() (e.g. ConcordAgent._call_catching).
            if not _looks_like_rpc(node, func):
                continue
            method = _string_arg(node.args[1])
            if method is not None:
                kind = "notify" if func.attr == "notify" else "call"
                yield kind, _RpcSite(module, node, method)


def _looks_like_rpc(node: ast.Call, func: ast.Attribute) -> bool:
    """Filter out unrelated ``.call``/``.notify`` methods."""
    if func.attr.startswith("_call"):
        return True
    receiver = ast.unparse(func.value)
    if "endpoint" in receiver or "client" in receiver:
        return True
    keywords = {kw.arg for kw in node.keywords}
    return bool(keywords & {"size_bytes", "timeout"})


@register
class RpcSurfaceRule(ProjectRule):
    """PRO01: called/registered RPC method names must match up."""

    id = "PRO01"
    name = "rpc-surface-match"
    description = (
        "every method name passed to endpoint.call()/notify() must be "
        "registered via register_handler() somewhere in the tree (and "
        "vice versa), and registered handler references must resolve"
    )

    def check_project(self, modules: list[ModuleInfo]):
        registered: dict[str, list[_RpcSite]] = {}
        invoked: dict[str, list[_RpcSite]] = {}
        for module in modules:
            for kind, site in _iter_rpc_sites(module):
                table = registered if kind == "register" else invoked
                table.setdefault(site.method, []).append(site)
        for method, sites in sorted(invoked.items()):
            if method not in registered:
                for site in sites:
                    yield self.finding(
                        site.module, site.node,
                        f"RPC method {method!r} is called but no "
                        "register_handler() in the analyzed tree provides "
                        "it; the call can only time out")
        for method, sites in sorted(registered.items()):
            if method not in invoked:
                for site in sites:
                    yield self.finding(
                        site.module, site.node,
                        f"RPC handler {method!r} is registered but never "
                        "called via endpoint.call()/notify() in the "
                        "analyzed tree; dead protocol surface",
                        severity="warning")
        for sites in registered.values():
            for site in sites:
                problem = self._unresolved_handler(site)
                if problem is not None:
                    yield self.finding(site.module, site.node, problem)

    @staticmethod
    def _unresolved_handler(site: _RpcSite) -> Optional[str]:
        expr = site.handler_expr
        if expr is None:
            return None
        if isinstance(expr, ast.Call):
            expr = expr.func  # a factory, self._home_handler("read")
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            # self._handle_x must exist on the enclosing class.
            owner = _enclosing_class(site.module, expr)
            if owner is None:
                return None
            defined = {
                item.name for item in owner.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assigned = {
                target.attr
                for node in ast.walk(owner)
                for target in getattr(node, "targets", [])
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            }
            if expr.attr not in defined | assigned:
                return (f"handler for {site.method!r} references "
                        f"self.{expr.attr}, which {owner.name} does not "
                        "define")
        elif isinstance(expr, ast.Name):
            module_names = _module_level_names(site.module)
            enclosing = site.module.enclosing_function(site.node)
            local = set()
            if enclosing is not None:
                local = {
                    node.name for node in ast.walk(enclosing)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                } | {
                    t.id
                    for node in ast.walk(enclosing)
                    for t in getattr(node, "targets", [])
                    if isinstance(t, ast.Name)
                } | {a.arg for a in enclosing.args.args}
            if expr.id not in module_names | local:
                return (f"handler for {site.method!r} references undefined "
                        f"name {expr.id!r}")
        return None


def _enclosing_class(module: ModuleInfo, node: ast.AST) -> Optional[ast.ClassDef]:
    current = module.parent(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current
        current = module.parent(current)
    return None


def _module_level_names(module: ModuleInfo) -> set:
    names = set()
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


@register
class RpcTimeoutRule(Rule):
    """PRO02: every endpoint.call() needs an explicit timeout path."""

    id = "PRO02"
    name = "rpc-call-timeout"
    description = (
        "endpoint.call() sites must pass an explicit timeout= or sit "
        "inside a try that catches RpcTimeout/RpcError, so a dead peer "
        "cannot silently stall the experiment on the library default"
    )

    def check_module(self, module: ModuleInfo):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute) or func.attr != "call"
                    or len(node.args) < 2):
                continue
            if not _looks_like_rpc(node, func):
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if self._inside_timeout_handler(module, node):
                continue
            yield self.finding(
                module, node,
                f"endpoint.call({ast.unparse(node.args[1])}) has no "
                "explicit timeout= and no enclosing RpcTimeout handler; "
                "pass timeout= (e.g. DEFAULT_RPC_TIMEOUT_MS) or catch "
                "RpcTimeout")

    @staticmethod
    def _inside_timeout_handler(module: ModuleInfo, node: ast.AST) -> bool:
        current = module.parent(node)
        child = node
        while current is not None and not isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(current, ast.Try) and child in current.body:
                for handler in current.handlers:
                    if handler.type is None:
                        return True
                    names = _exception_names(handler.type)
                    if names & _TIMEOUT_HANDLERS:
                        return True
            child = current
            current = module.parent(current)
        return False


def _exception_names(node: ast.AST) -> set:
    if isinstance(node, ast.Tuple):
        names = set()
        for element in node.elts:
            names |= _exception_names(element)
        return names
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


@register
class LockDisciplineRule(Rule):
    """PRO03: acquire() / acquire_wait() without a release() on every exit path."""

    id = "PRO03"
    name = "lock-release-paths"
    description = (
        "every <lock>.acquire() / .acquire_wait() must be matched by "
        "<lock>.release() on all exit paths: either released on the "
        "very next statement or protected by a try/finally covering "
        "every yield/raise/return in between (the simulator interrupts "
        "processes at yield points)"
    )

    def check_module(self, module: ModuleInfo):
        for func in module.functions():
            for problem in cfg.check_lock_discipline(func):
                if problem.reason == "no-release":
                    message = (
                        f"{problem.acquire} in {func.name!r} has no "
                        f"matching {problem.lock}.release() on the "
                        "fall-through path")
                else:
                    message = (f"{problem.acquire} in {func.name!r} "
                               f"is {problem.reason}")
                yield self.finding(module, problem.node, message)
