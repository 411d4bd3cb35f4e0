"""Interprocedural may-suspend summaries for the analyzed tree.

A statement in a sim process is a *suspension point* when executing it
can return control to the simulator kernel — other processes then run,
shared state moves underneath the suspended frame, and the kernel may
throw :class:`~repro.sim.errors.Interrupt` right there.  Syntactically:

- every ``yield <expr>`` is a suspension point (timeouts, event waits,
  ``yield lock.acquire()`` / ``yield lock.acquire_wait()``);
- a ``yield from helper(...)`` suspends iff the *delegate* can suspend.
  The analyzer builds a call graph over the analyzed modules and
  computes the least may-suspend fixpoint: a function may suspend when
  its own body yields, or when it ``yield from``-delegates to a
  function that may suspend (transitively).  Delegates that cannot be
  resolved inside the tree — RPC endpoints, storage handles, foreign
  generators — are conservatively assumed to suspend, which matches
  every such helper in this repo (``endpoint.call``, ``storage.read`` /
  ``write``, ...).

The summary is what makes the atomicity rules interprocedural: a
``yield from self._append_log(...)`` three helpers deep is a suspension
point in the caller exactly when some function on the delegation chain
actually yields.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.flow import stmt_exprs

__all__ = ["ProjectSummaries", "KNOWN_SUSPENDING_ATTRS"]

#: Methods on objects outside the analyzed tree that are known to
#: suspend when delegated to (the RPC/storage/resource surface).
KNOWN_SUSPENDING_ATTRS = frozenset({
    "call", "notify", "read", "write", "acquire", "acquire_wait", "timeout",
    "wait", "sleep", "all_of", "any_of", "invoke", "join",
})


class _FuncInfo:
    __slots__ = ("node", "module_index", "class_name", "direct_yield",
                 "delegates", "may_suspend")

    def __init__(self, node: ast.AST, module_index: int,
                 class_name: Optional[str]):
        self.node = node
        self.module_index = module_index
        self.class_name = class_name
        self.direct_yield = False
        #: YieldFrom delegate descriptors gathered from the own body.
        self.delegates: list[ast.YieldFrom] = []
        self.may_suspend = False


class ProjectSummaries:
    """Call graph + may-suspend fixpoint over a set of modules.

    ``modules`` may be :class:`~repro.analysis.engine.ModuleInfo`
    objects, ``ast.Module`` trees, or anything with a ``.tree``.
    """

    def __init__(self, modules: Iterable[object]):
        self._infos: dict[ast.AST, _FuncInfo] = {}      # func node -> info
        self._by_name: dict[str, list[_FuncInfo]] = {}  # bare name
        self._by_class: dict[tuple[str, str], list[_FuncInfo]] = {}
        self._module_functions: list[dict[str, _FuncInfo]] = []
        for index, module in enumerate(modules):
            tree = getattr(module, "tree", module)
            self._index_module(tree, index)
        self._solve()

    # -- indexing ---------------------------------------------------------
    def _index_module(self, tree: ast.Module, module_index: int) -> None:
        module_level: dict[str, _FuncInfo] = {}
        self._module_functions.append(module_level)

        def visit(node: ast.AST, class_name: Optional[str],
                  at_module_level: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _FuncInfo(child, module_index, class_name)
                    self._collect_body(info)
                    self._infos[child] = info
                    self._by_name.setdefault(child.name, []).append(info)
                    if class_name is not None:
                        self._by_class.setdefault(
                            (class_name, child.name), []).append(info)
                    elif at_module_level:
                        module_level[child.name] = info
                    visit(child, None, False)  # nested defs: own frames
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name, False)
                else:
                    visit(child, class_name, at_module_level)

        visit(tree, None, True)

    def _collect_body(self, info: _FuncInfo) -> None:
        stack: list[ast.AST] = list(info.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Yield):
                info.direct_yield = True
            elif isinstance(node, ast.YieldFrom):
                info.delegates.append(node)
            stack.extend(ast.iter_child_nodes(node))

    # -- fixpoint ---------------------------------------------------------
    def _solve(self) -> None:
        for info in self._infos.values():
            info.may_suspend = info.direct_yield
        changed = True
        while changed:
            changed = False
            for info in self._infos.values():
                if info.may_suspend:
                    continue
                for delegate in info.delegates:
                    if self._delegate_suspends(delegate, info):
                        info.may_suspend = True
                        changed = True
                        break

    def _resolve(self, call: ast.Call,
                 context: _FuncInfo) -> Optional[list[_FuncInfo]]:
        """Candidate targets of a delegate call, None when unresolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self._module_functions[context.module_index].get(func.id)
            if local is not None:
                return [local]
            return self._by_name.get(func.id)
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name) and func.value.id == "self"
                    and context.class_name is not None):
                exact = self._by_class.get((context.class_name, func.attr))
                if exact:
                    return exact
            if func.attr in KNOWN_SUSPENDING_ATTRS:
                # endpoint.call / storage.read / lock.acquire / ...: the
                # RPC-and-resources surface outside the tree.  A bare-name
                # coincidence with some analyzed method must not launder
                # these into "proven non-suspending".
                return None
            # Same-named method anywhere in the tree: a may-union.
            return self._by_name.get(func.attr)
        return None

    def _delegate_suspends(self, node: ast.YieldFrom,
                           context: _FuncInfo) -> bool:
        value = node.value
        if not isinstance(value, ast.Call):
            return True  # yield from <generator object>: unknown origin
        targets = self._resolve(value, context)
        if targets:
            return any(target.may_suspend for target in targets)
        return True  # outside the analyzed tree: assumed to suspend

    # -- public queries ---------------------------------------------------
    def may_suspend(self, func: ast.AST) -> bool:
        """Whether ``func`` (a FunctionDef analyzed here) can suspend."""
        info = self._infos.get(func)
        if info is None:
            return True
        return info.may_suspend

    def suspension_in(self, stmt: ast.stmt,
                      context_func: ast.AST) -> Optional[ast.AST]:
        """The Yield/YieldFrom making ``stmt`` a suspension point, if any.

        Only expressions the statement itself evaluates are considered
        (compound-statement bodies are separate statements); ``yield
        from`` delegates are classified through the fixpoint summary.
        """
        info = self._infos.get(context_func)
        for expr in stmt_exprs(stmt):
            stack: list[ast.AST] = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Lambda):
                    continue
                if isinstance(node, ast.Yield):
                    return node
                if isinstance(node, ast.YieldFrom):
                    if info is None or self._delegate_suspends(node, info):
                        return node
                    continue  # proven non-suspending delegation
                stack.extend(ast.iter_child_nodes(node))
        return None

    def stmt_suspends(self, stmt: ast.stmt, context_func: ast.AST) -> bool:
        return self.suspension_in(stmt, context_func) is not None
