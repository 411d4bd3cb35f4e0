"""Lock-discipline checking for the PRO03 rule, on the real CFG.

The repo's simulation locks (:class:`repro.sim.resources.Resource`) are
acquired inside generator processes with ``yield lock.acquire()`` — or its
allocation-free twin ``yield lock.acquire_wait()``, which the rule treats
exactly alike — and must be released on *every* exit path, including the
exceptional ones, because the simulator throws
:class:`~repro.sim.errors.Interrupt` into processes at yield points (node
crashes) and RPC helpers raise out of ``yield from``.

The check walks the per-function CFG (:mod:`repro.analysis.flow`) forward
from each acquire.  A path is *closed* when it reaches a statement that
releases the lock, or the header of a ``try`` whose ``finally`` releases
it on every path.  Before a path closes, it must not pass an unprotected
escape:

- any suspension point (``yield`` / ``yield from``): the kernel can throw
  ``Interrupt`` right there and the frame unwinds without releasing;
- ``raise`` / ``return``: the frame exits explicitly.

An escape is *protected* when some enclosing ``try`` (entered through its
body/handler/else region — ``finally`` code runs during unwinding and
cannot rely on its own cleanup) has a ``finally`` that releases the lock
on every path.  "Every path" is a CFG property of the ``finally`` suite
itself, not subtree containment: a release inside the ``else:`` of a
``try`` nested in the ``finally`` covers only the no-exception path, and
the handler path would still leak — containment-style scanning used to
accept exactly that shape.  A release under a plain conditional still
counts via its ``if`` header (the repo's ``if escalated: lock.release()``
idiom: the condition models whether the lock is still held).

A path that falls off the end of the function without closing is reported
as ``no-release``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.analysis.flow import (
    CFG, build_cfg, build_cfg_body, contains_yield, enclosing_trys,
    stmt_exprs, yields_name,
)


@dataclass(frozen=True)
class LockProblem:
    """One unbalanced acquire."""

    lock: str            # source text of the lock expression
    node: ast.AST        # the acquire statement
    reason: str          # "no-release" | "unprotected: <detail>"

    @property
    def acquire(self) -> str:
        """Source text of the acquiring call, as written."""
        for node in ast.walk(self.node):
            if _lock_call(node, ACQUIRE_METHODS) == self.lock:
                return ast.unparse(node)
        return f"{self.lock}.acquire()"


def _expr_text(node: ast.AST) -> str:
    return ast.unparse(node)


#: ``Resource`` methods that take a slot (or queue for one).
ACQUIRE_METHODS = ("acquire", "acquire_wait")


def _lock_call(node: ast.AST, methods) -> Optional[str]:
    """If ``node`` is ``<expr>.<one of methods>()``, the text of ``<expr>``."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
            and not node.args and not node.keywords):
        return _expr_text(node.func.value)
    return None


def find_acquires(stmt: ast.stmt) -> list[tuple[str, Optional[str]]]:
    """Acquire calls performed by ``stmt`` itself (no nested statements).

    Returns ``(lock_text, bound_name)`` pairs; ``bound_name`` is set when
    the acquire grant is first assigned (``grant = lock.acquire()``) and
    yielded afterwards.
    """
    results = []
    if isinstance(stmt, ast.Expr):
        value = stmt.value
        if isinstance(value, ast.Yield) and value.value is not None:
            lock = _lock_call(value.value, ACQUIRE_METHODS)
            if lock is not None:
                results.append((lock, None))
        else:
            lock = _lock_call(value, ACQUIRE_METHODS)
            if lock is not None:
                results.append((lock, None))
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        lock = _lock_call(stmt.value, ACQUIRE_METHODS)
        if lock is not None and isinstance(stmt.targets[0], ast.Name):
            results.append((lock, stmt.targets[0].id))
    return results


def _contains_release(node: ast.AST, lock: str) -> bool:
    """Whether ``node``'s subtree (nested defs excluded) releases ``lock``."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)) and current is not node:
            continue
        if _lock_call(current, ("release",)) == lock:
            return True
        stack.extend(ast.iter_child_nodes(current))
    return False


def _stmt_releases(stmt: ast.stmt, lock: str) -> bool:
    """Whether ``stmt`` itself evaluates ``<lock>.release()`` (compound
    headers count only their own expressions, not nested blocks)."""
    for expr in stmt_exprs(stmt):
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if _lock_call(node, ("release",)) == lock:
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def _always_releases(body: list[ast.stmt], lock: str) -> bool:
    """Every entry-to-fall-out path through ``body`` releases ``lock``.

    Covering statements close a path: a statement performing the release,
    an ``if`` header whose subtree releases (the conditional-release
    idiom), or a nested ``try`` whose ``finally`` recursively satisfies
    this predicate.  Paths that diverge (raise/return inside ``body``)
    are not fall-out paths and do not defeat coverage.
    """
    exit_marker = ast.Pass(lineno=0, col_offset=0)
    cfg = build_cfg_body(list(body) + [exit_marker])

    def covers(stmt: ast.stmt) -> bool:
        if _stmt_releases(stmt, lock):
            return True
        if isinstance(stmt, ast.If) and _contains_release(stmt, lock):
            return True
        if (isinstance(stmt, ast.Try) and stmt.finalbody
                and _always_releases(stmt.finalbody, lock)):
            return True
        return False

    seen: set[int] = {cfg.entry.bid}
    stack = [cfg.entry]
    while stack:
        block = stack.pop()
        blocked = False
        for stmt in block.stmts:
            if stmt is exit_marker:
                return False  # an uncovered path reached the fall-out
            if covers(stmt):
                blocked = True
                break
        if blocked:
            continue
        for succ in block.succ:
            if succ.bid not in seen:
                seen.add(succ.bid)
                stack.append(succ)
    return True


def _protected(func: ast.AST, stmt: ast.stmt, lock: str) -> bool:
    """An enclosing try/finally releases ``lock`` when ``stmt`` escapes.

    Only enclosure through the body/handler/else regions counts: code in
    a ``finally`` is already unwinding and cannot rely on its own suite
    to run again.
    """
    for try_stmt, region in enclosing_trys(func.body, stmt):
        if region == "finally":
            continue
        if try_stmt.finalbody and _always_releases(try_stmt.finalbody, lock):
            return True
    return False


def _escape(stmt: ast.stmt, grant_name: Optional[str]) -> Optional[str]:
    """Why executing ``stmt`` can exit the frame while the lock is held.

    A bare ``yield <grant_name>`` is the second half of an assigned
    acquire (``grant = lock.acquire(); yield grant``) and is not an
    escape: the lock is not held until that yield completes, and the
    kernel withdraws a wait whose process is interrupted in it.
    """
    if grant_name is not None and yields_name(stmt, grant_name):
        return None
    if contains_yield(stmt) is not None:
        return "a yield"
    if isinstance(stmt, ast.Raise):
        return "a raise"
    if isinstance(stmt, ast.Return):
        return "a return"
    return None


def check_lock_discipline(func: ast.AST) -> list[LockProblem]:
    """All unbalanced ``acquire()`` statements in ``func``'s own body."""
    problems: list[LockProblem] = []
    cfg = build_cfg(func)
    statements = sorted(cfg.statements(),
                        key=lambda s: (s.lineno, s.col_offset))
    for stmt in statements:
        for lock, grant_name in find_acquires(stmt):
            problem = _check_one(func, cfg, stmt, lock, grant_name)
            if problem is not None:
                problems.append(problem)
    return problems


def _check_one(func: ast.AST, cfg: CFG, acquire: ast.stmt, lock: str,
               grant_name: Optional[str]) -> Optional[LockProblem]:
    if _protected(func, acquire, lock):
        return None  # the acquire sits inside a releasing try/finally

    def closes(stmt: ast.stmt) -> bool:
        return (_stmt_releases(stmt, lock)
                or (isinstance(stmt, ast.Try) and stmt.finalbody
                    and _always_releases(stmt.finalbody, lock)))

    escapes: list[tuple[int, int, str]] = []
    leaks_out = False
    acq_block, acq_index = cfg.locate(acquire)
    start = (acq_block, acq_index + 1)
    # Walk forward from the acquire.  Re-entering the acquire's block from
    # a back-edge rescans it from the top: statements lexically before the
    # acquire do run while the lock is held on looping paths.
    seen: set[int] = set()
    stack = [start]
    while stack:
        block, start = stack.pop()
        alive = True
        for stmt in block.stmts[start:]:
            if closes(stmt):
                alive = False
                break
            label = _escape(stmt, grant_name)
            if label is not None and not _protected(func, stmt, lock):
                escapes.append((stmt.lineno, stmt.col_offset, label))
        if not alive:
            continue
        if not block.succ:
            if not block.terminal:
                leaks_out = True  # fell off the end still holding the lock
            continue
        for succ in block.succ:
            if succ.bid not in seen:
                seen.add(succ.bid)
                stack.append((succ, 0))
    if escapes:
        line, _, label = min(escapes)
        return LockProblem(
            lock, acquire,
            f"unprotected: {label} at line {line} can exit before "
            f"{lock}.release(); wrap in try/finally",
        )
    if leaks_out:
        return LockProblem(lock, acquire, "no-release")
    return None
