"""Per-function control-flow graphs for sim-process analysis.

The simulator steps generator processes and may throw
:class:`~repro.sim.errors.Interrupt` into them at *every* suspension
point (``yield`` / ``yield from``), so the atomicity and lock-discipline
rules need real may-path reasoning, not a forward scan.  This module
lowers one function body (nested ``def``/``class`` bodies excluded —
they run in their own frames) into basic blocks:

- every own-body statement lands in exactly one block; compound
  statements (``if``/``while``/``for``/``try``/``with``) appear once as
  the *header* of the construct, their nested statements in blocks of
  their own;
- blocks ending in ``raise``/``return`` are terminal: no out-edges;
- loop headers carry the back-edge target; ``break``/``continue`` edge
  to the loop exit/header; ``while True:`` has no fall-out edge, so code
  after an unbroken infinite loop is correctly unreachable;
- ``try`` bodies get conservative may-raise edges: every block lowered
  inside the body edges to each handler entry, and (when a ``finally``
  exists) every block in the body/handler/else regions edges to the
  finally entry.  The return/raise-through-finally path is *not*
  modeled as edges (terminal blocks stay terminal); callers that care
  about finally semantics use :func:`enclosing_trys` structurally.

On top of the graph, :func:`find_path` answers the query every rule
here reduces to: *is there a path from statement A to statement B that
passes a statement satisfying* ``between`` *and avoids every statement
satisfying* ``kill``?
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, Optional

__all__ = [
    "Block", "CFG", "build_cfg", "build_cfg_body", "stmt_exprs",
    "own_statements", "enclosing_trys", "find_path", "contains_yield",
    "yields_name",
]


class Block:
    """One basic block: a run of statements with a single entry."""

    __slots__ = ("bid", "stmts", "succ")

    def __init__(self, bid: int):
        self.bid = bid
        self.stmts: list[ast.stmt] = []
        self.succ: list["Block"] = []

    def link(self, other: "Block") -> None:
        if other is not self and other not in self.succ:
            self.succ.append(other)

    @property
    def terminal(self) -> bool:
        """Ends in raise/return: control never falls out."""
        return bool(self.stmts) and isinstance(
            self.stmts[-1], (ast.Raise, ast.Return))

    def describe(self) -> str:
        """Stable one-line rendering, used by the golden-CFG tests."""
        labels = []
        for stmt in self.stmts:
            head = type(stmt).__name__
            labels.append(f"{head}@{stmt.lineno}")
        succ = ",".join(f"B{b.bid}" for b in self.succ)
        return f"B{self.bid}[{' '.join(labels)}] -> [{succ}]"


class CFG:
    """The lowered graph plus the statement -> block index."""

    def __init__(self, entry: Block, blocks: list[Block]):
        self.entry = entry
        self.blocks = blocks
        # Keyed by the statement node itself (identity hash), like
        # ModuleInfo._parents — no id() needed.
        self._home: dict[ast.stmt, tuple[Block, int]] = {}
        for block in blocks:
            for index, stmt in enumerate(block.stmts):
                self._home[stmt] = (block, index)

    def locate(self, stmt: ast.stmt) -> tuple[Block, int]:
        """(block, index-within-block) of a lowered statement."""
        return self._home[stmt]

    def statements(self) -> Iterator[ast.stmt]:
        for block in self.blocks:
            yield from block.stmts

    def describe(self) -> list[str]:
        return [block.describe() for block in self.blocks]


# ---------------------------------------------------------------------------
# Statement helpers
# ---------------------------------------------------------------------------
def stmt_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """Expressions evaluated by ``stmt`` *itself* (nested blocks excluded).

    For compound statements this is the header expression only: the test
    of an ``if``/``while``, the iterable of a ``for``, the context
    managers of a ``with`` — their bodies are separate blocks.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs: list[ast.AST] = []
        for item in stmt.items:
            exprs.append(item.context_expr)
            if item.optional_vars is not None:
                exprs.append(item.optional_vars)
        return exprs
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return list(stmt.decorator_list) + [
            d for d in stmt.args.defaults + stmt.args.kw_defaults
            if d is not None]
    if isinstance(stmt, ast.ClassDef):
        return list(stmt.decorator_list) + list(stmt.bases)
    # Simple statements: every child expression is evaluated here.
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def contains_yield(stmt: ast.stmt) -> Optional[ast.AST]:
    """First Yield/YieldFrom evaluated by ``stmt`` itself, if any.

    Lambda bodies are skipped: a yield inside a lambda belongs to the
    lambda's (generator) frame, not to this statement.
    """
    for expr in stmt_exprs(stmt):
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
            stack.extend(ast.iter_child_nodes(node))
    return None


def yields_name(stmt: ast.stmt, name: str) -> bool:
    """Whether ``stmt`` is the bare statement ``yield <name>``."""
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield)
            and isinstance(stmt.value.value, ast.Name)
            and stmt.value.value.id == name)


def own_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """All statements the frame executes, excluding nested def/class bodies
    (the nested ``def``/``class`` statement itself is included)."""
    stack = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, name, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            stack.extend(handler.body)
        for case in getattr(stmt, "cases", []) or []:
            stack.extend(case.body)


def enclosing_trys(body: list[ast.stmt],
                   target: ast.stmt) -> list[tuple[ast.Try, str]]:
    """``(try, region)`` pairs enclosing ``target``, outermost first.

    ``region`` is one of ``"body"``, ``"handler"``, ``"orelse"``,
    ``"finally"`` — which part of the ``try`` the statement sits in,
    which decides whether that try's handlers/finally run for an
    exception raised at the statement.
    """
    found: list[tuple[ast.Try, str]] = []

    def descend(stmts: list[ast.stmt],
                trail: list[tuple[ast.Try, str]]) -> bool:
        for stmt in stmts:
            if stmt is target:
                found.extend(trail)
                return True
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                if descend(stmt.body, trail + [(stmt, "body")]):
                    return True
                for handler in stmt.handlers:
                    if descend(handler.body, trail + [(stmt, "handler")]):
                        return True
                if descend(stmt.orelse, trail + [(stmt, "orelse")]):
                    return True
                if descend(stmt.finalbody, trail + [(stmt, "finally")]):
                    return True
                continue
            for name in ("body", "orelse"):
                if descend(getattr(stmt, name, []) or [], trail):
                    return True
            for case in getattr(stmt, "cases", []) or []:
                if descend(case.body, trail):
                    return True
        return False

    descend(body, [])
    return found


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------
def _const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[Block] = []
        #: (break_target, continue_target) stack for enclosing loops.
        self.loops: list[tuple[Block, Block]] = []

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def build(self, body: list[ast.stmt]) -> CFG:
        entry = self.new_block()
        end = self.lower(body, entry)
        del end  # falling off the end is the implicit return
        self._prune()
        return CFG(entry, self.blocks)

    # -- statement-list lowering ------------------------------------------
    def lower(self, stmts: list[ast.stmt],
              cur: Optional[Block]) -> Optional[Block]:
        """Lower ``stmts`` starting in ``cur``; return the fall-out block
        (None when control cannot fall out of the list)."""
        for stmt in stmts:
            if cur is None:
                # Unreachable code still gets blocks (the exactly-one-block
                # invariant), just no incoming edges.
                cur = self.new_block()
            if isinstance(stmt, ast.If):
                cur = self._lower_if(stmt, cur)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                cur = self._lower_loop(stmt, cur)
            elif isinstance(stmt, ast.Try):
                cur = self._lower_try(stmt, cur)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                cur = self._lower_with(stmt, cur)
            elif isinstance(stmt, ast.Match):
                cur = self._lower_match(stmt, cur)
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                cur.stmts.append(stmt)
                if self.loops:
                    target = self.loops[-1][0 if isinstance(stmt, ast.Break)
                                            else 1]
                    cur.link(target)
                cur = None
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                cur.stmts.append(stmt)
                cur = None  # terminal: no out-edges, by contract
            else:
                cur.stmts.append(stmt)
        return cur

    def _lower_if(self, stmt: ast.If, cur: Block) -> Optional[Block]:
        cur.stmts.append(stmt)
        then_entry = self.new_block()
        cur.link(then_entry)
        then_end = self.lower(stmt.body, then_entry)
        else_end: Optional[Block] = None
        has_else = bool(stmt.orelse)
        if has_else:
            else_entry = self.new_block()
            cur.link(else_entry)
            else_end = self.lower(stmt.orelse, else_entry)
        if then_end is None and else_end is None and has_else:
            return None  # both branches terminated
        join = self.new_block()
        if not has_else:
            cur.link(join)  # condition-false fall-through
        for end in (then_end, else_end):
            if end is not None:
                end.link(join)
        return join

    def _lower_loop(self, stmt: ast.stmt, cur: Block) -> Block:
        header = self.new_block()
        cur.link(header)
        header.stmts.append(stmt)
        after = self.new_block()
        body_entry = self.new_block()
        header.link(body_entry)
        self.loops.append((after, header))
        body_end = self.lower(stmt.body, body_entry)
        self.loops.pop()
        if body_end is not None:
            body_end.link(header)  # back-edge
        infinite = isinstance(stmt, ast.While) and _const_true(stmt.test)
        if not infinite:
            if stmt.orelse:
                orelse_entry = self.new_block()
                header.link(orelse_entry)
                orelse_end = self.lower(stmt.orelse, orelse_entry)
                if orelse_end is not None:
                    orelse_end.link(after)
            else:
                header.link(after)
        return after

    def _lower_try(self, stmt: ast.Try, cur: Block) -> Optional[Block]:
        cur.stmts.append(stmt)
        region_start = len(self.blocks)
        body_entry = self.new_block()
        cur.link(body_entry)
        body_end = self.lower(stmt.body, body_entry)
        body_region = self.blocks[region_start:]

        handler_entries: list[Block] = []
        handler_ends: list[Block] = []
        handler_start = len(self.blocks)
        for handler in stmt.handlers:
            entry = self.new_block()
            handler_entries.append(entry)
            end = self.lower(handler.body, entry)
            if end is not None:
                handler_ends.append(end)
        handler_region = self.blocks[handler_start:]

        orelse_start = len(self.blocks)
        orelse_end: Optional[Block] = body_end
        orelse_region: list[Block] = []
        if stmt.orelse:
            orelse_entry = self.new_block()
            if body_end is not None:
                body_end.link(orelse_entry)
            orelse_end = self.lower(stmt.orelse, orelse_entry)
            orelse_region = self.blocks[orelse_start:]

        # May-raise edges: any statement in the body can transfer to any
        # handler; unmatched/re-raised exceptions and exceptions in the
        # else-region additionally reach the finally (below).  Terminal
        # blocks stay terminal by contract: an explicit raise/return ends
        # its path, and its handler/finally continuation is not modeled
        # (the structural enclosing_trys() view covers those callers).
        for block in body_region:
            if block.terminal:
                continue
            for entry in handler_entries:
                block.link(entry)

        normal_ends = [end for end in (orelse_end, *handler_ends)
                       if end is not None]
        if stmt.finalbody:
            final_entry = self.new_block()
            final_end = self.lower(stmt.finalbody, final_entry)
            for block in (*body_region, *handler_region, *orelse_region):
                if not block.terminal:
                    block.link(final_entry)  # exceptional entry to finally
            for end in normal_ends:
                end.link(final_entry)
            if final_end is None:
                return None
            return final_end
        if not normal_ends:
            return None
        join = self.new_block()
        for end in normal_ends:
            end.link(join)
        return join

    def _lower_with(self, stmt: ast.stmt, cur: Block) -> Optional[Block]:
        cur.stmts.append(stmt)
        body_entry = self.new_block()
        cur.link(body_entry)
        return self.lower(stmt.body, body_entry)

    def _lower_match(self, stmt: ast.Match, cur: Block) -> Optional[Block]:
        cur.stmts.append(stmt)
        ends = []
        for case in stmt.cases:
            entry = self.new_block()
            cur.link(entry)
            end = self.lower(case.body, entry)
            if end is not None:
                ends.append(end)
        join = self.new_block()
        cur.link(join)  # no case matched
        for end in ends:
            end.link(join)
        return join

    def _prune(self) -> None:
        """Drop empty blocks nothing reaches (lazy joins that never joined).

        Statement-carrying blocks are never dropped, so the exactly-one-
        block invariant survives; the entry block survives even if empty.
        """
        while True:
            preds: dict[int, int] = {}
            for block in self.blocks:
                for succ in block.succ:
                    preds[succ.bid] = preds.get(succ.bid, 0) + 1
            dead = [b for b in self.blocks
                    if not b.stmts and preds.get(b.bid, 0) == 0
                    and b is not self.blocks[0]]
            if not dead:
                break
            dead_ids = {b.bid for b in dead}
            self.blocks = [b for b in self.blocks if b.bid not in dead_ids]
            for block in self.blocks:
                block.succ = [s for s in block.succ
                              if s.bid not in dead_ids]
        for index, block in enumerate(self.blocks):
            block.bid = index


def build_cfg(func: ast.AST) -> CFG:
    """CFG of a function's own body (nested defs are separate graphs)."""
    return _Builder().build(func.body)


def build_cfg_body(body: list[ast.stmt]) -> CFG:
    """CFG of a bare statement list (e.g. one ``finally`` suite)."""
    return _Builder().build(body)


# ---------------------------------------------------------------------------
# Path queries
# ---------------------------------------------------------------------------
def find_path(
    cfg: CFG,
    src: ast.stmt,
    dst: ast.stmt,
    *,
    between: Optional[Callable[[ast.stmt], bool]] = None,
    kill: Optional[Callable[[ast.stmt], bool]] = None,
) -> Optional[ast.stmt]:
    """Witness for "src can reach dst through ``between``, avoiding ``kill``".

    Searches paths starting *after* ``src`` and ending *at* ``dst``
    (neither endpoint is tested against the predicates).  Returns the
    first ``between``-satisfying statement of some such path — or, when
    ``between`` is None, ``dst`` itself if any kill-free path exists;
    None when no qualifying path exists.
    """
    src_block, src_index = cfg.locate(src)
    dst_block, dst_index = cfg.locate(dst)

    def scan(block: Block, start: int, stop: Optional[int],
             witness: Optional[ast.stmt]):
        """Walk block.stmts[start:stop]; returns (survived, witness)."""
        stop_index = len(block.stmts) if stop is None else stop
        for stmt in block.stmts[start:stop_index]:
            if kill is not None and kill(stmt):
                return False, witness
            if witness is None and between is not None and between(stmt):
                witness = stmt
        return True, witness

    # Same-block fast path: src strictly before dst in one block.
    if src_block is dst_block and src_index < dst_index:
        alive, witness = scan(src_block, src_index + 1, dst_index, None)
        if alive and (between is None or witness is not None):
            return witness if between is not None else dst
    # General search.  State: (block, found-between-yet); at most two
    # visits per block.
    seen: set[tuple[int, bool]] = set()
    stack: list[tuple[Block, int, Optional[ast.stmt]]] = [
        (src_block, src_index + 1, None)]
    while stack:
        block, start, witness = stack.pop()
        if block is dst_block and start <= dst_index:
            alive, candidate = scan(block, start, dst_index, witness)
            if alive and (between is None or candidate is not None):
                return candidate if between is not None else dst
            # A kill before dst in this block also blocks continuing past
            # it on this visit — but paths through dst's *successors* and
            # back are covered by re-entering the block from the top.
        alive, witness = scan(block, start, None, witness)
        if not alive:
            continue
        for succ in block.succ:
            state = (succ.bid, witness is not None)
            if state not in seen:
                seen.add(state)
                stack.append((succ, 0, witness))
    return None
