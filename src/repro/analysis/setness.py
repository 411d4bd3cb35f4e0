"""Lightweight "is this expression a set?" inference.

Python iterates ``set``/``frozenset`` in hash order, which for strings
depends on ``PYTHONHASHSEED`` — so the same program produces *different*
iteration orders across runs.  Any set iteration that feeds scheduling,
RPC fan-out or metric aggregation therefore breaks the simulator's
bit-for-bit determinism guarantee.  This module syntactically classifies
expressions as set-producing so the determinism rules can flag iteration
over them.

The inference is deliberately local and conservative:

- literal sets / set comprehensions / ``set()`` / ``frozenset()`` calls;
- set operators (``|``, ``&``, ``-``, ``^``) and named set methods when
  an operand is already known set-ish;
- names assigned a set-ish expression earlier in the same function;
- ``self.x`` attributes annotated or assigned as sets in the same module;
- attribute names that are sets by repo convention (``sharers``,
  ``members``, ...), and calls to functions whose return annotation is
  ``set`` (collected per module, plus a cross-module known list);
- order-preserving wrappers (``list``/``tuple``/``iter``/``enumerate``)
  propagate set-ness from their argument.
"""

from __future__ import annotations

import ast
from typing import Optional

#: Attributes that hold sets by convention across the repo (hash ring
#: membership, directory sharer sets, speculation read sets, recovery
#: bookkeeping).  Extend when a new set-valued protocol field appears.
KNOWN_SET_ATTRS = frozenset({
    "members", "sharers", "spec_readers", "awaiting", "early_acks",
    "read_set", "_members",
})

#: Methods/functions whose *name* implies a set return across modules.
KNOWN_SET_RETURNS = frozenset({
    "stale_nodes", "paired_functions", "valid_holders_set",
})

#: Set methods returning a new set when the receiver is a set.
_SET_METHODS = frozenset({
    "difference", "union", "intersection", "symmetric_difference", "copy",
})

_ORDER_PRESERVING_WRAPPERS = frozenset({"list", "tuple", "iter", "reversed",
                                        "enumerate"})


class ModuleSetFacts:
    """Per-module facts: annotated set attributes and set-returning defs."""

    def __init__(self, tree: ast.Module):
        self.set_attrs: set[str] = set()
        self.set_returns: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
                target = node.target
                if isinstance(target, ast.Name):
                    self.set_attrs.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
            elif isinstance(node, ast.Assign):
                if _is_set_literalish(node.value):
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            self.set_attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None and _is_set_annotation(node.returns):
                    self.set_returns.add(node.name)
                # dataclass-style: field(default_factory=set)
        for node in ast.walk(tree):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "field"):
                for keyword in node.value.keywords:
                    if (keyword.arg == "default_factory"
                            and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in ("set", "frozenset")):
                        target = node.target
                        if isinstance(target, ast.Name):
                            self.set_attrs.add(target.id)


def _is_set_annotation(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text.startswith(("set", "frozenset", "Set[", "FrozenSet["))
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    return False


def _is_set_literalish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    return False


def local_set_bindings(
        func: ast.AST, facts: ModuleSetFacts,
) -> dict[str, list[tuple[tuple[int, int], bool]]]:
    """Position-ordered set-ness binding events per local name.

    Each event is ``((lineno, col), binds_a_set)``.  The events are
    order-aware: a later rebinding to a non-set value *kills* set-ness
    for subsequent uses.  The motivating idiom is ``sorted()``
    negation — the repo's own fix for DET02::

        nodes = self.directory.sharers(key)   # a set
        nodes = sorted(nodes)                 # now a list: order is fixed
        for node_id in nodes: ...             # fine, must not be flagged

    Two evaluation passes let straight renames settle regardless of
    textual order; ``AugAssign`` never changes the container type, so it
    only ever *adds* set-ness, never kills it.
    """
    bindings: dict[str, list[tuple[tuple[int, int], bool]]] = {}
    args = getattr(func, "args", None)
    origin = (getattr(func, "lineno", 0), getattr(func, "col_offset", 0))
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs):
            if (arg.annotation is not None
                    and _is_set_annotation(arg.annotation)):
                bindings.setdefault(arg.arg, []).append((origin, True))

    assigns = [node for node in ast.walk(func)
               if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))]
    assigns.sort(key=lambda node: (node.lineno, node.col_offset))

    def record(name: str, pos: tuple[int, int], setish: bool) -> None:
        events = bindings.setdefault(name, [])
        for index, (event_pos, _) in enumerate(events):
            if event_pos == pos:
                events[index] = (pos, setish)  # pass-2 refinement
                return
        events.append((pos, setish))
        events.sort(key=lambda event: event[0])

    for _pass in range(2):
        for node in assigns:
            pos = (node.lineno, node.col_offset)
            visible = set_names_at(bindings, pos)
            if isinstance(node, ast.Assign):
                if (len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    record(node.targets[0].id, pos,
                           is_setish(node.value, facts, visible))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    if _is_set_annotation(node.annotation):
                        record(node.target.id, pos, True)
                    elif node.value is not None:
                        record(node.target.id, pos,
                               is_setish(node.value, facts, visible))
            else:  # AugAssign
                if (isinstance(node.target, ast.Name)
                        and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                                 ast.Sub, ast.BitXor))
                        and is_setish(node.value, facts, visible)):
                    record(node.target.id, pos, True)
    return bindings


def set_names_at(bindings: dict[str, list[tuple[tuple[int, int], bool]]],
                 pos: tuple[int, int]) -> set[str]:
    """Names holding sets just before ``pos``: the last binding strictly
    earlier in the text wins.

    A name whose events all lie *after* ``pos`` counts when any of them
    binds a set — a use textually above its binding reaches it through a
    loop back-edge, and the conservative answer keeps the flag.
    """
    names: set[str] = set()
    for name, events in bindings.items():
        before = [setish for event_pos, setish in events if event_pos < pos]
        if before:
            if before[-1]:
                names.add(name)
        elif any(setish for _, setish in events):
            names.add(name)
    return names


def is_setish(node: ast.AST, facts: ModuleSetFacts,
              local_names: Optional[set] = None) -> bool:
    """Whether ``node`` syntactically evaluates to a set."""
    local_names = local_names or set()
    if _is_set_literalish(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_names
    if isinstance(node, ast.Attribute):
        return node.attr in KNOWN_SET_ATTRS or node.attr in facts.set_attrs
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (is_setish(node.left, facts, local_names)
                or is_setish(node.right, facts, local_names))
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if (func.id in _ORDER_PRESERVING_WRAPPERS and node.args
                    and is_setish(node.args[0], facts, local_names)):
                return True
            if func.id in facts.set_returns or func.id in KNOWN_SET_RETURNS:
                return True
        if isinstance(func, ast.Attribute):
            if (func.attr in _SET_METHODS
                    and is_setish(func.value, facts, local_names)):
                return True
            if (func.attr in facts.set_returns
                    or func.attr in KNOWN_SET_RETURNS):
                return True
    if isinstance(node, ast.IfExp):
        return (is_setish(node.body, facts, local_names)
                or is_setish(node.orelse, facts, local_names))
    return False
