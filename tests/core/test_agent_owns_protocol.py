"""The cache agent alone states the per-node protocol, each step once.

Walks the AST of ``core/concord.py`` and fails when it registers any RPC
handler: every message a Concord node answers, its membership protocol
included, belongs in :class:`~repro.core.agent.CacheAgent`'s handler
table, where the protocol-surface cross-check sees it.  Within the agent,
each protocol event is emitted from one place: a step the home runs in
place and a peer runs behind an RPC handler is one body, not two copies.
"""

import ast
from collections import Counter
from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def _registrations(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register_handler"):
            yield f"{path.name}:{node.lineno}"


def test_the_system_registers_no_handler():
    stray = list(_registrations(CORE / "concord.py"))
    assert not stray, ("register node handlers in CacheAgent's table:\n"
                       + "\n".join(stray))


def test_the_agent_itself_is_seen():
    assert list(_registrations(CORE / "agent.py"))


def test_each_protocol_event_is_emitted_once():
    tree = ast.parse((CORE / "agent.py").read_text())
    kinds = Counter(
        node.args[0].id for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and node.args and isinstance(node.args[0], ast.Name))
    assert kinds, "no obs.emit(KIND, ...) found in agent.py"
    repeated = {kind: count for kind, count in kinds.items() if count > 1}
    assert not repeated, f"emitted from more than one place: {repeated}"


def test_only_the_sharer_body_drops_a_copy_for_a_peer():
    """A home op drops the home's own copy through ``_invalidate_here``,
    the body ``_handle_invalidate`` runs, so it waits out the home's own
    E write and protected transaction as a remote sharer would.  The
    recovery sweep is the one other caller: it answers no peer."""
    tree = ast.parse((CORE / "agent.py").read_text())
    agent = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "CacheAgent")
    callers = sorted(
        method.name for method in agent.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_invalidate_local")
    assert callers == ["_invalidate_here", "_recover"]
