"""The cache agent alone states the per-node protocol, each step once.

Walks the AST of ``core/concord.py`` and fails when it registers any RPC
handler: every message a Concord node answers, its membership protocol
included, belongs in :class:`~repro.core.agent.CacheAgent`'s handler
table, where the protocol-surface cross-check sees it.  Within the agent,
each protocol event is emitted from one place: a step the home runs in
place and a peer runs behind an RPC handler is one body, not two copies.
So is the homeship rule: one barrier scan, one grant predicate, one
place that records a grant, and no barrier waited out under a lock.
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


def _agent_methods():
    tree = ast.parse((CORE / "agent.py").read_text())
    agent = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "CacheAgent")
    return [method for method in agent.body
            if isinstance(method, ast.FunctionDef)]


def _is_self_attr(node, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _calls(node, attr: str):
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr]


def test_no_barrier_is_waited_out_under_a_lock():
    """A domain change's hand-off queues on the key lock, and only the
    change's commit lifts the barrier: a barrier wait inside a ``try``
    whose ``finally`` releases a lock would hold both ends."""
    held = sorted(
        f"{method.name}:{call.lineno}"
        for method in _agent_methods()
        for node in ast.walk(method)
        if isinstance(node, ast.Try)
        and any(_calls(stmt, "release") for stmt in node.finalbody)
        for stmt in node.body
        for call in _calls(stmt, "_barrier_wait"))
    assert not held, f"barrier waited out under a lock: {held}"


def test_only_register_records_a_grant():
    """The directory learns of a grant in one place, behind the one
    homeship check, and the mirror follows it there."""
    callers = sorted(
        (method.name, call.func.attr)
        for method in _agent_methods()
        for attr in ("set_exclusive", "add_sharer")
        for call in _calls(method, attr)
        if isinstance(call.func.value, ast.Attribute)
        and call.func.value.attr == "directory")
    assert callers == [("_register", "add_sharer"),
                       ("_register", "set_exclusive")]


def test_only_barrier_on_scans_the_barriers_by_key():
    scanners = sorted(
        method.name for method in _agent_methods()
        for loop in ast.walk(method)
        if isinstance(loop, ast.For)
        and any(_is_self_attr(node, "_barriers")
                for node in ast.walk(loop.iter))
        and _calls(loop, "home"))
    assert scanners == ["_barrier_on"]


def test_a_captured_epoch_is_compared_in_three_places():
    """Whether a grant still stands is :meth:`_grant_holds`, whether a
    timed-out call may be reported is :meth:`_report_timeout`; the shard
    takeover's own pause is the other epoch check."""
    comparers = sorted({
        method.name for method in _agent_methods()
        for node in ast.walk(method)
        if isinstance(node, ast.Compare)
        and any(_is_self_attr(side, "epoch")
                for side in [node.left, *node.comparators])})
    assert comparers == ["_grant_holds", "_report_timeout", "_shard_failover"]
