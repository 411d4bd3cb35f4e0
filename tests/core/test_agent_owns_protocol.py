"""The cache agent alone states the per-node protocol.

Walks the AST of ``core/concord.py`` and fails when it registers any RPC
handler: every message a Concord node answers, its membership protocol
included, belongs in :class:`~repro.core.agent.CacheAgent`'s handler
table, where the protocol-surface cross-check sees it.
"""

import ast
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
