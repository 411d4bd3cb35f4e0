"""``repro.session`` is the only place ``src/repro`` wires a system.

Walks every source module's AST and fails when a ``Simulator(...)``,
``Cluster(...)``, ``CoordinationService(...)`` or ``FaultInjector(...)``
construction appears outside the composition root, so a new experiment
or topology cannot quietly grow its own hand-wired copy of the stack —
not even a coordination-free one: a run without coherence takes the
``cluster`` of a ``nocache`` session.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ROOT_ONLY = {"Simulator", "Cluster", "CoordinationService", "FaultInjector"}
ALLOWED = {"session.py"}


def _constructions(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name in ROOT_ONLY:
                yield f"{path.relative_to(SRC)}:{node.lineno} {name}(...)"


def test_only_the_session_wires_a_system():
    stray = [
        site
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in ALLOWED
        for site in _constructions(path)
    ]
    assert not stray, "wire through repro.session.Session:\n" + "\n".join(stray)


def test_the_root_itself_is_seen():
    found = list(_constructions(SRC / "session.py"))
    for name in ROOT_ONLY:
        assert any(f" {name}(" in site for site in found), name
