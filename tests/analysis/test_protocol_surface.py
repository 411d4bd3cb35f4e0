"""The agent-op vs model-checker coverage cross-check."""

import json
from pathlib import Path

from repro.analysis import protocol_surface


def test_shipped_tree_fully_covered():
    report = protocol_surface.check()
    assert report["ok"], report["problems"]
    assert set(report["agent_ops"]) == set(protocol_surface.OP_COVERAGE)
    # Every lifecycle transition we acknowledge actually exists.
    assert set(report["lifecycle_events"]) == set(
        protocol_surface.LIFECYCLE_EVENTS)
    assert report["unmapped_model_events"] == []


def test_agent_op_extraction_matches_protocol():
    ops = protocol_surface.agent_ops()
    assert ops == {"read", "write", "rfo", "fetch_downgrade",
                   "invalidate", "external_write", "dir_replicate",
                   "membership", "ping", "recovery_complete",
                   "domain_prepare", "domain_commit", "dir_install"}


def test_model_event_extraction():
    events = protocol_surface.model_events()
    assert {"Read", "Write", "RecoverOnFail"} <= events


def test_uncovered_op_fails(tmp_path):
    agent = tmp_path / "agent.py"
    agent.write_text(
        "class A:\n"
        "    def _install(self):\n"
        "        handlers = {\n"
        "            'read': self._handle_read,\n"
        "            'mystery_op': self._handle_mystery,\n"
        "        }\n"
    )
    model = tmp_path / "model.py"
    model.write_text("def t(add, node):\n    add(f'Read({node})', None)\n")
    report = protocol_surface.check(agent_path=agent, model_path=model)
    assert not report["ok"]
    assert any("mystery_op" in problem for problem in report["problems"])
    # Ops dropped from the agent make their OP_COVERAGE entries stale.
    assert any("no longer registers" in problem
               for problem in report["problems"])


def test_vanished_model_event_fails(tmp_path):
    agent = tmp_path / "agent.py"
    agent.write_text(
        "class A:\n"
        "    def _install(self):\n"
        "        handlers = {'read': self._handle_read,\n"
        "                    'write': self._handle_write,\n"
        "                    'rfo': self._handle_rfo,\n"
        "                    'fetch_downgrade': self._handle_fd,\n"
        "                    'invalidate': self._handle_inv,\n"
        "                    'external_write': self._handle_ext}\n"
    )
    model = tmp_path / "model.py"
    model.write_text("def t(add, node):\n    add(f'Read({node})', None)\n")
    report = protocol_surface.check(agent_path=agent, model_path=model)
    assert not report["ok"]
    assert any("Write" in problem and "no longer declares" in problem
               for problem in report["problems"])


def test_cli_json_output(capsys):
    code = protocol_surface.main(["--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["problems"] == []


def test_cli_text_output(capsys):
    code = protocol_surface.main([])
    out = capsys.readouterr().out
    assert code == 0
    assert "protocol-surface coverage: OK" in out
