"""Cross-check: every coherence op the agent serves is model-checked.

The runtime protocol surface is the handler table in
``repro/core/agent.py`` (the RPC methods a :class:`CacheAgent` answers,
its membership protocol included); the verified surface is the
transition set the explicit-state model checker in
``repro/verify/model.py`` explores.  A coherence op that the
agent implements but the model never exercises is an unverified code
path — exactly how protocol bugs slip into "verified" systems.

This module extracts both surfaces from the AST (no imports of either
module, so it works on a broken tree) and maps each agent op to the
model event(s) that exercise it:

===================  =====================================
agent op             model transition that drives it
===================  =====================================
read                 Read (miss path fetches from home)
write                Write (forwarded to the home agent)
rfo                  Write (read-for-ownership on remote write)
fetch_downgrade      Read (E-state owner downgraded to S)
invalidate           Write (sharers invalidated before grant)
external_write       Write (storage update routed to home)
dir_replicate        Read, Write, RecoverOnFail (shard mirror)
membership           NodeFail (failure declared to survivors)
ping                 NodeFail (heartbeat the detector misses)
recovery_complete    RecoverOnFail (barrier lifted)
domain_prepare       Join, Leave (barrier up, entries moved)
domain_commit        Join, Leave (new ring committed)
dir_install          Join, Leave (moved entries installed)
===================  =====================================

DataEvict is silent (no message) and so drives no handler; the
lifecycle transitions are also acknowledged as a set of their own.

Run with ``python -m repro.analysis.protocol_surface`` (``--format=json``
for machine-readable output); exits non-zero when any agent op lacks a
covering model event, or a mapped event vanished from the model.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import Optional

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent  # src/repro
AGENT_PATH = _PACKAGE_ROOT / "core" / "agent.py"
MODEL_PATH = _PACKAGE_ROOT / "verify" / "model.py"

#: agent RPC op -> model event name(s) that exercise the op.
OP_COVERAGE = {
    "read": ("Read",),
    "write": ("Write",),
    "rfo": ("Write",),
    "fetch_downgrade": ("Read",),
    "invalidate": ("Write",),
    "external_write": ("Write",),
    # Shard-replica mirroring: entry snapshots fan out on every
    # directory mutation (reads create entries too) and the mirror is
    # consumed when a follower adopts a failed leader's shards.
    "dir_replicate": ("Read", "Write", "RecoverOnFail"),
    # The membership protocol (Sections III-D, III-F, III-H).
    "membership": ("NodeFail",),
    "ping": ("NodeFail",),
    "recovery_complete": ("RecoverOnFail",),
    "domain_prepare": ("Join", "Leave"),
    "domain_commit": ("Join", "Leave"),
    "dir_install": ("Join", "Leave"),
}

#: Model transitions of the membership lifecycle (failure, recovery,
#: domain change, silent eviction).
LIFECYCLE_EVENTS = frozenset(
    {"DataEvict", "NodeFail", "Leave", "Join", "RecoverOnFail"})

#: ``add(f"Read({node})", ...)`` / ``add("RecoverOnFail", ...)`` — the
#: event name is everything before the first parenthesis.
_EVENT_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)")


def agent_ops(path: Path = AGENT_PATH) -> set:
    """RPC method names the cache agent registers handlers for.

    Finds every dict literal whose keys are all strings and whose values
    are all ``self.<handler>`` or ``self.<factory>(...)`` — the agent's
    handler-table idiom — and any direct ``register_handler("name", ...)``
    calls.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    ops: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and node.keys:
            keys = [k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)]
            values = [v.func if isinstance(v, ast.Call) else v
                      for v in node.values]
            values_ok = all(
                isinstance(v, ast.Attribute)
                and isinstance(v.value, ast.Name) and v.value.id == "self"
                for v in values)
            if len(keys) == len(node.keys) and values_ok:
                ops.update(keys)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register_handler"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            ops.add(node.args[0].value)
    return ops


def model_events(path: Path = MODEL_PATH) -> set:
    """Transition names the model checker's ``add(...)`` calls declare."""
    tree = ast.parse(path.read_text(), filename=str(path))
    events: set = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "add"
                and node.args):
            continue
        label = node.args[0]
        text: Optional[str] = None
        if isinstance(label, ast.Constant) and isinstance(label.value, str):
            text = label.value
        elif isinstance(label, ast.JoinedStr):
            first = label.values[0] if label.values else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                text = first.value
        if text is None:
            continue
        match = _EVENT_NAME_RE.match(text)
        if match:
            events.add(match.group(1))
    return events


def check(agent_path: Path = AGENT_PATH,
          model_path: Path = MODEL_PATH) -> dict:
    """Compute the coverage report (pure data; no printing)."""
    ops = agent_ops(agent_path)
    events = model_events(model_path)
    problems = []
    for op in sorted(ops):
        mapped = OP_COVERAGE.get(op)
        if mapped is None:
            problems.append(
                f"agent op {op!r} has no entry in OP_COVERAGE: either map "
                "it to the model event that exercises it or add the "
                "transition to verify/model.py")
            continue
        missing = [event for event in mapped if event not in events]
        if missing:
            problems.append(
                f"agent op {op!r} maps to model event(s) "
                f"{', '.join(missing)} which verify/model.py no longer "
                "declares")
    stale = [op for op in sorted(OP_COVERAGE) if op not in ops]
    for op in stale:
        problems.append(
            f"OP_COVERAGE lists {op!r} but the agent no longer registers "
            "a handler for it; drop the stale mapping")
    unmapped_events = sorted(
        events - LIFECYCLE_EVENTS
        - {event for mapped in OP_COVERAGE.values() for event in mapped})
    return {
        "agent_ops": sorted(ops),
        "model_events": sorted(events),
        "lifecycle_events": sorted(LIFECYCLE_EVENTS & events),
        "unmapped_model_events": unmapped_events,
        "problems": problems,
        "ok": not problems,
    }


def main(argv: Optional[list] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    as_json = "--format=json" in argv or "--json" in argv
    report = check()
    if as_json:
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        print(f"agent ops      : {', '.join(report['agent_ops'])}", file=out)
        print(f"model events   : {', '.join(report['model_events'])}",
              file=out)
        if report["unmapped_model_events"]:
            print("unmapped events: "
                  f"{', '.join(report['unmapped_model_events'])}", file=out)
        for problem in report["problems"]:
            print(f"error: {problem}", file=out)
        verdict = "OK" if report["ok"] else "FAIL"
        print(f"protocol-surface coverage: {verdict}", file=out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
