"""Post-mortem causality: walk a key's event history, explain a violation.

Given a flight-recorder dump and a key the quiescent coherence checker
flagged, :func:`explain_key` extracts that key's protocol history (plus
the cluster-scope events — barriers, recovery, faults — that change what
any key's operations are allowed to do), then :func:`diagnose` replays
the state transitions looking for the places where coherence went wrong.

The diagnosis rules are exactly the three protocol races fixed in PR 4,
which is what makes them good post-mortem signatures — each names the
code-path guard whose absence produces it:

``e-write-clobber``
    A ``cache.update`` (in-place E-state update) committed a *lower*
    storage version than the copy already present: the direct-to-storage
    write touched the cache before the storage ack / without the
    version compare.
``write-reply-clobber``
    A ``cache.install`` from a home-write reply carried a lower version
    than the copy already present: the reply clobbered a newer entry
    instead of yielding to storage order.
``barred-install``
    A ``cache.install`` landed while a recovery/domain-change barrier
    was raised: the recovery eviction sweep has already run, so the new
    copy is tracked by no directory (the ``_grant_holds`` guard).

Storage versions are compared only when both sides are known (> 0);
read installs carry version 0 and never participate.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    BARRIER_LIFT,
    BARRIER_RAISE,
    CACHE_INSTALL,
    CACHE_INVALIDATE,
    CACHE_UPDATE,
    VERIFY_VIOLATION,
)

__all__ = ["key_history", "diagnose", "explain_key", "find_violations",
           "render_explain"]

#: Events with no key of their own that still belong in every key's
#: history: they gate what any key's operations may legally do.
_CLUSTER_PREFIXES = ("barrier.", "recovery.", "domain.", "member.",
                     "fault.", "peer.")


def key_history(events: list, key: str) -> list:
    """The slice of ``events`` relevant to ``key``, emission order."""
    out = []
    for event in events:
        if event["key"] == key:
            out.append(event)
        elif not event["key"] and event["type"].startswith(_CLUSTER_PREFIXES):
            out.append(event)
    return out


def find_violations(events: list) -> list:
    """All coherence-checker violation events in the stream."""
    return [event for event in events if event["type"] == VERIFY_VIOLATION]


def diagnose(history: list) -> list:
    """Replay a key history; return race findings (see module docstring).

    Each finding is ``{"race", "seq", "cause_seq", "message"}`` where
    ``seq`` is the offending event and ``cause_seq`` the event it
    conflicts with (the newer-version copy, or the barrier raise).
    """
    findings = []
    version = {}       # node -> last known storage version of its copy
    version_seq = {}   # node -> seq of the event that set it
    barriers = {}      # member -> the barrier.raise event
    for event in history:
        etype = event["type"]
        attrs = event["attrs"]
        if etype == BARRIER_RAISE:
            barriers[attrs.get("member", event["node"])] = event
        elif etype == BARRIER_LIFT:
            barriers.pop(attrs.get("member", event["node"]), None)
        elif etype == CACHE_INVALIDATE:
            version.pop(event["node"], None)
            version_seq.pop(event["node"], None)
        elif etype in (CACHE_INSTALL, CACHE_UPDATE):
            node = event["node"]
            new = attrs.get("version", 0)
            held = version.get(node, 0)
            if etype == CACHE_INSTALL and barriers:
                raise_event = min(barriers.values(), key=lambda e: e["seq"])
                member = raise_event["attrs"].get(
                    "member", raise_event["node"])
                findings.append({
                    "race": "barred-install",
                    "seq": event["seq"],
                    "cause_seq": raise_event["seq"],
                    "message": (
                        f"install on {node} while the barrier for failed "
                        f"home {member} was raised (#{raise_event['seq']}): "
                        f"the recovery eviction sweep has already run here, "
                        f"so no directory tracks this copy"),
                })
            elif new and held and new < held:
                race = ("e-write-clobber" if etype == CACHE_UPDATE
                        else "write-reply-clobber")
                how = ("in-place E update committed to cache without the "
                       "storage-version compare"
                       if etype == CACHE_UPDATE else
                       "home-write reply installed over a newer entry "
                       "instead of yielding to storage order")
                findings.append({
                    "race": race,
                    "seq": event["seq"],
                    "cause_seq": version_seq[node],
                    "message": (
                        f"{etype} v{new} on {node} clobbered newer v{held} "
                        f"(#{version_seq[node]}): {how}"),
                })
            if new >= held:
                version[node] = new
                version_seq[node] = event["seq"]
    return findings


def explain_key(events: list, key: str) -> dict:
    """History + findings + violations for one key."""
    history = key_history(events, key)
    return {
        "key": key,
        "history": history,
        "findings": diagnose(history),
        "violations": [event for event in history
                       if event["type"] == VERIFY_VIOLATION],
    }


def _event_line(event: dict) -> str:
    attrs = event["attrs"]
    extra = " ".join(f"{name}={attrs[name]}" for name in sorted(attrs))
    extra = f" {extra}" if extra else ""
    node = f" {event['node']}" if event["node"] else ""
    return (f"  #{event['seq']:<5} {event['t']:>10.3f}ms "
            f"{event['type']}{node}{extra}")


def render_explain(explained: dict, title: str = "explain") -> str:
    """Text report: the causal transition chain plus the diagnosis."""
    lines = [f"{title}: key={explained['key']} "
             f"({len(explained['history'])} events, "
             f"{len(explained['violations'])} violations)"]
    lines.append("causal transition chain:")
    lines.extend(_event_line(event) for event in explained["history"])
    findings = explained["findings"]
    if findings:
        lines.append("diagnosis:")
        for finding in findings:
            lines.append(f"  - [{finding['race']}] event #{finding['seq']} "
                         f"<- #{finding['cause_seq']}: {finding['message']}")
    else:
        lines.append("diagnosis: no known race signature matched")
    return "\n".join(lines) + "\n"
