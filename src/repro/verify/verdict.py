"""The verdict on a run: scheme invariants, and one answer to "was it clean?".

``check_coherence`` knows Concord's invariants; the zoo schemes carry
their own (version anchors, dirty-buffer accounting, session
guarantees, staleness bounds) as a ``verify_invariants(cluster)``
method.  :func:`check_scheme_invariants` dispatches structurally, not by
import: a scheme that defines ``verify_invariants`` is asked directly; a
Concord system (recognised by its ``agents``/``controller`` shape) goes
through the runtime coherence checker; anything else (e.g. ``nocache``,
which holds no state to violate) passes vacuously.

:func:`check_run` is the one definition of a clean run.  The fault
scenario, the race and churn shapes and the scripts that sweep them all
report it, and nothing else decides cleanliness.
"""

from __future__ import annotations

from typing import Optional

from repro.verify.runtime import check_coherence

__all__ = ["check_run", "check_scheme_invariants"]

#: Plan events that cut nodes off without crashing them: a node on the
#: far side may be declared failed while it runs.
_PARTITIONS = ("NetworkPartition", "RegionPartition")


def check_scheme_invariants(scheme, cluster: Optional[object] = None,
                            strict_tracking: Optional[bool] = None) -> list:
    """All invariant violations for ``scheme`` at quiescence.

    Returns Concord's coherence violations, a zoo scheme's own
    ``verify_invariants`` result, or ``[]`` for stateless schemes.
    ``strict_tracking`` is forwarded to the Concord checker only.
    """
    verify = getattr(scheme, "verify_invariants", None)
    if verify is not None:
        return verify(cluster)
    if hasattr(scheme, "agents") and hasattr(scheme, "controller"):
        return check_coherence(scheme, cluster, strict_tracking)
    return []


def check_run(session) -> list[str]:
    """Everything wrong with a drained :class:`~repro.session.Session`;
    ``[]`` means clean.

    It flags each scheme invariant violation; a deployed app with
    requests still in flight or none completed; a crashed node never
    declared failed, or a declared node the plan did not crash (unless
    the plan partitions); a daemon that died with an exception; and, per
    Concord controller, a recovery still waiting on acks and a member
    agent still holding a barrier (paper Section III-F: the barrier
    comes down once every survivor acked).
    """
    systems = []  # a shared scheme maps every app to one object
    for system in session.schemes.values():
        if not any(system is seen for seen in systems):
            systems.append(system)
    problems = [str(violation) for system in systems
                for violation in check_scheme_invariants(system,
                                                         session.cluster)]
    for name, app in sorted(session.deployed.items()):
        if app.inflight:
            problems.append(f"{name}: {app.inflight} request(s) unfinished")
        if not app.requests_completed:
            problems.append(f"{name}: no request completed")
    events = session.injector.plan.events if session.injector else ()
    crashed = {event.node for event in events if event.kind == "NodeCrash"}
    declared = {node for _at, _app, node in session.coord.failures_detected}
    for node in sorted(crashed - declared):
        problems.append(f"{node} crashed but was never declared failed")
    if not any(event.kind in _PARTITIONS for event in events):
        for node in sorted(declared - crashed):
            problems.append(f"{node} was declared failed but never crashed")
    for process, exc in session.sim.daemon_failures:
        problems.append(
            f"daemon {process.name} died: {type(exc).__name__}: {exc}")
    for system in systems:
        controller = getattr(system, "controller", None)
        if controller is None:
            continue
        for member, missing in controller.open_recoveries():
            problems.append(f"{system.app}: recovery of {member} still "
                            f"waits on acks from {missing}")
        for node_id, agent in sorted(system.agents.items()):
            if agent._barriers and not agent.ejected:
                problems.append(f"{system.app}: {node_id} still holds the "
                                f"barrier of {sorted(agent._barriers)}")
    return problems
