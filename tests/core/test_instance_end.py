"""Ending a cache instance's incarnation ends the work it owns.

A graceful removal, a false-positive ejection and a node crash share one
teardown, ``CacheAgent.end_incarnation``: the instance's handlers are
interrupted and the platform reschedules the application's invocations
on the node, as after a crash (DESIGN.md section 9).
"""

from repro.core import ConcordSystem
from repro.faas import AppSpec, FaasPlatform, FunctionSpec
from repro.storage import DataItem
from repro.verify import check_run


def test_a_request_waiting_on_the_home_of_a_removed_instance_is_rescheduled(
        session, sim, cluster, coord):
    """The invocation on ``node1`` waits in ``_call_home`` for a slow home
    read at ``node2`` when ``node1``'s instance is removed.  The home's
    reply would go to the closed endpoint; the request must instead be
    rescheduled and finish on ``node3``, well inside one RPC timeout,
    with no call left behind on the removed instance and no node
    declared failed."""
    concord = ConcordSystem(cluster, app="app1", coord=coord)
    platform = FaasPlatform(cluster)
    key = next(f"k{i}" for i in range(100)
               if concord.ring_template.home(f"k{i}") == "node2")
    # 8 MB keeps the home's storage read (~200 ms) in flight.
    cluster.storage.preload({key: DataItem("v0", 8 << 20)})

    def get(ctx):
        return (yield from ctx.read(key))

    spec = AppSpec(name="app1")
    spec.add_function(FunctionSpec("get", get))
    app = platform.deploy(spec, concord, node_ids=["node1", "node3"])
    app.node_ids.remove("node3")  # warm, but routed to only once node1 goes
    platform.submit("app1")
    sim.run(until=sim.now + 50.0)
    removed = concord.agents["node1"]
    assert len(removed.endpoint._pending) == 1  # the call to the home

    app.node_ids[:] = ["node3"]
    sim.spawn(concord.remove_instance("node1"))
    sim.run(until=sim.now + 2000.0)
    assert (app.requests_completed, app.requests_rescheduled,
            app.requests_failed) == (1, 1, 0)
    assert (removed.endpoint.timeouts, removed.endpoint._pending) == (0, {})
    assert check_run(session) == []  # no declaration, no dead daemon
