"""Ending a cache instance's incarnation ends the work it owns.

A graceful removal, a false-positive ejection and a node crash share one
teardown, ``CacheAgent.end_incarnation``: the instance's handlers are
interrupted and the platform reschedules the application's invocations
on the node, as after a crash (DESIGN.md section 9).
"""

from repro.config import SimConfig
from repro.core import ConcordSystem
from repro.faas import AppSpec, FaasPlatform, FunctionSpec
from repro.session import Session
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


def test_directory_gauges_follow_the_directory_a_rejoin_rebuilds():
    """An ejection replaces the agent's directory; the node's directory
    gauges must read the new one, not freeze at the discarded one's
    values.  A false-positive report ejects ``node1``, which rejoins
    within 5 s; 80 more reads through ``node2`` / ``node3`` then home
    new entries at ``node1``."""
    session = Session.compose(
        config=SimConfig(num_nodes=4, heartbeat_interval_ms=100.0,
                         heartbeat_misses=3),
        seed=42, scheme="nocache", metrics=True)
    sim = session.sim
    concord = ConcordSystem(session.cluster, app="app1", coord=session.coord)
    keys = [f"k{i}" for i in range(120)]
    session.cluster.storage.preload({key: DataItem("v", 64) for key in keys})

    def read(node, key):
        sim.run_until_complete(sim.spawn(concord.read(node, key)),
                               limit=sim.now + 60_000.0)

    for key in keys[:40]:
        read("node2", key)
    agent = concord.agents["node1"]
    before = len(agent.directory)
    session.coord.report_unreachable("app1", "node1")
    sim.run(until=sim.now + 5000.0)
    assert not agent.ejected  # rejoined
    for index, key in enumerate(keys[40:]):
        read(("node2", "node3")[index % 2], key)
    session.metrics.sample(sim.now)
    gauges = {series.name: series.last()
              for series in session.metrics.store.all_series()
              if series.name.startswith("directory_")
              and dict(series.labels)["node"] == "node1"}
    directory = agent.directory
    sharers = directory.sharer_counts()
    assert len(directory) != before
    assert gauges == {
        "directory_entries": len(directory),
        "directory_sharers_max": max(sharers, default=0),
        "directory_sharers_mean": (sum(sharers) / len(directory)
                                   if len(directory) else 0.0),
    }


def test_a_crash_ends_the_rejoin_of_a_false_positive_ejection():
    """A false-positive report ejects ``node1``: its membership handler
    ends the incarnation and starts a rejoin daemon in the instance's
    scope.  ``node1`` crashes while that daemon waits to retry; the
    daemon ends with the crash instead of running a join to a dead node
    (whose prepare would time out and kill it), and only the restart's
    rejoin commits."""
    session = Session.compose(
        config=SimConfig(num_nodes=4, heartbeat_interval_ms=100.0,
                         heartbeat_misses=3),
        seed=42, scheme="nocache")
    sim, cluster = session.sim, session.cluster
    concord = ConcordSystem(cluster, app="app1", coord=session.coord)
    commits = []
    admit = concord.admit

    def counting_admit(agent):
        yield from admit(agent)
        commits.append(agent.node_id)

    concord.admit = counting_admit
    spawned = {}
    spawn = sim.spawn

    def recording_spawn(generator, name="", daemon=False):
        spawned[name] = process = spawn(generator, name, daemon)
        return process

    sim.spawn = recording_spawn
    session.coord.report_unreachable("app1", "node1")
    while "rejoin:node1" not in spawned:
        sim.step()
    rejoin = spawned["rejoin:node1"]
    sim.run(until=sim.now + 0.5)  # inside its retry pause
    assert rejoin.is_alive and not commits
    cluster.crash_node("node1")
    sim.run(until=sim.now)
    assert not rejoin.is_alive
    sim.run(until=sim.now + 2000.0)
    cluster.restart_node("node1")
    sim.run_until_complete(sim.spawn(concord.restart_instance("node1")),
                           limit=sim.now + 60_000.0)
    sim.run(until=sim.now + 10_000.0)
    assert (commits, sim.daemon_failures) == (["node1"], [])
    assert "node1" in concord.agents["node0"].ring.members
    assert not concord.agents["node1"].ejected
