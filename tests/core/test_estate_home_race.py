"""E-state writes racing the home.

An exclusive (E) owner writes straight to storage, bypassing the home.
Two tests below replay the one seed of a race shape
(:mod:`repro.verify.races`, also swept nightly) that ended with a stale
cached copy before its race was closed; a third builds its race by hand.

*A downgrade at the writer's own home.*  When a node is both the home
and the E owner of a key, a read from another node downgrades the
owner's copy in place rather than through a ``fetch_downgrade`` RPC.
That path must wait out the owner's in-flight direct-to-storage write
exactly as the RPC handler does; otherwise the reader installs the
pre-write value as S and the write then updates only the owner, leaving
a stale copy.  The same holds for the in-place invalidation.  Seed 8 of
the ``faas_mixed`` shape reproduces it at ~7 s of load: ``node1`` is
home and E owner of ``MediaServ:e53:i1`` when ``node0``'s read arrives.

*A read grant without its version.*  A node holding a key in E can have
a second read of it already on its way to the home, which still lists
the node as owner and so serves the read from storage; meanwhile the
node's own E write commits a later version.  When the grant lands, the
reader must keep its newer copy — which it can only tell if the grant
says which version it carries.  Seed 25 of the ``sharded_regions`` shape
reproduces it: ``node0`` ends with a stale copy of ``SocNet:g51``, homed
in the other region.

*A read-for-ownership at the writer's own home.*  The home drops its own
copy in place when another node takes ownership; that drop, too, must
wait out the home's in-flight E write, or the storage read behind it
returns the pre-write value and the new owner holds it in E.
"""

from repro.config import SimConfig
from repro.session import Session
from repro.storage import DataItem
from repro.verify import check_run
from repro.verify.races import run_shape


def test_home_local_downgrade_waits_for_the_estate_write():
    assert run_shape("faas_mixed", 8, load_ms=8_000.0) == []


def test_read_grant_keeps_a_newer_local_write():
    assert run_shape("sharded_regions", 25) == []


def test_rfo_at_the_owners_home_waits_for_the_estate_write():
    s = Session.compose(config=SimConfig(num_nodes=4), seed=21,
                        estate_writes=True)
    sim, concord = s.sim, s.system
    ring = concord.agents["node0"].ring
    key = next(f"k{i}" for i in range(1000) if ring.home(f"k{i}") == "node1")
    s.cluster.storage.preload({key: DataItem("old", 128)})
    # The large value keeps the E write in flight while the RFO's own
    # (small) storage read would otherwise overtake it.
    new = DataItem("new", 8 << 20)

    def owner():
        yield from concord.read("node1", key)  # node1 becomes E owner
        yield from concord.write("node1", key, new)

    granted = []

    def rfo():
        yield sim.timeout(40.0)  # lands while node1's E write is in flight
        granted.append(
            (yield from concord.agents["node2"].acquire_exclusive(key)))

    sim.spawn(owner())
    sim.spawn(rfo())
    sim.run(until=sim.now + 10_000.0)
    assert granted == [new]
    assert check_run(s) == []
