"""Replay the three pre-fix PR 4 races through a real FlightRecorder.

Each builder drives a real Simulator + FlightRecorder through the event
sequence the corresponding race produced *before* its fix landed, ending
with the coherence-checker violation it caused.  The checked-in JSONL
fixtures and golden explain transcripts under ``fixtures/`` are
generated from these builders (byte-identical on every run — that is
itself asserted), so ``repro-inspect explain`` is pinned against the
exact causal chains the races leave behind:

- ``e_write_clobber``: the direct-to-storage E write committed the
  in-place cache update *before* the storage ack, so a concurrent
  writer's newer version was overwritten with an older one.
- ``write_reply_clobber``: the home-write reply installed its payload
  unconditionally, clobbering a newer entry that had landed in between.
- ``barred_install``: a read install landed while the recovery barrier
  for a failed home was raised — after the eviction sweep, so no
  directory tracked the new copy.
"""

from repro.obs import FlightRecorder
from repro.obs.events import (
    BARRIER_LIFT,
    BARRIER_RAISE,
    CACHE_INSTALL,
    CACHE_UPDATE,
    DIR_EXCLUSIVE,
    DIR_SHARER,
    VERIFY_VIOLATION,
)
from repro.sim import Simulator

#: The key every race fixture revolves around.
KEY = "user:42"


def _record(steps) -> FlightRecorder:
    """Emit ``(delay_ms, type, node, key, attrs)`` steps on a real sim."""
    recorder = FlightRecorder()
    sim = Simulator(seed=0, obs=recorder)

    def script(sim):
        obs = sim.obs
        for delay_ms, etype, node, key, attrs in steps:
            if delay_ms:
                yield sim.timeout(delay_ms)
            obs.emit(etype, node=node, key=key, **attrs)

    sim.run_until_complete(sim.spawn(script(sim)))
    return recorder


def e_write_clobber() -> FlightRecorder:
    """In-place E update without the storage-version compare."""
    return _record([
        (1.0, CACHE_INSTALL, "node1", KEY,
         {"state": "E", "version": 2, "src": "rfo"}),
        (0.5, DIR_EXCLUSIVE, "node0", KEY, {"owner": "node1"}),
        # The racing E write read storage v1 before the other writer's
        # v2 commit, then updated the cache unconditionally.
        (2.0, CACHE_UPDATE, "node1", KEY, {"version": 1, "prev": 2}),
        (1.5, VERIFY_VIOLATION, "node1", KEY,
         {"detail": "node1: stale copy of 'user:42' "
                    "(cached 'v1' != stored 'v2')"}),
    ])


def write_reply_clobber() -> FlightRecorder:
    """Home-write reply installed over a newer entry."""
    return _record([
        (1.0, CACHE_INSTALL, "node2", KEY,
         {"state": "S", "version": 3, "src": "read"}),
        (0.5, DIR_SHARER, "node0", KEY, {"sharer": "node2", "state": "S",
                                         "sharers": 1}),
        # A slow home-write reply from before v3 finally arrives and
        # installs its stale payload unconditionally.
        (2.5, CACHE_INSTALL, "node2", KEY,
         {"state": "S", "version": 2, "src": "write_reply"}),
        (1.0, VERIFY_VIOLATION, "node2", KEY,
         {"detail": "node2: stale copy of 'user:42' "
                    "(cached 'v2' != stored 'v3')"}),
    ])


def barred_install() -> FlightRecorder:
    """Read install while the recovery barrier was raised."""
    return _record([
        (1.0, BARRIER_RAISE, "node1", "", {"member": "node3"}),
        # The in-flight read misses the _grant_holds guard and installs
        # after the recovery eviction sweep has already visited node2.
        (0.5, CACHE_INSTALL, "node2", KEY,
         {"state": "S", "version": 0, "src": "read"}),
        (1.5, BARRIER_LIFT, "node1", "", {"member": "node3"}),
        (1.0, VERIFY_VIOLATION, "node2", KEY,
         {"detail": "node2: caches 'user:42' but no directory "
                    "tracks it"}),
    ])


#: fixture name -> (builder, the race id explain must diagnose).
RACES = {
    "e_write_clobber": (e_write_clobber, "e-write-clobber"),
    "write_reply_clobber": (write_reply_clobber, "write-reply-clobber"),
    "barred_install": (barred_install, "barred-install"),
}
