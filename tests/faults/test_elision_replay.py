"""Whole-system runs are the same run with the hops elided or paid.

``tests/sim/test_elision.py`` holds the kernel to the next-entry rule on
random programs; this file holds the *stack* to it — RPC gates, handler
completions, lock and core grants, crash interrupts, partitions — by
running canonical scenarios twice: as shipped, and with every simulator
built with its tail-position flag at 0 (patching the kernel's depth
constant, test-side: there is no option for it), which is the schedule
from before the rule existed.  Everything simulated must agree; only the
number of schedule entries may differ, and it must.
"""

import os
from pathlib import Path

import pytest

import repro.sim.simulator as kernel
from repro.faults import (
    FaultPlan, NetworkPartition, NodeCrash, NodeRestart, run_fault_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The perfbench workloads' scale.  Tier-1 runs a smoke-sized build of
#: each; the nightly job sets ``ELISION_REPLAY_SCALE=1.0`` to hold every
#: elision to the un-elided schedule at benchmark length.
REPLAY_SCALE = float(os.environ.get("ELISION_REPLAY_SCALE", "0.05"))

PLANS = {
    "crash": FaultPlan(events=(NodeCrash(at_ms=700.0, node="node2"),)),
    "partition": FaultPlan(events=(NetworkPartition(
        at_ms=600.0, duration_ms=500.0,
        groups=(("node0", "node1"), ("node2", "node3"))),)),
    "churn": FaultPlan(events=(
        NodeCrash(at_ms=500.0, node="node1"),
        NodeRestart(at_ms=900.0, node="node1"),
        NodeCrash(at_ms=1200.0, node="node3"),
        NodeRestart(at_ms=1600.0, node="node3"),
    )),
}


@pytest.fixture
def both_ways(monkeypatch):
    """``both_ways(run)`` -> ``(elided, unelided)`` results of ``run()``."""
    def runner(run):
        elided = run()
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_MAX_INLINE_DEPTH", 0)
            unelided = run()
        return elided, unelided
    return runner


@pytest.mark.parametrize("name", sorted(PLANS))
def test_fault_scenarios_agree_both_ways(name, both_ways):
    def run():
        outcome = run_fault_scenario(
            PLANS[name], seed=5, num_nodes=4, duration_ms=2500.0, rps=20.0,
            obs=True)
        return outcome, outcome.system.sim.schedule_count

    (elided, fewer), (unelided, more) = both_ways(run)
    assert elided.fingerprint() == unelided.fingerprint()
    assert elided.obs_jsonl == unelided.obs_jsonl and elided.obs_jsonl
    assert elided.completed > 10 and elided.applied
    assert fewer < more


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, imported read-only (it is the driver's
    benchmark: nothing under ``perfbench/`` is this suite's to change)."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import workloads

    return workloads.WORKLOADS


@pytest.mark.parametrize("name", [
    "faas_mixed", "read_hits", "write_sharing", "sharded_regions",
    "signals_on"])
def test_benchmark_workloads_agree_both_ways(name, both_ways,
                                             perfbench_workloads):
    def run():
        built = perfbench_workloads[name].build(seed=1009, scale=REPLAY_SCALE)
        for _slice in built.slices():
            pass
        return built.collect()

    elided, unelided = both_ways(run)
    assert elided["completed"] > 0 and not elided["violations"]
    assert elided["sim_entries"] < unelided["sim_entries"]
    for counters in (elided, unelided):
        # The only two fields allowed to move: the count and its hash.
        del counters["sim_entries"], counters["sim_fingerprint"]
    assert elided == unelided
