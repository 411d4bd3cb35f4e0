"""Cross-commit identity pins for the wired-up system.

The other fingerprint tests compare a run with itself (across
``PYTHONHASHSEED`` values); these compare it with the commit the golden
file was recorded at.  Each entry of ``golden_identity.json`` is the
SHA-256 of the ``repr`` of one run's simulated outcome, so a refactor of
how the system is *wired* (or of a hot path that must not move a
counter) either leaves every digest alone or fails here.

A change that is *meant* to move simulated behaviour re-records the file
and says so in its PR::

    PYTHONPATH=src python tests/session/test_golden_identity.py \
        > tests/session/golden_identity.json
"""

import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.experiments import fig01_breakdown as fig01
from repro.experiments import fig03_version_vs_data as fig03
from repro.experiments import fig11_write_scaling as fig11
from repro.experiments import fig15_transactions as fig15
from repro.experiments.fig13_churn import _throughput_at
from repro.experiments.runner import run_mixed_workload, unloaded_latency
from repro.experiments.scale import scale_point
from repro.experiments.tables import render_table
from repro.faults import FaultPlan, NodeCrash, NodeRestart
from repro.faults.scenario import run_fault_scenario
from repro.obs import cli as inspect_cli
from repro.obs import jsonl_dumps as obs_jsonl_dumps
from repro.session import Session
from repro.shard.topologies import DURATION_MS, run_topology_scenario
from repro.storage import DataItem
from repro.telemetry import jsonl_dumps as metrics_jsonl_dumps
from repro.trace import chrome_dumps
from repro.txn import TXN_APPS

GOLDEN = Path(__file__).with_name("golden_identity.json")

_MIXED = dict(
    nodes=4, cores_per_node=4, apps=("SocNet", "HotelBook", "TrainT"),
    utilization=0.4, duration_ms=1200.0, warmup_ms=600.0, drain_ms=800.0,
    seed=1009,
)


def _histogram(histogram) -> tuple:
    return (histogram.count, histogram.mean, histogram.p50, histogram.p99)


def _mixed(**overrides) -> tuple:
    """The reduced mixed-workload result the experiments read."""
    result = run_mixed_workload(**{**_MIXED, **overrides})
    access = result.access
    return (
        tuple((name, stats.mean_latency_ms, stats.p50_latency_ms,
               stats.p99_latency_ms, stats.completed, stats.storage_fraction)
              for name, stats in sorted(result.per_app.items())),
        tuple(sorted((kind.value, count, _histogram(access.latency[kind]))
                     for kind, count in access.ops.items())),
        _histogram(access.invalidations_per_write), access.version_checks,
        result.network_messages, result.storage_reads, result.storage_writes,
        tuple(result.fault_log),
    )


def _crash_plan() -> FaultPlan:
    return FaultPlan(events=(
        NodeCrash(at_ms=900.0, node="node1"),
        NodeRestart(at_ms=1500.0, node="node1"),
    ))


@functools.lru_cache(maxsize=None)
def _exports() -> dict:
    """Every export of one reduced all-signals mixed run, as text."""
    result = run_mixed_workload(**_MIXED, trace=True, metrics=True, obs=True)
    out = {
        "trace_chrome": chrome_dumps(result.tracer),
        "obs_jsonl": obs_jsonl_dumps(result.obs),
        "metrics_jsonl": metrics_jsonl_dumps(result.metrics),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("obs_jsonl", "trace_chrome", "metrics_jsonl"):
            paths[name] = Path(tmp, name)
            paths[name].write_text(out[name], encoding="utf-8")
        merged = io.StringIO()
        status = inspect_cli.main(
            ["timeline", str(paths["obs_jsonl"]),
             str(paths["trace_chrome"]), str(paths["metrics_jsonl"]),
             "--format", "json"], out=merged)
        assert status == 0
    out["inspect_timeline_json"] = merged.getvalue()
    return out


def _txn_concord() -> tuple:
    """One fig15 Concord cell: its latencies, txn outcomes and messages."""
    made = {}

    def keep(name, cls):
        def build(*args):
            made[name] = instance = cls(*args)
            return instance
        return build

    with mock.patch.object(fig15, "Histogram",
                              keep("latency", fig15.Histogram)), \
            mock.patch.object(fig15, "ConcordTxnRuntime",
                              keep("runtime", fig15.ConcordTxnRuntime)):
        fig15._measure_system("concord", TXN_APPS["HotelBooking"], 4, 2, 125)
    runtime = made["runtime"]
    return (_histogram(made["latency"]), runtime.commits, runtime.aborts,
            runtime.total_squashes(),
            runtime.concord.cluster.network.stats.messages)


def _coordfree_figures() -> tuple:
    """The tables of the runs that wire no coherence scheme — fig01
    (nocache platform), fig03 (raw RPC), fig11 (Faa$T beside Concord)
    and fig15's Saga / Beldi cells — rendered, and as unrounded rows."""
    cells = [{"app": name,
              **{f"{system}_ms": fig15._measure_system(system, app, 4, 2, 125)
                 for system in ("saga", "beldi")}}
             for name, app in TXN_APPS.items()]
    results = (fig01.run(scale=0.5), fig03.run(), fig11.run(scale=1.0))
    return ("\n".join([result.render() for result in results] + [
        render_table("Figure 15 Saga / Beldi cells",
                     ["app", "saga_ms", "beldi_ms"], cells)]),
            tuple(result.data for result in results), cells)


def _external_write_concord() -> tuple:
    """``examples/external_writes.py``'s sequence: cache, external write,
    purge, fresh reads."""
    steps = []
    with Session(nodes=4, seed=5, scheme="concord", app="catalog") as s:
        key = "catalog:price:sku-1"
        s.preload({key: DataItem("$19.99", size_bytes=256)})
        for node in ("node0", "node1", "node2"):
            steps.append((node, s.read(node, key).payload, s.sim.now))

        def batch_job(sim):
            yield sim.timeout(100.0)
            yield from s.storage.write(
                key, DataItem("$17.49", size_bytes=256), writer="external")

        s.sim.spawn(batch_job(s.sim))
        s.advance(500.0)
        holders = sorted(node for node, agent in s.system.agents.items()
                         if agent.cache.peek(key))
        steps.append(("holders", tuple(holders), s.sim.now))
        for node in ("node0", "node1", "node2"):
            steps.append((node, s.read(node, key).payload, s.sim.now))
        steps.append(("messages", s.cluster.network.stats.messages))
    return tuple(steps)


def _export(name):
    return lambda: _exports()[name]


def _topology(name):
    return lambda: run_topology_scenario(name, seed=0).fingerprint()


# The ``gate_*`` pins: fixed-seed counter points (a fig08 grid point near
# the SLO knee, one fig13 churn run, fault-free topology cells and zoo
# schemes), hashed as their sorted counter items.
GATE_SEED = 1009


def _counters(duration_ms: float, completed: int, **extra) -> list:
    return sorted({
        "simulated_ms": duration_ms,
        "requests_completed": completed,
        "simulated_rps": round(completed / (duration_ms / 1000.0), 2),
        **extra,
    }.items())


def _gate_fig08() -> list:
    duration_ms = 5000.0
    outcome = run_mixed_workload(
        scheme="concord", nodes=8, cores_per_node=4, total_rps=115,
        duration_ms=duration_ms, warmup_ms=1500.0, seed=GATE_SEED)
    return _counters(duration_ms,
                     sum(s.completed for s in outcome.per_app.values()))


def _gate_fig13_churn() -> list:
    duration_ms = 8000.0
    throughput, _registry = _throughput_at(24, duration_ms=duration_ms,
                                           seed=GATE_SEED)
    return sorted({"simulated_ms": duration_ms,
                   "simulated_rps": round(throughput, 2)}.items())


def _gate_topology(name):
    def run() -> list:
        outcome = run_topology_scenario(
            name, seed=GATE_SEED, plan=FaultPlan(events=()))
        return _counters(
            DURATION_MS, outcome.completed,
            shards=len(outcome.shard_table),
            shards_rehomed=outcome.shards_rehomed,
            shard_failovers=outcome.shard_failovers,
            violations=len(outcome.violations))
    return run


def _gate_scheme(scheme):
    def run() -> list:
        duration_ms = 4000.0
        outcome = run_fault_scenario(
            FaultPlan(events=()), seed=GATE_SEED, num_nodes=6,
            duration_ms=duration_ms, rps=30.0, scheme=scheme,
            settle_ms=2000.0)
        system = outcome.system
        internal = {name: getattr(system, name) for name in (
            "writes_enqueued", "writes_flushed", "writes_lost",
            "syncs", "sync_failures", "migrations")
            if hasattr(system, name)}
        return _counters(duration_ms, outcome.completed,
                         violations=len(outcome.violations), **internal)
    return run


CASES = {
    "topology_flat": _topology("flat"),
    "topology_shard4": _topology("shard4"),
    "topology_shard4rep": _topology("shard4rep"),
    "topology_region2": _topology("region2"),
    "mixed_concord": _mixed,
    "mixed_concord_signals": lambda: _mixed(
        metrics=True, obs=True, trace=True),
    "mixed_concord_faults": lambda: _mixed(faults=_crash_plan()),
    "mixed_ofc": lambda: _mixed(scheme="ofc"),
    "mixed_apta_mem": lambda: _mixed(scheme="apta-mem"),
    "unloaded_concord": lambda: sorted(unloaded_latency(
        "concord", apps=("SocNet", "HotelBook"), requests=3).items()),
    "fig13_churn": lambda: _throughput_at(
        24, duration_ms=2000.0, seed=121, num_nodes=8)[0],
    "fig13_churn_obs": lambda: _throughput_at(
        24, duration_ms=2000.0, seed=121, num_nodes=8, obs=True)[0],
    "txn_concord": _txn_concord,
    "coordfree_figures": _coordfree_figures,
    "external_write_concord": _external_write_concord,
    "scale_point": lambda: sorted(scale_point(
        seed=1009, num_nodes=12, requests_per_node=60,
        working_set=40).items()),
    "gate_fig08_point": _gate_fig08,
    "gate_fig13_churn_point": _gate_fig13_churn,
    "gate_topo_flat": _gate_topology("flat"),
    "gate_topo_shard4": _gate_topology("shard4"),
    "gate_topo_region2": _gate_topology("region2"),
    "gate_scheme_wb": _gate_scheme("write-behind"),
    "gate_scheme_causal": _gate_scheme("causal"),
    # Byte identity of every signal export of the all-signals run (the
    # digest is of the export text itself).
    "export_trace_chrome": _export("trace_chrome"),
    "export_obs_jsonl": _export("obs_jsonl"),
    "export_metrics_jsonl": _export("metrics_jsonl"),
    "export_inspect_timeline_json": _export("inspect_timeline_json"),
}


def digest(name: str) -> str:
    return hashlib.sha256(repr(CASES[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_commit(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


def test_signals_do_not_move_the_mixed_run():
    golden = json.loads(GOLDEN.read_text())
    assert golden["mixed_concord_signals"] == golden["mixed_concord"]
    assert golden["fig13_churn_obs"] == golden["fig13_churn"]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(CASES)},
                     indent=1))
