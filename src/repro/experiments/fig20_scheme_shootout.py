"""Figure 20 (extension): scheme shootout across the consistency zoo.

Not a paper figure — the paper compares Concord against its published
baselines (OFC, Faa$T, Apta).  This run races the *entire* registered
scheme catalogue, including the production cache-consistency families
(write-through, write-behind, read-through TTL, causal), through two
cells each:

* **load** — the standard Poisson/Zipf mixed workload; we report
  throughput, latency, hit ratio, network cost, and the staleness
  actually observed (reads that returned a version older than the
  newest committed one, and the worst lag in milliseconds).
* **crash** — the canonical fault scenario (crash + restart + drop +
  delay + brownout); we report completion, write loss (write-behind's
  defining trade-off), and the scheme's own invariant verdict.

The consistency column comes straight off each scheme class — the
catalogue is the experiment's thesis: weaker consistency buys latency
and pays in staleness or crash loss, and every scheme's checker proves
it never pays more than it declared.

Crash cells run only for schemes that implement ``restart_instance``
(the coherence-domain rejoin hook); the others leave those columns
blank rather than pretend they have recovery semantics.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult
from repro.faults.plan import FaultPlan
from repro.faults.scenario import run_fault_scenario
from repro.metrics.stats import OpKind
from repro.schemes import available_names
from repro.verify import check_scheme_invariants

#: The load cell's app mix (two profiles keep the cell fast while still
#: exercising cross-app interference on shared schemes).
APPS = ("SocNet", "TrainT")


def _distinct_schemes(schemes: dict) -> list:
    """Scheme objects deduped by identity (shared schemes map many->one)."""
    seen: list = []
    for scheme in schemes.values():
        if not any(scheme is s for s in seen):
            seen.append(scheme)
    return seen


def _staleness(system) -> tuple:
    """(stale_reads, max_stale_ms) from a scheme's read/write logs.

    Only schemes that keep the logs (read-through TTL) report them; a
    read is stale when a strictly newer version of its key was already
    committed, and its lag is the time since that commit.
    """
    reads = getattr(system, "read_log", None)
    writes = getattr(system, "write_log", None)
    if reads is None or writes is None:
        return 0, 0.0
    by_key: dict = {}
    for t_ms, key, version in writes:
        by_key.setdefault(key, []).append((version, t_ms))
    for log in by_key.values():
        log.sort()
    stale, max_lag = 0, 0.0
    for t_ms, _node, key, version in reads:
        log = by_key.get(key, ())
        index = bisect_left(log, (version + 1, float("-inf")))
        if index < len(log) and log[index][1] <= t_ms:
            stale += 1
            max_lag = max(max_lag, t_ms - log[index][1])
    return stale, max_lag


def _crash_plan(seed: int, num_nodes: int) -> FaultPlan:
    return FaultPlan.random(
        seed=seed, node_ids=[f"node{i}" for i in range(num_nodes)],
        horizon_ms=4000.0, crashes=1, restart=True,
        drops=1, delays=1, brownouts=1,
    )


def run(scale: float = 1.0, seed: int = 11) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 20",
        title="Scheme shootout: the consistency catalogue",
        columns=["scheme", "consistency", "completed", "mean_ms", "p99_ms",
                 "hit_ratio", "net_msgs", "stale_reads", "max_stale_ms",
                 "crash_completed", "crash_lost", "violations"],
        note="Extension run: every registered scheme under the standard "
             "Poisson/Zipf mix, then (restartable schemes only) under a "
             "randomized crash plan; 'violations' sums each scheme's own "
             "invariant checker over both cells and must be 0.",
    )
    num_nodes = 4
    crash_plan = _crash_plan(seed, 6)
    for name in available_names():
        outcome = run_mixed_workload(
            scheme=name, nodes=num_nodes, cores_per_node=4,
            apps=APPS, total_rps=40.0 * scale,
            duration_ms=2500.0 * scale, warmup_ms=800.0,
            drain_ms=1500.0, seed=seed)
        distinct = _distinct_schemes(outcome.schemes)
        violations: list = []
        stale_reads, max_stale = 0, 0.0
        for system in distinct:
            violations.extend(check_scheme_invariants(system))
            system_stale, system_lag = _staleness(system)
            stale_reads += system_stale
            max_stale = max(max_stale, system_lag)
        stats = outcome.access
        hits = (stats.count(OpKind.LOCAL_READ_HIT)
                + stats.count(OpKind.REMOTE_READ_HIT))
        row = {
            "scheme": name,
            "consistency": distinct[0].consistency or "?",
            "completed": sum(s.completed for s in outcome.per_app.values()),
            "mean_ms": outcome.mean_latency(),
            "p99_ms": max(s.p99_latency_ms for s in outcome.per_app.values()),
            "hit_ratio": hits / stats.reads if stats.reads else 0.0,
            "net_msgs": outcome.network_messages,
            "stale_reads": stale_reads,
            "max_stale_ms": max_stale,
        }
        if any(hasattr(s, "restart_instance") for s in distinct):
            crash = run_fault_scenario(
                crash_plan, seed=seed, num_nodes=6,
                duration_ms=4000.0 * scale, rps=25.0 * scale,
                scheme=name, settle_ms=3000.0,
            )
            violations.extend(crash.violations)
            row["crash_completed"] = crash.completed
            row["crash_lost"] = getattr(crash.system, "writes_lost", 0)
        row["violations"] = len(violations)
        result.data.append(row)
    return result
