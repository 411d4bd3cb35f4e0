"""The shared mixed-workload runner behind most experiments.

Mirrors the paper's setup: all seven applications run concurrently on one
cluster, the offered load is split evenly among them, and low/medium/high
load levels drive cluster CPU utilization to roughly 25 %, 50 % and 70 %
(Section V).  The cluster is scaled down from the paper's 16x20 cores to
keep simulation time manageable; ``nodes``/``cores_per_node`` are
configurable, and every reported metric is shape-preserving (ratios, hit
mixes, invalidation counts) rather than absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config import MB, LatencyModel, SimConfig
from repro.core import ConcordSystem
from repro.metrics import AccessStats, Histogram
from repro.session import Session
from repro.workloads import ALL_PROFILES

#: Load levels as target cluster CPU utilization (paper Section V).
LOAD_LEVELS = {"low": 0.25, "medium": 0.50, "high": 0.70}


#: Sampling period (ms) of the sharer-count / cache-occupancy observations.
SAMPLE_EVERY_MS = 250.0


def total_rps_at(utilization: float, nodes: int, cores_per_node: int,
                 apps: tuple) -> float:
    """Request rate that keeps ``utilization`` of the cluster's cores busy.

    The average CPU demand of one request is taken over the app mix.
    """
    demands = [ALL_PROFILES[name].functions * ALL_PROFILES[name].compute_ms
               for name in apps]
    cores = nodes * cores_per_node
    return utilization * cores * 1000.0 / (sum(demands) / len(demands))


@dataclass
class AppRunStats:
    """Per-application results of one run."""

    app: str
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    completed: int
    storage_fraction: float


@dataclass
class MixedRunResult:
    """Everything the experiments extract from one run."""

    per_app: dict = field(default_factory=dict)      # app -> AppRunStats
    access: AccessStats = field(default_factory=AccessStats)
    #: app -> that app's own AccessStats (per-app schemes only; the shared
    #: OFC cache reports the same aggregate object for every app).
    per_app_access: dict = field(default_factory=dict)
    #: Per-sample (avg_sharers, max_sharers) over directory entries.
    sharer_samples: list = field(default_factory=list)
    #: app -> list of (avg_sharers, max_sharers) samples.
    sharer_samples_per_app: dict = field(default_factory=dict)
    #: Per-(app, node) peak cache occupancy in bytes.
    cache_peaks: dict = field(default_factory=dict)
    network_messages: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    #: The run's Tracer when ``trace=`` was given (not fingerprinted).
    tracer: object = None
    #: The run's MetricsRegistry when ``metrics=`` was given.
    metrics: object = None
    #: The run's FlightRecorder when ``obs=`` was given.
    obs: object = None
    #: (sim_time, kind, detail) fault events applied (``faults=`` only).
    fault_log: list = field(default_factory=list)
    #: app -> the StorageAPI instance that served it (shared schemes map
    #: every app to the same object).  For post-run inspection — scheme
    #: invariant checks, staleness logs, loss counters.
    schemes: dict = field(default_factory=dict)

    def mean_latency(self) -> float:
        values = [s.mean_latency_ms for s in self.per_app.values() if s.completed]
        return sum(values) / len(values) if values else float("nan")


def run_mixed_workload(
    *, utilization: Optional[float] = None,
    total_rps: Optional[float] = None, warmup_ms: float = 2000.0,
    duration_ms: float = 6000.0, drain_ms: float = 2000.0,
    agent_service_ms: float = 1.2, nodes: int = 4, cores_per_node: int = 8,
    apps: tuple = tuple(ALL_PROFILES), capacity: Optional[int] = 64 * MB,
    **compose,
) -> MixedRunResult:
    """Execute one measurement run and collect all metrics.

    The offered load is ``utilization`` of the cluster's cores or an
    explicit ``total_rps`` (exactly one of the two), split evenly over
    ``apps``: a ``warmup_ms`` load phase whose metrics are discarded,
    then ``duration_ms`` of measured load and ``drain_ms`` more to
    finish.  ``capacity`` is the per-instance cache size (None =
    repurposed memory).  The remaining keywords — ``scheme``, ``seed``,
    ``trace`` / ``metrics`` / ``obs``, ``faults`` and scheme
    configuration — go to :meth:`Session.compose` as they are.

    ``agent_service_ms`` is the cache agent's request service time.  The
    cluster here is scaled down ~10x from the paper's 16x20-core /
    2000-RPS deployment, so the raw 0.3 ms agent cost would make
    per-node RPC utilization — the contention-point effect of Section
    III — vanish.  1.2 ms restores the paper's RPC-utilization operating
    points (roughly 25/50/70 % busy at the hot agents of single-home
    schemes under the three loads) while barely moving unloaded per-op
    costs.
    """
    if (utilization is None) == (total_rps is None):
        raise TypeError("give exactly one of utilization= and total_rps=")
    if total_rps is None:
        total_rps = total_rps_at(utilization, nodes, cores_per_node, apps)
    s = Session.compose(
        config=SimConfig(
            num_nodes=nodes, cores_per_node=cores_per_node,
            latency=replace(LatencyModel(),
                            agent_service_ms=agent_service_ms)),
        apps=apps, capacity=capacity, **compose)
    sim, cluster, schemes, platform = s.sim, s.cluster, s.schemes, s.platform
    if s.injector is not None:
        s.injector.start()

    per_app_rps = total_rps / len(apps)
    result = MixedRunResult()

    def load_phase(phase_ms):
        for name in apps:
            sim.spawn(
                platform.open_loop(name, per_app_rps, phase_ms,
                                   s.factories[name]),
                name=f"load:{name}",
            )

    # Warmup: populate caches, then reset every metric.
    load_phase(warmup_ms)
    sim.run(until=sim.now + warmup_ms + 500.0)
    for name, app in s.deployed.items():
        app.latency = Histogram()
        app.storage_ms_total = 0.0
        app.compute_ms_total = 0.0
        app.requests_completed = 0
        schemes[name].stats.reset()
    network_before = cluster.network.stats.messages
    storage_reads_before = cluster.storage.stats.reads
    storage_writes_before = cluster.storage.stats.writes

    # Sampler for sharer counts and cache occupancy (Concord only).
    def sampler(sim):
        while True:
            yield sim.timeout(SAMPLE_EVERY_MS)
            counts = []
            for name in apps:
                scheme = schemes[name]
                if isinstance(scheme, ConcordSystem):
                    app_counts = scheme.sharer_counts()
                    counts.extend(app_counts)
                    if app_counts:
                        result.sharer_samples_per_app.setdefault(
                            name, []).append(
                            (sum(app_counts) / len(app_counts),
                             max(app_counts)))
                    for node_id, used in scheme.cache_bytes().items():
                        key = (name, node_id)
                        result.cache_peaks[key] = max(
                            result.cache_peaks.get(key, 0), used)
            if counts:
                result.sharer_samples.append(
                    (sum(counts) / len(counts), max(counts)))

    sim.spawn(sampler(sim), name="sampler", daemon=True)
    # Time-series telemetry sampling starts with the measurement phase,
    # so exported timelines cover measurement + drain (not warmup).
    s.sampler.start()

    # Measurement phase.
    load_phase(duration_ms)
    sim.run(until=sim.now + duration_ms + drain_ms)

    for name, app in s.deployed.items():
        histogram = app.latency
        result.per_app[name] = AppRunStats(
            app=name,
            mean_latency_ms=histogram.mean,
            p50_latency_ms=histogram.p50,
            p99_latency_ms=histogram.p99,
            completed=histogram.count,
            storage_fraction=app.storage_fraction,
        )
    # Merge access stats once per distinct scheme object (OFC is shared).
    seen: list = []
    for name, scheme in schemes.items():
        result.per_app_access[name] = scheme.stats
        if not any(scheme is merged for merged in seen):
            seen.append(scheme)
            result.access.merge(scheme.stats)
    result.network_messages = cluster.network.stats.messages - network_before
    result.storage_reads = cluster.storage.stats.reads - storage_reads_before
    result.storage_writes = cluster.storage.stats.writes - storage_writes_before
    # Stops the sampler and writes whichever signals were given as paths.
    s.close()
    result.tracer = s.tracer
    result.metrics = s.metrics
    result.obs = s.obs
    result.schemes = schemes
    if s.injector is not None:
        result.fault_log = list(s.injector.applied)
    return result


def unloaded_latency(scheme: str, apps: Optional[tuple] = None,
                     nodes: int = 4, cores_per_node: int = 8,
                     requests: int = 8, seed: int = 77) -> dict:
    """Per-app mean latency on an otherwise idle cluster (SLO baseline)."""
    # The mixed run's 1.2 ms agent is a loaded-cluster calibration; the
    # SLO baseline uses the raw latency model.
    s = Session.compose(scheme=scheme, nodes=nodes,
                        cores_per_node=cores_per_node,
                        apps=apps or tuple(ALL_PROFILES), seed=seed,
                        capacity=64 * MB)
    latencies = {}
    for name, factory in s.factories.items():
        histogram = Histogram()
        for index in range(requests):
            outcome = s.run(s.platform.request(name, factory(index)),
                            limit_ms=600_000.0).value
            histogram.record(outcome.latency_ms)
        latencies[name] = histogram.mean
    return latencies
