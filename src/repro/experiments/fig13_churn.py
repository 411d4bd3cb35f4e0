"""Figure 13: throughput under coherence-domain churn (SocNet).

Cache instances are repeatedly removed from and re-added to a 16-node
coherence domain while load runs; the two-phase domain-change protocol is
non-blocking except for re-homed keys, so throughput stays high until
very aggressive churn (paper: up to ~48 removals+additions per minute).

The runs can additionally export telemetry timelines
(``timelines=``/``metrics=``), and a synthetic *write burst* can be
injected mid-run (:class:`WriteBurst`): a few hot keys are read from
every node (maximizing the sharer sets) and then written continuously,
which produces the invalidation storm the ``repro-metrics`` anomaly
report is designed to flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.tables import ExperimentResult
from repro.session import Session
from repro.storage import DataItem

CHURN_RATES = (0, 6, 12, 24, 48, 96)  # removals (and re-additions) / minute


@dataclass(frozen=True)
class WriteBurst:
    """A synthetic write storm injected into the run.

    During ``[start_ms, start_ms + duration_ms)`` each writer process
    repeatedly (a) reads one of ``keys`` hot keys from every live cache
    instance — growing its sharer set to the whole domain — and then
    (b) writes it, forcing an invalidation fan-out to all sharers.
    """

    start_ms: float
    duration_ms: float
    keys: int = 8
    writers: int = 2

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def key_names(self) -> list:
        return [f"burst:k{i}" for i in range(self.keys)]


def _burst_writer(sim, concord, app, burst: WriteBurst, writer_index: int):
    """One burst writer process (spawned as a daemon)."""
    keys = burst.key_names()
    yield sim.timeout(burst.start_ms)
    turn = writer_index
    sequence = 0
    while sim.now < burst.end_ms:
        key = keys[turn % len(keys)]
        # Churn-safe: only nodes whose cache instance currently exists.
        nodes = [n for n in app.node_ids if n in concord.agents]
        if len(nodes) < 2:
            yield sim.timeout(10.0)
            continue
        # Fan the key out to every instance first, so the following write
        # must invalidate a full-domain sharer set.
        readers = [
            sim.spawn(concord.read(node_id, key),
                      name=f"burst-read:{node_id}", daemon=True)
            for node_id in nodes
        ]
        yield sim.all_of(readers)
        writer_node = nodes[turn % len(nodes)]
        yield from concord.write(
            writer_node, key,
            DataItem(("burst", writer_index, sequence), 256))
        sequence += 1
        turn += burst.writers


def churn_run(
    churn_per_min: int, duration_ms: float, seed: int,
    num_nodes: int = 16,
    metrics: object = None,
    write_burst: Optional[WriteBurst] = None,
    obs: object = None,
) -> Session:
    """One churn run, driven until 3 s after its load stops.

    Returns the session, still open: a caller may run it on to drain
    (the ``churn`` shape of :mod:`repro.verify.races` does).  ``metrics`` and ``obs`` follow
    the :class:`~repro.session.Session` contract: truthy attaches a
    sampled registry / an in-memory flight recorder, an instance is used
    as-is, a path string also exports there when the session closes.
    """
    s = Session(nodes=num_nodes, cores_per_node=2, seed=seed,
                apps=("SocNet",), metrics=metrics, obs=obs)
    sim, cluster, concord = s.sim, s.cluster, s.system
    app = s.deployed["SocNet"]

    rps = 40.0
    sim.spawn(
        s.platform.open_loop("SocNet", rps, duration_ms,
                             s.factories["SocNet"]),
        name="load")

    if churn_per_min > 0:
        interval_ms = 60_000.0 / churn_per_min

        def churner(sim):
            rng = sim.rng.stream("churn")
            while sim.now < duration_ms:
                yield sim.timeout(interval_ms)
                candidates = [n for n in app.node_ids if n in concord.agents]
                if len(candidates) < 2:
                    continue
                victim = rng.choice(candidates)
                app.node_ids.remove(victim)  # stop routing there
                yield from concord.remove_instance(victim)
                yield sim.timeout(50.0)
                yield from concord.create_instance(victim)
                app.node_ids.append(victim)

        sim.spawn(churner(sim), name="churner", daemon=True)

    if write_burst is not None:
        cluster.storage.preload({
            key: DataItem(f"{key}:v0", 256)
            for key in write_burst.key_names()
        })
        for writer_index in range(write_burst.writers):
            sim.spawn(
                _burst_writer(sim, concord, app, write_burst, writer_index),
                name=f"burst-writer:{writer_index}", daemon=True,
            )

    sim.run(until=duration_ms + 3000.0)
    return s


def _throughput_at(churn_per_min: int, duration_ms: float, seed: int,
                   **options):
    """One churn run; returns ``(throughput_rps, registry_or_None)``.

    ``options`` are :func:`churn_run`'s."""
    s = churn_run(churn_per_min, duration_ms, seed, **options)
    s.close()
    completed = s.deployed["SocNet"].requests_completed
    return completed / (duration_ms / 1000.0), s.metrics


def run_write_burst_timeline(
    path: Optional[str] = None,
    num_nodes: int = 4,
    duration_ms: float = 6000.0,
    seed: int = 121,
    churn_per_min: int = 6,
    burst: Optional[WriteBurst] = None,
):
    """Run fig13's setup with an injected write burst; telemetry on.

    Returns ``(registry, burst)`` — feed ``registry.store.all_series()``
    to :func:`repro.telemetry.detect_anomalies` (or point
    ``repro-metrics --anomalies`` at the exported ``path``) and the storm
    detector reports the burst's simulated-time window.
    """
    if burst is None:
        burst = WriteBurst(start_ms=duration_ms * 0.4,
                           duration_ms=duration_ms * 0.25)
    _throughput, registry = _throughput_at(
        churn_per_min, duration_ms, seed, num_nodes=num_nodes,
        metrics=path if path else True,
        write_burst=burst,
    )
    return registry, burst


def run(scale: float = 1.0, seed: int = 121,
        timelines: Optional[str] = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 13",
        title="SocNet throughput vs cache-instance churn rate",
        columns=["removals_per_min", "throughput_rps", "normalized"],
        note="Paper: throughput holds until ~48 removals+additions/minute.",
    )
    if timelines is not None:
        Path(timelines).mkdir(parents=True, exist_ok=True)
    throughputs = {
        rate: _throughput_at(
            rate, 6000.0 * scale, seed,
            metrics=(None if timelines is None else
                     str(Path(timelines) / f"fig13_churn{rate}.jsonl")))[0]
        for rate in CHURN_RATES
    }
    baseline = throughputs[CHURN_RATES[0]]
    result.data = [{
        "removals_per_min": rate,
        "throughput_rps": throughput,
        "normalized": throughput / baseline if baseline else float("nan"),
    } for rate, throughput in throughputs.items()]
    return result
