"""Figure 13: throughput under coherence-domain churn (SocNet).

Cache instances are repeatedly removed from and re-added to a 16-node
coherence domain while load runs; the two-phase domain-change protocol is
non-blocking except for re-homed keys, so throughput stays high until
very aggressive churn (paper: up to ~48 removals+additions per minute).

The runs can additionally export telemetry timelines
(``timelines=`` / ``metrics=``), one JSONL file per churn rate, for
``repro-inspect metrics`` to read back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.tables import ExperimentResult
from repro.session import Session

CHURN_RATES = (0, 6, 12, 24, 48, 96)  # removals (and re-additions) / minute


def churn_run(
    churn_per_min: int, duration_ms: float, seed: int,
    num_nodes: int = 16,
    metrics: object = None,
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
    sim, concord = s.sim, s.system
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
