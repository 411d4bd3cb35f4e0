"""Fixed-interval snapshotting of all registered instruments.

The :class:`Sampler` is an ordinary sim process: it snapshots every
instrument in the simulator's registry at ``t = 0, interval, 2*interval,
...`` on the *simulated* clock, then sleeps.  Because it is spawned as a
daemon it never blocks ``run_until_complete`` from finishing, but note
that a running sampler keeps the event heap non-empty forever — drive
sampled simulations with bounded ``run(until=...)`` /
``run_until_complete(limit=...)`` calls (as :class:`repro.session.
Session` and the experiment runners do), or call :meth:`stop` before an
unbounded ``run()``.
"""

from __future__ import annotations

from repro.telemetry.registry import NULL_REGISTRY


class Sampler:
    """Periodic sim-process that drives ``registry.sample(sim.now)``."""

    def __init__(self, sim, interval_ms: float = 100.0):
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0, got {interval_ms}")
        self.sim = sim
        self.interval_ms = interval_ms
        self._process = None
        self._stopped = False

    @property
    def registry(self):
        return getattr(self.sim, "metrics", NULL_REGISTRY)

    @property
    def running(self) -> bool:
        return self._process is not None and not self._process.triggered

    def start(self) -> "Sampler":
        """Spawn the sampling process (no-op if inactive or started).

        After a :meth:`stop` whose process has not woken yet, this
        withdraws the stop and that process carries on, on its grid.
        """
        self._stopped = False
        if self.registry.active and self._process is None:
            self._process = self.sim.spawn(
                self._run(), name="telemetry-sampler", daemon=True)
        return self

    def stop(self) -> None:
        """Stop sampling after the current instant (idempotent)."""
        self._stopped = True

    def _run(self):
        registry = self.registry
        while not self._stopped:
            registry.sample(self.sim.now)
            yield self.sim.sleep(self.interval_ms)
        self._process = None
