"""Concord reproduction: distributed coherence for serverless software caches.

This package reproduces the system described in "Concord: Rethinking
Distributed Coherence for Software Caches in Serverless Environments"
(HPCA 2025) on top of a from-scratch discrete-event simulator.

Layering (bottom to top):

- :mod:`repro.sim` -- deterministic discrete-event simulation kernel.
- :mod:`repro.net` -- internode message fabric and RPC.
- :mod:`repro.storage` -- global blob storage model.
- :mod:`repro.cluster` -- nodes, memory accounting, failure injection.
- :mod:`repro.coord` -- coordination service (membership, heartbeats).
- :mod:`repro.faas` -- serverless platform (containers, schedulers).
- :mod:`repro.caching` -- cache substrate + OFC / Faa$T baselines.
- :mod:`repro.core` -- the Concord coherence protocol (the contribution).
- :mod:`repro.txn` -- transactional storage accesses (+ Saga / Beldi).
- :mod:`repro.placement` -- communication-aware function placement.
- :mod:`repro.apta` -- software Apta comparison protocol.
- :mod:`repro.verify` -- explicit-state protocol model checker.
- :mod:`repro.workloads` -- benchmark application models and generators.
- :mod:`repro.experiments` -- one module per paper table/figure.
"""

__version__ = "1.0.0"

import importlib

from repro.config import LatencyModel, SimConfig

__all__ = ["LatencyModel", "SimConfig", "__version__"]


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """A PEP 562 module ``__getattr__`` for ``package``'s root.

    ``modules`` maps a submodule to the names the root re-exports from
    it; each is imported on first use, so code that imports only the
    runtime half of a package (recorder, tracer, registry) never loads
    its exporters, CLIs and checkers.
    """
    home = {name: f"{package}.{module}"
            for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(home[name]), name)

    return __getattr__
