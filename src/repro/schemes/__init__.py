"""Scheme registry: one place where caching schemes are named and built.

Historically each experiment carried its own ``if config.scheme == ...``
chain; adding a scheme meant editing every chain.  The registry inverts
that: a scheme module registers a builder under a name, and experiments,
benchmarks and the :class:`repro.session.Session` facade all construct
through :func:`build_scheme` / :func:`build_scheme_map`.

A builder is a callable ``builder(cluster, coord, app, **cfg)`` returning
a :class:`~repro.caching.base.StorageAPI`.  The decorator records the
scheme's scheduler preference and whether one instance is shared across
applications; optional ``prepare``/``preload`` hooks cover per-run setup
(Concord's memory tier) and working-set priming (Apta's terminal store).

The paper's schemes live in :mod:`repro.schemes.builtin` and the
production cache-consistency families (write-through, write-behind,
read-through TTL, causal) in :mod:`repro.schemes.zoo`; both are
imported at the bottom of this module for their registration side
effects.  :func:`available` returns the ``(name, description)``
catalogue CLIs print; :exc:`UnknownSchemeError` lists it too.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.base import StorageAPI
    from repro.cluster import Cluster
    from repro.coord import CoordinationService

__all__ = [
    "SchemeSpec",
    "UnknownSchemeError",
    "available",
    "available_names",
    "build_scheme",
    "build_scheme_map",
    "make_scheduler",
    "register_scheme",
    "registered_schemes",
    "scheme_spec",
]


class UnknownSchemeError(ValueError):
    """Raised when a scheme name has no registered builder."""


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the harness needs to know about one registered scheme."""

    name: str
    builder: Callable
    #: One-line human description printed by ``available()`` catalogues.
    description: str = ""
    #: Which FaaS scheduler the scheme wants: "locality", "cas" or "apta".
    scheduler: str = "locality"
    #: True when one instance serves every application (OFC's shared cache).
    shared: bool = False
    #: Optional once-per-run hook ``prepare(cluster, **cfg) -> dict`` whose
    #: result is merged into the builder's keyword arguments (e.g. Concord's
    #: memory-node storage tier, built once and handed to every instance).
    prepare: Optional[Callable] = None
    #: Optional ``preload(scheme, profile)`` hook priming a scheme that is
    #: itself the terminal store (Apta's memory tier, Concord-mem's tier).
    preload: Optional[Callable] = None


_REGISTRY: dict[str, SchemeSpec] = {}


def register_scheme(
    name: str,
    *,
    description: str = "",
    scheduler: str = "locality",
    shared: bool = False,
    prepare: Optional[Callable] = None,
    preload: Optional[Callable] = None,
) -> Callable:
    """Register ``builder`` under ``name`` (decorator; stackable).

    Returns the builder unchanged so one function can serve several
    names (``concord`` / ``concord-nocas`` differ only in scheduler).
    ``description`` is the one-liner :func:`available` catalogues show;
    it falls back to the builder's docstring first line.
    """

    def decorate(builder: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scheme {name!r} is already registered")
        doc = description
        if not doc and builder.__doc__:
            doc = builder.__doc__.strip().splitlines()[0]
        _REGISTRY[name] = SchemeSpec(
            name=name, builder=builder, description=doc,
            scheduler=scheduler, shared=shared, prepare=prepare,
            preload=preload,
        )
        return builder

    return decorate


def registered_schemes() -> tuple:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def available() -> tuple:
    """Sorted ``(name, description)`` pairs — the user-facing catalogue.

    This is the supported way for experiments, CLIs and docs to discover
    what ``scheme=`` accepts; constructing scheme objects directly
    (bypassing :func:`build_scheme`) is not.  Use
    :func:`available_names` when only the names matter.
    """
    return tuple((name, _REGISTRY[name].description)
                 for name in sorted(_REGISTRY))


def available_names() -> tuple:
    """All registered scheme names, sorted."""
    return tuple(sorted(_REGISTRY))


def scheme_spec(name: str) -> SchemeSpec:
    """Look up a scheme; unknown names list what *is* registered."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; registered schemes: {known}")
    return spec


def _reject_unknown_keys(cfg: dict) -> None:
    """Raise when a config key is one *no* registered scheme accepts.

    Builders swallow keys meant for other schemes (callers pass one flat
    keyword set to whichever scheme is selected), so a misspelt key
    would otherwise vanish silently.  The accepted set is read off the
    registered builders' and ``prepare`` hooks' keyword-only parameters.
    """
    if not cfg:
        return
    accepted = {
        parameter.name
        for spec in _REGISTRY.values()
        for hook in (spec.builder, spec.prepare) if hook is not None
        for parameter in inspect.signature(hook).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY
    }
    unknown = sorted(set(cfg) - accepted)
    if unknown:
        raise TypeError(
            f"unknown scheme configuration {', '.join(map(repr, unknown))}; "
            f"registered schemes accept: {', '.join(sorted(accepted))}")


def build_scheme(
    name: str,
    cluster: "Cluster",
    coord: Optional["CoordinationService"] = None,
    app: Optional[str] = None,
    **cfg,
) -> "StorageAPI":
    """Build one instance of scheme ``name`` for ``app``.

    Any ``prepare`` hook runs first and its result augments ``cfg`` —
    callers building several instances that must share prepared state
    (the mixed-workload runner) should use :func:`build_scheme_map`.
    A ``cfg`` key that no registered scheme accepts raises
    :class:`TypeError`; keys meant for a different scheme are ignored.
    """
    spec = scheme_spec(name)
    _reject_unknown_keys(cfg)
    if spec.prepare is not None:
        cfg = {**cfg, **spec.prepare(cluster, **cfg)}
    return spec.builder(cluster, coord, app, **cfg)


def build_scheme_map(
    name: str,
    cluster: "Cluster",
    coord: Optional["CoordinationService"],
    apps,
    **cfg,
) -> dict:
    """Build the per-app ``{app_name: StorageAPI}`` map for one run.

    Shared schemes get a single instance mapped under every app name;
    per-app schemes get one instance each.  ``prepare`` runs exactly once.
    """
    spec = scheme_spec(name)
    _reject_unknown_keys(cfg)
    if spec.prepare is not None:
        cfg = {**cfg, **spec.prepare(cluster, **cfg)}
    if spec.shared:
        instance = spec.builder(cluster, coord, None, **cfg)
        return {app: instance for app in apps}
    return {app: spec.builder(cluster, coord, app, **cfg) for app in apps}


def make_scheduler(name: str, schemes: dict):
    """Instantiate the FaaS scheduler the scheme registered for."""
    kind = scheme_spec(name).scheduler
    if kind == "cas":
        from repro.faas import CasScheduler

        return CasScheduler()
    if kind == "apta":
        from repro.apta import AptaScheduler

        return AptaScheduler(schemes)
    from repro.faas import LocalityScheduler

    return LocalityScheduler()


# Import for registration side effects (populates _REGISTRY).
from repro.schemes import builtin as _builtin  # noqa: E402,F401
from repro.schemes import zoo as _zoo  # noqa: E402,F401
