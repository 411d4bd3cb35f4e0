"""The bench job model: frozen, picklable, canonically fingerprinted.

A :class:`JobSpec` names one experiment or benchmark point as pure data:
a **module-level callable reference** (``"pkg.module:callable"``), a
**JSON-canonical argument dict**, and an optional **seed**.  Because the
spec carries strings and JSON values only — never the callable itself —
it crosses the ``spawn`` process boundary of the executor verbatim, and
its :attr:`~JobSpec.fingerprint` (SHA-256 over the canonical JSON
encoding of ``(target, args, seed)``) is stable across interpreters,
``PYTHONHASHSEED`` values and dict construction orders.  The fingerprint
keys the checkpoint journal: a resumed sweep skips a job iff the exact
same work already completed.

Execution policy (``timeout_s``, ``retries``) deliberately stays out of
the fingerprint — rerunning with a longer timeout is still the same job.

Static analysis rule BEN01 (:mod:`repro.analysis.rules.bench`) enforces
the other half of the contract at the source level: targets written as
literals must resolve to module-level callables and args expressions
must stay JSON-serializable.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

__all__ = [
    "BenchJobError",
    "JobResult",
    "JobSpec",
    "canonical_json",
    "resolve_target",
]

#: ``module:callable`` with optional dotted attribute path on either side.
_TARGET_RE = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*"
    r":[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")

#: JobResult completion states.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


class BenchJobError(ValueError):
    """A job spec is malformed or its target cannot be resolved."""


def canonical_json(value: Any) -> str:
    """The one true JSON encoding: sorted keys, no whitespace, no NaN.

    Every fingerprint, journal record and byte-equality comparison in the
    bench layer goes through this function, so two values are "the same"
    exactly when their canonical encodings match.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, ensure_ascii=True)
    except (TypeError, ValueError) as exc:
        raise BenchJobError(f"value is not JSON-canonical: {exc}") from exc


def _canonical_round_trip(value: Any, what: str) -> Any:
    """Encode/decode ``value``; reject anything JSON would reshape.

    Tuples (which JSON silently turns into lists) and non-string dict
    keys (silently stringified) would make the fingerprint diverge from
    what the callable actually receives, so they are rejected instead of
    normalized.
    """
    decoded = json.loads(canonical_json(value))
    if decoded != value or canonical_json(decoded) != canonical_json(value):
        raise BenchJobError(
            f"{what} is not JSON-canonical (tuples or non-string dict "
            f"keys?): {value!r}")
    return decoded


def resolve_target(target: str) -> Callable:
    """Import ``"pkg.module:qual.name"`` and return the callable.

    Rejects anything that is not reachable as a module-level attribute
    path — closures (``<locals>`` in the qualname) and non-callables —
    because only module-level callables can be re-imported by name inside
    a spawned worker process.
    """
    if not isinstance(target, str) or not _TARGET_RE.match(target):
        raise BenchJobError(
            f"target {target!r} must look like 'pkg.module:callable'")
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise BenchJobError(f"cannot import module {module_name!r}: {exc}"
                            ) from exc
    obj: Any = module
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise BenchJobError(
                f"{module_name!r} has no attribute path {qualname!r}"
            ) from exc
    if not callable(obj):
        raise BenchJobError(f"target {target!r} resolves to a non-callable "
                            f"{type(obj).__name__}")
    if "<locals>" in getattr(obj, "__qualname__", ""):
        raise BenchJobError(
            f"target {target!r} is a closure, not a module-level callable")
    return obj


@dataclass(frozen=True)
class JobSpec:
    """One experiment / grid point as pure, picklable data."""

    name: str
    target: str
    args: dict = field(default_factory=dict)
    #: Passed to the target as ``seed=`` when not None; fingerprinted.
    seed: Optional[int] = None
    #: Execution policy — not part of the job's identity.
    timeout_s: Optional[float] = None
    retries: int = 0

    def __post_init__(self):
        if not self.name:
            raise BenchJobError("job name must be non-empty")
        if not isinstance(self.target, str) or not _TARGET_RE.match(self.target):
            raise BenchJobError(
                f"target {self.target!r} must look like 'pkg.module:callable'")
        if not isinstance(self.args, dict):
            raise BenchJobError(f"args must be a dict, got "
                                f"{type(self.args).__name__}")
        if "seed" in self.args:
            raise BenchJobError(
                "pass the seed through JobSpec.seed, not args['seed'], so "
                "it is fingerprinted exactly once")
        if self.seed is not None and not isinstance(self.seed, int):
            raise BenchJobError(f"seed must be an int, got {self.seed!r}")
        # Normalize to a fresh canonical copy (also a defensive copy: the
        # caller keeps no alias into this frozen spec).
        object.__setattr__(
            self, "args", _canonical_round_trip(self.args, "args"))

    # -- identity ---------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the job's canonical identity."""
        payload = canonical_json(
            {"target": self.target, "args": self.args, "seed": self.seed})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- (de)serialization ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "args": self.args,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "JobSpec":
        allowed = {"name", "target", "args", "seed", "timeout_s", "retries"}
        unknown = sorted(set(record) - allowed)
        if unknown:
            raise BenchJobError(f"JobSpec: unknown fields {unknown}")
        return cls(**record)

    # -- execution --------------------------------------------------------
    def resolve(self) -> Callable:
        """Import and return this job's callable (validates the target)."""
        return resolve_target(self.target)

    def call_kwargs(self) -> dict:
        kwargs = dict(self.args)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def run(self) -> Any:
        """Resolve and invoke the target; return its canonicalized value.

        The return value is round-tripped through :func:`canonical_json`
        so in-process and worker executions hand back byte-identical
        JSON values (and non-JSON returns fail loudly at the source).
        """
        fn = self.resolve()
        value = fn(**self.call_kwargs())
        try:
            return json.loads(canonical_json(value))
        except BenchJobError as exc:
            raise BenchJobError(
                f"job {self.name!r}: target returned a non-JSON value: "
                f"{exc}") from exc


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job, as recorded in journals and reports."""

    name: str
    fingerprint: str
    status: str = STATUS_OK
    #: JSON value returned by the target (``status == "ok"`` only).
    value: Any = None
    error: Optional[str] = None
    #: Wall-clock seconds of the successful attempt (0.0 when the job
    #: failed).  Progress lines and ``run_all``'s wall table read it; no
    #: report does.
    wall_time_s: float = 0.0
    #: Attempts actually executed (1 = succeeded first try).
    attempts: int = 1
    #: True when the result was replayed from a checkpoint journal.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_cached(self) -> "JobResult":
        return replace(self, cached=True)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "value": self.value,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "JobResult":
        allowed = {"name", "fingerprint", "status", "value", "error",
                   "wall_time_s", "attempts"}
        unknown = sorted(set(record) - allowed)
        if unknown:
            raise BenchJobError(f"JobResult: unknown fields {unknown}")
        return cls(**record)
