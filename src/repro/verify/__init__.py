"""Explicit-state model checking of the Concord coherence protocol.

A Python stand-in for the paper's TLA+/TLC verification (Section III-H):
the protocol is abstracted to atomic transitions (the home serializes all
directory operations), and a breadth-first search explores every reachable
state of a small configuration, checking the paper's invariants:

- coherence states are correct (at most one Exclusive copy; Exclusive
  excludes all other valid copies);
- a read of a valid cache location returns the value last written
  (with write-through, every valid copy equals storage);
- the directory tracks every valid copy (when no recovery is pending);
- no deadlock: every non-quiescent state has an enabled action.

Modelled events, as in the paper: Local/Remote Read/Write Hit, Read/Write
Miss, DataEvict, NodeFail, RecoverOnFail, DomainChange.

Only the causal history checks (which the zoo schemes run inline) are
imported with the package; the model checker, the end-state checks and
the verdict on a whole run (:func:`check_run`) load on first use.
"""

from repro import lazy_exports
from repro.verify.causal import (
    CausalOp,
    check_bounded_staleness,
    check_session_guarantees,
)

__getattr__ = lazy_exports(__name__, {
    "model": ("CheckReport", "ModelChecker", "ModelConfig", "ModelState",
              "enabled_transitions"),
    "runtime": ("CoherenceViolation", "assert_coherent", "check_coherence"),
    "verdict": ("check_run", "check_scheme_invariants"),
})

__all__ = [
    "CausalOp",
    "CheckReport",
    "CoherenceViolation",
    "ModelChecker",
    "ModelConfig",
    "ModelState",
    "assert_coherent",
    "check_bounded_staleness",
    "check_coherence",
    "check_run",
    "check_scheme_invariants",
    "check_session_guarantees",
    "enabled_transitions",
]
