"""Failure recovery bookkeeping (paper Section III-F).

When the coordination service declares a cache instance failed, every
surviving agent: evicts locally-cached items homed at the failed node,
prunes the failed node from its directory's sharer sets, removes it from
its hash ring, and acknowledges to the application controller.  The
controller lifts the read barrier only once *all* survivors have
acknowledged — this is the guarantee that no cache can read the new value
from storage while another can still read a stale cached copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RecoveryTracker:
    """Controller-side ack counting for one declaration of a failed
    member."""

    failed_member: str
    #: When the member was declared failed (the declaration's name).
    declared_ms: float = 0.0
    #: Survivors that still owe an acknowledgement.
    awaiting: set = field(default_factory=set)
    #: Acks that arrived before the controller processed the failure
    #: itself (notification order is not guaranteed).
    early_acks: set = field(default_factory=set)
    complete: bool = False

    def ack(self, member: str) -> bool:
        """Record an ack; returns True when recovery just completed."""
        if self.complete:
            return False
        if not self.awaiting:
            self.early_acks.add(member)
            return False
        self.awaiting.discard(member)
        if not self.awaiting:
            self.complete = True
            return True
        return False

    def arm(self, survivors: set) -> bool:
        """Set the survivor set; returns True if already complete."""
        self.awaiting = set(survivors) - self.early_acks
        self.early_acks.clear()
        if not self.awaiting:
            self.complete = True
            return True
        return False

    def survivor_lost(self, member: str) -> bool:
        """A survivor failed too; stop waiting for it."""
        self.awaiting.discard(member)
        if not self.awaiting and not self.complete:
            self.complete = True
            return True
        return False
