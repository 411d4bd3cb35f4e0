"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party supplies ``cause`` to describe why; the
    interrupted process may catch the exception and continue.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"
