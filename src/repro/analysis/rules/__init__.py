"""Rule plugins: importing this package populates the rule registry.

Add a new rule family by creating a module here that defines
:class:`~repro.analysis.engine.Rule` subclasses decorated with
:func:`~repro.analysis.engine.register`, then import it below.
"""

from repro.analysis.rules import atomicity, determinism

__all__ = ["atomicity", "determinism"]
