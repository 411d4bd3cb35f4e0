"""Shared argparse surface for the ``repro-*`` command-line tools.

All four console scripts — ``repro-analyze``, ``repro-trace``,
``repro-metrics``, ``repro-inspect`` — build their parsers on the parent
returned by :func:`common_parent` and run through :func:`run_tool`, so
the flags every tool shares are spelled, typed and documented
identically everywhere:

``--format {text,json,...}``
    Output format (default ``text``; a tool may offer extra formats,
    e.g. ``sarif`` for repro-analyze).
``--out PATH``
    Write the tool's output to ``PATH`` instead of stdout.
``--since T`` / ``--until T``
    Sim-time window (milliseconds) the tool restricts itself to, where
    the tool reads recorded timelines (repro-trace, repro-metrics,
    repro-inspect).  Point records are kept when ``since <= t <= until``;
    ranged records (spans) when they overlap the window.

Exit-code contract (identical across all four tools):

===  ====================================================================
0    success
1    tool-level failure: error findings, empty metric selection
2    usage or I/O error: unknown flags, missing or unreadable input
     file, malformed input, unwritable ``--out``
===  ====================================================================

argparse itself exits 2 on unknown flags, which is why 2 doubles as the
usage code here.  Every exit-2 message goes to stderr, never to the
``--out`` file or the output stream: a report file holds a report or
nothing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "common_parent",
    "output_stream",
    "run_tool",
    "in_window",
    "overlaps_window",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def common_parent(
    *,
    formats: Optional[Sequence[str]] = None,
    out: bool = False,
    window: bool = False,
) -> argparse.ArgumentParser:
    """Build the shared parent parser (``add_help=False``).

    Each tool enables the subset of shared flags it supports; enabled
    flags carry identical spelling and semantics across tools.  Pass the
    result via ``argparse.ArgumentParser(parents=[...])``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if formats is not None:
        parent.add_argument(
            "--format", choices=tuple(formats), default="text",
            help="output format (default: text)")
    if out:
        parent.add_argument("--out", default=None, metavar="PATH",
                            help="write output to PATH instead of stdout")
    if window:
        parent.add_argument(
            "--since", type=float, default=None, metavar="T",
            help="restrict to simulated time >= T milliseconds")
        parent.add_argument(
            "--until", type=float, default=None, metavar="T",
            help="restrict to simulated time <= T milliseconds")
    return parent


def in_window(t: float, since: Optional[float],
              until: Optional[float]) -> bool:
    """Shared ``--since/--until`` semantics for point records."""
    if since is not None and t < since:
        return False
    if until is not None and t > until:
        return False
    return True


def overlaps_window(start: float, end: float, since: Optional[float],
                    until: Optional[float]) -> bool:
    """Shared ``--since/--until`` semantics for ranged records (spans)."""
    if since is not None and end < since:
        return False
    if until is not None and start > until:
        return False
    return True


class output_stream:
    """Context manager for the stream tool output should go to.

    ``path`` is the tool's ``--out`` value: None yields ``fallback``
    (stdout unless the caller injected a stream for testing); a path
    yields a freshly opened text file, closed on exit.  ``OSError`` from
    an unwritable path propagates — callers map it to exit code 2.
    """

    def __init__(self, path: Optional[str], fallback=None):
        self._path = path
        self._fallback = fallback
        self._handle = None

    def __enter__(self):
        if self._path is None:
            return self._fallback if self._fallback is not None else sys.stdout
        self._handle = open(self._path, "w", encoding="utf-8")
        return self._handle

    def __exit__(self, *exc_info):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return False


def run_tool(parser: argparse.ArgumentParser, run, argv=None,
             out=None) -> int:
    """The one ``main()`` body of every tool.

    Parses ``argv`` and returns ``run(args, stream)`` with ``stream`` the
    ``--out`` file, or ``out`` / stdout without one.  An ``--out`` that
    cannot be written exits :data:`EXIT_USAGE`; any other ``OSError``
    propagates.
    """
    args = parser.parse_args(argv)
    try:
        with output_stream(args.out, out) as stream:
            return run(args, stream)
    except OSError as exc:
        if args.out is None:
            raise
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
