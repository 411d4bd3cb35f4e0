"""Shared argparse surface and log reader for the ``repro-*`` tools.

Both console scripts — ``repro-analyze`` and ``repro-inspect`` — build
their parsers on the parent returned by :func:`common_parent` and run
through :func:`run_tool`, so the flags they share are spelled, typed and
documented identically:

``--format {text,json,...}``
    Output format (default ``text``; a tool may offer extra formats,
    e.g. ``sarif`` for repro-analyze).
``--out PATH``
    Write the tool's output to ``PATH`` instead of stdout.
``--since T`` / ``--until T``
    Sim-time window (milliseconds) over a recorded log (repro-inspect).
    Point records (events, metric points) are kept when
    ``since <= t <= until``; ranged records (spans) when they overlap
    the window.

Every recorded log is read by :func:`read_log`: it tells the three
kinds apart by their content — a Chrome ``traceEvents`` document is a
trace export, JSONL of event records a flight-recorder dump, JSONL of
series with ``points`` a telemetry timeline — validates each record
with that kind's loader, and applies the window.  A log it cannot read
raises :class:`LogError`, which :func:`run_tool` reports.

Exit-code contract (identical across the tools):

===  ====================================================================
0    success
1    tool-level failure: error findings, empty metric selection
2    usage or I/O error: unknown flags, missing or unreadable input
     file, malformed input or a log of the wrong kind, unwritable
     ``--out``
===  ====================================================================

argparse itself exits 2 on unknown flags, which is why 2 doubles as the
usage code here.  Every exit-2 message goes to stderr, never to the
``--out`` file or the output stream: a report file holds a report or
nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "LOG_KINDS",
    "Log",
    "LogError",
    "common_parent",
    "output_stream",
    "read_log",
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


# -- the one log reader ------------------------------------------------

#: kind -> (what messages call it, module and function that parse it).
LOG_KINDS = {
    "trace": ("trace export", "repro.trace.export", "loads_trace"),
    "dump": ("flight-recorder dump", "repro.obs.export", "loads_events"),
    "timeline": ("telemetry timeline", "repro.telemetry.export",
                 "loads_series"),
}


class LogError(Exception):
    """A log a tool cannot read: missing, malformed or of the wrong kind."""


class Log(NamedTuple):
    """A validated, windowed log: its kind and its records.

    ``kind`` is a :data:`LOG_KINDS` key, or None for an empty file read
    without an expected kind."""

    kind: Optional[str]
    records: list


def _kind_of(path: Path, text: str) -> Optional[str]:
    """The kind of log ``text`` holds, from its first JSON value."""
    if not text.strip():
        return None
    try:
        first, _end = json.JSONDecoder().raw_decode(text.lstrip())
    except ValueError as exc:
        raise LogError(f"{path} is not JSON: {exc}") from None
    if isinstance(first, dict):
        if "traceEvents" in first:
            return "trace"
        if "points" in first:
            return "timeline"
        if "seq" in first and "type" in first:
            return "dump"
    raise LogError(f"{path} is JSON but not a trace export, "
                   "flight-recorder dump or telemetry timeline")


def _windowed(kind: str, records: list, since, until) -> list:
    if kind == "trace":
        return [span for span in records
                if overlaps_window(span["start_ms"], span["end_ms"],
                                   since, until)]
    if kind == "dump":
        return [event for event in records
                if in_window(event["t"], since, until)]
    windowed = []
    for series in records:
        points = [point for point in series["points"]
                  if in_window(point[0], since, until)]
        if points:
            windowed.append({**series, "points": points})
    return windowed


def read_log(path, since: Optional[float] = None,
             until: Optional[float] = None,
             kind: Optional[str] = None) -> Log:
    """Read one recorded log: check, detect, validate, window.

    ``kind`` names the one kind the caller accepts (a :data:`LOG_KINDS`
    key); an empty file is an empty log of that kind.  Raises
    :class:`LogError` for a missing or unreadable file, text that is not
    one of the three kinds, a record its kind's loader rejects, and a
    log of a kind other than ``kind``.
    """
    path = Path(path)
    what = f"{kind} " if kind is not None else ""
    if not path.is_file():
        raise LogError(f"no such {what}file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LogError(f"cannot read {path}: {exc}") from None
    found = _kind_of(path, text)
    if found is None:
        return Log(kind, [])
    name, module, parser = LOG_KINDS[found]
    if kind is not None and found != kind:
        raise LogError(f"{path} is a {name}, not a {LOG_KINDS[kind][0]}")
    try:
        records = getattr(importlib.import_module(module), parser)(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise LogError(f"{path} is not a valid {name}: {exc}") from None
    if since is not None or until is not None:
        records = _windowed(found, records, since, until)
    return Log(found, records)


# -- output and the one main() -----------------------------------------

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
    ``--out`` file, or ``out`` / stdout without one.  A :class:`LogError`
    or an ``--out`` that cannot be written exits :data:`EXIT_USAGE` with
    the message on stderr; a reader that closes the pipe early (``head``)
    ends the run quietly; any other ``OSError`` propagates.
    """
    args = parser.parse_args(argv)
    try:
        with output_stream(args.out, out) as stream:
            return run(args, stream)
    except LogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Swap stdout for /dev/null so interpreter shutdown does not
        # print a traceback flushing into the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        if args.out is None:
            raise
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
