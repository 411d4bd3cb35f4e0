"""Serialize sampled time series as JSONL, and read them back.

JSONL is telemetry's one export format: ``repro-inspect metrics`` and
``repro-inspect timeline`` read it back (:func:`loads_series`).  It is
byte-deterministic: series are emitted in canonical ``(name, labels)``
order, JSON objects use ``sort_keys``, and every timestamp is simulated
milliseconds.  The writer is a generator of lines over ``iter_dicts()``
— one series, and so one list of points, alive at a time;
:func:`jsonl_dumps` joins the lines, :func:`export_jsonl` writes them as
they come.  It is a plain function — not a sim process — so file I/O
here never stalls a simulated clock.
"""

from __future__ import annotations

import json

#: Fields every series record carries (load-time validation).
_REQUIRED = ("name", "kind", "labels", "points")


def _series_dicts(source):
    """Normalize a registry, store, or iterable of dicts to sorted dicts."""
    iter_dicts = getattr(source, "iter_dicts", None)
    if iter_dicts is not None:
        return iter_dicts()
    return sorted(source, key=_dict_key)


def _dict_key(series: dict) -> tuple:
    return (series["name"], tuple(sorted(series.get("labels", {}).items())))


# -- JSONL -------------------------------------------------------------

def _jsonl_lines(source):
    for series in _series_dicts(source):
        yield json.dumps(series, sort_keys=True, separators=(",", ":")) + "\n"


def jsonl_dumps(source) -> str:
    """One canonical JSON object per series, one series per line."""
    return "".join(_jsonl_lines(source))


def export_jsonl(source, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_jsonl_lines(source))
    return path


# -- loading ---------------------------------------------------------

def loads_series(text: str) -> list:
    """Parse a JSONL timeline into series dicts (validated, file order)."""
    series = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: not a series object")
        missing = [field for field in _REQUIRED if field not in record]
        if missing:
            raise ValueError(
                f"line {lineno}: series record missing {missing}")
        if not isinstance(record["points"], list):
            raise ValueError(f"line {lineno}: points is not a list")
        series.append(record)
    return series


def load_series(path: str) -> list:
    """Read an exported JSONL timeline into series dicts."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_series(handle.read())
