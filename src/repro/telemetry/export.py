"""Serialize sampled time series: JSONL, CSV, Prometheus text format.

All exporters are byte-deterministic: series are emitted in canonical
``(name, labels)`` order, JSON objects use ``sort_keys``, and every
timestamp is simulated milliseconds.  Each format is a generator of
text chunks over ``iter_dicts()`` — one series, and so one list of
points, alive at a time; ``*_dumps`` joins the chunks, ``export_*``
writes them as they come.  The writers are plain functions — not sim
processes — so file I/O here never stalls a simulated clock.
"""

from __future__ import annotations

import csv
import io
import json


def _series_dicts(source):
    """Normalize a registry, store, or iterable of dicts to sorted dicts."""
    iter_dicts = getattr(source, "iter_dicts", None)
    if iter_dicts is not None:
        return iter_dicts()
    return sorted(source, key=_dict_key)


def _dict_key(series: dict) -> tuple:
    return (series["name"], tuple(sorted(series.get("labels", {}).items())))


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


# -- CSV ---------------------------------------------------------------

CSV_HEADER = ("name", "kind", "labels", "t_ms", "value")


def _write_csv(source, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for series in _series_dicts(source):
        labels = ";".join(f"{name}={value}"
                          for name, value in sorted(series["labels"].items()))
        for t_ms, value in series["points"]:
            writer.writerow([series["name"], series["kind"], labels,
                             _fmt_value(float(t_ms)), _fmt_value(value)])


def csv_dumps(source) -> str:
    """Long-form CSV: one row per sampled point."""
    buffer = io.StringIO()
    _write_csv(source, buffer)
    return buffer.getvalue()


def export_csv(source, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(source, handle)
    return path


# -- Prometheus text format --------------------------------------------

def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _prom_label_str(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                    for name, value in sorted(labels.items()))
    return "{" + body + "}"


def _prometheus_lines(source):
    seen_families: set = set()
    for series in _series_dicts(source):
        name = series["name"]
        if name not in seen_families:
            seen_families.add(name)
            if series.get("help"):
                yield f"# HELP {name} {series['help']}\n"
            yield f"# TYPE {name} {series['kind']}\n"
        label_str = _prom_label_str(series["labels"])
        for t_ms, value in series["points"]:
            yield (f"{name}{label_str} {_fmt_value(value)} "
                   f"{_fmt_value(float(t_ms))}\n")


def prometheus_dumps(source) -> str:
    """Prometheus exposition text with explicit millisecond timestamps.

    Each sampled point becomes one exposition line stamped with its
    simulated-clock timestamp, so the full timeline round-trips through
    any Prometheus-format tooling.
    """
    return "".join(_prometheus_lines(source))


def export_prometheus(source, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_prometheus_lines(source))
    return path


# -- loading (for the CLI) ---------------------------------------------

def _load_jsonl(text: str) -> list:
    series = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            series.append(json.loads(line))
    return series


def _load_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise ValueError(f"not a telemetry CSV (header {header!r})")
    by_key: dict = {}
    for name, kind, label_str, t_ms, value in reader:
        labels = {}
        if label_str:
            for pair in label_str.split(";"):
                label_name, _, label_value = pair.partition("=")
                labels[label_name] = label_value
        key = (name, tuple(sorted(labels.items())))
        series = by_key.get(key)
        if series is None:
            series = {"name": name, "kind": kind, "labels": labels,
                      "help": "", "points": []}
            by_key[key] = series
        series["points"].append([float(t_ms), float(value)])
    return list(by_key.values())


def load_series(path: str) -> list:
    """Load an exported timeline (JSONL or CSV, auto-detected)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped.startswith("{"):
        return _load_jsonl(text)
    if stripped.startswith("name,"):
        return _load_csv(text)
    raise ValueError(
        f"{path}: unrecognized timeline format (expected JSONL or CSV; "
        f"the Prometheus text format is export-only)")
