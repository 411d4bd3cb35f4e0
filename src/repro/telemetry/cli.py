"""Command-line entry point: ``python -m repro.telemetry`` / ``repro-metrics``.

Usage::

    repro-metrics out.jsonl                    # overview + utilization
    repro-metrics out.jsonl --metric NAME      # one metric's timelines
    repro-metrics out.jsonl --anomalies        # SLO/anomaly report
    repro-metrics out.jsonl --format=json      # machine-readable summary
    repro-metrics out.jsonl --since 500 --until 1500   # sim-time window

Accepts JSONL and CSV timeline exports (auto-detected).  All times shown
are simulated milliseconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.cli_common import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    common_parent,
    in_window,
    run_tool,
)
from repro.telemetry.anomaly import detect_anomalies
from repro.telemetry.export import load_series
from repro.telemetry.summary import (
    render_sparkline,
    series_stats,
    utilization_summary,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-metrics",
        description=("Summarize a repro.telemetry timeline export (JSONL "
                     "or CSV): per-metric timelines, a per-node "
                     "utilization summary, and a rule-based SLO/anomaly "
                     "report over simulated time."),
        parents=[common_parent(formats=("text", "json"), out=True,
                               window=True)],
    )
    parser.add_argument("timeline", type=Path,
                        help="timeline file written by the telemetry "
                             "exporters (JSONL or CSV)")
    parser.add_argument("--metric", default=None,
                        help="show only series of this metric name")
    parser.add_argument("--anomalies", action="store_true",
                        help="print only the SLO/anomaly report")
    parser.add_argument("--slo-latency-ms", type=float, default=None,
                        help="also flag windows whose mean request "
                             "latency exceeds this SLO")
    return parser


def _label_str(labels: dict) -> str:
    return ";".join(f"{name}={value}"
                    for name, value in sorted(labels.items()))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _print_series(series_list: list, out) -> None:
    for series in series_list:
        stats = series_stats(series)
        labels = _label_str(stats["labels"])
        title = f"{stats['name']}{{{labels}}}" if labels else stats["name"]
        print(f"{title}", file=out)
        print(f"  kind={stats['kind']} samples={stats['samples']} "
              f"window=[{_fmt(stats['t_first_ms'])}, "
              f"{_fmt(stats['t_last_ms'])}]ms", file=out)
        print(f"  min={_fmt(stats['min'])} mean={_fmt(stats['mean'])} "
              f"p50={_fmt(stats['p50'])} max={_fmt(stats['max'])} "
              f"stddev={_fmt(stats['stddev'])} last={_fmt(stats['last'])}",
              file=out)
        spark = render_sparkline(series)
        if spark:
            print(f"  {spark}", file=out)


def _print_utilization(series_list: list, out) -> None:
    rows = utilization_summary(series_list)
    if not rows:
        return
    print("per-node utilization:", file=out)
    print(f"  {'node':<10} {'cpu mean':>9} {'cpu peak':>9} "
          f"{'queue mean':>11} {'queue peak':>11} {'mem peak':>12}",
          file=out)
    for row in rows:
        print(f"  {row['node']:<10} {_fmt(row.get('cpu_mean')):>9} "
              f"{_fmt(row.get('cpu_peak')):>9} "
              f"{_fmt(row.get('queue_mean')):>11} "
              f"{_fmt(row.get('queue_peak')):>11} "
              f"{_fmt(row.get('memory_peak_bytes')):>12}", file=out)


def _print_anomalies(anomalies: list, out) -> None:
    if not anomalies:
        print("anomalies: none detected", file=out)
        return
    print(f"anomalies: {len(anomalies)} window(s)", file=out)
    for anomaly in anomalies:
        labels = _label_str(dict(anomaly.labels))
        where = f" [{labels}]" if labels else ""
        print(f"  {anomaly.rule}{where} "
              f"t=[{anomaly.start_ms:.0f}, {anomaly.end_ms:.0f}]ms: "
              f"{anomaly.detail}", file=out)


def main(argv: Optional[list] = None, out=None) -> int:
    return run_tool(build_parser(), _run, argv, out)


def _run(args, out) -> int:
    if not args.timeline.exists():
        print(f"error: no such timeline file: {args.timeline}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        series_list = load_series(str(args.timeline))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {args.timeline} is not a telemetry export: {exc}",
              file=sys.stderr)
        return EXIT_USAGE

    if args.metric is not None:
        series_list = [series for series in series_list
                       if series["name"] == args.metric]

    if args.since is not None or args.until is not None:
        windowed = []
        for series in series_list:
            points = [point for point in series["points"]
                      if in_window(point[0], args.since, args.until)]
            if points:
                windowed.append({**series, "points": points})
        series_list = windowed

    anomalies = detect_anomalies(series_list,
                                 slo_latency_ms=args.slo_latency_ms)

    try:
        return _render(args, series_list, anomalies, out)
    except BrokenPipeError:
        # Piped into `head`/`grep -m` which closed early; swap stdout for
        # /dev/null so interpreter shutdown doesn't print a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _render(args, series_list: list, anomalies: list, out) -> int:
    if args.format == "json":
        payload = {
            "series": [series_stats(series) for series in series_list],
            "utilization": utilization_summary(series_list),
            "anomalies": [anomaly.to_dict() for anomaly in anomalies],
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return EXIT_OK

    if args.anomalies:
        _print_anomalies(anomalies, out)
        return EXIT_OK

    if args.metric is not None:
        if not series_list:
            print(f"no series named {args.metric!r}", file=out)
            return EXIT_FAILURE
        _print_series(series_list, out)
        return EXIT_OK

    names = {}
    total_points = 0
    for series in series_list:
        names[series["name"]] = names.get(series["name"], 0) + 1
        total_points += len(series["points"])
    print(f"timeline: {args.timeline}", file=out)
    print(f"  {len(series_list)} series / {len(names)} metrics / "
          f"{total_points} points", file=out)
    for name in sorted(names):
        print(f"  {name:<40} x{names[name]}", file=out)
    print("", file=out)
    _print_utilization(series_list, out)
    print("", file=out)
    _print_anomalies(anomalies, out)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
