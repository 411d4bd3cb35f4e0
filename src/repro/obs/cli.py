"""The one inspection tool: ``repro-inspect`` / ``python -m repro.obs``.

Usage::

    repro-inspect breakdown trace.json                 # Fig. 1-style tables
    repro-inspect breakdown trace.json --ops           # only the per-op table
    repro-inspect metrics metrics.jsonl                # overview + utilization
    repro-inspect metrics metrics.jsonl --metric NAME  # one metric's series
    repro-inspect timeline dump.jsonl trace.json metrics.jsonl \\
        --since 40 --until 90                          # all three signals
    repro-inspect timeline dump.jsonl --format=html    # shareable table
    repro-inspect explain dump.jsonl                   # every violation
    repro-inspect explain dump.jsonl --key user:42     # one key's chain

``breakdown`` reads a trace export, ``metrics`` a telemetry timeline and
``explain`` a flight-recorder dump; ``timeline`` merges up to one log of
each kind into one sim-time-ordered view.  Every file goes through
:func:`repro.cli_common.read_log`, which detects its kind, so a log of
the wrong kind is a usage error (exit 2) that names the kind it found.
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
    LOG_KINDS,
    LogError,
    common_parent,
    read_log,
    run_tool,
)
from repro.obs.explain import explain_key, find_violations, render_explain
from repro.obs.timeline import merge_timeline, render_html, render_text
from repro.telemetry.summary import (
    format_overview,
    format_series,
    series_stats,
    utilization_summary,
)
from repro.trace.summary import (
    category_totals,
    format_breakdown,
    format_ops,
    op_breakdown,
    per_app_requests,
)


def _subcommand(sub, name: str, run, help: str, formats=("text", "json")):
    parser = sub.add_parser(
        name, help=help,
        parents=[common_parent(formats=formats, out=True, window=True)])
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description=("Read back a run's recorded logs: the Fig. 1-style "
                     "latency breakdown of a trace, the summary of a "
                     "telemetry timeline, merged event/span/metric "
                     "timelines and causal explanations of coherence "
                     "violations."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    breakdown = _subcommand(
        sub, "breakdown", _breakdown,
        "summarize a trace export into a Fig. 1-style breakdown")
    breakdown.add_argument("trace", type=Path,
                           help="trace export (Chrome trace_event JSON)")
    breakdown.add_argument("--ops", action="store_true",
                           help="print only the per-op table")

    metrics = _subcommand(
        sub, "metrics", _metrics,
        "summarize a telemetry timeline: series, utilization")
    metrics.add_argument("timeline", type=Path,
                         help="telemetry timeline export (JSONL)")
    metrics.add_argument("--metric", default=None,
                         help="show only series of this metric name")

    timeline = _subcommand(
        sub, "timeline", _timeline,
        "merge a run's dump, trace and timeline into one timeline",
        formats=("text", "html", "json"))
    timeline.add_argument("files", type=Path, nargs="+", metavar="FILE",
                          help="a flight-recorder dump, trace export or "
                               "telemetry timeline of one run, at most "
                               "one of each (the kind is detected)")

    explain = _subcommand(
        sub, "explain", _explain,
        "walk a key's event history and explain its violation")
    explain.add_argument("dump", type=Path,
                         help="flight-recorder JSONL dump")
    explain.add_argument("--key", default=None,
                         help="explain this key (default: every key a "
                              "verify violation names)")
    return parser


def main(argv: Optional[list] = None, out=None) -> int:
    return run_tool(build_parser(), lambda args, out: args.run(args, out),
                    argv, out)


def _dump_json(payload: dict, out) -> int:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def _breakdown(args, out) -> int:
    spans = read_log(args.trace, args.since, args.until, "trace").records
    if args.format == "json":
        return _dump_json({
            "spans": len(spans),
            "per_app": per_app_requests(spans),
            "ops": {f"{scheme}:{name}": stats for (scheme, name), stats
                    in sorted(op_breakdown(spans).items())},
            "categories": category_totals(spans),
        }, out)
    out.write(format_ops(spans) if args.ops else
              format_breakdown(spans, title=f"trace: {args.trace}"))
    return EXIT_OK


def _metrics(args, out) -> int:
    series_list = read_log(args.timeline, args.since, args.until,
                           "timeline").records
    if args.metric is not None:
        series_list = [series for series in series_list
                       if series["name"] == args.metric]
    if args.format == "json":
        return _dump_json({
            "series": [series_stats(series) for series in series_list],
            "utilization": utilization_summary(series_list),
        }, out)
    if args.metric is None:
        out.write(format_overview(series_list,
                                  title=f"timeline: {args.timeline}"))
    elif series_list:
        out.write(format_series(series_list))
    else:
        print(f"no series named {args.metric!r}", file=out)
        return EXIT_FAILURE
    return EXIT_OK


def _timeline(args, out) -> int:
    # Read whole: a metric row's tick counts every sampling instant of
    # the run, so merge_timeline applies the window itself.
    logs: dict = {}
    for path in args.files:
        log = read_log(path)
        if log.kind in logs:
            raise LogError(f"{path} is a second {LOG_KINDS[log.kind][0]}; "
                           "timeline merges one log of each kind")
        if log.kind is not None:
            logs[log.kind] = log.records
    timeline = merge_timeline(logs.get("dump", []), spans=logs.get("trace"),
                              series=logs.get("timeline"),
                              since=args.since, until=args.until)
    title = f"timeline: {args.files[0]}"
    if args.format == "json":
        return _dump_json(timeline, out)
    render = render_html if args.format == "html" else render_text
    out.write(render(timeline, title=title))
    return EXIT_OK


def _explain(args, out) -> int:
    events = read_log(args.dump, args.since, args.until, "dump").records
    if args.key is not None:
        keys = [args.key]
    else:
        keys = []
        for violation in find_violations(events):
            if violation["key"] and violation["key"] not in keys:
                keys.append(violation["key"])
        if not keys:
            print("no verify violations recorded; pass --key to walk a "
                  "key's history anyway", file=out)
            return EXIT_FAILURE
    explanations = [explain_key(events, key) for key in keys]
    if args.format == "json":
        return _dump_json({"explanations": explanations}, out)
    for explained in explanations:
        out.write(render_explain(explained,
                                 title=f"explain: {args.dump}"))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
