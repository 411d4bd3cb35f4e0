"""Command-line entry point: ``python -m repro.obs`` / ``repro-inspect``.

Usage::

    repro-inspect timeline dump.jsonl                      # merged timeline
    repro-inspect timeline dump.jsonl --trace t.json \\
        --metrics m.jsonl --since 40 --until 90            # all three signals
    repro-inspect timeline dump.jsonl --format=html        # shareable table
    repro-inspect explain dump.jsonl                       # every violation
    repro-inspect explain dump.jsonl --key user:42         # one key's chain

``timeline`` merges a flight-recorder dump with the trace and telemetry
exports of the same run into one sim-time-ordered view; ``explain``
walks a key's protocol history and prints the causal transition chain
behind a coherence violation, naming known race signatures.
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
    run_tool,
)
from repro.obs.explain import explain_key, find_violations, render_explain
from repro.obs.export import load_events
from repro.obs.timeline import merge_timeline, render_html, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description=("Post-mortem inspection of flight-recorder dumps: "
                     "merged event/span/metric timelines and causal "
                     "explanations of coherence violations."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    timeline = sub.add_parser(
        "timeline",
        help="merge a dump with trace/metric exports into one timeline",
        parents=[common_parent(formats=("text", "html", "json"), out=True,
                               window=True)],
    )
    timeline.add_argument("dump", type=Path,
                          help="flight-recorder JSONL dump")
    timeline.add_argument("--trace", type=Path, default=None,
                          help="trace export of the same run (adds spans)")
    timeline.add_argument("--metrics", type=Path, default=None,
                          help="telemetry export of the same run "
                               "(adds metric sample ticks)")

    explain = sub.add_parser(
        "explain",
        help="walk a key's event history and explain its violation",
        parents=[common_parent(formats=("text", "json"), out=True,
                               window=True)],
    )
    explain.add_argument("dump", type=Path,
                         help="flight-recorder JSONL dump")
    explain.add_argument("--key", default=None,
                         help="explain this key (default: every key a "
                              "verify violation names)")
    return parser


def main(argv: Optional[list] = None, out=None) -> int:
    return run_tool(build_parser(), _run, argv, out)


def _load_dump(args):
    if not args.dump.exists():
        print(f"error: no such dump file: {args.dump}", file=sys.stderr)
        return None
    try:
        return load_events(args.dump)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {args.dump} is not a flight-recorder dump: {exc}",
              file=sys.stderr)
        return None


def _run(args, out) -> int:
    events = _load_dump(args)
    if events is None:
        return EXIT_USAGE
    if args.command == "timeline":
        return _run_timeline(args, events, out)
    return _run_explain(args, events, out)


def _run_timeline(args, events, out) -> int:
    spans = []
    if args.trace is not None:
        from repro.trace.export import load_trace

        try:
            spans = [span.to_dict() if hasattr(span, "to_dict") else span
                     for span in load_trace(args.trace)]
            for span in spans:
                if not isinstance(span, dict) or "start_ms" not in span \
                        or "span_id" not in span:
                    raise ValueError("not a list of span records")
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError) as exc:
            print(f"error: {args.trace} is not a repro trace export: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    series = []
    if args.metrics is not None:
        from repro.telemetry.export import load_series

        try:
            series = load_series(str(args.metrics))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {args.metrics} is not a telemetry export: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE

    timeline = merge_timeline(events, spans=spans, series=series,
                              since=args.since, until=args.until)
    title = f"timeline: {args.dump}"
    if args.format == "json":
        json.dump(timeline, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.format == "html":
        out.write(render_html(timeline, title=title))
    else:
        out.write(render_text(timeline, title=title))
    return EXIT_OK


def _run_explain(args, events, out) -> int:
    if args.since is not None or args.until is not None:
        events = [event for event in events
                  if (args.since is None or event["t"] >= args.since)
                  and (args.until is None or event["t"] <= args.until)]
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
        json.dump({"explanations": explanations}, out, indent=2,
                  sort_keys=True)
        out.write("\n")
        return EXIT_OK
    for explained in explanations:
        out.write(render_explain(explained,
                                 title=f"explain: {args.dump}"))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
